"""Intrinsic geometry of the unit sphere restricted to what the certifier needs:
distances, minimal geodesic segments, the spherical gradient of the quadratic
form, and seeded sampling of the strictly positive orthant patch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SymMatrix, as_sym_matrix

__all__ = [
    "SpherePoint",
    "GeodesicSegment",
    "intrinsic_distance",
    "geodesic_eval",
    "spherical_gradient_q",
]

# endpoints closer than this are treated as coincident (constant geodesic)
_COINCIDENT_TOL = 1e-12
# endpoints farther than pi - this require an explicit tangent direction
_ANTIPODAL_TOL = 1e-9


class SpherePoint:
    """A point on the unit sphere; renormalized on construction."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        x = np.array(coords, dtype=float)
        if x.ndim != 1 or x.shape[0] < 1:
            raise ValueError("coordinates must be a 1-d vector")
        if not np.all(np.isfinite(x)):
            raise ValueError("coordinates must be finite")
        nrm = float(np.linalg.norm(x))
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        x = x / nrm
        x.setflags(write=False)
        object.__setattr__(self, "coords", x)

    def __setattr__(self, name, value):
        raise AttributeError("SpherePoint is immutable")

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def __repr__(self):
        return f"SpherePoint({self.coords.tolist()!r})"


def as_point(x) -> SpherePoint:
    if isinstance(x, SpherePoint):
        return x
    return SpherePoint(x)


def intrinsic_distance(x, y) -> float:
    """Arc length between two sphere points, in [0, pi].

    The inner product is clamped to [-1, 1] before arccos; floating point can
    exceed the bound by a few ulps.
    """
    x, y = as_point(x), as_point(y)
    ip = float(np.clip(np.dot(x.coords, y.coords), -1.0, 1.0))
    return float(np.arccos(ip))


@dataclass(frozen=True)
class GeodesicSegment:
    """Minimal geodesic segment from x to y, parameterized over [0, 1].

    For antipodal endpoints the segment is not unique and
    ``antipodal_direction`` (a unit tangent at x) must be supplied.
    """

    x: SpherePoint
    y: SpherePoint
    length: float
    antipodal_direction: np.ndarray | None = None

    @staticmethod
    def connect(x, y, antipodal_direction=None) -> "GeodesicSegment":
        x, y = as_point(x), as_point(y)
        d = intrinsic_distance(x, y)
        direction = None
        if d > np.pi - _ANTIPODAL_TOL:
            if antipodal_direction is None:
                raise ValueError(
                    "antipodal endpoints: supply a unit tangent direction at x"
                )
            v = np.array(antipodal_direction, dtype=float)
            v = v / np.linalg.norm(v)
            if abs(float(np.dot(v, x.coords))) > 1e-12:
                raise ValueError("antipodal direction must be tangent at x")
            v.setflags(write=False)
            direction = v
        return GeodesicSegment(x=x, y=y, length=d, antipodal_direction=direction)


def geodesic_eval(g: GeodesicSegment, t: float) -> SpherePoint:
    """Evaluate the geodesic at parameter t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"parameter t must lie in [0, 1], got {t}")
    x = g.x.coords
    y = g.y.coords
    d = g.length
    if d < _COINCIDENT_TOL:
        return g.x
    if d > np.pi - _ANTIPODAL_TOL:
        if g.antipodal_direction is None:
            raise ValueError(
                "antipodal endpoints: supply a unit tangent direction at x"
            )
        arc = t * np.pi
        return SpherePoint(np.cos(arc) * x + np.sin(arc) * g.antipodal_direction)
    ip = float(np.clip(np.dot(x, y), -1.0, 1.0))
    s = np.sqrt(1.0 - ip * ip)
    td = t * d
    coeff_x = np.cos(td) - ip * np.sin(td) / s
    coeff_y = np.sin(td) / s
    return SpherePoint(coeff_x * x + coeff_y * y)


def spherical_gradient_q(A: SymMatrix, x) -> np.ndarray:
    """Gradient of q_A(x) = <Ax, x> on the sphere: 2(Ax - <Ax, x> x).

    The result lies in the tangent space at x.
    """
    A = as_sym_matrix(A)
    x = as_point(x)
    if A.n != x.n:
        raise ValueError("dimension mismatch between matrix and point")
    ax = A.a @ x.coords
    return 2.0 * (ax - float(ax @ x.coords) * x.coords)


def sample_orthant_array(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sample of ``count`` unit vectors with strictly positive coordinates,
    one per row: componentwise absolute values of standard normal draws,
    normalized, i.e. uniform on the orthant patch.  Deterministic per
    (n, count, state of ``rng``).
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    pts = np.abs(rng.standard_normal((count, n)))
    # an exactly-zero coordinate has measure zero but would break strict
    # positivity; nudge any such draw away from the boundary
    pts[pts == 0.0] = np.finfo(float).tiny
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts
