"""Points of the unit sphere and seeded sampling of the strictly positive
orthant patch.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SpherePoint"]


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
