"""Command-line front-end.

Commands: analyze, pareto, copositive, minimize, probe, generate.
Reports are deterministic for identical inputs and flags; verdicts are
payload, not failures, so the exit code contract is simply
0 = completed, 2 = input/parameter error, 3 = internal numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import sys

import numpy as np

from . import __version__
from .certify import certify
from .config import DEFAULT, Config
from .cones import is_copositive, pareto_spectrum
from .genex import (
    make_diag_two_eig,
    make_householder,
    make_negative_positive,
    make_positive_basis,
    make_three_eigenvalue,
)
from .linalg import ConvergenceError
from .matrixdoc import dumps, load_path
from .probe import falsify, minimize_orthant

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _jsonable(obj):
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {json.dumps(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(v)}")
    else:
        lines.append(f"{pad}{json.dumps(value)}")
    return lines


def _emit(report: dict, args) -> None:
    report = _jsonable(report)
    if args.format == "structured":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(_render_text(report)) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config(args) -> Config:
    return Config(
        tol_margin=args.tol_margin,
        tol_sign=args.tol_sign,
        max_exact_dim=args.max_exact_dim,
        samples=args.samples,
        seed=args.seed,
    )


def _pareto(A, cfg: Config) -> dict:
    spectrum = pareto_spectrum(A, cfg)
    return {
        "min_value": spectrum.min_value,
        "exact": spectrum.exact,
        "pairs": [
            {"value": p.value, "vector": p.vector, "support": list(p.support)}
            for p in spectrum.pairs
        ],
    }


def _minimum(A, cfg: Config) -> dict:
    result = minimize_orthant(A, cfg)
    return {
        "value": result.value,
        "argmin": result.argmin.coords,
        "method": result.method,
        "iterations": result.iterations,
        "boundary_hit": result.boundary_hit,
    }


# command -> (report key, payload(matrix, config), help); the lambdas look
# their function up at call time, so patching it on this module takes effect
COMMANDS = {
    "analyze": ("verdict", lambda A, cfg: certify(A, cfg),
                "certify or refute quasi-convexity"),
    "pareto": ("pareto", _pareto, "list all Pareto eigenpairs"),
    "copositive": ("copositive", lambda A, cfg: is_copositive(A, cfg),
                   "exact copositivity verdict"),
    "minimize": ("minimum", _minimum, "minimum of the form on the orthant patch"),
    "probe": ("probe",
              lambda A, cfg: falsify(A, cfg.samples, cfg.seed, tol_margin=cfg.tol_margin),
              "sampling falsifier"),
}


def cmd_matrix(args) -> int:
    """Load the document, run the command's payload and emit the report:
    the base fields, then the payload under the command's report key."""
    key, payload, _ = COMMANDS[args.command]
    doc = load_path(args.matrix)
    cfg = _config(args)
    result = payload(doc.matrix, cfg)
    report = {
        "command": args.command,
        "version": __version__,
        "input_digest": doc.digest(),
        "config": cfg.as_dict(),
    }
    if doc.name:
        report["name"] = doc.name
    report[key] = result
    _emit(report, args)
    return EXIT_OK


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated list of numbers: {text!r}") from exc


def cmd_generate(args) -> int:
    family = args.family
    if family == "three-eig":
        eigs = _parse_floats(args.eigs or "")
        if len(eigs) != 3:
            raise ValueError("three-eig needs --eigs lam,mu,nu")
        A = make_three_eigenvalue(args.n, *eigs)
    elif family == "positive-basis":
        eigs = _parse_floats(args.eigs or "")
        n = args.n or len(eigs)
        A = make_positive_basis(n, eigs)
    elif family == "householder":
        if not args.v:
            raise ValueError("householder needs --v components")
        A = make_householder(_parse_floats(args.v))
    elif family == "diag-two-eig":
        eigs = _parse_floats(args.eigs or "")
        if len(eigs) != 2:
            raise ValueError("diag-two-eig needs --eigs lam,mu")
        A = make_diag_two_eig(args.n, *eigs)
    elif family == "negative-positive":
        A = make_negative_positive(args.n, args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown family {family!r}")
    text = dumps(A, name=args.name)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-margin", type=float, default=DEFAULT.tol_margin)
    parser.add_argument("--tol-sign", type=float, default=DEFAULT.tol_sign)
    parser.add_argument("--max-exact-dim", type=int, default=DEFAULT.max_exact_dim)
    parser.add_argument("--samples", type=int, default=DEFAULT.samples)
    parser.add_argument("--seed", type=int, default=DEFAULT.seed)
    parser.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="text (human readable) or structured (JSON)",
    )
    parser.add_argument("--out", help="write the report to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadsphere",
        description=(
            "Certify, refute or probe quasi-convexity of a quadratic form on "
            "the nonnegative orthant patch of the unit sphere."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, _, doc) in COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        p.add_argument("matrix", help="path to a matrix document (JSON)")
        _add_common(p)
        p.set_defaults(func=cmd_matrix)

    g = sub.add_parser("generate", help="construct a certified example family")
    g.add_argument(
        "family",
        choices=(
            "three-eig",
            "positive-basis",
            "householder",
            "diag-two-eig",
            "negative-positive",
        ),
    )
    g.add_argument("--n", type=int, default=3)
    g.add_argument("--eigs", help="comma-separated eigenvalue parameters")
    g.add_argument("--v", help="comma-separated vector components")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--name", help="optional instance name")
    g.add_argument("--out", help="write the matrix document to this file")
    g.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; keep the contract
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, RuntimeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
