"""Command-line front-end.

Commands: analyze, pareto, copositive, minimize, probe, generate.
Reports are deterministic for identical inputs and flags; verdicts are
payload, not failures, so the exit code contract is simply
0 = completed, 2 = input/parameter error (an array too large for memory
included), 3 = internal numerical failure.

Every run starts a fresh interpreter, so a command loads only what it runs:
``generate`` imports quadsphere.genex and ``minimize`` and ``probe`` import
quadsphere.probe when they run, and the parser builds the arguments of the
one matrix command being run.  ``analyze`` loads the decision chain and
quadsphere.matrixdoc, and quadsphere.edge only when step 5 finds
max b_ii above lambda2 by more than the tie tolerance.

entry, the console script and ``python -m quadsphere.cli``, freezes the
collector's heap (gc.freeze) before main runs.  What the imports created
lives until the process ends, about 22k tracked objects, and the full
collections at interpreter exit would otherwise walk all of them again,
after the report has been written; frozen objects are never collected, and
what main creates is collected as usual.  Only entry freezes: it owns the
process, while ``import quadsphere`` and an in-process main leave their
caller's collector as they found it.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import gc
import json
import sys

import numpy as np

from . import __version__
from .certify import certify
from .config import DEFAULT, Config
from .cones import is_copositive, pareto_spectrum
from .linalg import ConvergenceError
from .matrixdoc import dumps, load_path
from .sphere import SpherePoint

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
    if isinstance(obj, SpherePoint):
        return obj.coords.tolist()
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


def _emit(text: str, out) -> None:
    """Write ``text`` to the file ``out``, or to stdout when it is unset."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# the Config fields the matrix commands take as flags (--tol-margin, ...)
_FLAGS = ("tol_margin", "tol_sign", "max_exact_dim", "samples", "seed")

def _minimize(A, cfg):
    from .probe import minimize_orthant

    return minimize_orthant(A, cfg)


def _falsify(A, cfg):
    from .probe import falsify

    return falsify(A, cfg.samples, cfg.seed, tol_margin=cfg.tol_margin)


# command -> (report key, payload(matrix, config), help); the lambdas look
# their function up at call time, so patching it on this module takes effect
COMMANDS = {
    "analyze": ("verdict", lambda A, cfg: certify(A, cfg),
                "certify or refute quasi-convexity"),
    "pareto": ("pareto", lambda A, cfg: pareto_spectrum(A, cfg),
               "list all Pareto eigenpairs"),
    "copositive": ("copositive", lambda A, cfg: is_copositive(A, cfg),
                   "exact copositivity verdict"),
    "minimize": ("minimum", _minimize, "minimum of the form on the orthant patch"),
    "probe": ("probe", _falsify, "sampling falsifier"),
}


def cmd_matrix(args) -> int:
    """Load the document, run the command's payload and emit the report:
    the base fields, then the payload under the command's report key."""
    key, payload, _ = COMMANDS[args.command]
    doc = load_path(args.matrix)
    cfg = Config(**{name: getattr(args, name) for name in _FLAGS})
    report = {
        "command": args.command,
        "version": __version__,
        "input_digest": doc.digest(),
        "config": cfg.as_dict(),
    }
    if doc.name:
        report["name"] = doc.name
    report[key] = payload(doc.matrix, cfg)
    report = _jsonable(report)
    if args.format == "structured":
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit("\n".join(_render_text(report)) + "\n", args.out)
    return EXIT_OK


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated list of numbers: {text!r}") from exc


def cmd_generate(args) -> int:
    from . import genex

    family = args.family
    n = 3 if args.n is None else args.n
    if family == "three-eig":
        eigs = _parse_floats(args.eigs or "")
        if len(eigs) != 3:
            raise ValueError("three-eig needs --eigs lam,mu,nu")
        A = genex.make_three_eigenvalue(n, *eigs)
    elif family == "positive-basis":
        eigs = _parse_floats(args.eigs or "")
        A = genex.make_positive_basis(len(eigs) if args.n is None else n, eigs)
    elif family == "householder":
        if not args.v:
            raise ValueError("householder needs --v components")
        A = genex.make_householder(_parse_floats(args.v))
    elif family == "diag-two-eig":
        eigs = _parse_floats(args.eigs or "")
        if len(eigs) != 2:
            raise ValueError("diag-two-eig needs --eigs lam,mu")
        A = genex.make_diag_two_eig(n, *eigs)
    elif family == "negative-positive":
        A = genex.make_negative_positive(n, args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown family {family!r}")
    _emit(dumps(A, name=args.name), args.out)
    return EXIT_OK


# help for the flags that not every command reads
_FLAG_HELP = {
    "samples": "sampling budget of the probe command's falsifier",
    "seed": "seed of the probe command's falsifier and of minimize's descent starts",
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    for name in _FLAGS:
        default = getattr(DEFAULT, name)
        parser.add_argument("--" + name.replace("_", "-"), type=type(default),
                            default=default, help=_FLAG_HELP.get(name))
    parser.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="text (human readable) or structured (JSON)",
    )
    parser.add_argument("--out", help="write the report to this file")


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for ``argv``: every command is listed, but only the matrix
    command that ``argv`` runs gets its arguments, since building the other
    four sets is start-up time that no run uses.  That command is argv[0]:
    the top-level options (--help, --version) exit before any command."""
    command = argv[0] if argv else None
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
        if name == command:
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
    g.add_argument("--n", type=int, help="dimension (default 3; positive-basis: len of --eigs)")
    g.add_argument("--eigs", help="comma-separated eigenvalue parameters")
    g.add_argument("--v", help="comma-separated vector components")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--name", help="optional instance name")
    g.add_argument("--out", help="write the matrix document to this file")
    g.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; keep the contract
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, RuntimeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    gc.freeze()  # see the module docstring
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
