"""Command-line front end.

Reads problem JSON, runs classification / representation / decision /
verification, and emits deterministic JSON (or CSV for sweeps).
"""
from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys

from . import jsonio
from .core import (
    ExponentVector,
    Family,
    FunctionFamily,
    MomentVector,
    NormVector,
    Representation,
    index_of,
)
from .errors import (DomainError, KolmoError, NotInteriorError, PinnedNodeCoincidenceError,
                     UnsupportedSystemError)
from .kolmogorov import decide_admissible, decide_status
from .oracle import DEFAULT_FEASIBILITY_TOL, cone_membership
from .representations import (
    ACCEPT_TOL,
    canonical_representation,
    classify,
    principal_representation,
)
from .splines import IdealSpline, norms, random_member

log = logging.getLogger("kolmo")

EXIT_OK = 0
EXIT_COUNTEREXAMPLES = 1
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL_FAILURE = 3


class InputError(Exception):
    """Malformed or schema-violating input document."""


def _configure_logging():
    level = os.environ.get("KOLMO_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR))


def _read_input(path: str | None) -> dict:
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        doc = json.loads(text)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read input: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("input must be a JSON object")
    return doc


def _write_output(path: str | None, text: str):
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _number(v):
    """v if it is a JSON number: a boolean or a numeric string is not one."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a finite JSON number, got {v!r}")
    return v


def _integer(v) -> int:
    """int(v) of a JSON number without truncation: 2.0 is 2, 1.5 is rejected."""
    v = _number(v)
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def _parse_exponents(doc: dict, r: int | None = None) -> ExponentVector:
    try:
        if not isinstance(doc["k"], list):
            raise TypeError(f"got {type(doc['k']).__name__}")
        ks = [_integer(v) for v in doc["k"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f'field "k" must be a list of integers: {exc}') from exc
    if r is None:
        try:
            r = _integer(doc.get("r", max(ks[-1], 1) if ks else 1))
        except (TypeError, ValueError) as exc:
            raise InputError(f'field "r" must be an integer: {exc}') from exc
    return ExponentVector(tuple(ks), r)


def _parse_family(family, r) -> FunctionFamily:
    try:
        return FunctionFamily(Family(family), _integer(r))
    except (ValueError, TypeError, DomainError) as exc:
        raise InputError(f"invalid family/order: {exc}") from exc


def _parse_problem(doc: dict) -> NormVector:
    for field in ("family", "r", "k", "M"):
        if field not in doc:
            raise InputError(f'problem JSON is missing field "{field}"')
    family = _parse_family(doc["family"], doc["r"])
    k = _parse_exponents(doc, family.r)
    try:
        values = tuple(float(_number(v)) for v in doc["M"])
        return NormVector(values, k, family)
    except (TypeError, ValueError, DomainError) as exc:
        raise InputError(f'invalid "M": {exc}') from exc


def _parse_moments(doc: dict) -> MomentVector:
    """Moment input {"k", "c"}, with an optional "r"."""
    if "c" not in doc:
        raise InputError('input needs "c" (moments)')
    k = _parse_exponents(doc)
    try:
        return MomentVector(tuple(float(_number(v)) for v in doc["c"]), k)
    except (TypeError, ValueError, DomainError) as exc:
        raise InputError(f'invalid "c": {exc}') from exc


def _parse_spline(doc: dict) -> IdealSpline:
    try:
        family = _parse_family(doc["family"], doc["r"])
        return IdealSpline(
            family,
            [_number(a) for a in doc["knots"]],
            [_number(w) for w in doc["weights"]],
            _number(doc.get("constant", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed spline object: {exc}") from exc


def _representation_doc(rep: Representation) -> dict:
    return {
        "atoms": [{"node": a.node, "weight": a.weight} for a in rep.atoms],
        "index": index_of(rep).value,
    }


def _spline_doc(spline: IdealSpline) -> dict:
    return {
        "family": spline.family.kind.value,
        "r": spline.family.r,
        "knots": list(spline.knots),
        "weights": list(spline.weights),
        "constant": spline.constant,
    }


def _cmd_classify(args) -> dict:
    c = _parse_moments(_read_input(args.input))
    result = classify(c, tol=args.tol)
    doc = {
        "kind": result.kind.value,
        "witness": _representation_doc(result.witness) if result.witness else None,
    }
    if args.oracle:
        report = cone_membership(c, tol=max(args.tol, DEFAULT_FEASIBILITY_TOL))
        doc["oracle"] = {"feasible": report.feasible, "residual": report.residual}
    return doc


def _cmd_represent(args) -> dict:
    c = _parse_moments(_read_input(args.input))
    if args.principal:
        return _representation_doc(principal_representation(c, tol=args.tol))
    if args.root is None:
        raise InputError("--canonical requires --root T")
    return _representation_doc(canonical_representation(c, args.root, tol=args.tol))


def _cmd_spline_norms(args) -> dict:
    doc = _read_input(args.input)
    if "spline" not in doc or "k" not in doc:
        raise InputError('input needs "spline" and "k"')
    spline = _parse_spline(doc["spline"])
    k = _parse_exponents(doc, spline.family.r)
    M = norms(spline, k)
    return {
        "family": M.family.kind.value,
        "r": M.family.r,
        "k": list(k.exponents),
        "M": list(M.values),
    }


def _cmd_decide(args) -> dict:
    M = _parse_problem(_read_input(args.input))
    result = decide_admissible(M, tol=args.tol)
    return {
        "status": result.status.value,
        "witness": _spline_doc(result.witness) if result.witness else None,
        "trace": [
            {
                "k": list(rec.exponents),
                "classification": rec.classification,
                "compared": (
                    {"lhs": rec.lhs, "rhs": rec.rhs}
                    if rec.lhs is not None
                    else None
                ),
            }
            for rec in result.trace
        ],
    }


def _cmd_random(args) -> dict:
    family = _parse_family(args.family, args.order)
    return _spline_doc(random_member(family, args.knot_count, args.seed))


def _cmd_sweep(args) -> str:
    M = _parse_problem(_read_input(args.input))
    i = args.component
    if not 1 <= i <= M.d:
        raise InputError(f"--component must be in 1..{M.d}")
    if args.steps < 1:
        raise InputError("--steps must be >= 1")
    for flag, bound in (("--from", args.sweep_from), ("--to", args.sweep_to)):
        if not math.isfinite(bound):
            raise InputError(f"{flag} must be finite, got {bound}")
    if not math.isfinite(args.sweep_to - args.sweep_from):
        raise InputError("--to minus --from exceeds the float range")
    lines = ["M,status"]
    for step in range(args.steps):
        frac = step / (args.steps - 1) if args.steps > 1 else 0.0
        value = args.sweep_from + frac * (args.sweep_to - args.sweep_from)
        values = list(M.values)
        values[i - 1] = value
        try:
            swept = NormVector(tuple(values), M.exponents, M.family)
            status = decide_status(swept, tol=args.tol)[0].value
        except KolmoError:
            status = "error"
        lines.append(f"{jsonio.format_number(value)},{status}")
    return "\n".join(lines)


def _cmd_verify(args) -> dict:
    from . import verify  # the suites load only for the command that runs them

    if args.suite not in verify.SUITES:
        raise InputError(f"unknown suite {args.suite!r}; choose from {', '.join(sorted(verify.SUITES))}")
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:
        raise InputError("--seed must be >= 0")
    if args.cases < 1:
        raise InputError("--cases must be >= 1")
    return verify.SUITES[args.suite](cases=args.cases, seed=seed).to_dict()


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every float token as a value.

    argparse takes a token that starts with '-' for an option unless it reads
    like -1 or -1.5, so ``--from -1e-3`` and ``--to -inf`` would miss their
    value.  The subcommand parsers are of this class too.
    """

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of the ``kolmo`` command line."""
    parser = _Parser(
        prog="kolmo",
        description=(
            "Decide admissibility of derivative-norm tuples on absolutely / "
            "multiply monotone classes, classify moment vectors, and build "
            "representing measures and witness splines."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, handler, reads=True, tol=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if reads:
            p.add_argument("--input", "-i", default=None, help="input JSON (default stdin)")
        p.add_argument("--output", "-o", default=None, help="output path (default stdout)")
        if tol:
            p.add_argument("--tol", type=float, default=ACCEPT_TOL, help="acceptance tolerance")
        return p

    p = command("classify", "classify a moment vector against the cone", _cmd_classify)
    p.add_argument("--oracle", action="store_true", help="attach an oracle cross-check")

    p = command("represent", "compute an atomic representation", _cmd_represent)
    structure = p.add_mutually_exclusive_group(required=True)
    structure.add_argument("--principal", action="store_true", help="index d/2 representation")
    structure.add_argument("--canonical", action="store_true",
                           help="prescribed-root representation")
    p.add_argument("--root", type=float, default=None, help="prescribed root for --canonical")

    command("spline-norms", "derivative sup-norms of a spline", _cmd_spline_norms, tol=False)

    command("decide", "decide admissibility of a norm tuple", _cmd_decide)

    p = command("random", "generate a random class member", _cmd_random,
                reads=False, tol=False)
    p.add_argument("--family", choices=["am", "mm"], default="mm")
    p.add_argument("--order", "--r", dest="order", type=int, default=2)
    p.add_argument("--knot-count", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)

    p = command("sweep", "sweep one norm component, report statuses as CSV", _cmd_sweep)
    p.add_argument("--component", type=int, required=True, help="1-based component index")
    p.add_argument("--from", dest="sweep_from", type=float, required=True)
    p.add_argument("--to", dest="sweep_to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)

    p = command("verify", "run a self-contained verification suite", _cmd_verify,
                reads=False, tol=False)
    p.add_argument("--suite", required=True, help="the suite to run; an unknown name lists them")
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--seed", type=int, default=None, help="case seed (default: the suites' own)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` shares across calls, built on first use.

    Parsing reads it and mutates nothing: every call gets a fresh namespace,
    so no default or flag of one call reaches the next.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = _parser().parse_args(argv)
    if hasattr(args, "tol") and not 0 < args.tol < math.inf:
        print("error: --tol must be finite and > 0", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        doc = args.handler(args)
    except (InputError, DomainError, UnsupportedSystemError, NotInteriorError,
            PinnedNodeCoincidenceError) as exc:  # input the entry does not handle
        log.info("invalid input", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except KolmoError as exc:
        log.info("numerical failure", exc_info=True)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    _write_output(args.output, doc if isinstance(doc, str) else jsonio.dumps(doc))
    if args.command == "verify" and not doc["ok"]:
        return EXIT_COUNTEREXAMPLES
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
