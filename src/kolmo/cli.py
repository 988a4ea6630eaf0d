"""Command-line front end.

Reads problem JSON, runs classification / representation / decision /
verification, and emits deterministic JSON (or CSV for sweeps).
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import jsonio, verify
from .core import (
    ExponentVector,
    Family,
    FunctionFamily,
    MomentVector,
    NormVector,
    Representation,
    index_of,
    moment_coordinates,
)
from .errors import DomainError, KolmoError, UnsupportedSystemError
from .kolmogorov import decide_admissible
from .oracle import cone_membership
from .representations import canonical_representation, classify, principal_representation
from .splines import (
    norms,
    random_member,
    spline_from_dict,
    spline_to_dict,
)

log = logging.getLogger("kolmo")

EXIT_OK = 0
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
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _parse_exponents(doc: dict, r: int | None = None) -> ExponentVector:
    try:
        ks = [int(v) for v in doc["k"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f'field "k" must be a list of integers: {exc}') from exc
    if r is None:
        r = int(doc.get("r", max(ks[-1], 1) if ks else 1))
    try:
        return ExponentVector(tuple(ks), r)
    except DomainError as exc:
        raise InputError(str(exc)) from exc


def _parse_problem(doc: dict) -> NormVector:
    for field in ("family", "r", "k", "M"):
        if field not in doc:
            raise InputError(f'problem JSON is missing field "{field}"')
    try:
        family = FunctionFamily(Family(doc["family"]), int(doc["r"]))
    except (ValueError, TypeError, DomainError) as exc:
        raise InputError(f"invalid family/order: {exc}") from exc
    k = _parse_exponents(doc, family.r)
    try:
        values = tuple(float(v) for v in doc["M"])
        return NormVector(values, k, family)
    except (TypeError, ValueError, DomainError) as exc:
        raise InputError(f'invalid "M": {exc}') from exc


def _parse_moments(doc: dict) -> MomentVector:
    """Moment input: either raw {"k", "c"} or a problem JSON with norms."""
    if "c" in doc:
        k = _parse_exponents(doc)
        try:
            return MomentVector(tuple(float(v) for v in doc["c"]), k)
        except (TypeError, ValueError, DomainError) as exc:
            raise InputError(f'invalid "c": {exc}') from exc
    if "M" in doc:
        return moment_coordinates(_parse_problem(doc))
    raise InputError('input needs either "c" (moments) or "M" (norms)')


def _representation_doc(rep: Representation) -> dict:
    return {
        "atoms": [{"node": a.node, "weight": a.weight} for a in rep.atoms],
        "index": index_of(rep).value,
    }


def _cmd_classify(args) -> dict:
    c = _parse_moments(_read_input(args.input))
    result = classify(c, tol=args.tol)
    doc = {
        "kind": result.kind.value,
        "witness": _representation_doc(result.witness) if result.witness else None,
    }
    if args.oracle:
        report = cone_membership(c, tol=max(args.tol, 1e-7))
        doc["oracle"] = {"feasible": report.feasible, "residual": report.residual}
    return doc


def _cmd_represent(args) -> dict:
    c = _parse_moments(_read_input(args.input))
    if args.canonical:
        if args.root is None:
            raise InputError("--canonical requires --root T")
        rep = canonical_representation(c, args.root, tol=args.tol)
    elif args.principal:
        rep = principal_representation(c, tol=args.tol)
    else:
        raise InputError("choose --principal or --canonical")
    return _representation_doc(rep)


def _cmd_spline_norms(args) -> dict:
    doc = _read_input(args.input)
    if "spline" not in doc or "k" not in doc:
        raise InputError('input needs "spline" and "k"')
    try:
        spline = spline_from_dict(doc["spline"])
    except DomainError as exc:
        raise InputError(str(exc)) from exc
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
        "witness": spline_to_dict(result.witness) if result.witness else None,
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
    try:
        family = FunctionFamily(Family(args.family), args.order)
    except (ValueError, DomainError) as exc:
        raise InputError(f"invalid family/order: {exc}") from exc
    spline = random_member(family, args.knot_count, args.seed)
    return spline_to_dict(spline)


def _cmd_sweep(args) -> str:
    M = _parse_problem(_read_input(args.input))
    i = args.component
    if not 1 <= i <= M.d:
        raise InputError(f"--component must be in 1..{M.d}")
    if args.steps < 1:
        raise InputError("--steps must be >= 1")
    lines = ["M,status"]
    for step in range(args.steps):
        frac = step / (args.steps - 1) if args.steps > 1 else 0.0
        value = args.sweep_from + frac * (args.sweep_to - args.sweep_from)
        values = list(M.values)
        values[i - 1] = value
        try:
            swept = NormVector(tuple(values), M.exponents, M.family)
            status = decide_admissible(swept, tol=args.tol).status.value
        except (DomainError, KolmoError):
            status = "error"
        lines.append(f"{jsonio.format_number(value)},{status}")
    return "\n".join(lines)


def _cmd_verify(args) -> tuple[dict, bool]:
    suite = verify.SUITES[args.suite]
    report = suite(cases=args.cases, seed=args.seed)
    return report.to_dict(), report.ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kolmo",
        description=(
            "Decide admissibility of derivative-norm tuples on absolutely / "
            "multiply monotone classes, classify moment vectors, and build "
            "representing measures and witness splines."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", "-i", default=None, help="input JSON (default stdin)")
        p.add_argument("--output", "-o", default=None, help="output path (default stdout)")
        p.add_argument("--tol", type=float, default=1e-8, help="acceptance tolerance")

    p = sub.add_parser("classify", help="classify a moment vector against the cone")
    common(p)
    p.add_argument("--oracle", action="store_true", help="attach an oracle cross-check")

    p = sub.add_parser("represent", help="compute an atomic representation")
    common(p)
    p.add_argument("--principal", action="store_true", help="index d/2 representation")
    p.add_argument("--canonical", action="store_true", help="prescribed-root representation")
    p.add_argument("--root", type=float, default=None, help="prescribed root for --canonical")

    p = sub.add_parser("spline-norms", help="derivative sup-norms of a spline")
    common(p)

    p = sub.add_parser("decide", help="decide admissibility of a norm tuple")
    common(p)

    p = sub.add_parser("random", help="generate a random class member")
    common(p)
    p.add_argument("--family", choices=["am", "mm"], default="mm")
    p.add_argument("--order", "--r", dest="order", type=int, default=2)
    p.add_argument("--knot-count", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sweep", help="sweep one norm component, report statuses as CSV")
    common(p)
    p.add_argument("--component", type=int, required=True, help="1-based component index")
    p.add_argument("--from", dest="sweep_from", type=float, required=True)
    p.add_argument("--to", dest="sweep_to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)

    p = sub.add_parser("verify", help="run a self-contained verification suite")
    common(p)
    p.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.tol <= 0:
        print("error: --tol must be > 0", file=sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        if args.command == "classify":
            doc = _cmd_classify(args)
        elif args.command == "represent":
            doc = _cmd_represent(args)
        elif args.command == "spline-norms":
            doc = _cmd_spline_norms(args)
        elif args.command == "decide":
            doc = _cmd_decide(args)
        elif args.command == "random":
            doc = _cmd_random(args)
        elif args.command == "sweep":
            _write_output(args.output, _cmd_sweep(args))
            return EXIT_OK
        elif args.command == "verify":
            doc, ok = _cmd_verify(args)
            _write_output(args.output, jsonio.dumps(doc))
            return EXIT_OK if ok else 1
        else:  # pragma: no cover - argparse enforces the choices
            return EXIT_INVALID_INPUT
    except (InputError, DomainError, UnsupportedSystemError) as exc:
        log.info("invalid input", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except KolmoError as exc:
        log.info("numerical failure", exc_info=True)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    _write_output(args.output, jsonio.dumps(doc))
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
