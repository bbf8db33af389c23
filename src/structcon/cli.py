"""Command line front end: parse pattern spec files, run checks, render output.

Spec files are JSON documents::

    {
      "algebra": "so" | "gl" | "su",
      "n": 6,
      "drift":   [{"terms": [{"basis": "B", "i": 1, "j": 4, "coeff": "2"}, ...]}, ...],
      "control": [{"basis": "B", "i": 1, "j": 2}, ...]
    }

Coefficients are rational strings ("3", "-1/2", "2.5e-3") or integers, an
exponent at most `sys.get_int_max_str_digits()` in magnitude; indices are
1-based and n is at most 10^5.  Exit codes: 0 for any verdict, 1 for parse
or usage errors and for closure rows with a coefficient past the int-digit
limit, which cannot be printed, 2 for zero-pattern validation errors, for n
over 10^5 and for algebras too large to tabulate, 3 for a cross-validation
contradiction.
`--json` prints the fields of the result record (`Report`, `OracleReport`),
with the verdict as its value.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from . import verdict as verdict_mod
from .algebra import AlgebraElement, AlgebraKind, BasisElement, Family, lie_closure
from .errors import EmptyPool, ParseError, StructconError, ValidationError
from .graphs import contr_graph, drift_graph, to_dot, union
from .patterns import (
    DEFAULT_POOL,
    ControlPattern,
    DriftPattern,
    ZeroPatternPair,
    _normalise_pool,
    control_generators,
    drift_with,
    sample_drift,
)


def _want(doc: Any, key: str, types: type | tuple, where: str) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"{where}: missing field {key!r}")
    value = doc[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ParseError(f"{where}: field {key!r} has the wrong type")
    return value


# the exponent of a decimal string such as "2.5e-3"
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")


def _coeff(raw: Any, where: str) -> Fraction:
    """The one parser from a spec or command line value to a `Fraction`."""
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ParseError(f"{where}: coefficient must be an integer or a rational string")
    try:
        # Fraction("1e9999999") alone takes seconds; bound the exponent as
        # Python bounds the digits of an integer literal (0: no bound; the
        # default 4300 where Python predates the bound, before 3.10.7)
        exponent = _EXPONENT.search(raw) if isinstance(raw, str) else None
        limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
        if exponent and limit and abs(int(exponent[1])) > limit:
            raise ValueError(f"exponent over the limit of {limit}")
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad coefficient {raw!r}: {exc}") from None


def _basis_entry(item: Any, where: str) -> BasisElement:
    tag = _want(item, "basis", str, where)
    i = _want(item, "i", int, where)
    j = _want(item, "j", int, where)
    try:
        return BasisElement(tag, i, j)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def parse_spec(text: str) -> ZeroPatternPair:
    """Parse and validate a JSON spec document into a zero-pattern pair."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, int-digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    algebra = _want(doc, "algebra", str, "document")
    try:
        family = Family(algebra)
    except ValueError:
        raise ParseError(f"document: unknown algebra {algebra!r} (expected so, gl or su)") from None
    n = _want(doc, "n", int, "document")
    try:
        kind = AlgebraKind(family, n)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None

    bases: list[AlgebraElement] = []
    for s, item in enumerate(_want(doc, "drift", list, "document")):
        where = f"drift[{s}]"
        terms: list[tuple[BasisElement, Fraction]] = []
        for t, term in enumerate(_want(item, "terms", list, where)):
            loc = f"{where}.terms[{t}]"
            b = _basis_entry(term, loc)
            c = _coeff(_want(term, "coeff", (int, str), loc), loc)
            if not c:
                raise ValidationError(f"{loc}: rigid drift terms must have nonzero coefficients")
            terms.append((b, c))
        try:
            element = AlgebraElement.build(kind, terms)
        except StructconError as exc:
            raise ValidationError(f"{where}: {exc}") from None
        bases.append(element)

    control_elems = [_basis_entry(item, f"control[{s}]")
                     for s, item in enumerate(_want(doc, "control", list, "document"))]
    try:
        return ZeroPatternPair(DriftPattern(kind, tuple(bases)),
                               ControlPattern(kind, tuple(control_elems)))
    except StructconError as exc:
        raise ValidationError(str(exc)) from None


def pair_to_document(pair: ZeroPatternPair) -> dict:
    """Canonical JSON-ready rendering; parse_spec round-trips it."""
    return {
        "algebra": pair.kind.family.value,
        "n": pair.kind.n,
        "drift": [
            {"terms": [{"basis": b.tag, "i": b.i, "j": b.j, "coeff": str(c)}
                       for b, c in base.items()]}
            for base in pair.drift.bases
        ],
        "control": [{"basis": b.tag, "i": b.i, "j": b.j} for b in pair.control.bases],
    }


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _print_json(payload: dict) -> None:
    # a record's `asdict` holds enums (the verdict); they print as their values
    print(json.dumps(payload, indent=2, sort_keys=True, default=lambda member: member.value))


def _print_report(report: verdict_mod.Report, kind: AlgebraKind) -> None:
    print(f"Algebra: {kind}")
    print("Conditions:")
    for c in report.conditions:
        mark = "x" if c.holds else " "
        print(f"  [{mark}] {c.name}  ({c.citation})")
    suffix = f" ({report.decided_by})" if report.decided_by else ""
    print(f"Verdict: {report.verdict.value}{suffix}")
    if report.oracle is not None:
        _print_oracle(report.oracle, kind)
        print(f"Cross-check contradiction: {'yes' if report.contradiction else 'no'}")


def _print_oracle(orc: verdict_mod.OracleReport, kind: AlgebraKind) -> None:
    print(f"Oracle: target dimension {orc.target} in {kind}, seed {orc.seed}")
    for t, d in enumerate(orc.dimensions):
        print(f"  trial {t}: dimension {d}")
    if orc.achieved_full:
        print("Full dimension achieved: yes")
    else:
        # sampling evidence, not proof, unless a checker already said no
        print(f"No full-dimension witness in {orc.trials} trials")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse defaults to 2, which we reserve)
    def error(self, message: str):  # type: ignore[override]
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_spec(path: str) -> ZeroPatternPair:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_spec(text)


# most values a lo..hi pool range may span (the range is materialised), and
# most trials a run may take (each trial is a closure)
_MAX_COUNT = 10**4


def _parse_pool(raw: str) -> tuple[Fraction, ...]:
    # an argparse type hook: ArgumentTypeError takes the exit-1 usage path
    try:
        if ".." in raw:
            lo, hi = map(int, raw.split("..", 1))
            if hi - lo >= _MAX_COUNT:
                raise argparse.ArgumentTypeError(
                    f"bad pool {raw!r}: a range spans at most {_MAX_COUNT} values")
            return _normalise_pool([k for k in range(lo, hi + 1) if k != 0])
        return _normalise_pool([_coeff(p, "pool entry") for p in raw.split(",") if p.strip()])
    except (EmptyPool, ParseError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"bad pool {raw!r}: {exc}") from None


def _parse_trials(raw: str) -> int:
    # an argparse type hook, like `_parse_pool`
    trials = int(raw) if raw.strip().isdecimal() else 0
    if not 1 <= trials <= _MAX_COUNT:
        raise argparse.ArgumentTypeError(
            f"trials must be an integer from 1 to {_MAX_COUNT}, got {raw!r}")
    return trials


def _drift_for_closure(pair: ZeroPatternPair, args: argparse.Namespace) -> AlgebraElement:
    if args.coeffs is None:
        return sample_drift(pair.drift, args.pool or DEFAULT_POOL, args.seed or 0)
    coeffs = [_coeff(p, "--coeffs") for p in args.coeffs.split(",") if p.strip()]
    try:
        return drift_with(pair.drift, coeffs)
    except ValueError as exc:
        raise ParseError(f"--coeffs: {exc}") from None


def _show_report(args: argparse.Namespace, report: verdict_mod.Report, kind: AlgebraKind) -> int:
    if args.json:
        _print_json(asdict(report))
    else:
        _print_report(report, kind)
    return 3 if report.contradiction else 0


def _cmd_check(args: argparse.Namespace) -> int:
    pair = _read_spec(args.spec)
    return _show_report(args, verdict_mod.check(pair), pair.kind)


def _cmd_oracle(args: argparse.Namespace) -> int:
    pair = _read_spec(args.spec)
    orc = verdict_mod.oracle(pair, trials=args.trials, seed=args.seed, pool=args.pool)
    if args.json:
        _print_json(asdict(orc))
    else:
        _print_oracle(orc, pair.kind)
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    # with --no-drift or --coeffs (exclusive in argparse) nothing is sampled
    fixed = "--no-drift" if args.no_drift else "--coeffs" if args.coeffs is not None else None
    sampled = "--seed" if args.seed is not None else "--pool" if args.pool is not None else None
    if fixed and sampled:
        raise ParseError(f"argument {sampled}: not allowed with argument {fixed}")
    pair = _read_spec(args.spec)
    generators = control_generators(pair.control)
    if not args.no_drift:
        generators = [_drift_for_closure(pair, args)] + generators
    basis, dim, steps = lie_closure(generators)
    try:
        rows = [repr(r) for r in basis.rows]
    except ValueError as exc:  # a coefficient past the int-digit limit
        raise ParseError(f"cannot print the closure rows: {exc}") from None
    if args.json:
        _print_json({
            "dimension": dim,
            "target": pair.kind.dimension,
            "steps": steps,
            "rows": rows,
        })
        return 0
    print(f"Generators: {len(generators)}")
    print(f"Closure dimension: {dim} of {pair.kind.dimension} in {pair.kind} ({steps} sweeps)")
    print("Basis rows:")
    for r in rows:
        print(f"  {r}")
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    pair = _read_spec(args.spec)
    if args.which == "drift":
        g = drift_graph(pair.drift)
    elif args.which == "contr":
        g = contr_graph(pair.control)
    else:
        g = union(drift_graph(pair.drift), contr_graph(pair.control))
    sys.stdout.write(to_dot(g))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    pair = _read_spec(args.spec)
    report = verdict_mod.cross_validate(pair, trials=args.trials, seed=args.seed,
                                        pool=args.pool)
    return _show_report(args, report, pair.kind)


def _add_oracle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=_parse_trials, default=8,
                   help=f"number of sampled drifts, 1 to {_MAX_COUNT}")
    _add_sampling_flags(p)


def _add_sampling_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="deterministic sampling seed")
    p.add_argument("--pool", type=_parse_pool, default=DEFAULT_POOL,
                   help="coefficient pool, e.g. -9..9 or 1,2,5/2")


def _build_parser() -> _Parser:
    parser = _Parser(prog="structcon",
                     description="structural controllability checks for drifted "
                                 "bilinear systems over SO(n), GL+(n) and SU(n)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate the graphical conditions")
    p.add_argument("spec", help="spec file path, or - for stdin")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("oracle", help="run the sampled rank oracle")
    p.add_argument("spec", help="spec file path, or - for stdin")
    _add_oracle_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("closure", help="closure dimension of drift plus controls")
    p.add_argument("spec", help="spec file path, or - for stdin")
    _add_sampling_flags(p)
    fixed = p.add_mutually_exclusive_group()
    fixed.add_argument("--coeffs", default=None,
                       help="explicit drift coefficients c1,c2,... instead of sampling")
    fixed.add_argument("--no-drift", action="store_true",
                       help="close the control generators alone")
    p.add_argument("--json", action="store_true")
    # None marks a sampling flag as not given; the defaults apply in _drift_for_closure
    p.set_defaults(fn=_cmd_closure, seed=None, pool=None)

    p = sub.add_parser("graph", help="emit a pattern graph as DOT")
    p.add_argument("spec", help="spec file path, or - for stdin")
    p.add_argument("--which", choices=("drift", "contr", "union"), required=True)
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("report", help="checker plus oracle with cross-validation")
    p.add_argument("spec", help="spec file path, or - for stdin")
    _add_oracle_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"structcon: parse error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"structcon: validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
