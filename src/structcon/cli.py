"""Command line front end: parse pattern spec files, run checks, render output.

Spec files are JSON documents::

    {
      "algebra": "so" | "gl" | "su",
      "n": 6,
      "drift":   [{"terms": [{"basis": "B", "i": 1, "j": 4, "coeff": "2"}, ...]}, ...],
      "control": [{"basis": "B", "i": 1, "j": 2}, ...]
    }

Coefficients are rational strings ("3", "-1/2") or integers; indices are
1-based.  Exit codes: 0 for any verdict, 1 for parse or usage errors, 2 for
zero-pattern validation errors, 3 for a cross-validation contradiction.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from . import verdict as verdict_mod
from .algebra import AlgebraElement, AlgebraKind, BasisElement, Family, lie_closure
from .errors import ParseError, StructconError, ValidationError
from .graphs import contr_graph, drift_graph, to_dot, union
from .patterns import (
    DEFAULT_POOL,
    ControlPattern,
    DriftPattern,
    ZeroPatternPair,
    control_generators,
    sample_drift,
)


def _want(doc: Any, key: str, types: type | tuple, where: str) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"{where}: missing field {key!r}")
    value = doc[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ParseError(f"{where}: field {key!r} has the wrong type")
    return value


def _coeff(raw: Any, where: str) -> Fraction:
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ParseError(f"{where}: coefficient must be an integer or a rational string")
    try:
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
    except json.JSONDecodeError as exc:
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

    drift_items = _want(doc, "drift", list, "document")
    if not drift_items:
        raise ValidationError("drift pattern must list at least one base element")
    bases: list[AlgebraElement] = []
    for s, item in enumerate(drift_items):
        where = f"drift[{s}]"
        terms_raw = _want(item, "terms", list, where)
        terms: list[tuple[BasisElement, Fraction]] = []
        for t, term in enumerate(terms_raw):
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
        if element.is_zero:
            raise ValidationError(f"{where}: base element is zero")
        bases.append(element)

    control_items = _want(doc, "control", list, "document")
    if not control_items:
        raise ValidationError("control pattern must list at least one base element")
    control_elems = []
    for s, item in enumerate(control_items):
        control_elems.append(_basis_entry(item, f"control[{s}]"))
    try:
        pair = ZeroPatternPair(DriftPattern(kind, tuple(bases)),
                               ControlPattern(kind, tuple(control_elems)))
    except StructconError as exc:
        raise ValidationError(str(exc)) from None
    return pair


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


def _report_dict(report: verdict_mod.Report) -> dict:
    return {
        "verdict": report.verdict.value,
        "decided_by": report.decided_by,
        "conditions": [
            {"name": c.name, "holds": c.holds, "citation": c.citation}
            for c in report.conditions
        ],
        "oracle": None if report.oracle is None else _oracle_dict(report.oracle),
        "contradiction": report.contradiction,
    }


def _oracle_dict(orc: verdict_mod.OracleReport) -> dict:
    return {
        "trials": orc.trials,
        "dimensions": list(orc.dimensions),
        "target": orc.target,
        "achieved_full": orc.achieved_full,
        "seed": orc.seed,
    }


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


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
    if path == "-":
        return parse_spec(sys.stdin.read())
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_spec(text)


# most values a lo..hi pool range may span; the range is materialised
_MAX_POOL_RANGE = 10**4


def _parse_pool(raw: str) -> tuple[Fraction, ...]:
    # an argparse type hook: ArgumentTypeError takes the exit-1 usage path
    try:
        if ".." in raw:
            lo_s, hi_s = raw.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi - lo >= _MAX_POOL_RANGE:
                raise argparse.ArgumentTypeError(
                    f"bad pool {raw!r}: a range spans at most {_MAX_POOL_RANGE} values")
            pool = tuple(Fraction(k) for k in range(lo, hi + 1) if k != 0)
        else:
            pool = tuple(Fraction(part) for part in raw.split(",") if part.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad pool {raw!r}: {exc}") from None
    if not pool or any(not c for c in pool):
        raise argparse.ArgumentTypeError(
            f"bad pool {raw!r}: needs at least one nonzero value and no zeros")
    return pool


def _drift_for_closure(pair: ZeroPatternPair, args: argparse.Namespace) -> AlgebraElement:
    if args.coeffs is not None:
        parts = [p for p in args.coeffs.split(",") if p.strip()]
        if len(parts) != len(pair.drift.bases):
            raise ParseError(
                f"--coeffs lists {len(parts)} values for {len(pair.drift.bases)} drift bases")
        coeffs = [_coeff(p, "--coeffs") for p in parts]
        if any(not c for c in coeffs):
            raise ParseError("--coeffs values must be nonzero (rigid pattern)")
        out = AlgebraElement.zero(pair.kind)
        for base, c in zip(pair.drift.bases, coeffs):
            out = out + base.scale(c)
        return out
    return sample_drift(pair.drift, args.pool, args.seed)


def _cmd_check(args: argparse.Namespace) -> int:
    pair = _read_spec(args.spec)
    report = verdict_mod.check(pair)
    if args.json:
        _print_json(_report_dict(report))
    else:
        _print_report(report, pair.kind)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.cross:
        return _cmd_report(args)
    pair = _read_spec(args.spec)
    orc = verdict_mod.oracle(pair, trials=args.trials, seed=args.seed, pool=args.pool)
    if args.json:
        _print_json(_oracle_dict(orc))
    else:
        _print_oracle(orc, pair.kind)
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    pair = _read_spec(args.spec)
    generators = control_generators(pair.control)
    if not args.no_drift:
        generators = [_drift_for_closure(pair, args)] + generators
    basis, dim, steps = lie_closure(generators)
    if args.json:
        _print_json({
            "dimension": dim,
            "target": pair.kind.dimension,
            "steps": steps,
            "rows": [repr(r) for r in basis.rows],
        })
        return 0
    print(f"Generators: {len(generators)}")
    print(f"Closure dimension: {dim} of {pair.kind.dimension} in {pair.kind} ({steps} sweeps)")
    print("Basis rows:")
    for r in basis.rows:
        print(f"  {r!r}")
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
    if args.json:
        _print_json(_report_dict(report))
    else:
        _print_report(report, pair.kind)
    return 3 if report.contradiction else 0


def _add_oracle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=int, default=8, help="number of sampled drifts")
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
    p.add_argument("--cross", action="store_true",
                   help="also run the checker; exit 3 on contradiction")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("closure", help="closure dimension of drift plus controls")
    p.add_argument("spec", help="spec file path, or - for stdin")
    _add_oracle_flags(p)
    p.add_argument("--coeffs", default=None,
                   help="explicit drift coefficients c1,c2,... instead of sampling")
    p.add_argument("--no-drift", action="store_true",
                   help="close the control generators alone")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_closure)

    p = sub.add_parser("graph", help="emit a pattern graph as DOT")
    p.add_argument("spec", help="spec file path, or - for stdin")
    p.add_argument("--which", choices=("drift", "contr", "union"), required=True)
    p.add_argument("--format", choices=("dot",), default="dot")
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
    if getattr(args, "trials", 1) < 1:
        parser.exit(1, "structcon: error: --trials must be at least 1\n")
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
