"""Verdicts: evaluate the graphical conditions on a zero-pattern pair and
cross-check them against the exact rank oracle.

The checkers only use pattern graphs; `check` picks the family's checker
from one table.  The oracle samples rigid drifts, closes the generated
subalgebra exactly, and reports the dimensions reached; a sufficient verdict
that the oracle cannot confirm (or a negative verdict it refutes) raises the
contradiction flag, which is a bug signal.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Sequence

from . import analysis, graphs
from .algebra import AlgebraKind, Family, LieClosure, _ray, _stored_terms, record
from .errors import KindMismatch
from .patterns import (
    DEFAULT_POOL,
    ControlPattern,
    ZeroPatternPair,
    _normalise_pool,
    drift_is_basis_subset,
    sample_drift,
)


class Verdict(Enum):
    SUFFICIENT_YES = "SufficientYes"
    EXACT_YES = "ExactYes"
    EXACT_NO = "ExactNo"
    NECESSARY_FAILED_NO = "NecessaryFailedNo"
    INCONCLUSIVE = "Inconclusive"


class GeneratedGl(Enum):
    FULL = "full"
    SL_ONLY = "sl_only"
    NEITHER = "neither"


class ConditionEval(record("ConditionEval", "name holds citation")):
    __slots__ = ()
    name: str
    holds: bool
    citation: str


class OracleReport(record("OracleReport", "trials dimensions target achieved_full seed")):
    __slots__ = ()
    trials: int
    dimensions: tuple[int, ...]
    target: int
    achieved_full: bool
    seed: int


class Report(record("Report", "verdict conditions oracle contradiction decided_by")):
    __slots__ = ()
    verdict: Verdict
    conditions: tuple[ConditionEval, ...]
    oracle: OracleReport | None
    contradiction: bool
    decided_by: str


def _require(kind: AlgebraKind, family: Family, what: str) -> None:
    if kind.family is not family:
        raise KindMismatch(f"{what} expects {family.value}(n) patterns, got {kind}")


def check_so(pair: ZeroPatternPair) -> Report:
    """Connectivity conditions over SO(n)."""
    _require(pair.kind, Family.SO, "check_so")
    contr = graphs.contr_graph(pair.control)
    u = graphs.union(graphs.drift_graph(pair.drift), contr)

    union_connected = analysis.is_connected(u)
    comps_ok = analysis.component_summary(contr)[1] >= 3
    conditions = (
        ConditionEval("union graph connected", union_connected,
                      "necessary condition over SO(n)"),
        ConditionEval("every controlled component has at least 3 nodes", comps_ok,
                      "Theorem 1"),
    )
    if not union_connected:
        verdict, decided = Verdict.NECESSARY_FAILED_NO, "union connectivity necessity"
    elif comps_ok:
        verdict, decided = Verdict.SUFFICIENT_YES, "Theorem 1"
    else:
        verdict, decided = Verdict.INCONCLUSIVE, ""
    return Report(verdict, conditions, None, False, decided)


def check_gl(pair: ZeroPatternPair) -> Report:
    """Strong-connectivity and self-loop conditions over GL+(n)."""
    _require(pair.kind, Family.GL, "check_gl")
    contr = graphs.contr_graph(pair.control)
    u = graphs.union(graphs.drift_graph(pair.drift), contr)

    # one strong-components pass per graph; a node on no arc ends it unwalked
    union_strong = analysis.strongly_connected(u)
    comps_ok = analysis.strong_components(contr) is not None
    contr_loop = bool(analysis.digraph_self_loops(contr))
    basis_drift = drift_is_basis_subset(pair.drift)
    union_loop = bool(analysis.digraph_self_loops(u))
    conditions = (
        ConditionEval("union graph strongly connected", union_strong,
                      "necessary condition over GL+(n); Theorem 2.1(ii)"),
        ConditionEval("every weak controlled component strongly connected with at least 2 nodes",
                      comps_ok, "Theorem 2.1(i)"),
        ConditionEval("controlled graph has a self-loop", contr_loop, "Theorem 2.1(iii)"),
        ConditionEval("drift bases are single matrix units", basis_drift,
                      "Theorem 2.2 hypothesis"),
        ConditionEval("union graph has a self-loop", union_loop, "Theorem 2.2"),
    )
    if not union_strong:
        verdict, decided = Verdict.NECESSARY_FAILED_NO, "union strong-connectivity necessity"
    elif comps_ok and contr_loop:
        verdict, decided = Verdict.SUFFICIENT_YES, "Theorem 2.1"
    elif basis_drift and comps_ok and union_loop:
        verdict, decided = Verdict.SUFFICIENT_YES, "Theorem 2.2"
    else:
        verdict, decided = Verdict.INCONCLUSIVE, ""
    return Report(verdict, conditions, None, False, decided)


def check_su(pair: ZeroPatternPair) -> Report:
    """Self-loop or odd-red-cycle conditions over SU(n)."""
    _require(pair.kind, Family.SU, "check_su")
    drift = graphs.drift_graph(pair.drift)
    contr = graphs.contr_graph(pair.control)
    u = graphs.union(drift, contr)

    count, smallest = analysis.component_summary(contr)
    contr_connected = count == 1
    feature = bool(analysis.green_loops(u)) or analysis.has_odd_red_cycle(u)[0]

    if contr_connected:
        conditions = (
            ConditionEval("controlled graph connected", True, "Theorem 4 hypothesis"),
            ConditionEval("union graph has a self-loop or an odd-red cycle", feature,
                          "Theorem 4"),
        )
        verdict = Verdict.EXACT_YES if feature else Verdict.EXACT_NO
        return Report(verdict, conditions, None, False, "Theorem 4")

    union_connected = analysis.is_connected(u)
    comps_ok = smallest >= 3
    drift_simple = not analysis.has_multi_edge(drift)
    conditions = (
        ConditionEval("controlled graph connected", False, "Theorem 4 hypothesis"),
        ConditionEval("union graph connected", union_connected,
                      "necessary condition over SU(n); Theorem 5(ii)"),
        ConditionEval("every controlled component has at least 3 nodes", comps_ok,
                      "Theorem 5(i)"),
        ConditionEval("drift graph free of multi-edges", drift_simple, "Theorem 5(ii)"),
        ConditionEval("union graph has a self-loop or an odd-red cycle", feature,
                      "Theorem 5(iii)"),
    )
    if not union_connected:
        verdict, decided = Verdict.NECESSARY_FAILED_NO, "union connectivity necessity"
    elif comps_ok and drift_simple and feature:
        verdict, decided = Verdict.SUFFICIENT_YES, "Theorem 5"
    else:
        verdict, decided = Verdict.INCONCLUSIVE, ""
    return Report(verdict, conditions, None, False, decided)


_CHECKERS = {Family.SO: check_so, Family.GL: check_gl, Family.SU: check_su}


def check(pair: ZeroPatternPair) -> Report:
    """The graph checker of the pair's family."""
    return _CHECKERS[pair.kind.family](pair)


# ---------------------------------------------------------------------------
# generated-subalgebra graph tests (control sets alone, no drift)
# ---------------------------------------------------------------------------


def check_generated_so(s: ControlPattern) -> bool:
    """Generators span all of so(n) iff their graph is connected."""
    _require(s.kind, Family.SO, "check_generated_so")
    return analysis.is_connected(graphs.contr_graph(s))


def check_generated_gl(s: ControlPattern) -> GeneratedGl:
    """Full gl(n) needs strong connectivity plus a self-loop; strong
    connectivity alone yields exactly the traceless subalgebra."""
    _require(s.kind, Family.GL, "check_generated_gl")
    g = graphs.contr_graph(s)
    if not analysis.strongly_connected(g):
        return GeneratedGl.NEITHER
    return GeneratedGl.FULL if analysis.digraph_self_loops(g) else GeneratedGl.SL_ONLY


def check_generated_su(s: ControlPattern) -> bool:
    """Generators span su(n) iff the colored graph is connected with a
    self-loop, or connected with an odd-red cycle.

    The paper states a third clause: two or more colors with a spanning
    connected blue subgraph.  It is implied by the other two.  Such a graph
    is connected, and its second color is green or red.  A green color is a
    self-loop.  A red edge (i, j) and the blue path from i to j form a
    cycle with exactly one red edge.
    """
    _require(s.kind, Family.SU, "check_generated_su")
    g = graphs.contr_graph(s)
    return analysis.is_connected(g) and (bool(analysis.green_loops(g))
                                         or analysis.has_odd_red_cycle(g)[0])


# ---------------------------------------------------------------------------
# the exact rank oracle
# ---------------------------------------------------------------------------


def oracle(pair: ZeroPatternPair, trials: int = 8, seed: int = 0,
           pool: Sequence[Fraction] = DEFAULT_POOL) -> OracleReport:
    """Sample drifts, close {drift} union controls, record dimensions.

    Deterministic per seed.  The control-set closure is computed once and
    copied per trial; every closure uses `LieClosure`'s generator-adjoint
    pair rule, and trials report dimensions alone.  Controls and drifts
    enter as primitive integer rays (`algebra._ray`): each control base's
    ray is read off the base itself, and each trial draws one drift with
    `sample_drift`.  Every sampled drift lies
    in span{A_1..A_m} of the drift bases, so every trial closes inside the
    relaxed closure L(A_1..A_m, U), and later trials stop once their rank
    reaches its dimension R: a span of rank R inside an R-dimensional Lie
    algebra is that algebra.  R is the first trial's rank if that is full;
    otherwise its state is extended with the drift bases and run on.  A
    trial's closure depends only on its drift's ray, the primitive integer
    vector, so each distinct ray is closed once per call: a one-base drift
    costs one closure for any number of trials.  Every sample c·A_1 (c != 0)
    of a one-base drift has A_1's ray, which is read off A_1 once per call;
    its trials still draw their samples.

    The first trial closure of rank R that holds only the control closure,
    its own ray and their brackets gives the template words: the parent
    pairs of the vectors it inserted after its ray.  Each later ray replays
    them (`LieClosure.replay`) while each raises the rank, then `run`s.

    Every trial takes one path, `LieClosure.trial` on the control closure:
    a copy, its ray, the template words if there are any, and a run under
    its bound, the algebra's dimension for the first trial and R after it.
    Given that bound, the trial decides ranks mod p from its first exact row
    whose pivot entry outgrows p (`algebra._ModEchelon`); the brackets, in
    order, are those of exact decisions.  Rank mod p is at most the rank
    over Q, so reaching the bound mod p proves it; a switched trial that
    ends below its bound closes again exactly.  `trial` is the one place a
    trial is closed and certified, and its state has no bound, so a first
    trial below full grows exactly into the relaxed closure.  So every
    dimension, R and `achieved_full` are exact.
    """
    if trials < 1:
        raise ValueError("the oracle needs at least one trial")
    kind = pair.kind
    choices = _normalise_pool(pool)
    base = LieClosure(kind)
    rules = base.rules
    for b in pair.control.bases:
        base.add_ray(_ray(rules, _stored_terms(b)))
    base.run()

    target = kind.dimension
    start = len(base.spanning)  # where each trial's ray goes
    relaxed: int | None = None  # dim L(A_1..A_m, U), set by the first trial
    words: list[tuple[int, int]] | None = None  # the template's bracket words past its ray
    closed: dict[frozenset, int] = {}  # ray -> dimension of its trial closure
    dims: list[int] = []
    one_base = len(pair.drift.bases) == 1
    if one_base:  # every sample c·A_1, c != 0, has A_1's ray
        ray = _ray(rules, pair.drift.bases[0]._terms.items())
        key = frozenset(ray.items())
    for t in range(trials):
        drift = sample_drift(pair.drift, choices, seed * 1_000_003 + t)
        if not one_base:
            ray = _ray(rules, drift._terms.items())
            key = frozenset(ray.items())
        if key not in closed:
            state = base.trial(ray, words, target if relaxed is None else relaxed)
            closed[key] = state.rank
            if relaxed is None:
                if state.rank < target:
                    state.add_generators(pair.drift.bases)
                    state.run()
                relaxed = state.rank
            # the words of a state the drift bases grew need those bases
            if words is None and closed[key] == relaxed:
                words = state.parents[start + 1:]
        dims.append(closed[key])
    return OracleReport(trials, tuple(dims), target, any(d == target for d in dims), seed)


def _contradicts(verdict: Verdict, orc: OracleReport) -> bool:
    if verdict in (Verdict.SUFFICIENT_YES, Verdict.EXACT_YES):
        return not orc.achieved_full
    if verdict in (Verdict.EXACT_NO, Verdict.NECESSARY_FAILED_NO):
        return orc.achieved_full
    return False


def cross_validate(pair: ZeroPatternPair, trials: int = 8, seed: int = 0,
                   pool: Sequence[Fraction] = DEFAULT_POOL) -> Report:
    """Run the kind-appropriate checker and the oracle; flag any disagreement."""
    # the oracle goes first: it refuses an algebra too large to tabulate
    # before the checker walks the pattern graphs of all n nodes
    orc = oracle(pair, trials=trials, seed=seed, pool=pool)
    report = check(pair)
    return report._replace(oracle=orc, contradiction=_contradicts(report.verdict, orc))
