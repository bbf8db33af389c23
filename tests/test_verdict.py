import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structcon import algebra, analysis, graphs, patterns
from structcon import verdict as verdict_module
from structcon.algebra import (
    AlgebraElement,
    BasisElement,
    LieClosure,
    bracket,
    canonical_basis,
    contains_sl,
    gl,
    lie_closure,
    so,
    su,
)
from structcon.errors import KindMismatch
from structcon.patterns import (
    DEFAULT_POOL,
    ControlPattern,
    DriftPattern,
    ZeroPatternPair,
    control_generators,
    sample_drift,
)
from structcon.verdict import (
    GeneratedGl,
    Verdict,
    check,
    check_generated_gl,
    check_generated_so,
    check_generated_su,
    check_gl,
    check_so,
    check_su,
    cross_validate,
    oracle,
)

from conftest import load_pair
from helpers import (
    bracket_log,
    brute_odd_red_cycle,
    components,
    fresh_rules,
    kind_candidates,
    random_kind_pair,
    random_pair,
)


def elem(kind, *terms):
    return AlgebraElement.build(kind, [(BasisElement(t, i, j), c) for t, i, j, c in terms])


def pattern(kind, drift_term_lists, control):
    bases = tuple(elem(kind, *terms) for terms in drift_term_lists)
    return ZeroPatternPair(DriftPattern(kind, bases),
                           ControlPattern(kind, tuple(BasisElement(t, i, j) for t, i, j in control)))


# ---------------------------------------------------------------------------
# checker verdicts on the bundled patterns
# ---------------------------------------------------------------------------


def test_check_so_golden(so6_pair):
    report = check_so(so6_pair)
    assert report.verdict is Verdict.SUFFICIENT_YES
    assert report.decided_by == "Theorem 1"
    assert all(c.holds for c in report.conditions)


def test_check_so_disconnected_union():
    p = pattern(so(3), [[("B", 1, 2, 1)]], [("B", 1, 2)])
    report = check_so(p)
    assert report.verdict is Verdict.NECESSARY_FAILED_NO


def test_check_so_small_component_is_inconclusive():
    p = pattern(so(5),
                [[("B", 2, 3, 1)], [("B", 3, 4, 1)], [("B", 4, 5, 1)]],
                [("B", 1, 2)])
    report = check_so(p)
    assert report.verdict is Verdict.INCONCLUSIVE


def test_check_gl_golden(gl4_loop_pair, gl4_noloop_pair, gl4_units_pair):
    assert check_gl(gl4_loop_pair).verdict is Verdict.SUFFICIENT_YES
    assert check_gl(gl4_loop_pair).decided_by == "Theorem 2.1"
    assert check_gl(gl4_noloop_pair).verdict is Verdict.INCONCLUSIVE
    assert check_gl(gl4_units_pair).verdict is Verdict.SUFFICIENT_YES
    assert check_gl(gl4_units_pair).decided_by == "Theorem 2.2"


def test_check_gl_not_strongly_connected():
    p = pattern(gl(2), [[("E", 1, 2, 1)]], [("E", 1, 2)])
    assert check_gl(p).verdict is Verdict.NECESSARY_FAILED_NO


def test_check_su_golden(su5_pair, su6_pair):
    r5 = check_su(su5_pair)
    assert r5.verdict is Verdict.EXACT_YES and r5.decided_by == "Theorem 4"
    r6 = check_su(su6_pair)
    assert r6.verdict is Verdict.SUFFICIENT_YES and r6.decided_by == "Theorem 5"


def test_check_su_exact_no():
    # connected all-blue control, blue drift: no loops, no red anywhere
    p = pattern(su(3), [[("B", 1, 3, 1)]], [("B", 1, 2), ("B", 2, 3)])
    report = check_su(p)
    assert report.verdict is Verdict.EXACT_NO
    rep = cross_validate(p, trials=6, seed=1)
    assert not rep.oracle.achieved_full
    assert not rep.contradiction


def test_check_su_disconnected_union():
    p = pattern(su(4), [[("B", 1, 2, 1)]], [("B", 1, 2)])
    assert check_su(p).verdict is Verdict.NECESSARY_FAILED_NO


def test_check_su_multi_edge_drift_blocks_theorem5():
    kind = su(6)
    p = pattern(kind,
                [[("B", 3, 4, 1), ("C", 3, 4, 1)]],
                [("B", 1, 2), ("B", 2, 3), ("B", 1, 3),
                 ("B", 4, 5), ("B", 5, 6), ("B", 4, 6)])
    report = check_su(p)
    assert report.verdict is Verdict.INCONCLUSIVE
    by_name = {c.name: c.holds for c in report.conditions}
    assert not by_name["drift graph free of multi-edges"]
    assert by_name["union graph has a self-loop or an odd-red cycle"]


@pytest.mark.parametrize("name,theorem", [("su5_hub_with_loops", "Theorem 4"),
                                          ("su6_two_triads", "Theorem 5")],
                         ids=["su5_hub_with_loops", "su6_two_triads"])
def test_check_su_walks_the_controlled_graph_once(name, theorem, monkeypatch):
    # su5's controlled graph is connected (Theorem 4), su6's is not (Theorem 5):
    # either branch reads the controlled components' count and least size
    # from one walk
    pair = load_pair(name)
    contr = graphs.contr_graph(pair.control)
    summary, walked = analysis.component_summary, []

    def counting(g):
        walked.append(g)
        return summary(g)

    monkeypatch.setattr(analysis, "component_summary", counting)
    assert check_su(pair).decided_by == theorem
    assert walked.count(contr) == 1


def test_check_kind_dispatch_and_mismatch(so6_pair, su5_pair):
    assert check(so6_pair).verdict is Verdict.SUFFICIENT_YES
    with pytest.raises(KindMismatch):
        check_gl(so6_pair)
    with pytest.raises(KindMismatch):
        check_su(so6_pair)
    with pytest.raises(KindMismatch):
        check_so(su5_pair)


# ---------------------------------------------------------------------------
# generated-subalgebra tests against the exact closure
# ---------------------------------------------------------------------------


def control(kind, *bases):
    return ControlPattern(kind, tuple(BasisElement(t, i, j) for t, i, j in bases))


def closure_dim(kind, ctrl):
    gens = [AlgebraElement.build(kind, [(b, 1)]) for b in ctrl.bases]
    return lie_closure(gens)[1]


def test_check_generated_so_examples():
    s3, s4 = so(3), so(4)
    c = control(s3, ("B", 1, 2), ("B", 2, 3))
    assert check_generated_so(c) and closure_dim(s3, c) == 3
    c = control(s4, ("B", 1, 2), ("B", 3, 4))
    assert not check_generated_so(c) and closure_dim(s4, c) == 2
    full = ControlPattern(s4, canonical_basis(s4))
    assert check_generated_so(full) and closure_dim(s4, full) == 6


def test_check_generated_so_exhaustive_n3():
    s3 = so(3)
    all_b = list(canonical_basis(s3))
    for size in range(1, len(all_b) + 1):
        for subset in combinations(all_b, size):
            c = ControlPattern(s3, subset)
            assert check_generated_so(c) == (closure_dim(s3, c) == 3)


def test_check_generated_gl_examples():
    g2 = gl(2)
    c = control(g2, ("E", 1, 2), ("E", 2, 1), ("E", 1, 1))
    assert check_generated_gl(c) is GeneratedGl.FULL and closure_dim(g2, c) == 4
    c = control(g2, ("E", 1, 2), ("E", 2, 1))
    assert check_generated_gl(c) is GeneratedGl.SL_ONLY and closure_dim(g2, c) == 3
    c = control(g2, ("E", 1, 2))
    assert check_generated_gl(c) is GeneratedGl.NEITHER and closure_dim(g2, c) == 1
    with pytest.raises(KindMismatch):
        check_generated_gl(control(so(3), ("B", 1, 2)))


def test_check_generated_gl_random_agreement():
    g3 = gl(3)
    all_e = list(canonical_basis(g3))
    rng = random.Random(3)
    for _ in range(60):
        subset = rng.sample(all_e, rng.randint(1, 6))
        c = ControlPattern(g3, tuple(subset))
        verdict = check_generated_gl(c)
        basis, dim, _ = lie_closure([AlgebraElement.build(g3, [(b, 1)]) for b in c.bases])
        assert (verdict is GeneratedGl.FULL) == (dim == 9)
        assert (verdict in (GeneratedGl.FULL, GeneratedGl.SL_ONLY)) == contains_sl(basis)


def test_check_generated_su_examples():
    s3 = su(3)
    c = control(s3, ("B", 1, 2), ("B", 2, 3), ("D", 1, 2))
    assert check_generated_su(c) and closure_dim(s3, c) == 8
    c = control(s3, ("B", 1, 2), ("C", 1, 2))
    assert not check_generated_su(c) and closure_dim(s3, c) == 3
    # odd-red triangle: one red edge among two blue ones
    c = control(s3, ("B", 1, 2), ("B", 2, 3), ("C", 1, 3))
    assert check_generated_su(c) and closure_dim(s3, c) == 8
    # even-red triangle stays a proper subalgebra
    c = control(s3, ("B", 1, 2), ("C", 1, 3), ("C", 2, 3))
    assert not check_generated_su(c) and closure_dim(s3, c) == 3


def paper_generates_su(n, bases):
    """The paper's statement, read off the bases: su(n) is generated iff the
    colored graph has two or more colors with a spanning connected blue
    subgraph, or is connected with a self-loop, or is connected with an
    odd-red cycle."""
    color = {"B": graphs.Color.BLUE, "C": graphs.Color.RED}
    triples = [(b.i, b.j, color[b.tag]) for b in bases if b.tag != "D"]
    triples += [(v, v, graphs.Color.GREEN) for b in bases if b.tag == "D" for v in (b.i, b.j)]
    g = graphs.ColoredMultigraph.of(n, triples)
    blue = graphs.UndirectedGraph.of(n, [(i, j) for i, j, c in triples if c is graphs.Color.BLUE])
    connected = len(components(g)) == 1
    return (len({c for _, _, c in triples}) >= 2 and len(components(blue)) == 1
            or connected and any(b.tag == "D" for b in bases)
            or connected and brute_odd_red_cycle(g))


@pytest.mark.parametrize("n,largest", [(3, 9), (4, 5)])
def test_check_generated_su_matches_the_three_clause_statement(n, largest):
    # every su(3) control set, and every su(4) set of up to 5 of its 18 bases
    kind = su(n)
    candidates = kind_candidates(kind)
    for size in range(1, largest + 1):
        for subset in combinations(candidates, size):
            assert check_generated_su(ControlPattern(kind, subset)) == paper_generates_su(n, subset), subset


def test_check_generated_su_random_agreement():
    s3 = su(3)
    candidates = [BasisElement(t, i, j) for t in "BCD" for i, j in [(1, 2), (1, 3), (2, 3)]]
    rng = random.Random(9)
    for _ in range(80):
        subset = rng.sample(candidates, rng.randint(1, 5))
        c = ControlPattern(s3, tuple(subset))
        assert check_generated_su(c) == (closure_dim(s3, c) == 8)


# ---------------------------------------------------------------------------
# oracle and cross-validation
# ---------------------------------------------------------------------------


def test_oracle_reports(so6_pair, gl4_noloop_pair):
    rep = oracle(so6_pair, trials=5, seed=0)
    assert rep.trials == 5 and rep.target == 15
    assert rep.achieved_full and all(d == 15 for d in rep.dimensions)
    rep = oracle(gl4_noloop_pair, trials=20, seed=2)
    assert rep.target == 16 and not rep.achieved_full
    assert all(d == 15 for d in rep.dimensions)
    # every generator is traceless, so no sample can ever escape that ceiling,
    # but coefficient cancellation may drop below the generic value 15
    rep = oracle(gl4_noloop_pair, trials=20, seed=0)
    assert not rep.achieved_full
    assert all(d <= 15 for d in rep.dimensions)


def test_oracle_normalises_the_pool_once(monkeypatch, so6_pair, gl4_noloop_pair):
    # one normalisation per oracle call, however many trials; the dimensions
    # are those of normalising the pool again for each trial.  A `_Pool`
    # passes through untouched, so only the calls that do work are counted
    normalise, calls = patterns._normalise_pool, []

    def counting(pool):
        if not isinstance(pool, patterns._Pool):
            calls.append(len(pool))
        return normalise(pool)

    monkeypatch.setattr(patterns, "_normalise_pool", counting)
    monkeypatch.setattr(verdict_module, "_normalise_pool", counting)
    pool = tuple(Fraction(k) for k in range(-500, 501) if k)
    assert oracle(so6_pair, trials=8, seed=3, pool=pool).dimensions == (15,) * 8
    assert oracle(gl4_noloop_pair, trials=8, seed=3, pool=pool).dimensions == (15,) * 8
    assert calls == [1000, 1000]
    for seed in range(5):
        drawn = sample_drift(so6_pair.drift, normalise(pool), seed)
        assert drawn == sample_drift(so6_pair.drift, list(reversed(pool)), seed)


def test_oracle_trivial_pattern_never_full():
    p = pattern(so(3), [[("B", 1, 2, 1)]], [("B", 1, 2)])
    rep = oracle(p, trials=4, seed=0)
    assert rep.dimensions == (1, 1, 1, 1) and not rep.achieved_full


def test_oracle_deterministic(su5_pair):
    assert oracle(su5_pair, trials=3, seed=5) == oracle(su5_pair, trials=3, seed=5)
    with pytest.raises(ValueError):
        oracle(su5_pair, trials=0)


@st.composite
def _pairs(draw):
    """A kind, 1-3 nonzero drift bases of 1-3 terms with coefficients
    +-1..+-3, and 1-4 control bases."""
    kind = draw(st.sampled_from([so(4), so(5), gl(3), su(3), su(4)]))
    candidates = kind_candidates(kind)
    terms = st.lists(st.tuples(st.sampled_from(candidates),
                               st.sampled_from([-3, -2, -1, 1, 2, 3])), min_size=1, max_size=3)
    base = terms.map(lambda t: AlgebraElement.build(kind, t)).filter(lambda e: not e.is_zero)
    bases = draw(st.lists(base, min_size=1, max_size=3))
    controls = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=4))
    return ZeroPatternPair(DriftPattern(kind, tuple(bases)), ControlPattern(kind, tuple(controls)))


def _reference_dimensions(pair, trials, seed, pool=DEFAULT_POOL):
    """Each trial closed on its own: no shared control closure, no bound,
    no dimension reused from an earlier trial."""
    controls = control_generators(pair.control)
    return tuple(lie_closure([sample_drift(pair.drift, pool, seed * 1_000_003 + t)]
                             + controls)[1] for t in range(trials))


@settings(max_examples=120, deadline=None)
@given(pair=_pairs(), seed=st.integers(0, 50))
def test_oracle_matches_independent_trials(pair, seed):
    assert oracle(pair, trials=4, seed=seed).dimensions == _reference_dimensions(pair, 4, seed)


@settings(max_examples=80, deadline=None)
@given(pair=_pairs(), seed=st.integers(0, 50),
       pool=st.sampled_from([(1, 2), (-1, 1), (Fraction(1, 2), -3)]))
def test_oracle_with_repeated_rays_matches_independent_trials(pair, seed, pool):
    # two pool values give at most 2^m rays to 1-3 drift bases, so most of
    # the 8 trials draw a ray an earlier trial of the call has closed
    got = oracle(pair, trials=8, seed=seed, pool=pool).dimensions
    assert got == _reference_dimensions(pair, 8, seed, pool)


@pytest.mark.parametrize("drift,controls", [
    # below full: the first trial also grows the relaxed closure
    ((so(5), [[("B", 1, 2, 1), ("B", 2, 3, -2)]]), [("B", 3, 4)]),
    # full su(4) from the first trial
    ((su(4), [[("B", 1, 2, 1), ("C", 2, 3, 3), ("D", 1, 4, 1)]]), [("B", 3, 4), ("C", 1, 2)]),
], ids=["so5-below-full", "su4-full"])
def test_oracle_closes_a_one_base_drift_once(drift, controls, monkeypatch):
    # every sample c·A of a one-base drift has A's ray, so 8 trials cost the
    # brackets of one, although the samples themselves differ
    p = pattern(*drift, controls)
    assert len({sample_drift(p.drift, DEFAULT_POOL, t) for t in range(8)}) > 1
    log = bracket_log(monkeypatch)
    one = oracle(p, trials=1, seed=0)
    once = len(log)
    many = oracle(p, trials=8, seed=0)
    assert len(log) == 2 * once
    assert many.dimensions == one.dimensions * 8 == _reference_dimensions(p, 8, 0)


@pytest.mark.parametrize("drift,controls", [
    ((so(5), [[("B", 1, 2, 1), ("B", 2, 3, -2)]]), [("B", 3, 4)]),
    ((so(5), [[("B", 1, 2, 1)], [("B", 2, 3, -2), ("B", 1, 4, 1)]]), [("B", 3, 4)]),
], ids=["one-base", "two-base"])
def test_oracle_draws_one_sample_per_trial(drift, controls, monkeypatch):
    # a one-base drift's ray is read off its base, yet every trial still
    # draws its sample, with the trial's seed
    p = pattern(*drift, controls)
    seeds = []

    def counted(pattern, pool, seed):
        seeds.append(seed)
        return sample_drift(pattern, pool, seed)

    monkeypatch.setattr(verdict_module, "sample_drift", counted)
    oracle(p, trials=8, seed=3)
    assert seeds == [3 * 1_000_003 + t for t in range(8)]


@pytest.mark.parametrize("seed", [0, 1], ids=["later-trials-zero", "first-trial-zero"])
def test_oracle_drift_cancelling_to_zero(seed):
    # bases B12 and B12 with the pool {-1, 1}: a sample is zero whenever its
    # two coefficients differ, and its closure is that of the controls alone
    p = pattern(su(3), [[("B", 1, 2, 1)], [("B", 1, 2, 1)]], [("C", 2, 3)])
    pool = (Fraction(-1), Fraction(1))
    zero = [t for t in range(8) if sample_drift(p.drift, pool, seed * 1_000_003 + t).is_zero]
    assert len(zero) >= 2 and (0 in zero) == (seed == 1)
    rep = oracle(p, trials=8, seed=seed, pool=pool)
    assert rep.dimensions == _reference_dimensions(p, 8, seed, pool)
    assert [t for t, d in enumerate(rep.dimensions) if d == 1] == zero


@settings(max_examples=60, deadline=None)
@given(pair=_pairs(), seed=st.integers(0, 50))
def test_relaxed_closure_bounds_every_trial(pair, seed):
    # every rigid drift lies in span{A_k}, so L(drift, U) ⊆ L(A_1..A_m, U)
    relaxed = lie_closure(list(pair.drift.bases) + control_generators(pair.control))[1]
    assert all(d <= relaxed for d in oracle(pair, trials=4, seed=seed).dimensions)


@pytest.mark.parametrize("drift,controls,dims", [
    # trial 0 is full, so the relaxed closure is the whole algebra and is
    # not computed; trial 6 still ends below full
    ((so(5), [[("B", 1, 2, -2), ("B", 2, 3, 1)], [("B", 1, 2, -2), ("B", 1, 4, -4)]]),
     [("B", 3, 5)], (10, 10, 10, 10, 10, 10, 4, 10)),
    # trial 0 cancels its E31 terms and stops at 8; the relaxed closure it
    # grows has dimension 11, which every later trial reaches
    ((gl(4), [[("E", 3, 1, 4)], [("E", 1, 4, 4), ("E", 2, 4, -1)], [("E", 3, 1, 2)]]),
     [("E", 3, 2), ("E", 4, 3)], (8, 11, 11, 11, 11, 11, 11, 11)),
], ids=["so5-full-first", "gl4-cancelled-first"])
def test_oracle_relaxed_bound_pinned(drift, controls, dims):
    # both found by a seeded scan over random pairs
    p = pattern(*drift, controls)
    assert oracle(p, trials=8, seed=0).dimensions == dims == _reference_dimensions(p, 8, 0)


# spec name -> (brackets evaluated by an 8-trial oracle at seed 0, dimension)
_ORACLE_BRACKETS = {
    "so6_bridged_triangles": (80, 15),
    "gl4_pair_rings_loop": (87, 16),
    "gl4_pair_rings_no_loop": (108, 15),
    "gl4_unit_drift": (100, 16),
    "su5_hub_with_loops": (71, 24),
    "su6_two_triads": (208, 35),
}


@pytest.mark.parametrize("name", _ORACLE_BRACKETS)
def test_oracle_bracket_counts_pinned(name, monkeypatch):
    # gl4_pair_rings_no_loop never reaches full gl(4), so its later trials
    # run under the relaxed bound; the other specs are full from the first
    # trial, so the bound is never computed.  On every spec the first trial
    # is the template: each later trial replays its bracket words, which all
    # raise the rank, and closes nothing.  The counts are those of the
    # generator-adjoint pair rule, which brackets each vector the control
    # closure or the first trial inserts with the generators only
    brackets, dim = _ORACLE_BRACKETS[name]
    log = bracket_log(monkeypatch)
    assert oracle(load_pair(name), 8, 0).dimensions == (dim,) * 8
    assert len(log) == brackets
    # no unordered pair twice: trials share only the closed control basis,
    # whose pairs the base run has bracketed, and the log keeps every vector
    # alive, so no id is reused
    pairs = [frozenset((id(x), id(y))) for x, y, _ in log]
    assert len(set(pairs)) == len(pairs)


@settings(max_examples=80, deadline=None)
@given(pair=_pairs(), seed=st.integers(0, 50))
def test_oracle_exact_under_shuffled_template_words(pair, seed):
    # replayed words only seed a trial's `run`, and any bracket of a trial's
    # vectors lies in its closure, so words at random earlier positions
    # cannot change a dimension
    rng = random.Random(seed)
    replay = LieClosure.replay

    def shuffled(self, words):
        first = len(self.spanning)
        return replay(self, [tuple(rng.sample(range(first + k), 2)) for k in range(len(words))])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LieClosure, "replay", shuffled)
        got = oracle(pair, trials=8, seed=seed).dimensions
    assert got == _reference_dimensions(pair, 8, seed)


@pytest.mark.parametrize("prime", [2, 3])
@settings(max_examples=60, deadline=None)
@given(pair=_pairs(), seed=st.integers(0, 50))
def test_oracle_exact_under_a_tiny_prime(prime, pair, seed):
    # mod 2 or 3 many independent brackets look dependent: a switched trial
    # that ends below its bound then closes again exactly
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_P", prime)
        got = oracle(pair, trials=4, seed=seed).dimensions
    assert got == _reference_dimensions(pair, 4, seed)


def _close_log(mp):
    """Log each `LieClosure.trial` call as (bound, rank it ends at), in call
    order: an exact re-close, bound None, follows the call that made it."""
    calls, trial = [], LieClosure.trial

    def logged(base, ray, words, bound):
        k = len(calls)
        calls.append(None)
        state = trial(base, ray, words, bound)
        calls[k] = (bound, state.rank)
        return state

    mp.setattr(LieClosure, "trial", logged)
    return calls


def _distinct_rays(pair, trials, seed):
    rules = algebra._rules(pair.kind)
    return len({frozenset(algebra._ray(rules, sample_drift(
        pair.drift, DEFAULT_POOL, seed * 1_000_003 + t)._terms.items()).items())
        for t in range(trials)})


@pytest.mark.parametrize("prime", [2, 3])
def test_oracle_falls_back_to_the_exact_trial_under_a_tiny_prime(prime, monkeypatch):
    # the oracle calls `LieClosure.trial` once per distinct ray; a switched
    # trial that ends below its bound closes itself again, exactly
    monkeypatch.setattr(algebra, "_P", prime)
    calls = _close_log(monkeypatch)
    for name in _ORACLE_BRACKETS:
        p = load_pair(name)
        start = len(calls)
        assert oracle(p, trials=8, seed=0).dimensions == _reference_dimensions(p, 8, 0), name
        bounds = [b for b, _ in calls[start:]]
        assert len(bounds) - bounds.count(None) == _distinct_rays(p, 8, 0), name
    # each re-close follows the call it closes again, which returns its
    # state; the exact rank may reach the bound that the rank mod p missed
    again = [k for k, (b, _) in enumerate(calls) if b is None]
    assert again
    for k in again:
        assert calls[k - 1][0] is not None and calls[k - 1][1] == calls[k][1]


def _dense_su6():
    # dense su(6): every B_ij its own drift base, control C12
    return pattern(su(6), [[("B", i, j, 1)] for i, j in combinations(range(1, 7), 2)],
                   [("C", 1, 2)])


def test_oracle_trials_switch_once_their_rows_outgrow_p(monkeypatch):
    # each of the 4 trials has its own ray; each makes exact decisions
    # until a new echelon row's pivot entry passes p, then decides mod p and
    # reaches full su(6) there, so none closes again.  The brackets are
    # those of the exact path, in the same order
    p = _dense_su6()
    events = []
    insert, copy = algebra._Echelon.insert, LieClosure.copy

    class Logged(algebra._ModEchelon):
        __slots__ = ()

        def __init__(self, exact):
            events.append("switch")
            super().__init__(exact)

    monkeypatch.setattr(algebra._Echelon, "insert",
                        lambda self, vec: events.append("insert") or insert(self, vec))
    monkeypatch.setattr(LieClosure, "copy", lambda self: events.append("copy") or copy(self))
    with monkeypatch.context() as mp:
        mp.setattr(algebra, "_ModEchelon", Logged)
        log = bracket_log(mp)
        calls = _close_log(mp)
        assert oracle(p, trials=4, seed=0).dimensions == (35,) * 4
        switched = [(x, y) for x, y, _ in log]
    assert calls == [(35, 35)] * 4
    control, *trials = " ".join(events).split("copy")
    assert "switch" not in control and len(trials) == 4
    for trial in trials:
        exact, _, modular = trial.partition("switch")
        assert "insert" in exact and modular.split() == []
    # the all-exact path: each switch only copies the exact echelon
    monkeypatch.setattr(algebra, "_ModEchelon", algebra._Echelon.copy)
    log = bracket_log(monkeypatch)
    assert oracle(p, trials=4, seed=0).dimensions == (35,) * 4
    assert [(x, y) for x, y, _ in log] == switched


# found by a seeded scan over random pairs: the first trial's rows outgrow
# p, and it ends at 16 of su(6); the relaxed closure has dimension 19
_SWITCHED_BELOW_FULL = pattern(
    su(6), [[("B", 1, 3, -3), ("D", 1, 3, -3), ("D", 1, 4, 6), ("D", 1, 6, -3)],
            [("B", 4, 5, -3), ("C", 4, 6, -1), ("C", 5, 6, 4)],
            [("C", 4, 6, 4), ("D", 1, 3, -4), ("D", 1, 5, 4)]],
    [("C", 2, 6), ("D", 2, 6)])


def test_oracle_recloses_a_switched_first_trial_below_full(monkeypatch):
    p = _SWITCHED_BELOW_FULL
    relaxed = lie_closure(list(p.drift.bases) + control_generators(p.control))[1]
    assert relaxed == 19
    with monkeypatch.context() as mp:
        calls = _close_log(mp)
        dims = oracle(p, trials=8, seed=0).dimensions
    assert dims == _reference_dimensions(p, 8, 0) and dims[0] == 16
    # the first trial switched and ended below full, so it closed again
    # exactly, once, before the drift bases grew it to R.  Each of the 8
    # distinct rays is closed once; later trials run under R, and the three
    # of them that switch and end below it close again too
    assert [b for b, _ in calls] == [35, None, 19, 19, 19, None, 19, 19, None, 19, None, 19]
    assert {r for _, r in calls} == {16} and _distinct_rays(p, 8, 0) == 8
    # the all-exact path makes the same calls, less the re-closes
    monkeypatch.setattr(algebra, "_ModEchelon", algebra._Echelon.copy)
    with monkeypatch.context() as mp:
        exact = _close_log(mp)
        assert oracle(p, trials=8, seed=0).dimensions == dims
    assert exact == [c for c in calls if c[0] is not None]


@pytest.mark.parametrize("pair,closures", [
    (_dense_su6(), 1),
    (_SWITCHED_BELOW_FULL, 2),
    # its first trial ends at 15 of gl(4) without switching, so only the
    # bound `LieClosure.trial` clears keeps the relaxed closure exact
    (load_pair("gl4_pair_rings_no_loop"), 2),
], ids=["dense-su6", "below-full", "gl4-no-loop"])
def test_oracle_control_and_relaxed_closures_stay_exact(pair, closures, monkeypatch):
    # only a trial closure, given its bound, switches: the control closure
    # and the relaxed closure start exact, without a bound, and end exact.
    # Each run is logged: the control closure's is the first, and the
    # relaxed closure's, of a first trial below full, is the second on the
    # first trial's state
    runs, run = [], LieClosure.run

    def logged(self):
        again = any(s is self for s, *_ in runs)
        start = (self.bound, type(self.ech))
        run(self)
        runs.append((self, again, start, type(self.ech)))

    monkeypatch.setattr(LieClosure, "run", logged)
    oracle(pair, trials=8, seed=0)
    assert runs[0][0].generators == list(range(len(pair.control.bases)))
    # the control closure, and the relaxed closure of a first trial below full
    whole = [runs[0]] + [r for r in runs if r[1]]
    assert len(whole) == closures
    assert all(start == (None, algebra._Echelon) and end is algebra._Echelon
               for _, _, start, end in whole)


def _control_closure(pair):
    # the oracle's control closure: each control base's ray, run exactly
    base = LieClosure(pair.kind)
    for b in pair.control.bases:
        base.add_ray(algebra._ray(base.rules, algebra._stored_terms(b)))
    base.run()
    return base


def _first_ray(pair, base):
    return algebra._ray(base.rules, sample_drift(pair.drift, DEFAULT_POOL, 0)._terms.items())


def test_trial_leaves_its_base_and_hands_back_no_bound(monkeypatch):
    # with the real p the first dense su(6) trial switches and reaches 35 mod
    # p, which proves it: no re-close, and no bound on the state returned
    pair = _dense_su6()
    base = _control_closure(pair)
    state = base.trial(_first_ray(pair, base), None, 35)
    assert type(state.ech) is algebra._ModEchelon
    assert state.rank == 35 and state.bound is None
    # mod 2 the first trial of `_SWITCHED_BELOW_FULL` switches and ends below
    # full su(6), so `trial` closes it again exactly, from an untouched base
    monkeypatch.setattr(algebra, "_P", 2)
    base = _control_closure(_SWITCHED_BELOW_FULL)
    ray = _first_ray(_SWITCHED_BELOW_FULL, base)
    spanning, rank = [dict(v) for v in base.spanning], base.rank
    rows = {q: dict(row) for q, row in base.ech.rows.items()}
    with monkeypatch.context() as mp:
        calls = _close_log(mp)
        state = base.trial(ray, None, 35)
    assert calls == [(35, 16), (None, 16)]
    assert base.spanning == spanning and base.rank == rank and base.ech.rows == rows
    assert type(state.ech) is algebra._Echelon and state.rank == 16 and state.bound is None


def test_lie_closure_stays_exact_past_p(monkeypatch):
    # the first dense su(6) trial's closure, as `structcon closure` computes
    # it: its rows outgrow p, and it still ends on the exact echelon
    pair = _dense_su6()
    states, entries = [], []
    basis, insert = LieClosure.basis, algebra._Echelon.insert
    monkeypatch.setattr(LieClosure, "basis", lambda self: states.append(self) or basis(self))
    monkeypatch.setattr(algebra._Echelon, "insert",
                        lambda self, vec: entries.append(insert(self, vec)) or entries[-1])
    generators = [sample_drift(pair.drift, DEFAULT_POOL, 0), *control_generators(pair.control)]
    span, dim, _ = lie_closure(generators)
    assert dim == 35 and max(entries) > algebra._P
    assert [type(s.ech) for s in states] == [algebra._Echelon]
    # full su(6): the RREF rows are the canonical basis, in order
    assert span.rows == tuple(AlgebraElement.build(pair.kind, [(b, 1)])
                              for b in canonical_basis(pair.kind))


def test_oracle_runs_on_from_a_replay_that_falls_short(monkeypatch):
    # found by a seeded scan over random pairs: so(4) is reached by every
    # trial, but one later ray's replay of the first trial's words meets a
    # dependent or zero word; the trial's `run` goes on from the state the
    # replay left and still reaches the bound
    p = pattern(so(4), [[("B", 1, 2, 2), ("B", 2, 3, -1)], [("B", 1, 2, 2)]],
                [("B", 1, 4), ("B", 3, 4)])
    events = []
    replay, run = LieClosure.replay, LieClosure.run

    def logged_replay(self, words):
        replay(self, words)
        events.append(("replay", id(self), len(self.spanning), self.rank))

    def logged_run(self):
        events.append(("run", id(self), len(self.spanning), self.rank))
        run(self)
        events.append(("ran", self.rank))

    monkeypatch.setattr(LieClosure, "replay", logged_replay)
    monkeypatch.setattr(LieClosure, "run", logged_run)
    assert oracle(p, trials=8, seed=0).dimensions == (6,) * 8 == _reference_dimensions(p, 8, 0)
    assert ("replay", 6) in [(e[0], e[-1]) for e in events]
    short = [k for k, e in enumerate(events) if e[0] == "replay" and e[-1] < 6]
    assert short
    for k in short:
        assert events[k + 1] == ("run", *events[k][1:]) and events[k + 2] == ("ran", 6)


def test_closure_copy_keeps_parent_records_apart():
    state = LieClosure(so(5))
    state.add_generators([elem(so(5), ("B", 1, 2, 1)), elem(so(5), ("B", 2, 3, 1))])
    state.run()
    before = list(state.parents)
    twin = state.copy()
    twin.add_generators([elem(so(5), ("B", 3, 4, 1))])
    twin.run()
    assert state.parents == before and twin.parents[:len(before)] == before
    assert len(twin.parents) > len(before)
    # each record names the bracket its vector is the primitive of
    for s in (state, twin):
        for vec, link in zip(s.spanning, s.parents):
            if link is not None:
                z = algebra._bracket_vec(s.spanning[link[0]], s.spanning[link[1]], s.rules, {})
                assert algebra._primitive(z) == vec


def test_oracle_builds_rows_of_generator_supports_only(monkeypatch):
    # each bracket puts its generator on the left, so every row built
    # belongs to a control generator or to a drift base, whose supports hold
    # every sampled drift's; below-full pairs run the relaxed closure too.
    # Sizes as in the benchmark's random corpus: so and gl to 8, su to 7
    tables = fresh_rules(monkeypatch)
    rng = random.Random(15)
    for k in range(400):
        family = ("so", "gl", "su")[k % 3]
        pair = random_kind_pair(rng, family, rng.randint(3, 7 if family == "su" else 8))
        tables.cache_clear()
        oracle(pair, trials=4, seed=k)
        rows = set(tables(pair.kind).rows)
        gens = control_generators(pair.control) + list(pair.drift.bases)
        assert rows <= {i for g in gens for i in g.to_vector()}, (k, pair)


def test_cross_validate_bundled_patterns(so6_pair, gl4_loop_pair, gl4_noloop_pair,
                                         gl4_units_pair, su5_pair, su6_pair):
    for pair, expected in [
        (so6_pair, Verdict.SUFFICIENT_YES),
        (gl4_loop_pair, Verdict.SUFFICIENT_YES),
        (gl4_noloop_pair, Verdict.INCONCLUSIVE),
        (gl4_units_pair, Verdict.SUFFICIENT_YES),
        (su5_pair, Verdict.EXACT_YES),
        (su6_pair, Verdict.SUFFICIENT_YES),
    ]:
        rep = cross_validate(pair, trials=6, seed=0)
        assert rep.verdict is expected
        assert not rep.contradiction
        if expected in (Verdict.SUFFICIENT_YES, Verdict.EXACT_YES):
            assert rep.oracle.achieved_full


def test_contradiction_flag_semantics(su5_pair):
    rep = cross_validate(su5_pair, trials=4, seed=0)
    # Exact/SufficientYes would contradict only a never-full oracle
    assert rep.oracle.achieved_full and not rep.contradiction


def test_drift_chain_identity_su6():
    # [[A, B_13], B_12] keeps exactly the third drift base's contribution
    kind = su(6)
    a1 = elem(kind, ("C", 1, 4, 1), ("B", 4, 5, 2))
    a2 = elem(kind, ("B", 1, 5, 3), ("C", 2, 5, -2), ("D", 2, 5, 1))
    a3 = elem(kind, ("B", 5, 6, 1), ("C", 3, 6, -1))
    rng = random.Random(1)
    pool = [Fraction(k) for k in range(-9, 10) if k]
    for _ in range(5):
        l1, l2, l3 = (rng.choice(pool) for _ in range(3))
        drift = a1.scale(l1) + a2.scale(l2) + a3.scale(l3)
        inner = bracket(drift, AlgebraElement.basis(kind, "B", 1, 3))
        got = bracket(inner, AlgebraElement.basis(kind, "B", 1, 2))
        assert got == AlgebraElement.basis(kind, "C", 2, 6, l3)


def test_enlarging_controls_never_trips_necessity():
    rng = random.Random(77)
    grown = 0
    while grown < 25:
        pair = random_pair(rng)
        report = check(pair)
        if report.verdict not in (Verdict.SUFFICIENT_YES, Verdict.EXACT_YES):
            continue
        kind = pair.kind
        if kind.family.value == "so":
            extra = [BasisElement("B", i, j) for i in range(1, kind.n)
                     for j in range(i + 1, kind.n + 1)]
        elif kind.family.value == "gl":
            extra = [BasisElement("E", i, j) for i in range(1, kind.n + 1)
                     for j in range(1, kind.n + 1)]
        else:
            extra = [BasisElement(t, i, j) for t in "BCD" for i in range(1, kind.n)
                     for j in range(i + 1, kind.n + 1)]
        added = tuple(set(pair.control.bases) | set(rng.sample(extra, min(2, len(extra)))))
        bigger = ZeroPatternPair(pair.drift, ControlPattern(kind, added))
        assert check(bigger).verdict is not Verdict.NECESSARY_FAILED_NO
        grown += 1
