"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Everything is exact rational arithmetic; every expected dimension is an
integer equality with zero tolerance.  Random instances are generated from
fixed seeds, so each run is reproducible bit for bit.
"""

import random
from fractions import Fraction
from itertools import combinations

from structcon.algebra import (
    AlgebraElement,
    BasisElement,
    bracket,
    bracket_via_matrices,
    canonical_basis,
    contains_sl,
    gl,
    lie_closure,
    so,
    su,
)
from structcon.analysis import (
    closure_step_M,
    closure_step_T,
    has_odd_red_cycle,
    is_connected,
)
from structcon.graphs import (
    Color,
    ColoredMultigraph,
    Digraph,
    UndirectedGraph,
    drift_graph,
    matrix_graph,
)
from structcon.patterns import DEFAULT_POOL, ControlPattern, sample_drift
from structcon.verdict import (
    GeneratedGl,
    Verdict,
    check_generated_gl,
    check_generated_so,
    check_generated_su,
    cross_validate,
)

from conftest import SPEC_NAMES, load_pair
from helpers import brute_odd_red_cycle, random_pair, witness_is_odd_red_cycle


def _criterion(num: int, text: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num} [{status}]: {text}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def elem(kind, *terms):
    return AlgebraElement.build(kind, [(BasisElement(t, i, j), c) for t, i, j, c in terms])


def unit(kind, tag, i, j):
    return AlgebraElement.basis(kind, tag, i, j)


def closure_dim(gens):
    return lie_closure(gens)[1]


def test_criterion_1_golden_closures():
    failures = []

    s6 = so(6)
    a = elem(s6, ("B", 1, 4, 2), ("B", 2, 5, 1)) \
        + elem(s6, ("B", 1, 2, 1), ("B", 1, 5, -1)).scale(3) \
        + elem(s6, ("B", 1, 5, 3), ("B", 2, 5, 2))
    dim = closure_dim([a, unit(s6, "B", 1, 2), unit(s6, "B", 2, 3),
                       unit(s6, "B", 4, 5), unit(s6, "B", 5, 6)])
    if dim != 15:
        failures.append(f"so(6) drifted set gave {dim} != 15")

    g4 = gl(4)
    drift_bases = (elem(g4, ("E", 1, 3, 3), ("E", 4, 2, 1)),
                   elem(g4, ("E", 1, 2, 1), ("E", 1, 3, -1)),
                   elem(g4, ("E", 3, 3, 1), ("E", 4, 4, -1), ("E", 3, 1, 2)))
    a = drift_bases[0] + drift_bases[1].scale(2) + drift_bases[2]
    controls_full = [unit(g4, "E", 1, 1), unit(g4, "E", 1, 2), unit(g4, "E", 2, 1),
                     unit(g4, "E", 3, 4), unit(g4, "E", 4, 3)]
    dim = closure_dim([a] + controls_full)
    if dim != 16:
        failures.append(f"gl(4) looped set gave {dim} != 16")

    # loop-free controls: generic samples stabilize at the traceless algebra;
    # entry cancellation (a measure-zero event) can only drop further below
    noloop_pair = load_pair("gl4_pair_rings_no_loop")
    controls_noloop = [unit(g4, "E", 1, 2), unit(g4, "E", 2, 1),
                       unit(g4, "E", 3, 4), unit(g4, "E", 4, 3)]
    pattern_arcs = drift_graph(noloop_pair.drift).arcs
    generic_seeds = []
    seed = 0
    while len(generic_seeds) < 20:
        sample = sample_drift(noloop_pair.drift, DEFAULT_POOL, seed)
        dim = closure_dim([sample] + controls_noloop)
        if dim >= 16:
            failures.append(f"gl(4) loop-free set reached {dim} at seed {seed}")
        if matrix_graph(sample).arcs == pattern_arcs:
            generic_seeds.append(seed)
            if dim != 15:
                failures.append(f"gl(4) loop-free generic seed {seed} gave {dim} != 15")
        seed += 1
    assert len(set(generic_seeds)) == 20

    s5 = su(5)
    dim = closure_dim([unit(s5, "B", 1, 2), unit(s5, "C", 1, 3), unit(s5, "B", 1, 4),
                       unit(s5, "B", 1, 5), unit(s5, "D", 2, 4)])
    if dim != 24:
        failures.append(f"su(5) set gave {dim} != 24")

    s6u = su(6)
    a = elem(s6u, ("C", 1, 4, 1), ("B", 4, 5, 2)) \
        + elem(s6u, ("B", 1, 5, 3), ("C", 2, 5, -2), ("D", 2, 5, 1)) \
        + elem(s6u, ("B", 5, 6, 1), ("C", 3, 6, -1))
    dim = closure_dim([a, unit(s6u, "B", 1, 2), unit(s6u, "B", 1, 3),
                       unit(s6u, "B", 4, 6), unit(s6u, "C", 5, 6), unit(s6u, "D", 4, 5)])
    if dim != 35:
        failures.append(f"su(6) drifted set gave {dim} != 35")

    _criterion(1, "golden closure dimensions 15/16/15x20/24/35 (exact)",
               not failures, "; ".join(failures))


def test_criterion_2_bracket_oracle_equivalence():
    mismatches = 0
    checked = 0
    for kind in (so(6), gl(4), su(5)):
        basis = canonical_basis(kind)
        elems = [AlgebraElement.build(kind, [(b, 1)]) for b in basis]
        for x in elems:
            for y in elems:
                checked += 1
                if bracket(x, y) != bracket_via_matrices(x, y):
                    mismatches += 1
    _criterion(2, f"structure constants match the matrix commutator on all "
                  f"{checked} ordered basis pairs of so(6), gl(4), su(5)",
               mismatches == 0, f"{mismatches} mismatches")


def test_criterion_3_so_generation_iff_connected():
    s4 = so(4)
    all_b = list(canonical_basis(s4))
    bad = 0
    for size in range(len(all_b) + 1):
        for subset in combinations(all_b, size):
            if subset:
                dim = closure_dim([AlgebraElement.build(s4, [(b, 1)]) for b in subset])
                connected = check_generated_so(ControlPattern(s4, subset))
            else:
                dim = 0
                connected = is_connected(UndirectedGraph.of(4, []))
            if (dim == 6) != connected:
                bad += 1
    _criterion(3, "so(4): closure is full iff the edge graph is connected, "
                  "all 64 subsets", bad == 0, f"{bad} mismatches")


def test_criterion_4_gl_generation_iff_strong_connectivity():
    g3 = gl(3)
    all_e = list(canonical_basis(g3))
    rng = random.Random(401)
    bad = 0
    for _ in range(200):
        subset = tuple(rng.sample(all_e, rng.randint(1, 9)))
        pattern = ControlPattern(g3, subset)
        graph_says = check_generated_gl(pattern)
        basis, dim, _ = lie_closure([AlgebraElement.build(g3, [(b, 1)]) for b in subset])
        if contains_sl(basis) != (graph_says in (GeneratedGl.FULL, GeneratedGl.SL_ONLY)):
            bad += 1
        if (dim == 9) != (graph_says is GeneratedGl.FULL):
            bad += 1
    _criterion(4, "gl(3): sl-containment iff strong connectivity, fullness iff "
                  "strong connectivity plus a self-loop, 200 seeded subsets",
               bad == 0, f"{bad} mismatches")


def test_criterion_5_su_generation_iff_colored_conditions():
    rng = random.Random(501)
    bad = 0
    for n, rounds in ((3, 200), (4, 100)):
        kind = su(n)
        candidates = [BasisElement(t, i, j) for t in "BCD"
                      for i in range(1, n) for j in range(i + 1, n + 1)]
        for _ in range(rounds):
            subset = tuple(rng.sample(candidates, rng.randint(1, min(7, len(candidates)))))
            pattern = ControlPattern(kind, subset)
            graph_says = check_generated_su(pattern)
            dim = closure_dim([AlgebraElement.build(kind, [(b, 1)]) for b in pattern.bases])
            if graph_says != (dim == kind.dimension):
                bad += 1
    _criterion(5, "su(3)/su(4): closure is full iff two-colors-with-blue-span, "
                  "or connected-with-loop, or connected-with-odd-red-cycle "
                  "(200+100 seeded subsets)", bad == 0, f"{bad} mismatches")


def _gl_chain_step(kind, current: set) -> set:
    out = set(current)
    for a in current:
        for b in current:
            if a == b:
                continue
            z = bracket(AlgebraElement.build(kind, [(a, 1)]),
                        AlgebraElement.build(kind, [(b, 1)]))
            terms = list(z.items())
            if len(terms) == 1 and terms[0][0].tag == "E" and terms[0][0].i != terms[0][0].j:
                out.add(terms[0][0])
    return out


def _su_chain_step(kind, current: set) -> set:
    out = set(current)
    for a in current:
        for b in current:
            if a == b:
                continue
            z = bracket(AlgebraElement.build(kind, [(a, 1)]),
                        AlgebraElement.build(kind, [(b, 1)]))
            terms = list(z.items())
            if len(terms) == 1 and terms[0][0].tag in "BC":
                out.add(terms[0][0])
    return out


def test_criterion_6_graph_maps_track_bracket_chains():
    rng = random.Random(601)
    bad = 0

    for _ in range(100):
        n = rng.randint(2, 5)
        kind = gl(n)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        chosen = {p for p in pairs if rng.random() < 0.4}
        chain = {BasisElement("E", i, j) for i, j in chosen}
        graph = Digraph.of(n, chosen)
        for _ in range(4):
            chain = _gl_chain_step(kind, chain)
            graph = closure_step_M(graph)
            if graph.arcs != frozenset((b.i, b.j) for b in chain):
                bad += 1
                break

    for _ in range(100):
        n = rng.randint(2, 5)
        kind = su(n)
        candidates = [(t, i, j) for t in "BC" for i in range(1, n)
                      for j in range(i + 1, n + 1)]
        while True:
            chosen = {c for c in candidates if rng.random() < 0.35}
            graph = ColoredMultigraph.of(
                n, [(i, j, Color.BLUE if t == "B" else Color.RED) for t, i, j in chosen])
            if not has_odd_red_cycle(graph)[0]:
                break
        chain = {BasisElement(t, i, j) for t, i, j in chosen}
        for _ in range(4):
            chain = _su_chain_step(kind, chain)
            graph = closure_step_T(graph)
            expected = frozenset(
                (b.i, b.j, Color.BLUE if b.tag == "B" else Color.RED) for b in chain)
            if graph.edges != expected:
                bad += 1
                break

    _criterion(6, "digraph and colored closure maps equal the bracket chains "
                  "for k <= 4 on 100+100 seeded instances", bad == 0, f"{bad} mismatches")


def test_criterion_7_checker_oracle_consistency():
    contradictions = 0
    unconfirmed = 0

    for name in SPEC_NAMES:
        report = cross_validate(load_pair(name), trials=8, seed=0)
        if report.contradiction:
            contradictions += 1
        if report.verdict in (Verdict.SUFFICIENT_YES, Verdict.EXACT_YES) \
                and not report.oracle.achieved_full:
            unconfirmed += 1

    rng = random.Random(701)
    for k in range(300):
        pair = random_pair(rng)
        report = cross_validate(pair, trials=8, seed=k)
        if report.contradiction:
            contradictions += 1
        if report.verdict in (Verdict.SUFFICIENT_YES, Verdict.EXACT_YES) \
                and not report.oracle.achieved_full:
            unconfirmed += 1

    _criterion(7, "checker and oracle agree on the bundled patterns plus 300 "
                  "seeded random patterns (8 trials each)",
               contradictions == 0 and unconfirmed == 0,
               f"{contradictions} contradictions, {unconfirmed} unconfirmed yes-verdicts")


def test_criterion_8_odd_red_detector_matches_enumeration():
    rng = random.Random(801)
    bad = 0
    for _ in range(500):
        n = rng.randint(2, 5)
        triples = []
        for _ in range(rng.randint(0, 8)):
            roll = rng.random()
            if roll < 0.15:
                v = rng.randint(1, n)
                triples.append((v, v, Color.GREEN))
            else:
                i = rng.randint(1, n - 1)
                j = rng.randint(i + 1, n)
                triples.append((i, j, rng.choice((Color.BLUE, Color.RED))))
        g = ColoredMultigraph.of(n, triples)
        found, witness = has_odd_red_cycle(g)
        if found != brute_odd_red_cycle(g):
            bad += 1
        elif found and not (witness_is_odd_red_cycle(witness)
                            and all(e in g.edges for e in witness)):
            bad += 1
    _criterion(8, "odd-red-cycle detector matches cycle enumeration on 500 "
                  "seeded multigraphs (n <= 5, <= 8 edges), witnesses valid",
               bad == 0, f"{bad} disagreements")


def test_criterion_9_drift_bracket_identity():
    kind = su(6)
    a1 = elem(kind, ("C", 1, 4, 1), ("B", 4, 5, 2))
    a2 = elem(kind, ("B", 1, 5, 3), ("C", 2, 5, -2), ("D", 2, 5, 1))
    a3 = elem(kind, ("B", 5, 6, 1), ("C", 3, 6, -1))
    rng = random.Random(901)
    pool = [Fraction(k) for k in range(-9, 10) if k]
    bad = 0
    for _ in range(20):
        l1, l2, l3 = (rng.choice(pool) for _ in range(3))
        drift = a1.scale(l1) + a2.scale(l2) + a3.scale(l3)
        got = bracket(bracket(drift, unit(kind, "B", 1, 3)), unit(kind, "B", 1, 2))
        if got != AlgebraElement.basis(kind, "C", 2, 6, l3):
            bad += 1
    _criterion(9, "[[A, B13], B12] reduces exactly to l3*C26 for 20 random "
                  "nonzero coefficient triples", bad == 0, f"{bad} failures")
