import random
import tracemalloc

import pytest

from structcon import analysis
from structcon.algebra import AlgebraElement, AlgebraKind, BasisElement, Family, su
from structcon.analysis import (
    circumjacent_digraph,
    circumjacent_undirected,
    closure_step_M,
    closure_step_T,
    component_summary,
    digraph_self_loops,
    green_loops,
    has_multi_edge,
    has_odd_red_cycle,
    is_connected,
    is_simple_complete,
    iterate_M,
    iterate_T,
    strong_components,
    strongly_connected,
)
from structcon.errors import HasSelfLoop, NotSimple
from structcon.graphs import (
    Color,
    ColoredMultigraph,
    Digraph,
    UndirectedGraph,
    contr_graph,
    drift_graph,
    union,
)
from structcon.patterns import ControlPattern, DriftPattern, ZeroPatternPair
from structcon.verdict import Verdict, check

from helpers import brute_odd_red_cycle, components, reaches, witness_is_odd_red_cycle


def test_components_golden(so6_pair, su6_pair):
    assert components(contr_graph(so6_pair.control)) == [
        frozenset({1, 2, 3}), frozenset({4, 5, 6})]
    assert components(contr_graph(su6_pair.control)) == [
        frozenset({1, 2, 3}), frozenset({4, 5, 6})]
    assert components(UndirectedGraph.of(3, [])) == [
        frozenset({1}), frozenset({2}), frozenset({3})]
    # the checkers read the same partition as (count, least size)
    assert component_summary(contr_graph(so6_pair.control)) == (2, 3)
    assert component_summary(contr_graph(su6_pair.control)) == (2, 3)
    assert component_summary(UndirectedGraph.of(3, [])) == (3, 1)


def test_green_loops_do_not_join_nodes():
    g = ColoredMultigraph.of(3, [(1, 1, Color.GREEN), (2, 2, Color.GREEN)])
    assert components(g) == [frozenset({1}), frozenset({2}), frozenset({3})]
    assert component_summary(g) == (3, 1)
    assert not is_connected(g)


def test_is_connected():
    assert is_connected(UndirectedGraph.of(1, []))
    assert not is_connected(UndirectedGraph.of(2, []))
    assert is_connected(UndirectedGraph.of(3, [(1, 2), (2, 3)]))


def _brute_partition(n, pairs):
    """Merge the node sets that a pair joins until none does; blocks in
    order of least node."""
    blocks = [{v} for v in range(1, n + 1)]
    merged = True
    while merged:
        merged = False
        for i, j in pairs:
            bi = next(b for b in blocks if i in b)
            bj = next(b for b in blocks if j in b)
            if bi is not bj:
                bi |= bj
                blocks.remove(bj)
                merged = True
    return sorted(map(frozenset, blocks), key=min)


def test_components_match_a_brute_partition_on_random_graphs():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(2, 7)
        pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 6))]
        plain = UndirectedGraph.of(n, [(i, j) for i, j in pairs if i != j])
        colored = _random_multigraph(rng, n, 6)
        for g, joins in ((plain, plain.edges), (colored, [(i, j) for i, j, _ in colored.edges])):
            got = components(g)
            assert got == _brute_partition(n, joins), g
            assert is_connected(g) == (len(got) == 1)
            assert component_summary(g) == (len(got), min(map(len, got))), g


def test_strong_components_match_brute_reachability_on_random_digraphs():
    # the weak partition when each block is strongly connected with at least
    # 2 nodes, else None; self-loops count for nothing
    rng = random.Random(98)
    for _ in range(300):
        n = rng.randint(1, 6)
        g = Digraph.of(n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 9))])
        blocks = _brute_partition(n, g.arcs)
        strong = all(len(b) >= 2 and all(reaches(g, u, v) for u in b for v in b) for b in blocks)
        assert strong_components(g) == (blocks if strong else None), g
        assert strongly_connected(g) == all(reaches(g, u, v) for u in range(1, n + 1)
                                            for v in range(1, n + 1)), g


def test_check_walks_only_the_nodes_on_edges(monkeypatch):
    # two edges in su(10^5): every other node is a singleton component,
    # found without a walk, so at most the two nodes on edges start one
    kind = su(10**5)
    pair = ZeroPatternPair(DriftPattern(kind, (AlgebraElement.basis(kind, "B", 1, 2),)),
                           ControlPattern(kind, (BasisElement("C", 1, 2),)))
    walks, reachable = [], analysis._reachable
    monkeypatch.setattr(analysis, "_reachable", lambda adj, start: walks.append(start) or reachable(adj, start))
    report = check(pair)
    assert report.verdict is Verdict.NECESSARY_FAILED_NO
    assert 1 <= len(walks) <= 2
    comps = components(contr_graph(pair.control))
    assert len(comps) == 10**5 - 1 and comps[0] == frozenset({1, 2})


@pytest.mark.parametrize("family", ["so", "su"])
def test_check_builds_no_set_per_edgeless_node(family, monkeypatch):
    # the controlled components' count and least size come from the nodes
    # on edges alone: the walks visit the two edge nodes at most once each
    kind = AlgebraKind(Family(family), 10**5)
    pair = ZeroPatternPair(DriftPattern(kind, (AlgebraElement.basis(kind, "B", 1, 2),)),
                           ControlPattern(kind, (BasisElement("C" if family == "su" else "B", 1, 2),)))
    walked, reachable = [], analysis._reachable

    def counting(adj, start):
        walked.append(reachable(adj, start))
        return walked[-1]

    monkeypatch.setattr(analysis, "_reachable", counting)
    report = check(pair)
    assert sum(map(len, walked)) <= 2
    assert report.verdict is Verdict.NECESSARY_FAILED_NO
    assert [c.holds for c in report.conditions] == (
        [False, False, False, True, True] if family == "su" else [False, False])
    assert component_summary(contr_graph(pair.control)) == (10**5 - 1, 1)


def test_check_gl_walks_no_edgeless_node(monkeypatch):
    # two arcs in gl(10^5): an edgeless node makes both strong-connectivity
    # clauses false before any walk, and no table holds every node
    kind = AlgebraKind(Family.GL, 10**5)
    pair = ZeroPatternPair(DriftPattern(kind, (AlgebraElement.basis(kind, "E", 1, 2),)),
                           ControlPattern(kind, (BasisElement("E", 2, 1),)))
    walked, reachable = [], analysis._reachable
    monkeypatch.setattr(analysis, "_reachable",
                        lambda adj, start: walked.append(start) or reachable(adj, start))
    tracemalloc.start()
    try:
        report = check(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walked == []
    assert peak < 2**20, peak
    assert report.verdict is Verdict.NECESSARY_FAILED_NO
    assert [c.holds for c in report.conditions] == [False, False, False, True, False]


def test_strong_connectivity_golden(gl4_loop_pair):
    u = union(drift_graph(gl4_loop_pair.drift), contr_graph(gl4_loop_pair.control))
    assert strongly_connected(u)
    contr = contr_graph(gl4_loop_pair.control)
    # each weak controlled component is strongly connected
    assert strong_components(contr) == [frozenset({1, 2}), frozenset({3, 4})]
    assert not strongly_connected(contr)
    assert digraph_self_loops(contr) == frozenset({1})
    assert not strongly_connected(Digraph.of(2, [(1, 2)]))
    assert strong_components(Digraph.of(2, [(1, 2)])) is None
    assert strongly_connected(Digraph.of(1, []))
    # a one-node component fails the component clause even at n = 1
    assert strong_components(Digraph.of(1, [(1, 1)])) is None
    # self-loops alone do not make a graph strongly connected
    assert not strongly_connected(Digraph.of(2, [(1, 1), (2, 2)]))
    cycle3 = Digraph.of(3, [(1, 2), (2, 3), (3, 1)])
    assert strongly_connected(cycle3)
    # every node has an arc in and out, yet 3 reaches nothing back
    assert strong_components(Digraph.of(3, [(1, 2), (2, 1), (2, 3), (3, 3), (1, 3)])) is None


def test_multi_edges_and_green_loops(su5_pair, su6_pair):
    assert has_multi_edge(drift_graph(su5_pair.drift))
    assert not has_multi_edge(drift_graph(su6_pair.drift))
    assert green_loops(drift_graph(su5_pair.drift)) == frozenset({1, 5})
    two = ColoredMultigraph.of(3, [(1, 2, Color.BLUE), (1, 2, Color.RED)])
    assert has_multi_edge(two)


def test_odd_red_cycle_basics():
    multi = ColoredMultigraph.of(5, [(1, 5, Color.BLUE), (1, 5, Color.RED)])
    found, witness = has_odd_red_cycle(multi)
    assert found and witness_is_odd_red_cycle(witness)

    blue_triangle = ColoredMultigraph.of(3, [(1, 2, Color.BLUE), (2, 3, Color.BLUE),
                                             (1, 3, Color.BLUE)])
    assert has_odd_red_cycle(blue_triangle) == (False, None)

    one_red = ColoredMultigraph.of(3, [(1, 2, Color.BLUE), (2, 3, Color.BLUE),
                                       (1, 3, Color.RED)])
    found, witness = has_odd_red_cycle(one_red)
    assert found and brute_odd_red_cycle(one_red)
    assert witness_is_odd_red_cycle(witness)

    two_red = ColoredMultigraph.of(3, [(1, 2, Color.BLUE), (2, 3, Color.RED),
                                       (1, 3, Color.RED)])
    assert has_odd_red_cycle(two_red) == (False, None)
    assert not brute_odd_red_cycle(two_red)


def test_odd_red_cycle_ignores_green_and_isolated_parts():
    g = ColoredMultigraph.of(6, [(1, 2, Color.BLUE), (2, 3, Color.BLUE),
                                 (1, 3, Color.RED), (4, 4, Color.GREEN)])
    base, _ = has_odd_red_cycle(g)
    assert base
    bigger = ColoredMultigraph.of(8, set(g.edges) | {(7, 8, Color.RED)})
    again, _ = has_odd_red_cycle(bigger)
    assert again


def _random_multigraph(rng, n, max_edges):
    triples = []
    for _ in range(rng.randint(0, max_edges)):
        kind = rng.random()
        if kind < 0.15:
            v = rng.randint(1, n)
            triples.append((v, v, Color.GREEN))
        else:
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            triples.append((i, j, rng.choice((Color.BLUE, Color.RED))))
    return ColoredMultigraph.of(n, triples)


def test_odd_red_cycle_matches_enumeration_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(2, 5)
        g = _random_multigraph(rng, n, 8)
        found, witness = has_odd_red_cycle(g)
        assert found == brute_odd_red_cycle(g)
        if found:
            assert witness_is_odd_red_cycle(witness)
            assert all(e in g.edges for e in witness)


def test_switching_across_a_cut_keeps_the_su_graph_predicates():
    # a cycle crosses a cut an even number of times, so swapping blue and
    # red on every edge across it keeps each cycle's red parity
    swap = {Color.BLUE: Color.RED, Color.RED: Color.BLUE}
    rng = random.Random(1953)
    for _ in range(300):
        n = rng.randint(3, 6)
        g = _random_multigraph(rng, n, 10)
        cut = set(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
        h = ColoredMultigraph(n, frozenset((i, j, swap[c] if (i in cut) != (j in cut) else c)
                                           for i, j, c in g.edges))
        found = has_odd_red_cycle(g)[0]
        for graph in (g, h):
            answer, witness = has_odd_red_cycle(graph)
            assert answer == found, (g, cut)
            if answer:
                assert witness_is_odd_red_cycle(witness)
                assert all(e in graph.edges for e in witness)
        assert green_loops(h) == green_loops(g)
        assert component_summary(h) == component_summary(g)
        assert is_connected(h) == is_connected(g)


def test_closure_step_M_and_fixpoints():
    cycle3 = Digraph.of(3, [(1, 2), (2, 3), (3, 1)])
    fix, steps = iterate_M(cycle3)
    assert is_simple_complete(fix) and steps <= 2

    path = Digraph.of(3, [(1, 2), (2, 3)])
    fix, steps = iterate_M(path)
    assert fix.arcs == frozenset({(1, 2), (2, 3), (1, 3)})
    assert not is_simple_complete(fix)
    assert steps == 1

    complete = Digraph.of(3, [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j])
    fix, steps = iterate_M(complete)
    assert steps == 0 and fix == complete

    with pytest.raises(NotSimple):
        closure_step_M(Digraph.of(2, [(1, 1)]))


def test_iterate_M_complete_iff_strongly_connected():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(2, 4)
        arcs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        chosen = [a for a in arcs if rng.random() < 0.4]
        g = Digraph.of(n, chosen)
        fix, _ = iterate_M(g)
        assert is_simple_complete(fix) == strongly_connected(g)


def test_closure_step_T_rules():
    red_red = ColoredMultigraph.of(3, [(1, 2, Color.RED), (2, 3, Color.RED)])
    out = closure_step_T(red_red)
    assert out.edges == red_red.edges | {(1, 3, Color.BLUE)}

    red_blue = ColoredMultigraph.of(3, [(1, 2, Color.RED), (2, 3, Color.BLUE)])
    out = closure_step_T(red_blue)
    assert out.edges == red_blue.edges | {(1, 3, Color.RED)}

    single = ColoredMultigraph.of(3, [(1, 2, Color.BLUE)])
    fix, steps = iterate_T(single)
    assert fix == single and steps == 0

    # a blue+red multi-edge composes to nothing: endpoints coincide
    multi = ColoredMultigraph.of(2, [(1, 2, Color.BLUE), (1, 2, Color.RED)])
    assert closure_step_T(multi) == multi

    with pytest.raises(HasSelfLoop):
        closure_step_T(ColoredMultigraph.of(2, [(1, 1, Color.GREEN)]))


def test_iterate_T_completes_connected_graphs():
    path = ColoredMultigraph.of(4, [(1, 2, Color.BLUE), (2, 3, Color.RED),
                                    (3, 4, Color.BLUE)])
    fix, steps = iterate_T(path)
    covered = {(i, j) for i, j, _ in fix.edges}
    assert covered == {(i, j) for i in range(1, 4) for j in range(i + 1, 5)}
    assert steps >= 1


def test_circumjacent_digraph():
    g = Digraph.of(3, [(3, 1), (2, 3)])
    out = circumjacent_digraph(g, 1, 2)
    assert out.arcs == frozenset({(1, 3), (3, 2)})
    empty = Digraph.of(3, [])
    assert circumjacent_digraph(empty, 1, 2).arcs == frozenset()
    with pytest.raises(NotSimple):
        circumjacent_digraph(Digraph.of(2, [(1, 1)]), 1, 2)


def test_circumjacent_digraph_cardinality():
    # with no arcs between i and j, the result has deg_out(i) + deg_in(j)
    # arcs and only i, j, i's in-neighbors and j's out-neighbors keep degree
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(3, 6)
        arcs = {(a, b) for a in range(1, n + 1) for b in range(1, n + 1)
                if a != b and rng.random() < 0.35}
        i, j = rng.sample(range(1, n + 1), 2)
        arcs -= {(i, j), (j, i)}
        g = Digraph.of(n, arcs)
        out_i = sum(1 for a, b in arcs if a == j)   # j's out-arcs become i's
        in_j = sum(1 for a, b in arcs if b == i)    # i's in-arcs become j's
        result = circumjacent_digraph(g, i, j)
        assert len(result.arcs) == out_i + in_j


def test_circumjacent_undirected():
    g = UndirectedGraph.of(3, [(2, 3)])
    assert circumjacent_undirected(g, 1, 2).edges == frozenset({(1, 3)})
    g = UndirectedGraph.of(4, [])
    assert circumjacent_undirected(g, 1, 2).edges == frozenset()
    g = UndirectedGraph.of(3, [(1, 3), (2, 3)])
    assert circumjacent_undirected(g, 1, 2).edges == frozenset({(1, 3), (2, 3)})
