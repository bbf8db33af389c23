import random

import pytest

from structcon.algebra import AlgebraElement, AlgebraKind, BasisElement, Family, gl, so, su
from structcon.errors import SizeMismatch
from structcon.graphs import (
    Color,
    ColoredMultigraph,
    Digraph,
    UndirectedGraph,
    _graph,
    _support_pairs,
    contr_graph,
    drift_graph,
    matrix_graph,
    to_dot,
    union,
)
from structcon.patterns import DEFAULT_POOL, ControlPattern, control_generators, sample_drift

from conftest import SPEC_NAMES, load_pair
from helpers import kind_candidates, random_kind_pair


def elem(kind, *terms):
    return AlgebraElement.build(kind, [(BasisElement(t, i, j), c) for t, i, j, c in terms])


def test_graph_invariants_are_checked():
    with pytest.raises(ValueError):
        UndirectedGraph(3, frozenset({(2, 2)}))
    with pytest.raises(ValueError):
        UndirectedGraph(3, frozenset({(3, 1)}))  # stored form is i < j
    with pytest.raises(ValueError):
        Digraph(2, frozenset({(1, 3)}))
    with pytest.raises(ValueError):
        ColoredMultigraph(3, frozenset({(1, 2, Color.GREEN)}))
    with pytest.raises(ValueError):
        ColoredMultigraph(3, frozenset({(2, 2, Color.RED)}))
    g = UndirectedGraph.of(3, [(3, 1), (1, 3)])
    assert g.edges == frozenset({(1, 3)})


def test_drift_graph_so_golden(so6_pair):
    g = drift_graph(so6_pair.drift)
    assert g.edges == frozenset({(1, 4), (2, 5), (1, 2), (1, 5)})
    single = elem(so(3), ("B", 1, 2, 1))
    assert matrix_graph(single).edges == frozenset({(1, 2)})


def test_contr_graph_so_golden(so6_pair):
    g = contr_graph(so6_pair.control)
    assert g.edges == frozenset({(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)})
    p = ControlPattern(so(2), (BasisElement("B", 1, 2),))
    assert contr_graph(p).edges == frozenset({(1, 2)})


def test_gl_graphs_golden(gl4_loop_pair):
    g = drift_graph(gl4_loop_pair.drift)
    assert g.arcs == frozenset({(1, 3), (4, 2), (1, 2), (3, 3), (4, 4), (3, 1)})
    c = contr_graph(gl4_loop_pair.control)
    assert c.arcs == frozenset({(1, 1), (1, 2), (2, 1), (3, 4), (4, 3)})
    assert matrix_graph(elem(gl(2), ("E", 1, 1, 5))).arcs == frozenset({(1, 1)})
    diff = elem(gl(3), ("E", 1, 2, 1), ("E", 1, 3, -1))
    assert matrix_graph(diff).arcs == frozenset({(1, 2), (1, 3)})


def test_su_graphs_golden(su5_pair):
    g = drift_graph(su5_pair.drift)
    assert g.edges == frozenset({
        (2, 5, Color.BLUE), (1, 2, Color.BLUE), (3, 4, Color.BLUE),
        (1, 2, Color.RED), (4, 5, Color.RED), (3, 4, Color.RED),
        (1, 1, Color.GREEN), (5, 5, Color.GREEN),
    })
    c = contr_graph(su5_pair.control)
    assert (2, 2, Color.GREEN) in c.edges and (4, 4, Color.GREEN) in c.edges
    p = ControlPattern(su(5), (BasisElement("D", 2, 4),))
    assert contr_graph(p).edges == frozenset({(2, 2, Color.GREEN), (4, 4, Color.GREEN)})
    p = ControlPattern(su(3), (BasisElement("B", 1, 2), BasisElement("C", 1, 2)))
    assert contr_graph(p).edges == frozenset({(1, 2, Color.BLUE), (1, 2, Color.RED)})


def test_matrix_graph_su_reads_diagonal_support():
    s5 = su(5)
    e = elem(s5, ("C", 1, 2, 1), ("D", 1, 5, 1))
    assert matrix_graph(e).edges == frozenset({
        (1, 2, Color.RED), (1, 1, Color.GREEN), (5, 5, Color.GREEN)})
    # D_13 - D_12 has no diagonal entry at node 1: the entries cancel
    e = elem(s5, ("D", 1, 3, 1), ("D", 1, 2, -1))
    assert matrix_graph(e).edges == frozenset({(2, 2, Color.GREEN), (3, 3, Color.GREEN)})


def _union_all(parts):
    combined = parts[0]
    for p in parts[1:]:
        combined = union(combined, p)
    return combined


def test_drift_graph_is_union_of_base_graphs(su6_pair):
    parts = [matrix_graph(a) for a in su6_pair.drift.bases]
    assert _union_all(parts) == drift_graph(su6_pair.drift)


@pytest.mark.parametrize("family", ("so", "gl", "su"))
@pytest.mark.parametrize("n", range(2, 7))
def test_kind_graphs_are_union_of_element_graphs(family, n):
    # seeded random pairs plus the bundled specs of this kind; a control
    # D_ij with i > 1 is stored as D_1j - D_1i, whose diagonal cancels at
    # node 1 and leaves exactly the loops at i and j that contr_graph draws
    rng = random.Random(1000 * n + ord(family[0]))
    pairs = [random_kind_pair(rng, family, n) for _ in range(25)]
    pairs += [p for p in map(load_pair, SPEC_NAMES) if p.kind == pairs[0].kind]
    for pair in pairs:
        assert drift_graph(pair.drift) == _union_all([matrix_graph(a) for a in pair.drift.bases])
        assert contr_graph(pair.control) == _union_all(
            [matrix_graph(e) for e in control_generators(pair.control)])


def test_contr_graph_matches_the_element_route_on_random_controls():
    # read off the bases, the control graph is the one the generator
    # elements' supports give, D_ij with i > 1 included
    rng = random.Random(27)
    for _ in range(300):
        kind = AlgebraKind(rng.choice(list(Family)), rng.randint(2, 6))
        candidates = kind_candidates(kind)
        p = ControlPattern(kind, tuple(rng.sample(candidates, rng.randint(1, min(8, len(candidates))))))
        old = _graph(kind, [t for g in control_generators(p) for t in _support_pairs(g)])
        assert contr_graph(p) == old, p


def test_sampled_drift_graph_is_subgraph_of_pattern_graph(so6_pair):
    pattern_edges = drift_graph(so6_pair.drift).edges
    for seed in range(25):
        a = sample_drift(so6_pair.drift, DEFAULT_POOL, seed)
        assert matrix_graph(a).edges <= pattern_edges


def test_union_rules():
    g1 = UndirectedGraph.of(3, [(1, 2)])
    g2 = UndirectedGraph.of(3, [(2, 3)])
    assert union(g1, g2).edges == frozenset({(1, 2), (2, 3)})
    assert union(g1, UndirectedGraph.of(3, [])) == g1
    assert union(g1, g1) == g1
    with pytest.raises(SizeMismatch):
        union(g1, UndirectedGraph.of(4, []))
    with pytest.raises(SizeMismatch):
        union(g1, Digraph.of(3, []))


def test_union_connects_so6_pattern(so6_pair):
    from structcon.analysis import is_connected
    u = union(drift_graph(so6_pair.drift), contr_graph(so6_pair.control))
    assert is_connected(u)


def test_to_dot_output():
    empty = UndirectedGraph.of(2, [])
    assert to_dot(empty) == "graph G {\n  1;\n  2;\n}\n"
    red = ColoredMultigraph.of(2, [(1, 2, Color.RED)])
    assert to_dot(red) == "graph G {\n  1;\n  2;\n  1 -- 2 [color=red];\n}\n"
    loop = Digraph.of(1, [(1, 1)])
    assert to_dot(loop) == "digraph G {\n  1;\n  1 -> 1;\n}\n"


def test_to_dot_is_deterministic(su6_pair):
    g = drift_graph(su6_pair.drift)
    assert to_dot(g) == to_dot(g)
    lines = to_dot(g).splitlines()
    assert lines == sorted(lines, key=lines.index)  # stable order by construction
