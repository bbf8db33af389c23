"""Graphs carried by zero patterns: plain, directed, and edge-colored.

Nodes are 1..n throughout.  Pattern graphs are built from the pattern base
elements, never from a sampled drift, so cancellation in a sample can only
remove edges relative to the pattern graph.

Every builder reads its input as (tag, i, j) pairs, whatever the family; the
family matters only in `_graph`, which picks the graph type: undirected over
so(n), directed over gl(n), edge-colored over su(n).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable

from .algebra import AlgebraElement, AlgebraKind, Family, record
from .errors import SizeMismatch
from .patterns import ControlPattern, DriftPattern


class Color(Enum):
    BLUE = "blue"
    RED = "red"
    GREEN = "green"


class UndirectedGraph(record("UndirectedGraph", "n edges")):
    __slots__ = ()
    n: int
    edges: frozenset[tuple[int, int]]  # stored with i < j

    def __new__(cls, n: int, edges: frozenset[tuple[int, int]]) -> "UndirectedGraph":
        for i, j in edges:
            if not (1 <= i < j <= n):
                raise ValueError(f"bad edge ({i}, {j}) for {n} nodes")
        return super().__new__(cls, n, edges)

    @staticmethod
    def of(n: int, pairs: Iterable[tuple[int, int]]) -> "UndirectedGraph":
        return UndirectedGraph(n, frozenset((min(i, j), max(i, j)) for i, j in pairs))


class Digraph(record("Digraph", "n arcs")):
    __slots__ = ()
    n: int
    arcs: frozenset[tuple[int, int]]  # self-loops allowed

    def __new__(cls, n: int, arcs: frozenset[tuple[int, int]]) -> "Digraph":
        for i, j in arcs:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"bad arc ({i}, {j}) for {n} nodes")
        return super().__new__(cls, n, arcs)

    @staticmethod
    def of(n: int, pairs: Iterable[tuple[int, int]]) -> "Digraph":
        return Digraph(n, frozenset(pairs))


class ColoredMultigraph(record("ColoredMultigraph", "n edges")):
    __slots__ = ()
    n: int
    edges: frozenset[tuple[int, int, Color]]  # blue/red with i < j, green loops i == j

    def __new__(cls, n: int, edges: frozenset[tuple[int, int, Color]]) -> "ColoredMultigraph":
        for i, j, color in edges:
            if color is Color.GREEN:
                if i != j or not 1 <= i <= n:
                    raise ValueError("green edges are exactly self-loops")
            elif not (1 <= i < j <= n):
                raise ValueError(f"bad {color.value} edge ({i}, {j}) for {n} nodes")
        return super().__new__(cls, n, edges)

    @staticmethod
    def of(n: int, triples: Iterable[tuple[int, int, Color]]) -> "ColoredMultigraph":
        normal = []
        for i, j, color in triples:
            if color is Color.GREEN:
                normal.append((i, j, color))
            else:
                normal.append((min(i, j), max(i, j), color))
        return ColoredMultigraph(n, frozenset(normal))


Graph = UndirectedGraph | Digraph | ColoredMultigraph


# ---------------------------------------------------------------------------
# support read-off and the pattern graphs
# ---------------------------------------------------------------------------

_COLOR = {"B": Color.BLUE, "C": Color.RED, "D": Color.GREEN}


def _graph(kind: AlgebraKind, pairs: Iterable[tuple[str, int, int]]) -> Graph:
    """The graph of kind's family on (tag, i, j) pairs, the one place this
    module dispatches on the family: an edge per pair over so(n), an arc per
    pair over gl(n) (diagonal units become self-loops), and over su(n) a
    blue, red or green edge per B, C or D pair (D pairs are loops (k, k))."""
    n = kind.n
    if kind.family is Family.SO:
        return UndirectedGraph.of(n, ((i, j) for _, i, j in pairs))
    if kind.family is Family.GL:
        return Digraph.of(n, ((i, j) for _, i, j in pairs))
    return ColoredMultigraph.of(n, ((i, j, _COLOR[tag]) for tag, i, j in pairs))


def _support_pairs(e: AlgebraElement) -> list[tuple[str, int, int]]:
    """(tag, i, j) per nonzero B, C or E coordinate, and a loop (D, k, k) per
    nonzero entry of the imaginary diagonal.

    D_1k contributes +1 at node 1 and -1 at node k, so the diagonal entry at
    node 1 can cancel.
    """
    pairs = []
    diag: dict[int, Fraction] = {}
    for b, c in e._terms.items():
        if b.tag == "D":
            diag[b.i] = diag.get(b.i, 0) + c
            diag[b.j] = diag.get(b.j, 0) - c
        else:
            pairs.append((b.tag, b.i, b.j))
    return pairs + [("D", k, k) for k, v in diag.items() if v]


def matrix_graph(e: AlgebraElement) -> Graph:
    """The graph of one element's support."""
    return _graph(e.kind, _support_pairs(e))


def drift_graph(p: DriftPattern) -> Graph:
    """Union of the graphs of the drift bases."""
    return _graph(p.kind, [t for a in p.bases for t in _support_pairs(a)])


def contr_graph(p: ControlPattern) -> Graph:
    """Union of the graphs of the control generators, read off the bases: a
    B, C or E base is its own (tag, i, j) pair, and a D_ij base puts loops at
    both i and j, as i(E_ii - E_jj) is nonzero on both diagonal entries."""
    pairs: list[tuple[str, int, int]] = []
    for b in p.bases:
        if b.tag == "D":
            pairs += (("D", b.i, b.i), ("D", b.j, b.j))
        else:
            pairs.append(b)
    return _graph(p.kind, pairs)


def union(g1: Graph, g2: Graph) -> Graph:
    """Edge or arc set union of two graphs of the same type and size."""
    if type(g1) is not type(g2) or g1.n != g2.n:
        raise SizeMismatch("union needs two graphs of the same type and node count")
    if isinstance(g1, Digraph):
        return Digraph(g1.n, g1.arcs | g2.arcs)
    return type(g1)(g1.n, g1.edges | g2.edges)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def to_dot(g: Graph) -> str:
    """Graphviz text with deterministic node and edge ordering."""
    lines = ["digraph G {" if isinstance(g, Digraph) else "graph G {"]
    lines += [f"  {v};" for v in range(1, g.n + 1)]
    if isinstance(g, Digraph):
        lines += [f"  {i} -> {j};" for i, j in sorted(g.arcs)]
    elif isinstance(g, UndirectedGraph):
        lines += [f"  {i} -- {j};" for i, j in sorted(g.edges)]
    else:
        lines += [f"  {i} -- {j} [color={c.value}];"
                  for i, j, c in sorted(g.edges, key=lambda e: (e[0], e[1], e[2].value))]
    lines.append("}")
    return "\n".join(lines) + "\n"
