"""Graph predicates and closure maps used by the verdict checkers.

Includes components and connectivity for all three graph families, the
parity-based odd-red-cycle detector, the one-step digraph and colored
transitive closure maps with their fixpoint iterators, and the circumjacent
closures that mirror bracketing against a single generator.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, TypeVar

from .errors import HasSelfLoop, NotSimple
from .graphs import Color, ColoredMultigraph, Digraph, UndirectedGraph

OddRedWitness = tuple[tuple[int, int, Color], ...]
_G = TypeVar("_G", Digraph, ColoredMultigraph)


def _adjacency(g: UndirectedGraph | ColoredMultigraph) -> dict[int, set[int]]:
    """Neighbours of each node that an edge joins to another; a node without
    such an edge has no entry."""
    edges = g.edges if isinstance(g, UndirectedGraph) else [(i, j) for i, j, _ in g.edges]
    adj: dict[int, set[int]] = {}
    for i, j in edges:
        if i != j:  # green self-loops join nothing
            adj.setdefault(i, set()).add(j)
            adj.setdefault(j, set()).add(i)
    return adj


def component_summary(g: UndirectedGraph | ColoredMultigraph) -> tuple[int, int]:
    """(number of components, size of the smallest), in O(edges): a node
    without an edge is counted as a singleton, and only the nodes that carry
    edges are walked."""
    adj = _adjacency(g)
    singletons = g.n - len(adj)
    seen: set[int] = set()
    sizes = []
    for root in adj:
        if root not in seen:
            comp = _reachable(adj, root)
            seen |= comp
            sizes.append(len(comp))
    return singletons + len(sizes), 1 if singletons else min(sizes)


def is_connected(g: UndirectedGraph | ColoredMultigraph) -> bool:
    """One component: a single node, or every node on an edge and all of them
    reached from node 1."""
    if g.n == 1:
        return True
    adj = _adjacency(g)
    return len(adj) == g.n and len(_reachable(adj, 1)) == g.n


def _reachable(adj: dict[int, set[int]], start: int) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def strongly_connected(g: Digraph) -> bool:
    """Every ordered pair of nodes mutually reachable along arcs; self-loops
    are ignored."""
    return g.n == 1 or len(strong_components(g) or ()) == 1


def strong_components(g: Digraph) -> list[frozenset[int]] | None:
    """The weak components of g, in order of least node, if each one is
    strongly connected with at least 2 nodes; else None.  Self-loops are
    ignored.

    In O(arcs): a node without both an arc out to another node and one in
    from another gives None before any walk, so a walk only starts once
    every node is on arcs.  From each component's least node one walk goes
    forward and one back.  They reach the same set exactly when that set,
    the node's strong component, is closed under arcs both ways, so is its
    weak component.
    """
    fwd: dict[int, set[int]] = {}
    back: dict[int, set[int]] = {}
    for i, j in g.arcs:
        if i != j:
            fwd.setdefault(i, set()).add(j)
            back.setdefault(j, set()).add(i)
    if len(fwd) < g.n or len(back) < g.n:
        return None
    seen: set[int] = set()
    out: list[frozenset[int]] = []
    for root in range(1, g.n + 1):
        if root not in seen:
            comp = _reachable(fwd, root)
            if comp != _reachable(back, root):
                return None
            seen |= comp
            out.append(frozenset(comp))
    return out


def digraph_self_loops(g: Digraph) -> frozenset[int]:
    return frozenset(i for i, j in g.arcs if i == j)


# ---------------------------------------------------------------------------
# odd-red-cycle detection (parity 2-coloring per component)
# ---------------------------------------------------------------------------


def has_odd_red_cycle(g: ColoredMultigraph) -> tuple[bool, OddRedWitness | None]:
    """Detect a closed walk with an odd number of red edges.

    Blue edges preserve the parity class of their endpoints, red edges flip
    it; a parity conflict found while 2-coloring a component is exactly an
    odd-red cycle.  A blue+red multi-edge is the 2-cycle special case.
    Green self-loops are ignored.  When found, returns a witness cycle as an
    edge sequence whose red count is odd.
    """
    # only nodes on a blue or red edge have an entry: the others hold no cycle
    adj: dict[int, list[tuple[int, Color]]] = {}
    for i, j, c in sorted(g.edges, key=lambda e: (e[0], e[1], e[2].value)):
        if c is Color.GREEN:
            continue
        adj.setdefault(i, []).append((j, c))
        adj.setdefault(j, []).append((i, c))

    potential: dict[int, int] = {}
    parent: dict[int, tuple[int, Color] | None] = {}
    for root in sorted(adj):
        if root in potential:
            continue
        potential[root] = 0
        parent[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, c in adj[u]:
                flip = 1 if c is Color.RED else 0
                if v not in potential:
                    potential[v] = potential[u] ^ flip
                    parent[v] = (u, c)
                    queue.append(v)
                elif potential[v] != potential[u] ^ flip:
                    return True, _conflict_cycle(u, v, c, parent)
    return False, None


def _tree_path(v: int, parent: dict[int, tuple[int, Color] | None]) -> list[int]:
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]][0])  # type: ignore[index]
    return path


def _conflict_cycle(u: int, v: int, c: Color,
                    parent: dict[int, tuple[int, Color] | None]) -> OddRedWitness:
    pu, pv = _tree_path(u, parent), _tree_path(v, parent)
    common = set(pu) & set(pv)
    lca = next(x for x in pu if x in common)

    def edges_up(path: list[int]) -> list[tuple[int, int, Color]]:
        out = []
        for node in path:
            if node == lca:
                break
            up, color = parent[node]  # type: ignore[misc]
            out.append((min(node, up), max(node, up), color))
        return out

    walk = [(min(u, v), max(u, v), c)]
    walk += edges_up(pv)
    walk += list(reversed(edges_up(pu)))
    return tuple(walk)


def has_multi_edge(g: ColoredMultigraph) -> bool:
    """True when some node pair carries more than one edge."""
    seen: set[tuple[int, int]] = set()
    for i, j, c in g.edges:
        if c is Color.GREEN:
            continue
        if (i, j) in seen:
            return True
        seen.add((i, j))
    return False


def green_loops(g: ColoredMultigraph) -> frozenset[int]:
    return frozenset(i for i, j, c in g.edges if c is Color.GREEN)


# ---------------------------------------------------------------------------
# transitive closure maps
# ---------------------------------------------------------------------------


def closure_step_M(g: Digraph) -> Digraph:
    """Add (i, k) for every 2-path i -> j -> k with i != k (simple digraphs)."""
    if digraph_self_loops(g):
        raise NotSimple("the digraph closure map is defined on simple digraphs")
    out: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    for i, j in g.arcs:
        out[i].add(j)
    new = set(g.arcs)
    for i, j in g.arcs:
        for k in out[j]:
            if k != i:
                new.add((i, k))
    return Digraph(g.n, frozenset(new))


def _fixpoint(step: Callable[[_G], _G], g: _G) -> tuple[_G, int]:
    """Apply a monotone closure step until nothing changes; returns the
    fixpoint and the number of productive steps."""
    current, steps = g, 0
    for _ in range(g.n * g.n):  # safety bound; the edge set is monotone and bounded
        nxt = step(current)
        if nxt == current:
            break
        current, steps = nxt, steps + 1
    return current, steps


def iterate_M(g: Digraph) -> tuple[Digraph, int]:
    """Fixpoint of the digraph closure map and the productive step count."""
    return _fixpoint(closure_step_M, g)


def is_simple_complete(g: Digraph) -> bool:
    wanted = {(i, j) for i in range(1, g.n + 1) for j in range(1, g.n + 1) if i != j}
    return set(g.arcs) == wanted


# (first edge, second edge) -> closing edge; the loop meets each pair in both orders
_T_RULES = {(Color.BLUE, Color.BLUE): Color.BLUE, (Color.RED, Color.RED): Color.BLUE,
            (Color.RED, Color.BLUE): Color.RED}


def closure_step_T(g: ColoredMultigraph) -> ColoredMultigraph:
    """One step of the edge-colored closure: blue.blue -> blue,
    red.red -> blue, red.blue -> red (endpoints distinct)."""
    if any(i == j for i, j, _ in g.edges):
        raise HasSelfLoop("the colored closure map is defined on loop-free graphs")
    edges = sorted(g.edges, key=lambda e: (e[0], e[1], e[2].value))
    new = set(g.edges)
    for e1 in edges:
        for e2 in edges:
            if e1 == e2:
                continue
            shared = {e1[0], e1[1]} & {e2[0], e2[1]}
            for j in shared:
                i = e1[0] if e1[1] == j else e1[1]
                k = e2[0] if e2[1] == j else e2[1]
                if i == k:
                    continue
                color = _T_RULES.get((e1[2], e2[2]))
                if color is not None:
                    new.add((min(i, k), max(i, k), color))
    return ColoredMultigraph(g.n, frozenset(new))


def iterate_T(g: ColoredMultigraph) -> tuple[ColoredMultigraph, int]:
    """Fixpoint of the colored closure map and the productive step count."""
    return _fixpoint(closure_step_T, g)


# ---------------------------------------------------------------------------
# circumjacent closures
# ---------------------------------------------------------------------------


def circumjacent_digraph(g: Digraph, i: int, j: int) -> Digraph:
    """Arcs {(i,k) : (j,k) in E, k != i} union {(k,j) : (k,i) in E, k != j}."""
    if digraph_self_loops(g):
        raise NotSimple("the circumjacent closure is defined on simple digraphs")
    new: set[tuple[int, int]] = set()
    for a, b in g.arcs:
        if a == j and b != i:
            new.add((i, b))
        if b == i and a != j:
            new.add((a, j))
    return Digraph(g.n, frozenset(new))


def circumjacent_undirected(g: UndirectedGraph, i: int, j: int) -> UndirectedGraph:
    """Edges {{i,k} : {j,k} in E} union {{j,k} : {i,k} in E}, loops dropped."""
    new: set[tuple[int, int]] = set()
    for a, b in g.edges:
        for x, y in ((a, b), (b, a)):
            if x == j and y != i:
                new.add((min(i, y), max(i, y)))
            if x == i and y != j:
                new.add((min(j, y), max(j, y)))
    return UndirectedGraph(g.n, frozenset(new))
