"""Independent brute-force oracles used to pin expected test values.

Everything here works on dense complex-rational matrices (entries are
(re, im) Fraction pairs) with plain all-pairs commutator sweeps and dense
Gaussian elimination.  None of it shares code with the package's sparse
structure-constant route, so the two can check each other; the exceptions
are `reference_sweep` and `reference_adjoint`, which check the closure
loop alone, `integral`, which checks the integer ray of an element's terms,
and `bracket_log` and `fresh_rules`, which watch the brackets the package
evaluates and the structure-constant rows it builds.  The graph references
read the package's graph records, and none of its graph predicates.
"""

from fractions import Fraction
from itertools import combinations, product
from math import lcm

from structcon.graphs import Color, ColoredMultigraph, Digraph, UndirectedGraph

Q0 = Fraction(0)
Q1 = Fraction(1)
CZERO = (Q0, Q0)


def cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def csub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def zeros(n):
    return [[CZERO for _ in range(n)] for _ in range(n)]


def gen_matrix(n, tag, i, j):
    """Literal matrix of one generator, built straight from its definition."""
    m = zeros(n)
    i, j = i - 1, j - 1
    if tag == "B":
        m[i][j] = (Q1, Q0)
        m[j][i] = (-Q1, Q0)
    elif tag == "C":
        m[i][j] = (Q0, Q1)
        m[j][i] = (Q0, Q1)
    elif tag == "D":
        m[i][i] = (Q0, Q1)
        m[j][j] = (Q0, -Q1)
    elif tag == "E":
        m[i][j] = (Q1, Q0)
    else:
        raise ValueError(tag)
    return m


def elem_matrix(n, terms):
    """Matrix of a linear combination given as (tag, i, j, coeff) tuples."""
    m = zeros(n)
    for tag, i, j, coeff in terms:
        g = gen_matrix(n, tag, i, j)
        c = (Fraction(coeff), Q0)
        for r in range(n):
            for col in range(n):
                m[r][col] = cadd(m[r][col], cmul(c, g[r][col]))
    return m


def matmul(a, b):
    n = len(a)
    out = zeros(n)
    for r in range(n):
        for k in range(n):
            if a[r][k] == CZERO:
                continue
            for c in range(n):
                if b[k][c] == CZERO:
                    continue
                out[r][c] = cadd(out[r][c], cmul(a[r][k], b[k][c]))
    return out


def commutator(a, b):
    ab, ba = matmul(a, b), matmul(b, a)
    n = len(a)
    return [[csub(ab[r][c], ba[r][c]) for c in range(n)] for r in range(n)]


def flatten(m):
    n = len(m)
    out = []
    for r in range(n):
        for c in range(n):
            out.append(m[r][c][0])
    for r in range(n):
        for c in range(n):
            out.append(m[r][c][1])
    return out


class DenseSpan:
    """Row echelon over dense Fraction vectors: rank and membership."""

    def __init__(self):
        self.rows = []  # (pivot, vector), kept sorted by pivot

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, vec):
        vec = list(vec)
        for pivot, row in self.rows:
            if vec[pivot]:
                f = vec[pivot] / row[pivot]
                for k in range(pivot, len(vec)):
                    if row[k]:
                        vec[k] -= f * row[k]
        return vec

    def contains(self, vec):
        return not any(self._reduce(vec))

    def insert(self, vec):
        red = self._reduce(vec)
        for pivot, value in enumerate(red):
            if value:
                self.rows.append((pivot, red))
                self.rows.sort(key=lambda pr: pr[0])
                return True
        return False


def brute_closure(n, matrices):
    """All-pairs commutator closure; returns (DenseSpan, spanning matrices)."""
    span = DenseSpan()
    elems = []
    for m in matrices:
        if span.insert(flatten(m)):
            elems.append(m)
    changed = True
    while changed:
        changed = False
        snapshot = list(elems)
        for a, b in product(snapshot, snapshot):
            c = commutator(a, b)
            if span.insert(flatten(c)):
                elems.append(c)
                changed = True
    return span, elems


def brute_closure_dim(n, term_lists):
    """Closure dimension from raw (tag, i, j, coeff) term lists."""
    span, _ = brute_closure(n, [elem_matrix(n, terms) for terms in term_lists])
    return span.rank


# ---------------------------------------------------------------------------
# graph references
# ---------------------------------------------------------------------------


def components(g):
    """Partition of 1..n of an undirected or colored graph by reachability,
    in order of least node: one search per unseen node, every node walked,
    green self-loops joining nothing."""
    edges = g.edges if isinstance(g, UndirectedGraph) else [(i, j) for i, j, _ in g.edges]
    adj = {v: set() for v in range(1, g.n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen, out = set(), []
    for root in range(1, g.n + 1):
        if root not in seen:
            comp, stack = {root}, [root]
            while stack:
                for v in adj[stack.pop()] - comp:
                    comp.add(v)
                    stack.append(v)
            seen |= comp
            out.append(frozenset(comp))
    return out


def reaches(g: Digraph, u, v):
    """Whether v is reachable from u along the non-loop arcs of g, by
    growing the reached set until it stops changing."""
    reached = {u}
    while True:
        grown = reached | {j for i, j in g.arcs if i in reached and i != j}
        if grown == reached:
            return v in reached
        reached = grown


# ---------------------------------------------------------------------------
# cycle enumeration for the odd-red detector
# ---------------------------------------------------------------------------


def brute_odd_red_cycle(g: ColoredMultigraph) -> bool:
    """Enumerate simple cycles (including 2-cycles on multi-edges)."""
    edges = [(i, j, c) for i, j, c in g.edges if c is not Color.GREEN]
    by_pair = {}
    for i, j, c in edges:
        by_pair.setdefault((i, j), set()).add(c)
    # a blue+red pair is a 2-cycle with one red edge
    if any(len(colors) >= 2 for colors in by_pair.values()):
        return True

    adj = {v: [] for v in range(1, g.n + 1)}
    for i, j, c in edges:
        adj[i].append((j, c))
        adj[j].append((i, c))

    def walk(start, current, visited, reds):
        for nb, c in adj[current]:
            extra = 1 if c is Color.RED else 0
            if nb == start and len(visited) >= 3:
                if (reds + extra) % 2 == 1:
                    return True
            elif nb not in visited and nb > start:
                if walk(start, nb, visited | {nb}, reds + extra):
                    return True
        return False

    return any(walk(s, s, {s}, 0) for s in range(1, g.n + 1))


def generated_dimension(control):
    """Dimension of the Lie algebra that an so(n) control set, or an su(n)
    control set without D, generates, read off its graph alone.

    Each component C of the graph generates a subalgebra on the C block,
    and blocks on disjoint node sets commute, so the dimensions add.  An so
    component gives so(|C|), of dimension |C|(|C|-1)/2.  Over su, read blue
    (B) as positive and red (C) as negative.  Conjugating by diag(u), with
    u_k = i on a cut S and 1 off it, swaps B and C up to sign on every edge
    across S.  A component is balanced when some S leaves every blue edge
    uncut and cuts every red one; that switch turns it all blue, so it
    generates a conjugate of so(|C|).  A component that no S balances holds
    a cycle with an odd number of red edges, and generates su(|C|), of
    dimension |C|^2 - 1.  Balance is decided by trying every S.
    """
    from structcon.algebra import Family

    kind = control.kind
    if kind.family is Family.GL or any(b.tag == "D" for b in control.bases):
        raise ValueError(f"no graph rule for this {kind} control set")
    red = {(b.i, b.j) for b in control.bases if b.tag == "C"}
    blue = {(b.i, b.j) for b in control.bases if b.tag == "B"}
    dim = 0
    for comp in components(UndirectedGraph.of(kind.n, red | blue)):
        k = len(comp)
        balanced = any(all((i in cut) != (j in cut) for i, j in red if i in comp)
                       and all((i in cut) == (j in cut) for i, j in blue if i in comp)
                       for r in range(k + 1) for cut in map(set, combinations(comp, r)))
        dim += k * (k - 1) // 2 if balanced else k * k - 1
    return dim


def random_pair(rng):
    """Random zero-pattern pair over so/gl/su with n in 2..5."""
    family = rng.choice(("so", "gl", "su"))
    return random_kind_pair(rng, family, rng.randint(2, 5))


def random_kind_pair(rng, family, n):
    """Random zero-pattern pair over so(n), gl(n) or su(n): 1-6 control bases
    and 1-3 drift bases of 1-3 terms, coefficients +-1..+-4."""
    from structcon.algebra import AlgebraElement, gl, so, su
    from structcon.patterns import ControlPattern, DriftPattern, ZeroPatternPair

    kind = {"so": so, "gl": gl, "su": su}[family](n)
    candidates = kind_candidates(kind)
    control = rng.sample(candidates, rng.randint(1, min(6, len(candidates))))
    bases = []
    for _ in range(rng.randint(1, 3)):
        base = AlgebraElement.zero(kind)
        while base.is_zero:  # D terms can cancel after canonicalization
            picks = rng.sample(candidates, rng.randint(1, min(3, len(candidates))))
            coeffs = [rng.choice([c for c in range(-4, 5) if c]) for _ in picks]
            base = AlgebraElement.build(kind, list(zip(picks, coeffs)))
        bases.append(base)
    return ZeroPatternPair(DriftPattern(kind, tuple(bases)),
                           ControlPattern(kind, tuple(control)))


def kind_candidates(kind):
    """Every admissible basis element of kind with i < j (E: every i, j)."""
    from structcon.algebra import BasisElement

    n = kind.n
    return [BasisElement(t, i, j) for t in "BCDE" if kind.admits(t)
            for i in range(1, n + 1) for j in range(1, n + 1) if i < j or t == "E"]


def relabel(pair, perm):
    """The same pair with node k renamed perm[k], drift bases in order.

    Renaming is conjugation by a permutation matrix, an automorphism of each
    algebra; B_ji = -B_ij, C_ji = C_ij and D_ji = -D_ij bring a moved element
    back to i < j.
    """
    from structcon.algebra import AlgebraElement, BasisElement
    from structcon.patterns import ControlPattern, DriftPattern, ZeroPatternPair

    kind = pair.kind

    def move(b, c):
        i, j = perm[b.i], perm[b.j]
        if b.tag != "E" and i > j:
            return BasisElement(b.tag, j, i), (c if b.tag == "C" else -c)
        return BasisElement(b.tag, i, j), c

    bases = tuple(AlgebraElement.build(kind, [move(b, c) for b, c in base.items()])
                  for base in pair.drift.bases)
    control = tuple(move(b, 1)[0] for b in pair.control.bases)
    return ZeroPatternPair(DriftPattern(kind, bases), ControlPattern(kind, control))


# ---------------------------------------------------------------------------
# the closure sweep as first written
# ---------------------------------------------------------------------------


def integral(vec):
    """The primitive integer vector on the ray of a Fraction coordinate
    vector: with `AlgebraElement.to_vector`, the two-step reference for
    `algebra._ray`."""
    from structcon.algebra import _primitive

    if not vec:
        return {}
    den = lcm(*(v.denominator for v in vec.values()))
    return _primitive({idx: v.numerator * (den // v.denominator) for idx, v in vec.items()})


def reference_sweep(kind, batches):
    """Closure by the literal sweep: every frontier vector bracketed with every
    vector spanning the state when its turn starts, repeats included.

    Each batch of generators is added and closed in turn, as the oracle
    extends a copied control closure.  Unlike the rest of this module it
    reuses the package's bracket and echelon, so that only the loop differs.
    Returns (spanning vectors, steps, rank).
    """
    from structcon.algebra import _bracket_vec, _Echelon, _primitive, _rules

    rules, dim = _rules(kind), kind.dimension
    ech = _Echelon()
    spanning, frontier, steps = [], [], 0
    for batch in batches:
        for e in batch:
            vec = integral(e.to_vector())
            if ech.insert(vec):
                spanning.append(vec)
                frontier.append(vec)
        while frontier and ech.rank < dim:
            produced = []
            for x in frontier:
                for y in list(spanning):
                    if x is y:
                        continue
                    z = _bracket_vec(x, y, rules, {})
                    if z and ech.insert(z):
                        z = _primitive(z)
                        spanning.append(z)
                        produced.append(z)
                        if ech.rank == dim:
                            break
                if ech.rank == dim:
                    break
            if produced:
                steps += 1
            frontier = produced
    return spanning, steps, ech.rank


def reference_adjoint(kind, batches):
    """Closure by the literal generator-adjoint loop: a FIFO queue of the
    spanning vectors, each bracketed in its turn with every vector present if
    it is a generator and with the generators present if not, generator on
    the left, and each unordered pair once.

    Batches and bracket routine as in `reference_sweep`; the rule holds the
    pairs already bracketed in a set.  Returns (spanning vectors, rank).
    """
    from collections import deque

    from structcon.algebra import _bracket_vec, _Echelon, _primitive, _rules

    rules, dim = _rules(kind), kind.dimension
    ech = _Echelon()
    spanning, generators, done, queue = [], set(), set(), deque()
    for batch in batches:
        for e in batch:
            vec = integral(e.to_vector())
            if ech.insert(vec):
                generators.add(len(spanning))
                queue.append(len(spanning))
                spanning.append(vec)
        while queue and ech.rank < dim:
            ix = queue.popleft()
            partners = range(len(spanning)) if ix in generators else sorted(generators)
            for iy in partners:
                pair = frozenset((ix, iy))
                if iy == ix or pair in done:
                    continue
                done.add(pair)
                left, right = (ix, iy) if ix in generators else (iy, ix)
                z = _bracket_vec(spanning[left], spanning[right], rules, {})
                if z and ech.insert(z):
                    queue.append(len(spanning))
                    spanning.append(_primitive(z))
                    if ech.rank == dim:
                        break
    return spanning, ech.rank


def fresh_rules(monkeypatch):
    """Give every kind a new, empty structure-constant table for the rest of
    the test and return the table lookup, so the test sees the rows it builds."""
    import functools

    from structcon import algebra

    tables = functools.lru_cache(maxsize=None)(algebra._Rules)
    monkeypatch.setattr(algebra, "_rules", tables)
    return tables


def bracket_log(monkeypatch):
    """Record the (x, y, rules) arguments of every bracket the closure evaluates."""
    from structcon import algebra

    log = []
    original = algebra._bracket_vec

    def counted(x, y, rules, cols):
        log.append((x, y, rules))
        return original(x, y, rules, cols)

    monkeypatch.setattr(algebra, "_bracket_vec", counted)
    return log


def witness_is_odd_red_cycle(witness) -> bool:
    """Check a witness edge sequence is a closed walk with odd red count."""
    if not witness:
        return False
    reds = sum(1 for _, _, c in witness if c is Color.RED)
    if reds % 2 == 0:
        return False
    first = witness[0]
    for start in (first[0], first[1]):
        node = start
        ok = True
        for i, j, _ in witness:
            if node == i:
                node = j
            elif node == j:
                node = i
            else:
                ok = False
                break
        if ok and node == start:
            return True
    return False
