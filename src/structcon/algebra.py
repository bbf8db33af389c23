"""Exact arithmetic in the matrix Lie algebras so(n), gl(n) and su(n).

Elements are rational linear combinations of a fixed canonical basis built
from the matrix units E_ij: the skew-symmetric pairs B_ij = E_ij - E_ji,
the imaginary symmetric pairs C_ij = i(E_ij + E_ji), and the imaginary
diagonal differences D_ij = i(E_ii - E_jj).  Element coefficients are
`fractions.Fraction`s; the structure constants are integers, so the closure
works on primitive integer coordinate vectors and hands `Fraction`s back
only at the API boundary.  Span and rank decisions never touch floating
point.

Brackets are computed twice over, by two routes that share no code: from
the structure constants, which are derived from the one matrix-unit rule
E_pq E_rs = d_qr E_ps, and by multiplying exact complex-rational matrices,
the independent check.  The structure constants are built per basis element
on first use and applied by one vector routine, which both `bracket` and
`LieClosure` call.

`_Rules` is the one per-kind table: it holds the canonical basis, the
index of each basis element and the structure-constant rows, and every
lookup by coordinate goes through it.

The family of an algebra matters here only through the basis tags it admits
(`_ADMITTED`): the basis, its order, the dimension and the matrix route are
built tag by tag.  Only the gl-only `contains_sl` tests the family itself;
graph types live in `graphs`, checkers in `verdict`.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator

from .errors import EmptyGenerators, KindMismatch, MembershipError, ValidationError

_Q0 = Fraction(0)


class Family(Enum):
    SO = "so"
    GL = "gl"
    SU = "su"


# basis tags admitted by each family, in canonical basis order
_ADMITTED = {Family.SO: ("B",), Family.GL: ("E",), Family.SU: ("B", "C", "D")}

# kinds whose per-kind table (`_Rules`) stays cached at once; a long-lived
# process working through many sizes drops the least recently used
_KIND_CACHE_SIZE = 32

# most basis elements a per-kind table (`_Rules`) may hold.  It builds every
# one: a cold two-edge su(600) `report`, 3.6e5 elements, takes 1.8 s and
# 116 MB peak RSS (2-vCPU VM, Python 3.11), growing with the element count
_MAX_DIMENSION = 10**6

# largest n an algebra may have.  The pattern graphs and their walks hold
# every node, so memory grows with n alone: `check` on a two-edge su(10^6)
# spec peaks at about 0.6 GB RSS (Python 3.11)
_MAX_N = 10**5


def record(typename: str, fields: str, **kw):
    """The base of an immutable value record: a `namedtuple` whose `==` and
    `!=` accept only records of the same type, never a plain tuple or another
    record with equal fields.  Its hash is the tuple's.  A record subclasses
    it with `__slots__ = ()` and checks its fields in `__new__`, which
    `_replace` and `_make` bypass."""
    base = namedtuple(typename, fields, **kw)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    base.__eq__, base.__ne__ = __eq__, __ne__
    return base


class AlgebraKind(record("AlgebraKind", "family n")):
    """One of the three supported algebras at a fixed size n."""

    __slots__ = ()
    family: Family
    n: int

    def __new__(cls, family: Family, n: int) -> "AlgebraKind":
        if n < 2:
            raise ValueError(f"algebra size must be at least 2, got {n}")
        if n > _MAX_N:
            raise ValueError(f"algebra size must be at most {_MAX_N}, got {n}")
        return super().__new__(cls, family, n)

    @property
    def dimension(self) -> int:
        return sum(_tag_size(tag, self.n) for tag in _ADMITTED[self.family])

    def admits(self, tag: str) -> bool:
        return tag in _ADMITTED[self.family]

    def __str__(self) -> str:
        return f"{self.family.value}({self.n})"


def so(n: int) -> AlgebraKind:
    return AlgebraKind(Family.SO, n)


def gl(n: int) -> AlgebraKind:
    return AlgebraKind(Family.GL, n)


def su(n: int) -> AlgebraKind:
    return AlgebraKind(Family.SU, n)


class BasisElement(record("BasisElement", "tag i j")):
    """A single canonical generator: B_ij, C_ij, D_ij or E_ij (1-based).
    Elements order as their (tag, i, j) tuples."""

    __slots__ = ()
    tag: str
    i: int
    j: int

    def __new__(cls, tag: str, i: int, j: int) -> "BasisElement":
        if tag not in ("B", "C", "D", "E"):
            raise ValueError(f"unknown basis tag {tag!r}")
        if i < 1 or j < 1:
            raise ValueError("node indices are 1-based")
        if tag != "E" and not i < j:
            raise ValueError(f"{tag} generators require i < j, got ({i}, {j})")
        return super().__new__(cls, tag, i, j)

    def __str__(self) -> str:
        if self.i < 10 and self.j < 10:
            return f"{self.tag}{self.i}{self.j}"
        return f"{self.tag}{self.i},{self.j}"


def validate_basis_element(kind: AlgebraKind, b: BasisElement) -> None:
    """Raise KindMismatch unless b is admissible for kind (tag and range)."""
    if not kind.admits(b.tag):
        raise KindMismatch(f"{b} is not a generator of {kind}")
    if b.i > kind.n or b.j > kind.n:
        raise KindMismatch(f"{b} is out of range for {kind}")


def _tag_size(tag: str, n: int) -> int:
    """Number of canonical basis elements with one tag at size n."""
    if tag == "D":
        return n - 1
    if tag == "E":
        return n * n
    return n * (n - 1) // 2


def _tag_basis(tag: str, n: int) -> list[BasisElement]:
    """The canonical basis elements of one tag: D_12..D_1n, E row-major,
    B or C lexicographic over i < j."""
    if tag == "D":
        return [BasisElement("D", 1, k) for k in range(2, n + 1)]
    if tag == "E":
        return [BasisElement("E", i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return [BasisElement(tag, i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def canonical_basis(kind: AlgebraKind) -> tuple[BasisElement, ...]:
    """Ordered basis over the admitted tags: B lexicographic, then C, then
    D_12..D_1n, then E row-major."""
    return _rules(kind).basis


def _bump(terms: dict[BasisElement, Fraction], key: BasisElement, c: Fraction) -> None:
    """terms[key] += c, dropping the key when the sum is zero."""
    v = terms.get(key, _Q0) + c
    if v:
        terms[key] = v
    else:
        terms.pop(key, None)


class AlgebraElement:
    """A rational linear combination of canonical basis elements.

    Terms are stored canonically: no zero coefficients, and every D_ij with
    i > 1 rewritten as D_1j - D_1i, so the stored D support uses only
    {D_1k : 2 <= k <= n}.
    """

    __slots__ = ("kind", "_terms")

    def __init__(self, kind: AlgebraKind, terms: dict[BasisElement, Fraction]):
        self.kind = kind
        self._terms = terms

    @staticmethod
    def build(kind: AlgebraKind, items: Iterable[tuple[BasisElement, Fraction | int]]) -> "AlgebraElement":
        terms: dict[BasisElement, Fraction] = {}
        for b, raw in items:
            validate_basis_element(kind, b)
            c = Fraction(raw)
            if not c:
                continue
            if b.tag == "D" and b.i > 1:
                _bump(terms, BasisElement("D", 1, b.j), c)
                _bump(terms, BasisElement("D", 1, b.i), -c)
            else:
                _bump(terms, b, c)
        return AlgebraElement(kind, terms)

    @staticmethod
    def basis(kind: AlgebraKind, tag: str, i: int, j: int, coeff: Fraction | int = 1) -> "AlgebraElement":
        return AlgebraElement.build(kind, [(BasisElement(tag, i, j), coeff)])

    @staticmethod
    def zero(kind: AlgebraKind) -> "AlgebraElement":
        return AlgebraElement(kind, {})

    def items(self) -> Iterator[tuple[BasisElement, Fraction]]:
        return iter(sorted(self._terms.items()))

    def coeff(self, b: BasisElement) -> Fraction:
        return self._terms.get(b, _Q0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def scale(self, c: Fraction | int) -> "AlgebraElement":
        c = Fraction(c)
        if not c:
            return AlgebraElement(self.kind, {})
        return AlgebraElement(self.kind, {b: v * c for b, v in self._terms.items()})

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.kind != other.kind:
            raise KindMismatch(f"cannot add {self.kind} and {other.kind} elements")
        terms = dict(self._terms)
        for b, c in other._terms.items():
            _bump(terms, b, c)
        return AlgebraElement(self.kind, terms)

    def __neg__(self) -> "AlgebraElement":
        return self.scale(-1)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.kind == other.kind and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.kind, tuple(sorted(self._terms.items()))))

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for b, c in self.items():
            if c == 1:
                parts.append(f"{b}")
            elif c == -1:
                parts.append(f"-{b}")
            else:
                parts.append(f"{c}*{b}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_vector(self) -> dict[int, Fraction]:
        index = _rules(self.kind).index
        return {index[b]: c for b, c in self._terms.items()}

    @staticmethod
    def from_vector(kind: AlgebraKind, vec: dict[int, Fraction]) -> "AlgebraElement":
        basis = _rules(kind).basis
        return AlgebraElement(kind, {basis[k]: c for k, c in vec.items() if c})


# ---------------------------------------------------------------------------
# complex-rational matrices (the independent bracket route)
# ---------------------------------------------------------------------------


class Cq(record("Cq", "re im", defaults=(_Q0, _Q0))):
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ()
    re: Fraction
    im: Fraction

    def __add__(self, other: "Cq") -> "Cq":
        return Cq(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Cq") -> "Cq":
        return Cq(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "Cq") -> "Cq":
        return Cq(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)


_C0 = Cq()

Matrix = tuple[tuple[Cq, ...], ...]

# each generator's matrix entries as (row, column, re, im), 0-based: a
# coefficient c adds c times the unit re + i im there.  Kept apart from
# `_UNITS`, so that one wrong sign cannot fool both bracket routes.
_ENTRIES = {
    "B": lambda i, j: ((i, j, 1, 0), (j, i, -1, 0)),
    "C": lambda i, j: ((i, j, 0, 1), (j, i, 0, 1)),
    "D": lambda i, j: ((i, i, 0, 1), (j, j, 0, -1)),
    "E": lambda i, j: ((i, j, 1, 0),),
}


def to_matrix(e: AlgebraElement) -> Matrix:
    """Render an element as an exact n x n complex-rational matrix."""
    n = e.kind.n
    m = [[_C0] * n for _ in range(n)]
    for b, coeff in e.items():
        for r, c, re, im in _ENTRIES[b.tag](b.i - 1, b.j - 1):
            m[r][c] = m[r][c] + Cq(coeff * re, coeff * im)
    return tuple(map(tuple, m))


def decompose(m: Matrix, kind: AlgebraKind) -> AlgebraElement:
    """Inverse of to_matrix; raises MembershipError off the algebra.

    Each coordinate is the real part of its element's last entry over the unit
    there; other elements reach that entry only along the orthogonal unit, so
    the read inverts `to_matrix` on the algebra.  m is accepted exactly when
    `to_matrix` of the element read gives m back: the round trip lands in the
    algebra, so that one comparison is membership.
    """
    n = kind.n
    if len(m) != n or any(len(row) != n for row in m):
        raise MembershipError(f"expected a {n}x{n} matrix for {kind}")
    terms = []
    for b in canonical_basis(kind):
        r, c, re, im = _ENTRIES[b.tag](b.i - 1, b.j - 1)[-1]
        # Re(m_rc / unit), exact since the unit is 1, -1, i or -i
        terms.append((b, m[r][c].re * re + m[r][c].im * im))
    e = AlgebraElement.build(kind, terms)
    if to_matrix(e) != tuple(map(tuple, m)):
        raise MembershipError(f"matrix is not in {kind}")
    return e


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            s = _C0
            for k in range(n):
                x = a[r][k]
                y = b[k][c]
                if x and y:
                    s = s + x * y
            row.append(s)
        rows.append(tuple(row))
    return tuple(rows)


def bracket_via_matrices(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bracket by matrix commutator XY - YX, then decompose."""
    if x.kind != y.kind:
        raise KindMismatch(f"cannot bracket {x.kind} with {y.kind}")
    mx, my = to_matrix(x), to_matrix(y)
    xy, yx = _matmul(mx, my), _matmul(my, mx)
    n = x.kind.n
    comm = tuple(tuple(xy[r][c] - yx[r][c] for c in range(n)) for r in range(n))
    return decompose(comm, x.kind)


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------


# each generator as matrix units: (k, p, q) stands for i^k E_pq
_UNITS = {
    "B": lambda i, j: ((0, i, j), (2, j, i)),
    "C": lambda i, j: ((1, i, j), (1, j, i)),
    "D": lambda i, j: ((1, i, i), (3, j, j)),
    "E": lambda i, j: ((0, i, j),),
}


def _pair_bracket(a: BasisElement, b: BasisElement) -> list[tuple[BasisElement, int]]:
    """Bracket of two generators, expanded over the canonical basis.

    The structure constants are derived, not tabulated: a and b are sums of
    matrix units i^k E_pq (`_UNITS`), ab - ba follows from the one rule
    E_pq E_rs = d_qr E_ps, and each entry m_ps is read back as a coordinate:
    E_ps in gl; in so and su B_pq = Re m_pq, C_pq = Im m_pq (p < q) and
    D_1k = -Im m_kk (k >= 2).  The dense matrix route shares none of this.
    """
    powers: dict[tuple[int, int], list[int]] = {}  # (p, s) -> count per power of i
    ua, ub = _UNITS[a.tag](a.i, a.j), _UNITS[b.tag](b.i, b.j)
    for left, right, sign in ((ua, ub, 1), (ub, ua, -1)):
        for k, p, q in left:
            for l, r, s in right:
                if q == r:
                    powers.setdefault((p, s), [0, 0, 0, 0])[(k + l) % 4] += sign
    m = {ps: (c[0] - c[2], c[1] - c[3]) for ps, c in powers.items()}
    if a.tag == "E":
        return [(BasisElement("E", p, s), re) for (p, s), (re, _) in m.items() if re]
    # brackets are traceless, so the i*E_kk parts fit the D_1k basis
    if sum(im for (p, s), (_, im) in m.items() if p == s):
        raise ArithmeticError(f"[{a}, {b}] has a nonzero trace")
    off = [(BasisElement(tag, p, s), c) for (p, s), (re, im) in m.items() if p < s
           for tag, c in (("B", re), ("C", im)) if c]
    diag = [(BasisElement("D", 1, p), -im) for (p, s), (_, im) in m.items() if p == s > 1 and im]
    return off + diag


_Row = dict[int, tuple[tuple[int, int], ...]]


class _Rules:
    """The per-kind table: the canonical basis, its index, and the structure
    constants, one basis element at a time.

    Row a maps each basis index b with [a, b] != 0 to that bracket as
    (index, coefficient) pairs, the coefficients as `int`.  Elements on
    disjoint node pairs commute, so a row scans only the elements sharing a
    node with a, and is built the first time a bracket needs it.
    """

    __slots__ = ("basis", "index", "by_node", "rows")

    def __init__(self, kind: AlgebraKind):
        if kind.dimension > _MAX_DIMENSION:
            raise ValidationError(f"{kind} has dimension {kind.dimension}, over the limit of "
                                  f"{_MAX_DIMENSION} for a structure-constant table")
        self.basis = tuple(b for tag in _ADMITTED[kind.family] for b in _tag_basis(tag, kind.n))
        self.index = {b: k for k, b in enumerate(self.basis)}
        self.by_node: list[list[int]] = [[] for _ in range(kind.n + 1)]
        for k, b in enumerate(self.basis):
            self.by_node[b.i].append(k)
            if b.j != b.i:
                self.by_node[b.j].append(k)
        self.rows: dict[int, _Row] = {}

    def row(self, ia: int) -> _Row:
        row = self.rows.get(ia)
        if row is None:
            a = self.basis[ia]
            row = {}
            for ib in {*self.by_node[a.i], *self.by_node[a.j]}:
                b = self.basis[ib]
                entries = _pair_bracket(a, b)
                if any(c.denominator != 1 for _, c in entries):
                    raise ArithmeticError(f"[{a}, {b}] has a non-integer structure constant")
                if entries:
                    row[ib] = tuple((self.index[r], int(c)) for r, c in entries)
            self.rows[ia] = row
        return row


@functools.lru_cache(maxsize=_KIND_CACHE_SIZE)
def _rules(kind: AlgebraKind) -> _Rules:
    return _Rules(kind)


def _bracket_vec(x: dict[int, int | Fraction], y: dict[int, int | Fraction],
                 rules: _Rules) -> dict[int, int | Fraction]:
    """[x, y] on coordinate vectors: the one bracket routine of the package.

    Each x coordinate meets y on the shared support of its rule row and y;
    the interpreter builds that key-view intersection by iterating the
    smaller side.  The structure constants are `int`s, so `int` vectors
    give an `int` result and `Fraction` vectors a `Fraction` one.  Rows are
    read from the table, and built only the first time one is missing.
    """
    out: dict[int, int | Fraction] = {}
    get, rows = out.get, rules.rows
    for ia, ca in x.items():
        row = rows.get(ia)
        if row is None:
            row = rules.row(ia)
        for ib in row.keys() & y.keys():
            c = ca * y[ib]
            for idx, coeff in row[ib]:
                out[idx] = get(idx, 0) + c * coeff
    return {idx: v for idx, v in out.items() if v}


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the structure constants; result canonicalized."""
    if x.kind != y.kind:
        raise KindMismatch(f"cannot bracket {x.kind} with {y.kind}")
    z = _bracket_vec(x.to_vector(), y.to_vector(), _rules(x.kind))
    return AlgebraElement.from_vector(x.kind, z)


# ---------------------------------------------------------------------------
# exact span arithmetic and the bracket-closure fixpoint
# ---------------------------------------------------------------------------


def _primitive(vec: dict[int, int]) -> dict[int, int]:
    """vec divided by the gcd of its entries, signed positive at its lowest index."""
    g = gcd(*vec.values())
    if vec[min(vec)] < 0:
        g = -g
    return vec if g == 1 else {idx: v // g for idx, v in vec.items()}


def _integral(vec: dict[int, Fraction]) -> dict[int, int]:
    """The primitive integer vector on the ray of a Fraction vector."""
    if not vec:
        return {}
    den = lcm(*(v.denominator for v in vec.values()))
    return _primitive({idx: v.numerator * (den // v.denominator) for idx, v in vec.items()})


def _eliminate(v: dict[int, int], p: int, row: dict[int, int]) -> None:
    """v <- (a/g)·v - (c/g)·row in place, where a = row[p], c = v[p] and
    g = gcd(a, c): the one fraction-free step, which clears v at p."""
    a, c = row[p], v[p]
    g = gcd(a, c)
    a, c = a // g, c // g
    if a != 1:
        for idx in v:
            v[idx] *= a
    for idx, x in row.items():
        nv = v.get(idx, 0) - c * x
        if nv:
            v[idx] = nv
        else:
            del v[idx]


class _Echelon:
    """Fully reduced, fraction-free row echelon form over int coordinate dicts.

    Row p is the primitive integer multiple of the RREF row with pivot p:
    positive at p, zero at every other pivot, entries with gcd 1.  That form
    is unique, so `ordered_rows` recovers the RREF rows exactly by dividing
    each row by its pivot entry.  Rows are replaced, never changed in place,
    so copies of the state may share them.
    """

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: dict[int, dict[int, int]] = {}  # pivot -> primitive row

    def copy(self) -> "_Echelon":
        new = _Echelon()
        new.rows = dict(self.rows)
        return new

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
        """A nonzero multiple of vec plus a vector of the span, zero at every
        pivot; empty exactly when vec lies in the span."""
        # rows vanish at each other's pivots, so each step clears one pivot
        # of out and leaves the others zero or nonzero as they were
        out = dict(vec)
        rows = self.rows
        for p in [p for p in vec if p in rows]:
            _eliminate(out, p, rows[p])
        return out

    def contains(self, vec: dict[int, int]) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: dict[int, int]) -> bool:
        red = self.reduce(vec)
        if not red:
            return False
        red = _primitive(red)
        p = min(red)
        for q, row in self.rows.items():
            if p in row:
                new = dict(row)
                _eliminate(new, p, red)
                self.rows[q] = _primitive(new)
        self.rows[p] = red
        return True

    def ordered_rows(self) -> list[dict[int, Fraction]]:
        """The RREF rows in pivot order, pivot entry 1."""
        return [{idx: Fraction(v, row[p]) for idx, v in row.items()}
                for p, row in sorted(self.rows.items())]


class SpanBasis:
    """Row-reduced basis of a subspace; rank is exact by construction.

    `ech` is the echelon of the rows, a copy of the closure's own, so
    membership tests reduce against it instead of rebuilding one.  Equality,
    hash and repr read `kind` and `rows` only, and no field can be assigned."""

    __slots__ = ("kind", "rows", "ech")
    kind: AlgebraKind
    rows: tuple[AlgebraElement, ...]
    ech: _Echelon

    def __init__(self, kind: AlgebraKind, rows: tuple[AlgebraElement, ...], ech: _Echelon) -> None:
        for name, value in (("kind", kind), ("rows", rows), ("ech", ech)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not SpanBasis:
            return NotImplemented
        return (self.kind, self.rows) == (other.kind, other.rows)

    def __hash__(self) -> int:
        return hash((self.kind, self.rows))

    def __repr__(self) -> str:
        return f"SpanBasis(kind={self.kind!r}, rows={self.rows!r})"

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, e: AlgebraElement) -> bool:
        if e.kind != self.kind:
            raise KindMismatch(f"element of {e.kind} tested against a {self.kind} span")
        return self.ech.contains(_integral(e.to_vector()))


class LieClosure:
    """Incremental bracket-closure state.

    The closure runs sweep by sweep, in FIFO order.  In a sweep, each
    frontier vector (a new generator, or a vector the previous sweep
    inserted) takes its turn: it is bracketed with vectors spanning the state
    when its turn starts, and each bracket that raises the rank joins them
    and the next frontier, until the span stabilizes, fills the whole algebra
    or reaches a caller's `bound`.  A bound is the dimension of a Lie algebra
    known to contain the closure: a span of that rank inside it is all of it,
    so stopping there is exact.

    The pair rule is generator-adjoint.  L(S) is the smallest subspace that
    contains S and is invariant under ad_s for each s in S (the LieTree
    construction in D. Elliott, *Bilinear Control Systems*, 2009), so a
    generator's turn brackets it with every spanning vector present, and any
    other vector's turn brackets it with the generators present only.  Each
    bracket is evaluated with the generator on the left, so structure-constant
    rows are built only for the generators' supports; a bracket's sign does
    not matter, since elimination is linear and `_primitive` fixes it.  The
    raw primitive brackets join the queue, not their echelon residuals:
    queuing residuals, or taking the newest vector first, makes the
    coefficients blow up.

    Each unordered pair is bracketed at most once: [y, x] = -[x, y] lies in
    a span that only grows.  Pairs on disjoint node sets are skipped, since
    such elements commute; a vector's node mask is built from the basis
    elements of its support (D_1k counts node 1 and node k).  The state can
    be copied cheaply and extended with more generators, which the sampling
    oracle uses to share the control-set closure across trials: the added
    drift's turn then meets that whole basis.

    `_sweep=True`, for `lie_closure` alone, counts every inserted bracket as
    a generator too, which brackets every pair: the all-pairs sweep whose
    sweep count `lie_closure` reports as `steps`.  It goes once `steps` is
    redefined as bracket depth and the pinned outputs are re-recorded.
    """

    def __init__(self, kind: AlgebraKind, *, _sweep: bool = False):
        self.kind = kind
        self.rules = _rules(kind)
        self.ech = _Echelon()
        self.sweep = _sweep
        # primitive integer vectors, the bit masks of their nodes, and
        # whether each is a generator; `generators` lists the generators'
        # positions in `spanning`
        self.spanning: list[dict[int, int]] = []
        self.masks: list[int] = []
        self.is_generator: list[bool] = []
        self.generators: list[int] = []
        # reach[k]: len(spanning) when vector k's turn started; the vectors
        # past len(reach) have had no turn yet and form the frontier
        self.reach: list[int] = []
        self.steps = 0

    def copy(self) -> "LieClosure":
        new = object.__new__(LieClosure)
        new.kind = self.kind
        new.rules = self.rules
        new.ech = self.ech.copy()
        new.sweep = self.sweep
        new.spanning = list(self.spanning)
        new.masks = list(self.masks)
        new.is_generator = list(self.is_generator)
        new.generators = list(self.generators)
        new.reach = list(self.reach)
        new.steps = self.steps
        return new

    @property
    def rank(self) -> int:
        return self.ech.rank

    def _push(self, vec: dict[int, int], generator: bool) -> None:
        basis = self.rules.basis
        mask = 0
        for idx in vec:
            b = basis[idx]
            mask |= (1 << b.i) | (1 << b.j)
        if generator:
            self.generators.append(len(self.spanning))
        self.spanning.append(vec)
        self.masks.append(mask)
        self.is_generator.append(generator)

    def add_generators(self, elements: Iterable[AlgebraElement]) -> None:
        for e in elements:
            if e.kind != self.kind:
                raise KindMismatch(f"generator of {e.kind} in a {self.kind} closure")
            self.add_ray(_integral(e.to_vector()))

    def add_ray(self, vec: dict[int, int]) -> None:
        """Add a generator given as its primitive integer vector (`_integral`
        of its coordinates); one in the span already, zero included, adds
        nothing."""
        if self.ech.insert(vec):
            self._push(vec, True)

    def run(self, bound: int | None = None) -> None:
        """Sweep until the span stabilizes, fills the algebra or reaches
        `bound` (default: the algebra's dimension), which the caller
        vouches is the dimension of a Lie algebra holding every generator."""
        bound = self.kind.dimension if bound is None else bound
        spanning, masks, reach, ech = self.spanning, self.masks, self.reach, self.ech
        is_generator, rules, sweep = self.is_generator, self.rules, self.sweep
        # a sweep yields a frontier only when the rank grew, so this terminates
        while len(reach) < len(spanning) and ech.rank < bound:
            end = len(spanning)
            for ix in range(len(reach), end):
                x, mx, stop = spanning[ix], masks[ix], len(spanning)
                reach.append(stop)
                # a generator meets every vector present, any other vector
                # the generators only, which are all present by now
                x_gen = is_generator[ix]
                for iy in range(stop) if x_gen else self.generators:
                    # an earlier y whose turn reached past ix already met x,
                    # so [x, y] = -[y, x] is in the span; x skips itself and those
                    if (iy > ix or reach[iy] <= ix) and mx & masks[iy]:
                        if x_gen:
                            z = _bracket_vec(x, spanning[iy], rules)
                        else:
                            z = _bracket_vec(spanning[iy], x, rules)
                        if z and ech.insert(z):
                            self._push(_primitive(z), sweep)
                            if ech.rank == bound:
                                break
                if ech.rank == bound:
                    break
            if len(spanning) > end:
                self.steps += 1

    def basis(self) -> SpanBasis:
        rows = tuple(AlgebraElement.from_vector(self.kind, v) for v in self.ech.ordered_rows())
        return SpanBasis(self.kind, rows, self.ech.copy())


def lie_closure(generators: list[AlgebraElement]) -> tuple[SpanBasis, int, int]:
    """Span of the Lie subalgebra generated by the given elements.

    Returns (span basis, dimension, sweeps until stabilization).  The
    closure brackets every pair of spanning vectors (`LieClosure`'s sweep
    case), since its sweep count is the `steps` that `structcon closure`
    prints.
    """
    if not generators:
        raise EmptyGenerators("closure needs at least one generator")
    kind = generators[0].kind
    state = LieClosure(kind, _sweep=True)
    state.add_generators(generators)
    state.run()
    return state.basis(), state.rank, state.steps


def contains_sl(basis: SpanBasis) -> bool:
    """True when the span contains every traceless matrix (GL only): it is
    all of gl(n), or has the dimension n^2 - 1 of sl(n) and is traceless."""
    if basis.kind.family is not Family.GL:
        raise KindMismatch(f"sl-containment is defined over gl(n), not {basis.kind}")
    n = basis.kind.n
    diagonal = [BasisElement("E", i, i) for i in range(1, n + 1)]
    return basis.rank == n * n or (basis.rank == n * n - 1 and not any(
        sum(row.coeff(e) for e in diagonal) for row in basis.rows))
