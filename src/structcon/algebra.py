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
`LieClosure` call; a closure keeps the adjoint columns of its many-term left
operands for that routine.

X_ij has coordinate (t*N + i)*N + j, where N = n + 1 and t is X's place in
"BCDE": sparse, but ordered as the canonical basis, so pivots and signs are
those of dense indices and no basis or index table is built.

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

# most basis elements a closure's algebra may have.  Nothing is built per
# element (a cold two-edge su(1000) `report`: 0.25 s, 19 MB peak RSS), but a
# closure that fills the algebra holds that many vectors of as many
# coordinates: filling su(80), 6399 elements, takes 2 s (2-vCPU VM, Python 3.11)
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


def _stored(tag: str, i: int, j: int) -> bool:
    """Whether X_ij is a canonical basis element: E_ij for any i, j, B_ij and
    C_ij for i < j, D_ij for 1 = i < j."""
    return tag == "E" or i < j and (tag != "D" or i == 1)


def canonical_basis(kind: AlgebraKind) -> tuple[BasisElement, ...]:
    """Ordered basis over the admitted tags, each in (tag, i, j) order: B
    lexicographic, then C, then D_12..D_1n, then E row-major: the (i, j)
    that `_stored` admits, so `_make` skips `BasisElement`'s checks."""
    return tuple(BasisElement._make((t, i, j)) for t in _ADMITTED[kind.family]
                 for i in range(1, 2 if t == "D" else kind.n + 1)
                 for j in range(1 if t == "E" else i + 1, kind.n + 1))


def _stored_terms(b: BasisElement) -> tuple[tuple[BasisElement, int], ...]:
    """b over the canonical basis, as (element, coefficient) pairs: b itself,
    or D_1j - D_1i for a D_ij with i > 1, the one rewrite rule of the
    package."""
    if b.tag == "D" and b.i > 1:
        return ((BasisElement._make(("D", 1, b.j)), 1), (BasisElement._make(("D", 1, b.i)), -1))
    return ((b, 1),)


def _bump(terms: dict[BasisElement, Fraction], key: BasisElement, c: Fraction) -> None:
    """terms[key] += c for a nonzero c, dropping the key when the sum is
    zero; a new key takes c as it is."""
    old = terms.get(key)
    if old is None:
        terms[key] = c
    elif v := old + c:
        terms[key] = v
    else:
        del terms[key]


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
            if c:
                for s, sign in _stored_terms(b):
                    _bump(terms, s, c if sign > 0 else -c)
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
        return {index(b): c for b, c in self._terms.items()}

    @staticmethod
    def from_vector(kind: AlgebraKind, vec: dict[int, Fraction]) -> "AlgebraElement":
        element = _rules(kind).element
        return AlgebraElement(kind, {element(k): c for k, c in vec.items() if c})


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


def _pair_bracket(a: tuple, b: tuple) -> list[tuple[tuple, int]]:
    """Bracket of two (tag, i, j) generators, over the canonical basis.

    The structure constants are derived, not tabulated: a and b are sums of
    matrix units i^k E_pq (`_UNITS`), ab - ba follows from the one rule
    E_pq E_rs = d_qr E_ps, and each entry m_ps is read back as a coordinate:
    E_ps in gl; in so and su B_pq = Re m_pq, C_pq = Im m_pq (p < q) and
    D_1k = -Im m_kk (k >= 2).  The dense matrix route shares none of this.
    """
    powers: dict[tuple[int, int], list[int]] = {}  # (p, s) -> count per power of i
    ua, ub = _UNITS[a[0]](a[1], a[2]), _UNITS[b[0]](b[1], b[2])
    for left, right, sign in ((ua, ub, 1), (ub, ua, -1)):
        for k, p, q in left:
            for l, r, s in right:
                if q == r:
                    powers.setdefault((p, s), [0, 0, 0, 0])[(k + l) % 4] += sign
    m = {ps: (c[0] - c[2], c[1] - c[3]) for ps, c in powers.items()}
    if a[0] == "E":
        return [(("E", p, s), re) for (p, s), (re, _) in m.items() if re]
    # brackets are traceless, so the i*E_kk parts fit the D_1k basis
    if sum(im for (p, s), (_, im) in m.items() if p == s):
        raise ArithmeticError(f"[{a}, {b}] has a nonzero trace")
    off = [((tag, p, s), c) for (p, s), (re, im) in m.items() if p < s
           for tag, c in (("B", re), ("C", im)) if c]
    diag = [(("D", 1, p), -im) for (p, s), (_, im) in m.items() if p == s > 1 and im]
    return off + diag


_Row = dict[int, tuple[tuple[int, int], ...]]


class _Rules:
    """The per-kind table: the coordinate formula, and the structure
    constants one basis element at a time.

    Row a maps each coordinate b with [a, b] != 0 to that bracket as
    (coordinate, coefficient) pairs, the coefficients as `int`.  Elements on
    disjoint node pairs commute, so a row scans only the elements sharing a
    node with a, and is built the first time a bracket needs it.
    """

    __slots__ = ("N", "tags", "rows")

    def __init__(self, kind: AlgebraKind):
        if kind.dimension > _MAX_DIMENSION:
            raise ValidationError(f"{kind} has dimension {kind.dimension}, over the limit of "
                                  f"{_MAX_DIMENSION} for a structure-constant table")
        self.N = kind.n + 1
        self.tags = _ADMITTED[kind.family]
        self.rows: dict[int, _Row] = {}

    def index(self, b: _Key) -> int:
        return ("BCDE".index(b[0]) * self.N + b[1]) * self.N + b[2]

    def element(self, k: int) -> BasisElement:
        t, ij = divmod(k, self.N * self.N)
        return BasisElement("BCDE"[t], *divmod(ij, self.N))

    def row(self, ia: int) -> _Row:
        row = self.rows.get(ia)
        if row is None:
            _, i, j = a = self.element(ia)
            row = {}
            for b in {(tag, p, q) for tag in self.tags for k in range(1, self.N)
                      for p, q in ((i, k), (k, i), (j, k), (k, j)) if _stored(tag, p, q)}:
                entries = _pair_bracket(a, b)
                if any(c.denominator != 1 for _, c in entries):
                    raise ArithmeticError(f"[{a}, {b}] has a non-integer structure constant")
                if entries:
                    row[self.index(b)] = tuple((self.index(r), int(c)) for r, c in entries)
            self.rows[ia] = row
        return row


@functools.lru_cache(maxsize=_KIND_CACHE_SIZE)
def _rules(kind: AlgebraKind) -> _Rules:
    return _Rules(kind)


_Column = tuple[tuple[int, int | Fraction], ...]


def _bracket_vec(x: dict[int, int | Fraction], y: dict[int, int | Fraction],
                 rules: _Rules, cols: dict[int, _Column]) -> dict[int, int | Fraction]:
    """[x, y] on coordinate vectors: the one bracket routine of the package.

    [x, y] = sum over b of y_b times column b of ad_x, which is the sum over
    a of x_a times rule row a at b.  `cols` caches x's columns: the caller
    keeps one dict per left operand and passes it with every bracket that
    operand takes, and a column is filled the first time a y coordinate
    asks for it.  A column keeps the zeros its sum cancels to, which the
    result drops.  A column depends only on x, so the cache stays valid as
    long as x is unchanged.  A one-term x needs no cache: its columns are
    its rule row, scaled, and y meets that row on their shared support (a
    key-view intersection, which the interpreter builds by iterating the
    smaller side); a one-term y as well makes the bracket one rule entry,
    scaled, read without the intersection.  The structure constants are
    `int`s, so `int` vectors give an `int` result and `Fraction` vectors a
    `Fraction` one; the sums are the same exact sums either way, regrouped.
    Rows are read from the table, and built only the first time one is
    missing.
    """
    out: dict[int, int | Fraction] = {}
    get, rows = out.get, rules.rows
    if len(x) == 1:
        [(ia, ca)] = x.items()
        row = rows.get(ia) or rules.row(ia)
        if len(y) == 1:
            # a rule entry lists distinct coordinates with nonzero constants
            [(ib, cb)] = y.items()
            c = ca * cb
            return {idx: c * coeff for idx, coeff in row.get(ib, ())}
        for ib in row.keys() & y.keys():
            c = ca * y[ib]
            for idx, coeff in row[ib]:
                out[idx] = get(idx, 0) + c * coeff
    else:
        for ib, cb in y.items():
            col = cols.get(ib)
            if col is None:
                acc: dict[int, int | Fraction] = {}
                for ia, ca in x.items():
                    if entry := (rows.get(ia) or rules.row(ia)).get(ib):
                        for idx, coeff in entry:
                            acc[idx] = acc.get(idx, 0) + ca * coeff
                col = cols[ib] = tuple(acc.items())
            for idx, coeff in col:
                out[idx] = get(idx, 0) + cb * coeff
    return {idx: v for idx, v in out.items() if v}


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the structure constants; result canonicalized."""
    if x.kind != y.kind:
        raise KindMismatch(f"cannot bracket {x.kind} with {y.kind}")
    z = _bracket_vec(x.to_vector(), y.to_vector(), _rules(x.kind), {})
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


def _ray(rules: _Rules, terms: Iterable[tuple[BasisElement, Fraction | int]]) -> dict[int, int]:
    """The primitive integer vector on the ray of sum c·b over `terms`, an
    element's terms: distinct canonical basis elements (`_stored_terms` of
    one base are such terms), each with a nonzero `int` or `Fraction`
    coefficient.  No terms give the empty vector."""
    index = rules.index
    vec = {index(b): c.as_integer_ratio() for b, c in terms}
    if not vec:
        return {}
    den = lcm(*[d for _, d in vec.values()])
    return _primitive({idx: n * (den // d) for idx, (n, d) in vec.items()})


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

    A vector lies in the span exactly when it equals the combination of
    rows that its own pivot entries dictate, since the rows vanish at each
    other's pivots.  So `insert` decides a one-term vector {k: v} without a
    reduction: if k is no pivot it is independent, with new row {k: 1};
    if row k is {k: a}, it is that row's multiple.  Only a one-term vector
    at a multi-term row's pivot takes the general reduction.

    `multi` holds the rows with more than one entry, by pivot.  A new pivot
    p is no pivot yet, and a one-term row {q: a} has no entry but q, so
    back-substitution visits only `multi`'s rows.  Back-substitution can
    shrink a row to one entry, never grow one past it.
    """

    __slots__ = ("rows", "multi")

    def __init__(self) -> None:
        self.rows: dict[int, dict[int, int]] = {}  # pivot -> primitive row
        self.multi: dict[int, dict[int, int]] = {}  # the rows of length > 1

    def copy(self) -> "_Echelon":
        new = _Echelon()
        new.rows = dict(self.rows)
        new.multi = dict(self.multi)
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

    def insert(self, vec: dict[int, int]) -> int:
        """Add vec to the span: the new row's pivot entry if vec raised the
        rank, else 0."""
        rows, multi = self.rows, self.multi
        if len(vec) == 1 and (p := next(iter(vec))) not in multi:
            if p in rows:
                return 0
            red = {p: 1}
        else:
            red = self.reduce(vec)
            if not red:
                return 0
            red = _primitive(red)
            p = min(red)
        shrunk = []
        for q, row in multi.items():
            if p in row:
                new = dict(row)
                _eliminate(new, p, red)
                new = rows[q] = multi[q] = _primitive(new)
                if len(new) == 1:
                    shrunk.append(q)
        for q in shrunk:
            del multi[q]
        rows[p] = red
        if len(red) > 1:
            multi[p] = red
        return red[p]

    def ordered_rows(self) -> list[dict[int, Fraction]]:
        """The RREF rows in pivot order, pivot entry 1."""
        return [{idx: Fraction(v, row[p]) for idx, v in row.items()}
                for p, row in sorted(self.rows.items())]


# below 2^30, so a residue is a one-digit CPython int; any prime is exact
_P = 2**30 - 35


def _eliminate_mod(v: dict[int, int], c: int, row: dict[int, int]) -> None:
    """v <- v - c·row mod `_P` in place, dropping the entries that vanish."""
    for idx, x in row.items():
        nv = (v.get(idx, 0) - c * x) % _P
        if nv:
            v[idx] = nv
        else:
            v.pop(idx, None)


def _monic(row: dict[int, int], p: int) -> dict[int, int]:
    """row mod `_P`, scaled to entry 1 at p, which p must not divide."""
    inv = pow(row[p], -1, _P)
    return {idx: r for idx, v in row.items() if (r := v * inv % _P)}


class _ModEchelon:
    """`_Echelon`'s `insert` and `rank` mod the prime `_P`, for a trial
    `LieClosure` whose exact rows outgrew p, which is not copied after:
    seeded with the exact echelon it held at that switch, as rows mod p
    (each stays reduced; one whose pivot entry p divides is left out).
    Integer vectors of a Lie algebra L over Q have rank mod p at most their
    rank over Q, as reduction commutes with the integer structure
    constants, so a rank here that reaches dim L proves it.  A lower rank
    proves nothing: a vector called dependent here may be independent over
    Q, so such a trial closes again exactly (`LieClosure.trial`).
    """

    __slots__ = ("rows",)

    def __init__(self, exact: _Echelon) -> None:
        self.rows = {q: _monic(row, q) for q, row in exact.rows.items() if row[q] % _P}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, vec: dict[int, int]) -> bool:
        rows = self.rows
        out = {idx: r for idx, v in vec.items() if (r := v % _P)}
        for q in [q for q in out if q in rows]:
            _eliminate_mod(out, out[q], rows[q])
        if not out:
            return False
        p = min(out)
        out = _monic(out, p)
        for q, row in rows.items():
            if p in row:
                new = dict(row)
                _eliminate_mod(new, row[p], out)
                rows[q] = new
        rows[p] = out
        return True


class SpanBasis(record("SpanBasis", "kind rows")):
    """Row-reduced basis of a subspace; rank is exact by construction."""

    __slots__ = ()
    kind: AlgebraKind
    rows: tuple[AlgebraElement, ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, e: AlgebraElement) -> bool:
        if e.kind != self.kind:
            raise KindMismatch(f"element of {e.kind} tested against a {self.kind} span")
        rules, ech = _rules(self.kind), _Echelon()
        for row in self.rows:
            ech.insert(_ray(rules, row._terms.items()))
        return ech.contains(_ray(rules, e._terms.items()))


class LieClosure:
    """Incremental bracket-closure state.

    The closure runs sweep by sweep, in FIFO order.  In a sweep, each
    frontier vector (a new generator, a replayed word, or a vector the
    previous sweep inserted) takes its turn: it is bracketed with vectors
    spanning the state when its turn starts, and each bracket that raises
    the rank joins them and the next frontier, until the span stabilizes,
    fills the whole algebra or reaches a caller's `bound`.  A bound is the
    dimension of a Lie algebra known to contain the closure: a span of that
    rank inside it is all of it, so stopping there is exact.

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

    A run brackets each unordered pair at most once: [y, x] = -[x, y] lies in
    a span that only grows.  Pairs on disjoint node sets are skipped, since
    such elements commute; a vector's node mask is built from the basis
    elements of its support (D_1k counts node 1 and node k).  The state can
    be copied cheaply and extended with more generators, which the sampling
    oracle uses to share the control-set closure across trials: the added
    drift's turn then meets that whole basis.

    Each position keeps a cache of its vector's adjoint columns
    (`_bracket_vec`), filled by the brackets that put it on the left: a
    generator's in its own turn and in every later turn, so a many-term
    drift ray builds each column once per closure, not once per bracket.
    The sweep's other vectors are left operands in their own turn only, and
    drop their columns after it.  `copy` shares the caches of the positions
    it copies: a column is a function of the vector at its position, which
    no copy changes.  Positions past the copy point start with none, so
    trials whose rays sit at the same position never read each other's.

    Each pushed vector records its parent pair: None for a generator, else
    the positions (left, right) of the bracket it is the primitive of, as
    evaluated.  `replay` pushes such words, recorded by another state, in
    front of a `run`: each lies in the closure and only seeds the frontier.

    A closure given a `bound` (an oracle trial) switches to rank decisions
    mod p once its exact rows outgrow p: at the first push whose new
    echelon row has a pivot entry above `_P` (`_push`), `ech` becomes a
    `_ModEchelon` seeded with the exact echelon.  The vectors, brackets and
    order stay those of exact decisions.  A rank mod p that reaches the
    bound proves the dimension, since rank mod p is at most the rank over
    Q; a switched closure that ends below its bound proves nothing, so
    `trial`, the one place a bound is given, closes it again exactly and
    hands back every state without one.  Without a bound (`lie_closure`,
    and the oracle's control and relaxed closures) every decision is exact.

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
        # primitive integer vectors and the bit masks of their nodes;
        # `generators` lists the generators' positions in `spanning`
        self.spanning: list[dict[int, int]] = []
        self.masks: list[int] = []
        self.generators: list[int] = []
        # parents[k]: None for a generator, else the positions (left, right)
        # of the bracket whose primitive is spanning[k]; a vector is bracketed
        # as a generator when it is one, or in the sweep case
        self.parents: list[tuple[int, int] | None] = []
        # cols[k]: the adjoint columns of spanning[k] that brackets with it on
        # the left have filled (`_bracket_vec`); a copy shares the dicts
        self.cols: list[dict[int, _Column]] = []
        # reach[k]: len(spanning) when vector k's turn started; the vectors
        # past len(reach) have had no turn yet and form the frontier
        self.reach: list[int] = []
        self.steps = 0
        # the dimension of a Lie algebra the caller vouches holds the
        # closure: `run` stops there, and it lets the closure switch mod p
        self.bound: int | None = None

    def copy(self) -> "LieClosure":
        new = object.__new__(LieClosure)
        new.kind = self.kind
        new.rules = self.rules
        new.ech = self.ech.copy()
        new.sweep = self.sweep
        new.spanning = list(self.spanning)
        new.masks = list(self.masks)
        new.generators = list(self.generators)
        new.parents = list(self.parents)
        new.cols = list(self.cols)
        new.reach = list(self.reach)
        new.steps = self.steps
        new.bound = self.bound
        return new

    @property
    def rank(self) -> int:
        return self.ech.rank

    def _push(self, vec: dict[int, int], a: int, parents: tuple[int, int] | None = None) -> None:
        """Record vec, which raised the rank with new pivot entry `a`, and
        switch to ranks mod p if the closure has a bound and `a` outgrew p."""
        N = self.rules.N
        mask = 0
        for idx in vec:
            mask |= (1 << idx // N % N) | (1 << idx % N)
        if parents is None:
            self.generators.append(len(self.spanning))
        self.spanning.append(vec)
        self.masks.append(mask)
        self.parents.append(parents)
        self.cols.append({})
        if a > _P and self.bound is not None:
            self.ech = _ModEchelon(self.ech)

    def add_generators(self, elements: Iterable[AlgebraElement]) -> None:
        for e in elements:
            if e.kind != self.kind:
                raise KindMismatch(f"generator of {e.kind} in a {self.kind} closure")
            self.add_ray(_ray(self.rules, e._terms.items()))

    def add_ray(self, vec: dict[int, int]) -> None:
        """Add a generator given as its primitive integer vector (`_ray` of
        its terms), the form in which every generator enters; one in the
        span already, zero included, adds nothing."""
        if a := self.ech.insert(vec):
            self._push(vec, a)

    def run(self) -> None:
        """Sweep until the span stabilizes, fills the algebra or reaches the
        closure's `bound`."""
        bound = self.kind.dimension if self.bound is None else self.bound
        spanning, masks, reach, ech = self.spanning, self.masks, self.reach, self.ech
        parents, cols, rules, sweep = self.parents, self.cols, self.rules, self.sweep
        # a sweep yields a frontier only when the rank grew, so this terminates
        while len(reach) < len(spanning) and ech.rank < bound:
            end = len(spanning)
            for ix in range(len(reach), end):
                x, mx, stop = spanning[ix], masks[ix], len(spanning)
                reach.append(stop)
                # a generator meets every vector present, any other vector
                # the generators only, which are all present by now
                x_gen = sweep or parents[ix] is None
                # only a generator is a left operand after its own turn
                cx = cols[ix] if parents[ix] is None else {}
                for iy in range(stop) if x_gen else self.generators:
                    # an earlier y whose turn reached past ix already met x,
                    # so [x, y] = -[y, x] is in the span; x skips itself and those
                    if (iy > ix or reach[iy] <= ix) and mx & masks[iy]:
                        if x_gen:
                            z = _bracket_vec(x, spanning[iy], rules, cx)
                        else:
                            z = _bracket_vec(spanning[iy], x, rules, cols[iy])
                        if z and (a := ech.insert(z)):
                            self._push(_primitive(z), a, (ix, iy) if x_gen else (iy, ix))
                            ech = self.ech
                            if ech.rank == bound:
                                break
                if ech.rank == bound:
                    break
            if len(spanning) > end:
                self.steps += 1

    def replay(self, words: Iterable[tuple[int, int]]) -> None:
        """Push the bracket words (left, right), each the bracket of two
        vectors present, in order while each raises the rank; stop at the
        first zero or dependent word.  The pushed vectors have had no turn,
        so they stay in the frontier for `run`."""
        spanning, cols, rules = self.spanning, self.cols, self.rules
        for left, right in words:
            z = _bracket_vec(spanning[left], spanning[right], rules, cols[left])
            if not (z and (a := self.ech.insert(z))):
                return
            self._push(_primitive(z), a, (left, right))

    def trial(self, ray: dict[int, int], words: list[tuple[int, int]] | None,
              bound: int | None) -> "LieClosure":
        """A copy with the ray, the replayed words if the ray joined, and a
        run under `bound`, which may switch it mod p: reaching the bound mod
        p proves it, and a switched copy below it closes again exactly.  The
        state returned has no bound: one below its bound is exact, and grows
        exactly."""
        state = self.copy()
        state.bound = bound
        state.add_ray(ray)
        if words and len(state.spanning) > len(self.spanning):
            state.replay(words)
        state.run()
        if not isinstance(state.ech, _Echelon) and state.rank < bound:
            return self.trial(ray, words, None)
        state.bound = None
        return state

    def basis(self) -> SpanBasis:
        rows = tuple(AlgebraElement.from_vector(self.kind, v) for v in self.ech.ordered_rows())
        return SpanBasis(self.kind, rows)


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
