import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structcon.algebra import (
    AlgebraElement,
    BasisElement,
    Cq,
    _ADMITTED,
    _bracket_vec,
    _Echelon,
    _pair_bracket,
    _ray,
    _Rules,
    _rules,
    _stored,
    _stored_terms,
    bracket,
    bracket_via_matrices,
    canonical_basis,
    contains_sl,
    decompose,
    gl,
    LieClosure,
    lie_closure,
    so,
    su,
    to_matrix,
)
from structcon.errors import EmptyGenerators, KindMismatch, MembershipError, ValidationError
from structcon.patterns import ControlPattern, control_generators

from helpers import (
    DenseSpan,
    bracket_log,
    brute_closure,
    brute_closure_dim,
    elem_matrix,
    flatten,
    integral,
    kind_candidates,
    reference_adjoint,
    reference_sweep,
)

Q = Fraction


def elem(kind, *terms):
    return AlgebraElement.build(kind, [(BasisElement(t, i, j), c) for t, i, j, c in terms])


def unit(kind, tag, i, j):
    return AlgebraElement.basis(kind, tag, i, j)


@pytest.mark.parametrize("kind,expected", [
    (so(2), 1), (so(5), 10), (so(6), 15),
    (gl(2), 4), (gl(4), 16),
    (su(2), 3), (su(5), 24),
])
def test_dimension_formula_matches_full_basis_span(kind, expected):
    assert kind.dimension == expected
    assert len(canonical_basis(kind)) == expected
    full = [AlgebraElement.build(kind, [(b, 1)]) for b in canonical_basis(kind)]
    _, dim, _ = lie_closure(full)
    assert dim == expected


@pytest.mark.parametrize("make", (so, gl, su))
def test_dimension_counts_the_canonical_basis(make):
    # the closed-form dimension and the basis come from the admitted tags
    # separately; they must agree at every size
    for n in range(2, 13):
        kind = make(n)
        assert kind.dimension == len(canonical_basis(kind))
    assert [str(b) for b in canonical_basis(su(3))] == [
        "B12", "B13", "B23", "C12", "C13", "C23", "D12", "D13"]
    assert [str(b) for b in canonical_basis(gl(2))] == ["E11", "E12", "E21", "E22"]


@pytest.mark.parametrize("make", (so, gl, su))
def test_canonical_basis_equals_the_filtered_candidates(make):
    # each tag's range is generated directly; it must be the 3n^2 candidates
    # X_ij filtered by `_stored`, in the same order
    for n in range(2, 8):
        kind = make(n)
        assert canonical_basis(kind) == tuple(
            BasisElement(t, i, j) for t in _ADMITTED[kind.family]
            for i in range(1, n + 1) for j in range(1, n + 1) if _stored(t, i, j))


def test_algebra_size_is_bounded():
    # every pattern graph holds all n nodes, so n is refused past 10^5
    assert su(10**5).n == 10**5
    for make in (so, gl, su):
        with pytest.raises(ValueError, match="at most 100000"):
            make(10**5 + 1)
        with pytest.raises(ValueError, match="at least 2"):
            make(1)


def test_basis_element_validation():
    with pytest.raises(ValueError):
        BasisElement("B", 2, 1)
    with pytest.raises(ValueError):
        BasisElement("D", 3, 3)
    with pytest.raises(ValueError):
        BasisElement("X", 1, 2)
    for tag in ("", "BC", "CD", "BCD"):  # a tag is one whole letter
        with pytest.raises(ValueError, match="unknown basis tag"):
            BasisElement(tag, 1, 2)
        assert not any(kind.admits(tag) for kind in (so(3), gl(3), su(3)))
    BasisElement("E", 3, 3)  # diagonal units are fine
    with pytest.raises(KindMismatch):
        AlgebraElement.basis(so(3), "E", 1, 2)
    with pytest.raises(KindMismatch):
        AlgebraElement.basis(so(3), "B", 1, 4)


def test_rule_table_size_limit(monkeypatch):
    import structcon.algebra as algebra

    monkeypatch.setattr(algebra, "_MAX_DIMENSION", 10)
    _Rules(so(5))
    with pytest.raises(ValidationError, match=r"so\(6\) has dimension 15, over the limit of 10"):
        _Rules(so(6))


def test_d_terms_are_rewritten_to_first_row():
    e = elem(su(4), ("D", 2, 4, 1))
    assert dict(e.items()) == {
        BasisElement("D", 1, 4): Q(1),
        BasisElement("D", 1, 2): Q(-1),
    }
    # round trip through the matrix proves the rewrite preserves the element
    assert decompose(to_matrix(e), su(4)) == e


def test_to_matrix_basis_definitions():
    m = to_matrix(unit(so(2), "B", 1, 2))
    assert m == ((Cq(Q(0)), Cq(Q(1))), (Cq(Q(-1)), Cq(Q(0))))
    m = to_matrix(unit(su(2), "D", 1, 2))
    assert m == ((Cq(Q(0), Q(1)), Cq()), (Cq(), Cq(Q(0), Q(-1))))
    zero = AlgebraElement.zero(gl(3))
    assert all(not x for row in to_matrix(zero) for x in row)


def _cmat(*rows):
    """An exact matrix from rows of Gaussian-integer Python complexes."""
    return tuple(tuple(Cq(Q(int(z.real)), Q(int(z.imag))) for z in row) for row in rows)


# matrices just outside each algebra, each with the failing constraint
_JUST_OUTSIDE = [
    (so(3), _cmat([0, 0, 0], [0, 2, 0], [0, 0, 0])),        # nonzero diagonal
    (so(3), _cmat([0, 1, 0], [1, 0, 0], [0, 0, 0])),        # symmetric pair
    (so(3), _cmat([0, 1j, 0], [-1j, 0, 0], [0, 0, 0])),     # imaginary entry
    (gl(2), _cmat([1j, 0], [0, 0])),                        # imaginary diagonal
    (gl(2), _cmat([0, 2 + 1j], [0, 0])),                    # imaginary off-diagonal
    (su(3), _cmat([0, 0, 0], [0, 1, 0], [0, 0, -1])),       # real diagonal
    (su(3), _cmat([0, 1, 0], [1, 0, 0], [0, 0, 0])),        # m12 = m21 = 1
    (su(3), _cmat([0, 1j, 0], [-1j, 0, 0], [0, 0, 0])),     # m12 = i, m21 = -i
    (su(3), _cmat([1j, 0, 0], [0, 0, 0], [0, 0, 0])),       # nonzero trace
    (so(2), _cmat([0, 1, 0], [-1, 0, 0])),                  # ragged 2x3
]


def test_decompose_round_trip_and_membership_errors():
    assert decompose(to_matrix(unit(so(2), "B", 1, 2)), so(2)) == unit(so(2), "B", 1, 2)
    assert decompose(to_matrix(unit(su(2), "D", 1, 2)), su(2)) == unit(su(2), "D", 1, 2)
    not_skew = ((Cq(Q(1)), Cq()), (Cq(), Cq()))
    with pytest.raises(MembershipError):
        decompose(not_skew, so(2))
    with pytest.raises(MembershipError):
        decompose(not_skew, su(2))  # nonzero trace, real diagonal
    complex_entry = ((Cq(Q(0), Q(1)), Cq()), (Cq(), Cq()))
    with pytest.raises(MembershipError):
        decompose(complex_entry, gl(2))
    with pytest.raises(MembershipError):
        decompose(not_skew, so(3))  # wrong size
    for kind, m in _JUST_OUTSIDE:
        with pytest.raises(MembershipError):
            decompose(m, kind)


def test_bracket_structure_constant_examples():
    g3, s3 = gl(3), su(3)
    assert bracket(unit(g3, "E", 1, 2), unit(g3, "E", 2, 3)) == unit(g3, "E", 1, 3)
    assert bracket(unit(s3, "B", 1, 2), unit(s3, "C", 1, 2)) == elem(s3, ("D", 1, 2, 2))
    s4 = su(4)
    assert bracket(unit(s4, "D", 1, 2), unit(s4, "D", 3, 4)).is_zero
    x = elem(s3, ("B", 1, 2, 3), ("C", 1, 3, 2))
    assert bracket(x, x).is_zero


def test_bracket_via_matrices_examples():
    g3, s3 = gl(3), su(3)
    assert bracket_via_matrices(unit(g3, "E", 1, 2), unit(g3, "E", 2, 3)) == unit(g3, "E", 1, 3)
    assert bracket_via_matrices(unit(s3, "B", 1, 2), unit(s3, "B", 2, 3)) == unit(s3, "B", 1, 3)
    assert bracket_via_matrices(unit(s3, "C", 1, 2), unit(s3, "C", 2, 3)) == -unit(s3, "B", 1, 3)


def test_bracket_kind_mismatch():
    with pytest.raises(KindMismatch):
        bracket(unit(so(3), "B", 1, 2), unit(su(3), "B", 1, 2))
    with pytest.raises(KindMismatch):
        bracket_via_matrices(unit(so(3), "B", 1, 2), unit(so(4), "B", 1, 2))


@pytest.mark.parametrize("kind", [so(4), so(6), gl(3), gl(5), su(3), su(6),
                                  so(2), gl(2), su(2)])
def test_bracket_equals_matrix_oracle_on_all_basis_pairs(kind):
    basis = canonical_basis(kind)
    for a in basis:
        for b in basis:
            x = AlgebraElement.build(kind, [(a, 1)])
            y = AlgebraElement.build(kind, [(b, 1)])
            assert bracket(x, y) == bracket_via_matrices(x, y), (a, b)


@pytest.mark.parametrize("family", [so, gl, su], ids=lambda f: f.__name__)
def test_bracket_equals_matrix_oracle_on_sampled_pairs_of_large_kinds(family):
    # the derived structure constants against the dense matrix commutator on
    # kinds too large for the all-pairs scan: 100 seeded pairs per size
    rng = random.Random(f"{family.__name__}-pairs")
    for n in range(7, 10):
        kind = family(n)
        basis = canonical_basis(kind)
        for _ in range(100):
            a, b = rng.choice(basis), rng.choice(basis)
            x = AlgebraElement.build(kind, [(a, 1)])
            y = AlgebraElement.build(kind, [(b, 1)])
            assert bracket(x, y) == bracket_via_matrices(x, y), (a, b)


@pytest.mark.parametrize("kind", [so(5), gl(4), su(5)], ids=str)
def test_rule_rows_match_full_basis_scan(kind):
    # rows scan only the elements sharing a node; a full scan must find nothing more
    basis = canonical_basis(kind)
    rules = _Rules(kind)
    for a in basis:
        full = {}
        for b in basis:
            entries = _pair_bracket(a, b)
            if entries:
                full[rules.index(b)] = tuple((rules.index(r), c) for r, c in entries)
        row = rules.row(rules.index(a))
        assert row == full, a
        assert all(type(c) is int for ent in row.values() for _, c in ent), a


@pytest.mark.parametrize("kind", [so(4), so(5), gl(3), su(4)], ids=str)
def test_coordinates_order_as_the_canonical_basis(kind):
    # a coordinate is a formula in (tag, i, j), not a position in a table:
    # sparse, but increasing along the basis, and inverted by `element`
    rules = _Rules(kind)
    basis = canonical_basis(kind)
    codes = [rules.index(b) for b in basis]
    assert codes == sorted(set(codes))
    assert tuple(rules.element(k) for k in codes) == basis


def test_rule_rows_reject_non_integer_structure_constants(monkeypatch):
    import structcon.algebra as algebra

    monkeypatch.setattr(algebra, "_pair_bracket", lambda a, b: [(a, Q(1, 2))])
    rules = _Rules(so(3))
    with pytest.raises(ArithmeticError):
        rules.row(rules.index(BasisElement("B", 1, 2)))


def _elements(kind, max_terms=4):
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool)
    pairs = st.tuples(st.sampled_from(canonical_basis(kind)), coeffs)
    return st.lists(pairs, min_size=0, max_size=max_terms).map(
        lambda items: AlgebraElement.build(kind, items))


@settings(max_examples=60, deadline=None)
@given(x=_elements(su(3)), y=_elements(su(3)))
def test_antisymmetry_su3(x, y):
    assert (bracket(x, y) + bracket(y, x)).is_zero


@settings(max_examples=60, deadline=None)
@given(x=_elements(gl(3)), y=_elements(gl(3)), z=_elements(gl(3)))
def test_jacobi_gl3(x, y, z):
    total = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
             + bracket(z, bracket(x, y)))
    assert total.is_zero


@settings(max_examples=40, deadline=None)
@given(x=_elements(su(4)), y=_elements(su(4)), z=_elements(su(4)))
def test_jacobi_su4(x, y, z):
    total = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
             + bracket(z, bracket(x, y)))
    assert total.is_zero


@settings(max_examples=60, deadline=None)
@given(e=_elements(su(4)))
def test_matrix_round_trip_su4(e):
    assert decompose(to_matrix(e), su(4)) == e


@settings(max_examples=60, deadline=None)
@given(e=_elements(so(4)))
def test_matrix_round_trip_so4(e):
    assert decompose(to_matrix(e), so(4)) == e


@settings(max_examples=60, deadline=None)
@given(e=_elements(gl(3)))
def test_matrix_round_trip_gl3(e):
    assert decompose(to_matrix(e), gl(3)) == e


@settings(max_examples=60, deadline=None)
@given(x=_elements(su(3)), y=_elements(su(3)))
def test_bracket_agrees_with_matrix_route_su3(x, y):
    assert bracket(x, y) == bracket_via_matrices(x, y)


@st.composite
def _left_and_rights(draw):
    """A kind, a left operand of 1-4 terms with coefficients +-1..+-9, a
    Fraction scale for it, and 2-5 right operands of 0-4 terms."""
    kind = draw(st.sampled_from([so(4), gl(3), su(4)]))
    basis = canonical_basis(kind)
    x = AlgebraElement.build(kind, draw(st.lists(
        st.tuples(st.sampled_from(basis), st.sampled_from([c for c in range(-9, 10) if c])),
        min_size=1, max_size=4, unique_by=lambda t: t[0])))
    scale = draw(st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool))
    return kind, x, scale, draw(st.lists(_elements(kind), min_size=2, max_size=5))


@settings(max_examples=150, deadline=None)
@given(data=_left_and_rights())
def test_cached_adjoint_columns_match_the_matrix_route(data):
    # one column cache per left operand, reused across right operands whose
    # supports overlap, gives the bracket of each, on integer and on
    # Fraction vectors; a one-term left operand reads its rule row and
    # fills no cache
    kind, x, scale, rights = data
    rules = _rules(kind)
    xq = x.scale(scale)
    ints, fracs = {}, {}
    for y in rights:
        want = bracket_via_matrices(x, y)
        # 6y is integral, as `_elements` draws denominators up to 3
        z = _bracket_vec({k: int(v) for k, v in x.to_vector().items()},
                         {k: int(6 * v) for k, v in y.to_vector().items()}, rules, ints)
        assert AlgebraElement.from_vector(kind, {k: Q(v, 6) for k, v in z.items()}) == want
        z = _bracket_vec(xq.to_vector(), y.to_vector(), rules, fracs)
        assert AlgebraElement.from_vector(kind, z) == want.scale(scale)
        assert bracket(xq, y) == want.scale(scale) == bracket_via_matrices(xq, y)
    supports = {k for y in rights for k in y.to_vector()}
    if len(x.to_vector()) == 1:
        assert not ints and not fracs
    else:
        assert set(ints) == set(fracs) == supports


def test_closure_copies_keep_their_rays_columns_apart():
    # two copies of one control closure get different rays at the same
    # position: each fills and reads the columns of its own ray, the copies
    # share the base's caches below that position, and the base gains none
    # at or past its own length
    kind = su(5)
    controls = [unit(kind, "C", 1, 2), elem(kind, ("B", 2, 3, 1), ("C", 3, 4, 2))]
    rays = [elem(kind, ("B", 1, 2, 1), ("B", 4, 5, -3), ("D", 1, 3, 2)),
            elem(kind, ("B", 1, 5, 2), ("C", 2, 4, 1))]
    base = LieClosure(kind)
    base.add_generators(controls)
    base.run()
    start = len(base.spanning)
    filled = {k: dict(c) for k, c in enumerate(base.cols)}
    copies = [base.copy() for _ in rays]
    for state, ray in zip(copies, rays):
        state.add_generators([ray])
        state.run()
    assert len(base.cols) == start
    a, b = copies
    assert a.spanning[start] != b.spanning[start]
    assert a.cols[start] and b.cols[start] and a.cols[start] is not b.cols[start]
    for state, ray in zip(copies, rays):
        assert all(state.cols[k] is base.cols[k] for k in range(start))
        assert (state.spanning, state.rank) == reference_adjoint(kind, [controls, [ray]])
        for k in (1, start):
            vec = state.spanning[k]
            for ib, col in state.cols[k].items():
                assert {k: v for k, v in col if v} == _bracket_vec(vec, {ib: 1}, state.rules, {})
    # a shared cache only gains columns of the same vector
    assert all(filled[k].items() <= base.cols[k].items() for k in filled)


def test_closure_of_so3_path_matches_brute_force():
    s3 = so(3)
    _, dim, steps = lie_closure([unit(s3, "B", 1, 2), unit(s3, "B", 2, 3)])
    assert dim == brute_closure_dim(3, [[("B", 1, 2, 1)], [("B", 2, 3, 1)]]) == 3
    assert steps >= 1


def test_closure_golden_so6():
    s6 = so(6)
    gens = [elem(s6, ("B", 1, 2, 3), ("B", 1, 4, 2), ("B", 2, 5, 3)),
            unit(s6, "B", 1, 2), unit(s6, "B", 2, 3),
            unit(s6, "B", 4, 5), unit(s6, "B", 5, 6)]
    _, dim, _ = lie_closure(gens)
    brute = brute_closure_dim(6, [
        [("B", 1, 2, 3), ("B", 1, 4, 2), ("B", 2, 5, 3)],
        [("B", 1, 2, 1)], [("B", 2, 3, 1)], [("B", 4, 5, 1)], [("B", 5, 6, 1)],
    ])
    assert dim == brute == 15


def test_closure_golden_su5():
    s5 = su(5)
    gens = [unit(s5, "B", 1, 2), unit(s5, "C", 1, 3), unit(s5, "B", 1, 4),
            unit(s5, "B", 1, 5), unit(s5, "D", 2, 4)]
    _, dim, _ = lie_closure(gens)
    brute = brute_closure_dim(5, [
        [("B", 1, 2, 1)], [("C", 1, 3, 1)], [("B", 1, 4, 1)],
        [("B", 1, 5, 1)], [("D", 2, 4, 1)],
    ])
    assert dim == brute == 24


def test_closure_golden_gl4_traceless_ceiling():
    g4 = gl(4)
    drift = elem(g4, ("E", 1, 3, 2), ("E", 4, 2, 1), ("E", 1, 2, 1),
                 ("E", 3, 3, 1), ("E", 4, 4, -1), ("E", 3, 1, 2))
    gens = [drift, unit(g4, "E", 1, 2), unit(g4, "E", 2, 1),
            unit(g4, "E", 3, 4), unit(g4, "E", 4, 3)]
    _, dim, _ = lie_closure(gens)
    assert dim == 15  # everything here is traceless, so gl(4) is out of reach


def test_closure_rejects_empty_and_mixed_generators():
    with pytest.raises(EmptyGenerators):
        lie_closure([])
    with pytest.raises(KindMismatch):
        lie_closure([unit(so(3), "B", 1, 2), unit(su(3), "B", 1, 2)])


def test_closure_monotone_in_generators():
    s4 = su(4)
    base = [unit(s4, "B", 1, 2), unit(s4, "C", 2, 3)]
    _, dim_small, _ = lie_closure(base)
    _, dim_big, _ = lie_closure(base + [unit(s4, "D", 1, 4)])
    assert dim_small <= dim_big <= s4.dimension


def test_closure_steps_zero_for_closed_set():
    g2 = gl(2)
    full = [AlgebraElement.build(g2, [(b, 1)]) for b in canonical_basis(g2)]
    _, dim, steps = lie_closure(full)
    assert dim == 4 and steps == 0


def _dense_su6_drift():
    k = su(6)
    return AlgebraElement.build(k, [(BasisElement("B", i, j), (7 * i + 3 * j) % 9 + 1)
                                    for i in range(1, 6) for j in range(i + 1, 7)])


def _assert_pairs_pruned(log):
    """One run bracketed no unordered pair twice and no pair on disjoint nodes."""
    pairs = [frozenset((id(x), id(y))) for x, y, _ in log]
    assert len(set(pairs)) == len(pairs)
    for x, y, rules in log:
        nodes_x, nodes_y = ({n for idx in v for n in rules.element(idx)[1:]} for v in (x, y))
        assert nodes_x & nodes_y


@pytest.mark.parametrize("gens,expected,brackets", [
    (lambda: [_dense_su6_drift(), unit(su(6), "C", 1, 2)], (35, 3), 38),
    (lambda: [unit(gl(6), "E", i, i % 6 + 1) for i in range(1, 7)] + [unit(gl(6), "E", 1, 1)],
     (36, 2), 87),
    (lambda: [unit(su(8), "B", i, i + 1) for i in range(1, 8)]
     + [AlgebraElement.basis(su(8), "C", 1, 2, Q(3, 7))], (63, 2), 479),
], ids=["dense-su6", "gl6-cycle", "su8-path"])
def test_closure_counters_pinned_and_scale_invariant(gens, expected, brackets, monkeypatch):
    # (dim, steps) as the sweep engine gives them, and the brackets it
    # evaluates; rescaling the generators changes none of them
    log = bracket_log(monkeypatch)
    basis, dim, steps = lie_closure(gens())
    assert (dim, steps) == expected
    _assert_pairs_pruned(log)
    assert len(log) == brackets
    log.clear()
    scaled, dim_s, steps_s = lie_closure([g.scale(Q(-5, 3)) for g in gens()])
    assert scaled == basis and (dim_s, steps_s) == expected
    assert len(log) == brackets


@st.composite
def _generator_sets(draw):
    """A kind, 1-4 generators of 1-3 terms with coefficients +-1..+-3, and
    one more generator."""
    kind = draw(st.sampled_from([so(4), gl(3), su(4)]))
    terms = st.lists(st.tuples(st.sampled_from(kind_candidates(kind)),
                               st.sampled_from([-3, -2, -1, 1, 2, 3])), min_size=1, max_size=3)
    gens = [AlgebraElement.build(kind, t) for t in draw(st.lists(terms, min_size=1, max_size=4))]
    return kind, gens, AlgebraElement.build(kind, draw(terms))


@settings(max_examples=150, deadline=None)
@given(data=_generator_sets())
def test_closure_matches_reference_sweep(data):
    # `lie_closure`'s sweep: same inserted vectors in the same order, same
    # steps and rank, both for one closure and for copy-extend-run
    kind, gens, extra = data
    state = LieClosure(kind, _sweep=True)
    state.add_generators(gens)
    state.run()
    base = reference_sweep(kind, [gens])
    assert (state.spanning, state.steps, state.rank) == base
    extended = state.copy()
    extended.add_generators([extra])
    extended.run()
    assert (extended.spanning, extended.steps, extended.rank) == reference_sweep(kind, [gens, [extra]])
    # the copy shares nothing that its run changes with the base state
    assert (state.spanning, state.steps, state.rank) == base


@settings(max_examples=150, deadline=None)
@given(data=_generator_sets())
def test_closure_matches_reference_adjoint(data):
    # the oracle's closures: same inserted vectors in the same order and
    # same rank as the literal loop, for one closure and for copy-extend-run,
    # and the rank of the sweep
    kind, gens, extra = data
    state = LieClosure(kind)
    state.add_generators(gens)
    state.run()
    base = reference_adjoint(kind, [gens])
    assert (state.spanning, state.rank) == base
    assert state.rank == reference_sweep(kind, [gens])[2]
    extended = state.copy()
    extended.add_generators([extra])
    extended.run()
    assert (extended.spanning, extended.rank) == reference_adjoint(kind, [gens, [extra]])
    assert extended.rank == reference_sweep(kind, [gens, [extra]])[2]
    assert (state.spanning, state.rank) == base


_RATIOS = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def _vectors(draw):
    """A kind's dimension, sparse Fraction vectors in its coordinates, and
    probe vectors: one drawn freely, one a combination of the others."""
    dim = draw(st.sampled_from([su(3), gl(3)])).dimension
    vec = st.dictionaries(st.integers(0, dim - 1), _RATIOS, max_size=4)
    vecs = [{k: c for k, c in v.items() if c} for v in draw(st.lists(vec, max_size=10))]
    combo: dict[int, Fraction] = {}
    for v in vecs:
        f = draw(_RATIOS)
        for k, c in v.items():
            combo[k] = combo.get(k, Q(0)) + f * c
    free = {k: c for k, c in draw(vec).items() if c}
    return dim, vecs, [free, {k: c for k, c in combo.items() if c}]


@st.composite
def _term_lists(draw):
    """A kind and terms over its admissible bases, D_ij with i > 1 included,
    with `Fraction` coefficients; in su, sometimes D_ij + D_jk - D_ik too,
    which cancels to zero."""
    kind = draw(st.sampled_from([so(4), gl(3), su(4)]))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    items = draw(st.lists(st.tuples(st.sampled_from(kind_candidates(kind)), coeffs), max_size=5))
    if kind.admits("D") and draw(st.booleans()):
        i, j, k = sorted(draw(st.permutations(range(1, 5)))[:3])
        c = draw(coeffs)
        items += [(BasisElement("D", i, j), c), (BasisElement("D", j, k), c),
                  (BasisElement("D", i, k), -c)]
    return kind, items


@settings(max_examples=200, deadline=None)
@given(data=_term_lists())
def test_ray_of_terms_matches_integral_of_coordinates(data):
    # the one ray routine against the two-step route through `to_vector`
    kind, items = data
    e = AlgebraElement.build(kind, items)
    assert _ray(_rules(kind), e._terms.items()) == integral(e.to_vector())


@pytest.mark.parametrize("kind", [so(4), gl(3), su(5)], ids=str)
def test_control_ray_matches_integral_of_its_generator(kind):
    # a control base's ray, read off the base (D_ij with i > 1 rewritten),
    # against its `control_generators` element's coordinates
    rules = _rules(kind)
    for b in kind_candidates(kind):
        [g] = control_generators(ControlPattern(kind, (b,)))
        assert _ray(rules, _stored_terms(b)) == integral(g.to_vector()), b


@settings(max_examples=100, deadline=None)
@given(data=_vectors())
def test_echelon_matches_dense_span(data):
    dim, vecs, probes = data
    ech, ref = _Echelon(), DenseSpan()

    def dense(v):
        return [v.get(k, Q(0)) for k in range(dim)]

    for v in vecs:
        pivots = set(ech.rows)
        # insert gives the new row's pivot entry, or 0 for a vector in the span
        entry = ech.insert(integral(v))
        assert bool(entry) == ref.insert(dense(v))
        assert ech.rank == ref.rank
        assert [ech.rows[p][p] for p in set(ech.rows) - pivots] == ([entry] if entry else [])
    for v in probes:
        assert ech.contains(integral(v)) == ref.contains(dense(v))
    assert ech.contains(integral(probes[1]))
    pivots = sorted(ech.rows)
    rows = ech.ordered_rows()
    assert len(rows) == ref.rank
    for p, row in zip(pivots, rows):
        assert min(row) == p and row[p] == 1
        assert not any(q in row for q in pivots if q != p)
        assert ref.contains(dense(row))
    for p, row in ech.rows.items():
        assert all(type(v) is int for v in row.values())
        assert row[p] > 0 and gcd(*row.values()) == 1


@pytest.mark.parametrize("seed", range(9))
def test_span_basis_keeps_its_span_when_the_closure_grows(seed):
    # a SpanBasis answers for the span it was taken from, even after the
    # closure that produced it is extended and run again
    rng = random.Random(seed)
    kind = [so(5), gl(3), su(4)][seed % 3]
    candidates = kind_candidates(kind)

    def sample(terms):
        return AlgebraElement.build(kind, [(rng.choice(candidates), rng.choice([-2, -1, 1, 3]))
                                           for _ in range(terms)])

    rules, basis = _Rules(kind), canonical_basis(kind)

    def dense(e):
        v = e.to_vector()
        return [v.get(rules.index(b), Q(0)) for b in basis]

    gens = [sample(1), sample(1)]
    state = LieClosure(kind)
    state.add_generators(gens)
    state.run()
    old = state.basis()
    extra = next(b for b in rng.sample(canonical_basis(kind), kind.dimension)
                 if not old.contains(AlgebraElement.build(kind, [(b, 1)])))
    state.add_generators([AlgebraElement.build(kind, [(extra, 1)])])
    state.run()
    grown = state.basis()
    assert grown.rank > old.rank
    assert old == lie_closure(gens)[0]

    ref = DenseSpan()
    for r in old.rows:
        assert ref.insert(dense(r)) and old.contains(r)
    combos = [sum((r.scale(rng.randint(-3, 3)) for r in old.rows), AlgebraElement.zero(kind))
              for _ in range(5)]
    probes = [*grown.rows, *combos, *(sample(rng.randint(1, 3)) for _ in range(30))]
    assert not all(ref.contains(dense(e)) for e in grown.rows)
    for e in probes:
        assert old.contains(e) == ref.contains(dense(e))


def test_contains_sl():
    g3 = gl(3)
    basis, dim, _ = lie_closure([unit(g3, "E", 1, 2), unit(g3, "E", 2, 1),
                                 unit(g3, "E", 1, 3), unit(g3, "E", 3, 1)])
    assert dim == brute_closure_dim(3, [[("E", 1, 2, 1)], [("E", 2, 1, 1)],
                                        [("E", 1, 3, 1)], [("E", 3, 1, 1)]]) == 8
    assert contains_sl(basis)
    single, _, _ = lie_closure([unit(g3, "E", 1, 2)])
    assert not contains_sl(single)
    full, _, _ = lie_closure([AlgebraElement.build(g3, [(b, 1)]) for b in canonical_basis(g3)])
    assert contains_sl(full)
    # rank n^2 - 1 but not traceless: the upper triangular matrices of gl(2)
    g2 = gl(2)
    upper, dim, _ = lie_closure([unit(g2, "E", 1, 1), unit(g2, "E", 1, 2), unit(g2, "E", 2, 2)])
    assert dim == 3 == g2.dimension - 1
    assert not contains_sl(upper)
    so_basis, _, _ = lie_closure([unit(so(3), "B", 1, 2)])
    with pytest.raises(KindMismatch):
        contains_sl(so_basis)


def test_odd_red_cycle_generators_reach_a_diagonal_element():
    # closed chains of B/C edges with an odd number of C edges always
    # produce an imaginary-diagonal direction in their closure
    cases = [
        (3, [("B", 1, 2), ("B", 2, 3), ("C", 1, 3)]),
        (4, [("C", 1, 2), ("C", 2, 3), ("C", 3, 4), ("B", 1, 4)]),
        (4, [("B", 2, 3), ("C", 3, 4), ("B", 2, 4)]),
        (5, [("C", 2, 5), ("B", 2, 3), ("B", 3, 5)]),
    ]
    for n, edges in cases:
        reds = sum(1 for t, _, _ in edges if t == "C")
        assert reds % 2 == 1
        kind = su(n)
        gens = [unit(kind, t, i, j) for t, i, j in edges]
        basis, _, _ = lie_closure(gens)
        span, _ = brute_closure(n, [elem_matrix(n, [(t, i, j, 1)]) for t, i, j in edges])
        found_exact = False
        found_brute = False
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                d = elem(kind, ("D", i, j, 1))
                if basis.contains(d):
                    found_exact = True
                if span.contains(flatten(elem_matrix(n, [("D", i, j, 1)]))):
                    found_brute = True
        assert found_exact and found_brute


def test_even_red_cycle_stays_flat():
    # an even number of C edges on a triangle closes at dimension 3
    s3 = su(3)
    gens = [unit(s3, "B", 1, 2), unit(s3, "C", 1, 3), unit(s3, "C", 2, 3)]
    _, dim, _ = lie_closure(gens)
    brute = brute_closure_dim(3, [[("B", 1, 2, 1)], [("C", 1, 3, 1)], [("C", 2, 3, 1)]])
    assert dim == brute == 3
