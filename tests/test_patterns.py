from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from structcon.algebra import AlgebraElement, BasisElement, gl, so, su
from structcon.errors import EmptyPool, KindMismatch, ValidationError
from structcon.patterns import (
    DEFAULT_POOL,
    ControlPattern,
    DriftPattern,
    ZeroPatternPair,
    _normalise_pool,
    control_generators,
    drift_is_basis_subset,
    drift_with,
    sample_drift,
)

from helpers import DenseSpan, elem_matrix, flatten, kind_candidates


def elem(kind, *terms):
    return AlgebraElement.build(kind, [(BasisElement(t, i, j), c) for t, i, j, c in terms])


def dense_vector(e):
    return flatten(elem_matrix(e.kind.n, [(b.tag, b.i, b.j, c) for b, c in e.items()]))


def so6_drift():
    s6 = so(6)
    return DriftPattern(s6, (
        elem(s6, ("B", 1, 4, 2), ("B", 2, 5, 1)),
        elem(s6, ("B", 1, 2, 1), ("B", 1, 5, -1)),
        elem(s6, ("B", 1, 5, 3), ("B", 2, 5, 2)),
    ))


def test_pattern_validation():
    s3 = so(3)
    with pytest.raises(ValidationError):
        DriftPattern(s3, ())
    with pytest.raises(ValidationError):
        DriftPattern(s3, (AlgebraElement.zero(s3),))
    with pytest.raises(ValidationError):
        ControlPattern(s3, ())
    with pytest.raises(KindMismatch):
        ControlPattern(s3, (BasisElement("E", 1, 2),))
    with pytest.raises(KindMismatch):
        ZeroPatternPair(DriftPattern(s3, (elem(s3, ("B", 1, 2, 1)),)),
                        ControlPattern(so(4), (BasisElement("B", 1, 2),)))


def test_control_pattern_is_deduplicated_and_ordered():
    s5 = su(5)
    p = ControlPattern(s5, (BasisElement("D", 2, 4), BasisElement("B", 1, 2),
                            BasisElement("B", 1, 2)))
    assert p.bases == (BasisElement("B", 1, 2), BasisElement("D", 2, 4))


def test_sample_drift_cancellation_golden():
    # coefficients (1, 3, 1) collapse the B_15 contributions entirely
    p = so6_drift()
    a = p.bases[0] + p.bases[1].scale(3) + p.bases[2]
    expected = elem(so(6), ("B", 1, 2, 3), ("B", 1, 4, 2), ("B", 2, 5, 3))
    assert a == expected
    assert not a.coeff(BasisElement("B", 1, 5))


def test_sample_drift_deterministic_and_in_span():
    p = so6_drift()
    a1 = sample_drift(p, DEFAULT_POOL, seed=42)
    a2 = sample_drift(p, DEFAULT_POOL, seed=42)
    a3 = sample_drift(p, DEFAULT_POOL, seed=43)
    assert a1 == a2
    assert a1 != a3  # overwhelmingly likely; pinned by the fixed seeds
    span = DenseSpan()
    for base in p.bases:
        span.insert(dense_vector(base))
    for seed in range(10):
        assert span.contains(dense_vector(sample_drift(p, DEFAULT_POOL, seed)))


def test_sample_drift_single_base_and_empty_pool():
    s3 = so(3)
    p = DriftPattern(s3, (elem(s3, ("B", 1, 2, 1)),))
    assert sample_drift(p, [Fraction(2)], seed=0) == elem(s3, ("B", 1, 2, 2))
    with pytest.raises(EmptyPool):
        sample_drift(p, [], seed=0)
    with pytest.raises(EmptyPool):
        sample_drift(p, [Fraction(0), Fraction(1)], seed=0)


def test_default_pool_is_normalised_once():
    assert DEFAULT_POOL == tuple(Fraction(k) for k in range(-9, 10) if k)
    assert _normalise_pool(DEFAULT_POOL) is DEFAULT_POOL


def test_drift_with_is_the_rigid_sum_sample_drift_draws():
    import random
    p = so6_drift()
    coeffs = [Fraction(1), Fraction(3), Fraction(1)]
    assert drift_with(p, coeffs) == p.bases[0] + p.bases[1].scale(3) + p.bases[2]
    for seed in range(5):
        rng = random.Random(seed)  # the draws sample_drift makes, in base order
        drawn = [rng.choice(sorted(DEFAULT_POOL)) for _ in p.bases]
        assert sample_drift(p, DEFAULT_POOL, seed) == drift_with(p, drawn)
    with pytest.raises(ValueError, match="2 coefficients for 3"):
        drift_with(p, coeffs[:2])
    with pytest.raises(ValueError, match="nonzero"):
        drift_with(p, [Fraction(1), Fraction(0), Fraction(1)])


_COEFFS = [Fraction(k) for k in (-2, -1, 1, 2)] + [Fraction(1, 2), Fraction(-3, 4)]


@st.composite
def _drifts(draw):
    """A drift pattern of 1-4 bases over a support of at most three basis
    elements, so that terms overlap and often cancel, and coefficients for
    it; D_ij with i > 1 is rewritten on D_1k."""
    kind = draw(st.sampled_from([so(4), gl(3), su(3), su(4)]))
    support = draw(st.lists(st.sampled_from(kind_candidates(kind)), min_size=1, max_size=3))
    terms = st.lists(st.tuples(st.sampled_from(support), st.sampled_from(_COEFFS)),
                     min_size=1, max_size=3)
    base = terms.map(lambda t: AlgebraElement.build(kind, t)).filter(lambda e: not e.is_zero)
    bases = draw(st.lists(base, min_size=1, max_size=4))
    coeffs = draw(st.lists(st.sampled_from(_COEFFS), min_size=len(bases), max_size=len(bases)))
    return DriftPattern(kind, tuple(bases)), coeffs


@settings(max_examples=200, deadline=None)
@given(drift=_drifts())
# D23 = D13 - D12, so these coefficients cancel the sum to zero
@example(drift=(DriftPattern(su(3), (elem(su(3), ("D", 2, 3, 1)),
                                     elem(su(3), ("D", 1, 3, 1), ("D", 1, 2, -1)))),
                [Fraction(1), Fraction(-1)]))
def test_drift_with_equals_the_base_by_base_fold(drift):
    pattern, coeffs = drift
    fold = AlgebraElement.zero(pattern.kind)
    for base, c in zip(pattern.bases, coeffs):
        fold = fold + base.scale(c)
    got = drift_with(pattern, coeffs)
    assert got == fold and got.is_zero == fold.is_zero
    assert all(isinstance(c, Fraction) and c for _, c in got.items())


def test_control_generators():
    s3 = so(3)
    p = ControlPattern(s3, (BasisElement("B", 1, 2), BasisElement("B", 2, 3)))
    assert control_generators(p) == [AlgebraElement.basis(s3, "B", 1, 2),
                                     AlgebraElement.basis(s3, "B", 2, 3)]
    g2 = gl(2)
    p = ControlPattern(g2, (BasisElement("E", 1, 1),))
    assert control_generators(p) == [AlgebraElement.basis(g2, "E", 1, 1)]
    s5 = su(5)
    p = ControlPattern(s5, (BasisElement("B", 1, 2), BasisElement("C", 1, 3),
                            BasisElement("D", 2, 4)))
    gens = control_generators(p)
    assert len(gens) == 3
    # the D_24 generator is stored in first-row coordinates
    assert dict(gens[-1].items()) == {BasisElement("D", 1, 4): Fraction(1),
                                      BasisElement("D", 1, 2): Fraction(-1)}


def test_drift_is_basis_subset():
    g4 = gl(4)
    units = DriftPattern(g4, tuple(elem(g4, ("E", i, j, 1))
                                   for i, j in [(1, 2), (1, 3), (3, 1), (3, 3), (4, 2)]))
    assert drift_is_basis_subset(units)
    mixed = DriftPattern(g4, (elem(g4, ("E", 1, 3, 3), ("E", 4, 2, 1)),))
    assert not drift_is_basis_subset(mixed)
    scaled = DriftPattern(g4, (elem(g4, ("E", 1, 2, 5)),))
    assert drift_is_basis_subset(scaled)  # scaling does not change the rigid pattern
    with pytest.raises(KindMismatch):
        drift_is_basis_subset(so6_drift())
