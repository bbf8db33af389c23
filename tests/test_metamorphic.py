"""Metamorphic invariants of the checker and the oracle on seeded random pairs.

Renaming the nodes is an automorphism of so(n), gl(n) and su(n), so it keeps
every verdict and every closure dimension.  So is X -> -X^T, which
relabelling never gives: on gl(n) it maps E_ij to -E_ji and reverses every
arc, and on su(n) it is complex conjugation, which fixes B and negates C and
D.  It moves tags and signs, so it checks the structure constants too.
so(n) is the real subalgebra of su(n), so an so(n) pair read in su(n)
closes to the same dimensions: the su(n) brackets of B elements must have
no C or D part.  Scaling a drift base by a nonzero rational keeps its span,
so it keeps the relaxed closure L(A_1..A_m, U), row for row, and the
verdict.  A larger control set generates a larger algebra, so adding a
control base never lowers a dimension and never turns a Yes into a No.
"""

import random
from fractions import Fraction

import pytest

from structcon.algebra import AlgebraElement, BasisElement, lie_closure, su
from structcon.patterns import ControlPattern, DriftPattern, ZeroPatternPair, control_generators
from structcon.verdict import Verdict, check, oracle

from helpers import kind_candidates, random_kind_pair, relabel

KINDS = [("so", 4), ("so", 5), ("gl", 3), ("gl", 4), ("su", 3), ("su", 4)]
PAIRS_PER_KIND = 30
TRIALS = 4

YES = (Verdict.SUFFICIENT_YES, Verdict.EXACT_YES)
NO = (Verdict.EXACT_NO, Verdict.NECESSARY_FAILED_NO)


def _cases(family, n, seed):
    rng = random.Random(seed)
    for k in range(PAIRS_PER_KIND):
        yield k, random_kind_pair(rng, family, n), rng


@pytest.mark.parametrize("family,n", KINDS)
def test_relabelling_nodes_keeps_verdict_and_dimensions(family, n):
    for k, pair, rng in _cases(family, n, 1009 * n + len(family)):
        image = list(range(1, n + 1))
        rng.shuffle(image)
        moved = relabel(pair, dict(zip(range(1, n + 1), image)))
        assert check(moved).verdict is check(pair).verdict, (k, image)
        assert (oracle(moved, TRIALS, seed=k).dimensions
                == oracle(pair, TRIALS, seed=k).dimensions), (k, image)


def minus_transpose(pair):
    """The pair's image under X -> -X^T, drift bases in order (gl or su)."""
    kind = pair.kind

    def move(b, c):
        if b.tag == "E":
            return BasisElement("E", b.j, b.i), -c
        return b, (c if b.tag == "B" else -c)

    bases = tuple(AlgebraElement.build(kind, [move(b, c) for b, c in base.items()])
                  for base in pair.drift.bases)
    control = tuple(move(b, 1)[0] for b in pair.control.bases)
    return ZeroPatternPair(DriftPattern(kind, bases), ControlPattern(kind, control))


@pytest.mark.parametrize("family,n", [(f, n) for f, n in KINDS if f != "so"])
def test_minus_transpose_keeps_verdict_and_dimensions(family, n):
    for k, pair, _ in _cases(family, n, 3001 * n + len(family)):
        image = minus_transpose(pair)
        assert check(image).verdict is check(pair).verdict, k
        assert (oracle(image, TRIALS, seed=k).dimensions
                == oracle(pair, TRIALS, seed=k).dimensions), k


@pytest.mark.parametrize("family,n", KINDS)
def test_adding_a_control_base_is_monotone(family, n):
    for k, pair, rng in _cases(family, n, 2003 * n + len(family)):
        spare = [b for b in kind_candidates(pair.kind) if b not in pair.control.bases]
        if not spare:
            continue
        control = ControlPattern(pair.kind, (*pair.control.bases, rng.choice(spare)))
        bigger = ZeroPatternPair(pair.drift, control)
        before, after = oracle(pair, TRIALS, seed=k), oracle(bigger, TRIALS, seed=k)
        assert all(a >= b for a, b in zip(after.dimensions, before.dimensions)), k
        if check(pair).verdict in YES:
            assert check(bigger).verdict not in NO, k


def as_su(pair):
    """An so(n) pair read in su(n): the same B bases, coefficients and order."""
    kind = su(pair.kind.n)
    bases = tuple(AlgebraElement.build(kind, base.items()) for base in pair.drift.bases)
    return ZeroPatternPair(DriftPattern(kind, bases), ControlPattern(kind, pair.control.bases))


@pytest.mark.parametrize("n", [n for f, n in KINDS if f == "so"])
def test_so_pair_read_in_su_keeps_dimensions(n):
    for k, pair, _ in _cases("so", n, 4001 * n):
        assert (oracle(as_su(pair), TRIALS, seed=k).dimensions
                == oracle(pair, TRIALS, seed=k).dimensions), k


def relaxed_closure(pair):
    """L(A_1..A_m, U), the closure of the drift bases and the controls, as its
    RREF basis and dimension; the RREF of a subspace is unique."""
    return lie_closure([*pair.drift.bases, *control_generators(pair.control)])[:2]


@pytest.mark.parametrize("family,n", KINDS)
def test_scaling_a_drift_base_keeps_verdict_and_relaxed_closure(family, n):
    for k, pair, rng in _cases(family, n, 5003 * n + len(family)):
        bases = list(pair.drift.bases)
        pick = rng.randrange(len(bases))
        factor = Fraction(rng.choice([-7, -3, -1, 2, 5]), rng.choice([1, 2, 3, 11]))
        bases[pick] = bases[pick].scale(factor)
        scaled = ZeroPatternPair(DriftPattern(pair.kind, tuple(bases)), pair.control)
        assert check(scaled).verdict is check(pair).verdict, (k, factor)
        assert relaxed_closure(scaled) == relaxed_closure(pair), (k, factor)
