"""Consistency between the graph checker and the oracle over small atlases.

so(4) is run exhaustively: every pair whose drift is one or two single
generators B_ij and whose controls are any nonempty subset of the six B_ij,
21 x 63 = 1,323 pairs.  gl(3) and su(3) are sampled: with their nine single
generators (E_ij; B_ij, C_ij and D_ij over i < j) the same scan has
45 x 511 = 22,995 pairs each, of which every 23rd is run.  23 is coprime to
the 511 control sets of one drift, so the sample walks through all of them.
"""

from collections import Counter
from itertools import combinations, islice

import pytest

from structcon.algebra import AlgebraElement, BasisElement, canonical_basis, gl, lie_closure, so, su
from structcon.patterns import ControlPattern, DriftPattern, ZeroPatternPair, control_generators
from structcon.verdict import Verdict, cross_validate

SO4 = so(4)
STRIDE = 23


def atlas_pairs(kind, generators):
    drifts = [c for k in (1, 2) for c in combinations(generators, k)]
    controls = [c for k in range(1, len(generators) + 1) for c in combinations(generators, k)]
    for drift in drifts:
        bases = tuple(AlgebraElement.build(kind, [(b, 1)]) for b in drift)
        for control in controls:
            yield ZeroPatternPair(DriftPattern(kind, bases), ControlPattern(kind, control))


def relaxed_dimension(pair):
    """dim L(A_1..A_m, U): an upper bound for every rigid drift's closure."""
    return lie_closure(list(pair.drift.bases) + control_generators(pair.control))[1]


def test_so4_atlas_is_consistent():
    outcomes = Counter()
    for pair in atlas_pairs(SO4, canonical_basis(SO4)):
        report = cross_validate(pair, trials=4, seed=0)
        assert not report.contradiction, pair
        outcomes[report.verdict, report.oracle.achieved_full] += 1
        relaxed = relaxed_dimension(pair)
        assert (report.verdict is Verdict.NECESSARY_FAILED_NO) == (relaxed < SO4.dimension), pair
    assert outcomes == {
        (Verdict.SUFFICIENT_YES, True): 798,
        (Verdict.INCONCLUSIVE, True): 330,
        (Verdict.INCONCLUSIVE, False): 12,
        (Verdict.NECESSARY_FAILED_NO, False): 183,
    }


SAMPLES = {
    "gl3": (gl(3), canonical_basis(gl(3)), {
        (Verdict.SUFFICIENT_YES, True): 260,
        (Verdict.INCONCLUSIVE, True): 132,
        (Verdict.INCONCLUSIVE, False): 33,
        (Verdict.NECESSARY_FAILED_NO, False): 575,
    }),
    "su3": (su(3), [BasisElement(tag, i, j) for tag in "BCD"
                    for i, j in combinations(range(1, 4), 2)], {
        (Verdict.EXACT_YES, True): 842,
        (Verdict.EXACT_NO, False): 2,
        (Verdict.INCONCLUSIVE, True): 95,
        (Verdict.INCONCLUSIVE, False): 3,
        (Verdict.NECESSARY_FAILED_NO, False): 58,
    }),
}


@pytest.mark.parametrize("name", SAMPLES)
def test_atlas_stride_sample_is_consistent(name):
    kind, generators, expected = SAMPLES[name]
    assert len(generators) == 9
    outcomes = Counter()
    for pair in islice(atlas_pairs(kind, generators), 0, None, STRIDE):
        report = cross_validate(pair, trials=4, seed=0)
        assert not report.contradiction, pair
        outcomes[report.verdict, report.oracle.achieved_full] += 1
        if report.verdict is Verdict.NECESSARY_FAILED_NO:
            assert relaxed_dimension(pair) < kind.dimension, pair
    assert outcomes == expected
