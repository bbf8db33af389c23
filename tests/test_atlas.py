"""Exhaustive so(4) consistency between the graph checker and the oracle.

Every pair whose drift is one or two single generators B_ij and whose
controls are any nonempty subset of the six B_ij: 21 x 63 = 1,323 pairs.
"""

from collections import Counter
from itertools import combinations

from structcon.algebra import AlgebraElement, canonical_basis, lie_closure, so
from structcon.patterns import ControlPattern, DriftPattern, ZeroPatternPair, control_generators
from structcon.verdict import Verdict, cross_validate

SO4 = so(4)
GENERATORS = canonical_basis(SO4)


def so4_pairs():
    drifts = [c for k in (1, 2) for c in combinations(GENERATORS, k)]
    controls = [c for k in range(1, 7) for c in combinations(GENERATORS, k)]
    for drift in drifts:
        bases = tuple(AlgebraElement.build(SO4, [(b, 1)]) for b in drift)
        for control in controls:
            yield ZeroPatternPair(DriftPattern(SO4, bases), ControlPattern(SO4, control))


def test_so4_atlas_is_consistent():
    outcomes = Counter()
    for pair in so4_pairs():
        report = cross_validate(pair, trials=4, seed=0)
        assert not report.contradiction, pair
        outcomes[report.verdict, report.oracle.achieved_full] += 1
        relaxed = lie_closure(list(pair.drift.bases) + control_generators(pair.control))[1]
        assert (report.verdict is Verdict.NECESSARY_FAILED_NO) == (relaxed < SO4.dimension), pair
    assert outcomes == {
        (Verdict.SUFFICIENT_YES, True): 798,
        (Verdict.INCONCLUSIVE, True): 330,
        (Verdict.INCONCLUSIVE, False): 12,
        (Verdict.NECESSARY_FAILED_NO, False): 183,
    }
