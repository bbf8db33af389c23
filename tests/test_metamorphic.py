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

On su(n), conjugating by diag(u), with u_k = i on a cut S and 1 off it, is
an inner automorphism that switches every edge across S: it fixes D and
every B or C inside S or outside it, maps B_ij -> C_ij and C_ij -> -B_ij
when i is in S and j is not, and B_ij -> -C_ij and C_ij -> B_ij when j is
in S and i is not.  Read blue as positive and red as negative, this is
switching of a signed graph (Harary 1953; Zaslavsky 1982), which keeps
every cycle's red parity.  So the whole checker report, and every closure
dimension, stays the same.  The tests also check that the map is a Lie
homomorphism on every basis pair: a map that ignores which endpoint lies
in S keeps every verdict, but is not one.  The components of a control
graph give its closure dimension for so(n), and for su(n) without D
(`helpers.generated_dimension`).
"""

import random
from fractions import Fraction

import pytest

from structcon import algebra
from structcon.algebra import (
    AlgebraElement,
    BasisElement,
    bracket,
    bracket_via_matrices,
    canonical_basis,
    lie_closure,
    so,
    su,
)
from structcon.patterns import ControlPattern, DriftPattern, ZeroPatternPair, control_generators
from structcon.verdict import Verdict, check, oracle

from helpers import fresh_rules, generated_dimension, kind_candidates, random_kind_pair, relabel

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


def switch_basis(b, cut):
    """The image of a basis element under the switch across cut, as
    (element, sign)."""
    if b.tag == "D" or (b.i in cut) == (b.j in cut):
        return b, 1
    # i in the cut: B -> C, C -> -B; j in the cut: B -> -C, C -> B
    sign = -1 if (b.tag == "C") == (b.i in cut) else 1
    return BasisElement("C" if b.tag == "B" else "B", b.i, b.j), sign


def switch(e, cut):
    """The image of an su(n) element under the switch across cut."""
    terms = []
    for b, c in e.items():
        image, sign = switch_basis(b, cut)
        terms.append((image, sign * c))
    return AlgebraElement.build(e.kind, terms)


def switch_pair(pair, cut):
    """The pair's image under the switch across cut, drift bases in order."""
    bases = tuple(switch(base, cut) for base in pair.drift.bases)
    control = tuple(switch_basis(b, cut)[0] for b in pair.control.bases)
    return ZeroPatternPair(DriftPattern(pair.kind, bases), ControlPattern(pair.kind, control))


def random_cut(rng, n):
    """A random node set S with 0 < |S| < n."""
    return set(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))


@pytest.mark.parametrize("n", [n for f, n in KINDS if f == "su"])
def test_switching_across_a_cut_keeps_the_report_and_dimensions(n):
    for k, pair, rng in _cases("su", n, 6007 * n):
        cut = random_cut(rng, n)
        image = switch_pair(pair, cut)
        assert check(image) == check(pair), (k, cut)
        assert (oracle(image, TRIALS, seed=k).dimensions
                == oracle(pair, TRIALS, seed=k).dimensions), (k, cut)


def switching_failures(n, cuts, bracket_of):
    """The (cut, a, b) over su(n) basis pairs with
    switch([a, b]) != [switch a, switch b], brackets taken by bracket_of.

    The switch maps each basis element to a signed basis element, so one
    table of basis-pair brackets gives both sides."""
    kind = su(n)
    units = {b: AlgebraElement.build(kind, [(b, 1)]) for b in canonical_basis(kind)}
    table = {(a, b): bracket_of(units[a], units[b]) for a in units for b in units}
    failures = []
    for cut in cuts:
        for (a, b), z in table.items():
            (sa, ca), (sb, cb) = switch_basis(a, cut), switch_basis(b, cut)
            if table[sa, sb].scale(ca * cb) != switch(z, cut):
                failures.append((cut, a, b))
    return failures


@pytest.mark.parametrize("bracket_of", [bracket_via_matrices, bracket], ids=["matrices", "rules"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_switching_is_a_lie_homomorphism_on_basis_pairs(n, bracket_of):
    rng = random.Random(7001 * n)
    assert switching_failures(n, [random_cut(rng, n) for _ in range(3)], bracket_of) == []


@pytest.mark.parametrize("n", [3, 4])
def test_a_flipped_unit_power_fails_the_switching_check(n, monkeypatch):
    # C_ij read as i E_ij - i E_ji: one unit's power of i flipped
    fresh_rules(monkeypatch)
    monkeypatch.setitem(algebra._UNITS, "C", lambda i, j: ((1, i, j), (3, j, i)))
    rng = random.Random(7001 * n)
    cuts = [random_cut(rng, n) for _ in range(3)]
    assert switching_failures(n, cuts, bracket)
    assert switching_failures(n, cuts, bracket_via_matrices) == []


@pytest.mark.parametrize("family,n", [(f, n) for f, n in KINDS if f != "gl"])
def test_generated_dimension_matches_the_closures(family, n):
    kind = {"so": so, "su": su}[family](n)
    candidates = [b for b in kind_candidates(kind) if b.tag != "D"]
    rng = random.Random(8009 * n + len(family))
    for k in range(PAIRS_PER_KIND):
        control = ControlPattern(kind, tuple(rng.sample(candidates, rng.randint(1, min(6, len(candidates))))))
        generators = control_generators(control)
        dim = generated_dimension(control)
        assert lie_closure(generators)[1] == dim, (k, control.bases)
        # a drift inside the control closure leaves the oracle that closure
        pair = ZeroPatternPair(DriftPattern(kind, (generators[0],)), control)
        assert oracle(pair, 1).dimensions == (dim,), (k, control.bases)
