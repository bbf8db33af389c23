"""Zero patterns: a rigid drift base set paired with a free control base set.

The drift side lists whole algebra elements whose combination coefficients
must all be nonzero; the control side lists individual basis generators
whose coefficients are unrestricted.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .algebra import (
    AlgebraElement,
    AlgebraKind,
    BasisElement,
    Family,
    record,
    validate_basis_element,
)
from .errors import EmptyPool, KindMismatch, ValidationError


class DriftPattern(record("DriftPattern", "kind bases")):
    """Base elements A_1..A_d of the rigid drift pattern."""

    __slots__ = ()
    kind: AlgebraKind
    bases: tuple[AlgebraElement, ...]

    def __new__(cls, kind: AlgebraKind, bases: tuple[AlgebraElement, ...]) -> "DriftPattern":
        if not bases:
            raise ValidationError("a drift pattern needs at least one base element")
        for s, a in enumerate(bases):
            if a.kind != kind:
                raise KindMismatch(f"drift base of {a.kind} in a {kind} pattern")
            if a.is_zero:
                raise ValidationError(f"drift[{s}]: base element is zero")
        return super().__new__(cls, kind, bases)


class ControlPattern(record("ControlPattern", "kind bases")):
    """Basis generators available to the controlled terms (free pattern)."""

    __slots__ = ()
    kind: AlgebraKind
    bases: tuple[BasisElement, ...]

    def __new__(cls, kind: AlgebraKind, bases: tuple[BasisElement, ...]) -> "ControlPattern":
        if not bases:
            raise ValidationError("a control pattern needs at least one base element")
        for b in bases:
            validate_basis_element(kind, b)
        # deduplicate and order for deterministic downstream iteration
        return super().__new__(cls, kind, tuple(sorted(set(bases))))


class ZeroPatternPair(record("ZeroPatternPair", "drift control")):
    __slots__ = ()
    drift: DriftPattern
    control: ControlPattern

    def __new__(cls, drift: DriftPattern, control: ControlPattern) -> "ZeroPatternPair":
        if drift.kind != control.kind:
            raise KindMismatch("drift and control patterns belong to different algebras")
        return super().__new__(cls, drift, control)

    @property
    def kind(self) -> AlgebraKind:
        return self.drift.kind


class _Pool(tuple):
    """A normalised coefficient pool: distinct nonzero `Fraction`s, sorted.
    `_normalise_pool` hands one back as it is, so a pool is normalised only
    once, `DEFAULT_POOL` at import."""


def _normalise_pool(pool: Sequence[Fraction]) -> _Pool:
    if isinstance(pool, _Pool):
        return pool
    choices = _Pool(sorted(set(Fraction(c) for c in pool)))
    if any(not c for c in choices):
        raise EmptyPool("coefficient pool must not contain zero")
    if not choices:
        raise EmptyPool("coefficient pool is empty")
    return choices


DEFAULT_POOL = _normalise_pool([k for k in range(-9, 10) if k])


def drift_with(pattern: DriftPattern, coeffs: Sequence[Fraction]) -> AlgebraElement:
    """The rigid drift c_1·A_1 + ... + c_d·A_d: one nonzero coefficient per base.

    Cancellation may zero the result; callers that care check `is_zero`.
    The sum is taken in one pass over the bases' terms and its zeros are
    dropped at the end, which gives the canonical element of the
    base-by-base sum.
    """
    if len(coeffs) != len(pattern.bases):
        raise ValueError(f"{len(coeffs)} coefficients for {len(pattern.bases)} drift bases")
    if not all(coeffs):
        raise ValueError("drift coefficients must be nonzero (rigid pattern)")
    terms: dict[BasisElement, Fraction] = {}
    get = terms.get
    for base, c in zip(pattern.bases, coeffs):
        for b, v in base._terms.items():
            old = get(b)
            terms[b] = v * c if old is None else old + v * c
    return AlgebraElement(pattern.kind, {b: v for b, v in terms.items() if v})


def sample_drift(pattern: DriftPattern, pool: Sequence[Fraction], seed: int) -> AlgebraElement:
    """Deterministic rigid-pattern sample: `drift_with` pool coefficients
    drawn in base order."""
    choices = _normalise_pool(pool)
    rng = random.Random(seed)
    return drift_with(pattern, [rng.choice(choices) for _ in pattern.bases])


def control_generators(pattern: ControlPattern) -> list[AlgebraElement]:
    """One unit-coefficient element per control base.

    Closure is monotone in the generator set, so instantiating every base
    individually dominates any other admissible choice of controlled terms.
    """
    return [AlgebraElement.build(pattern.kind, [(b, 1)]) for b in pattern.bases]


def drift_is_basis_subset(pattern: DriftPattern) -> bool:
    """True when every drift base is a single matrix unit (GL only)."""
    if pattern.kind.family is not Family.GL:
        raise KindMismatch(f"basis-subset drift test is defined over gl(n), not {pattern.kind}")
    return all(len(list(a.items())) == 1 for a in pattern.bases)
