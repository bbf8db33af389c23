"""Zero patterns: a rigid drift base set paired with a free control base set.

The drift side lists whole algebra elements whose combination coefficients
must all be nonzero; the control side lists individual basis generators
whose coefficients are unrestricted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import AlgebraElement, AlgebraKind, BasisElement, Family, validate_basis_element
from .errors import EmptyPool, KindMismatch, ValidationError


@dataclass(frozen=True)
class DriftPattern:
    """Base elements A_1..A_d of the rigid drift pattern."""

    kind: AlgebraKind
    bases: tuple[AlgebraElement, ...]

    def __post_init__(self) -> None:
        if not self.bases:
            raise ValidationError("a drift pattern needs at least one base element")
        for s, a in enumerate(self.bases):
            if a.kind != self.kind:
                raise KindMismatch(f"drift base of {a.kind} in a {self.kind} pattern")
            if a.is_zero:
                raise ValidationError(f"drift[{s}]: base element is zero")


@dataclass(frozen=True)
class ControlPattern:
    """Basis generators available to the controlled terms (free pattern)."""

    kind: AlgebraKind
    bases: tuple[BasisElement, ...]

    def __post_init__(self) -> None:
        if not self.bases:
            raise ValidationError("a control pattern needs at least one base element")
        for b in self.bases:
            validate_basis_element(self.kind, b)
        # deduplicate and order for deterministic downstream iteration
        object.__setattr__(self, "bases", tuple(sorted(set(self.bases))))


@dataclass(frozen=True)
class ZeroPatternPair:
    drift: DriftPattern
    control: ControlPattern

    def __post_init__(self) -> None:
        if self.drift.kind != self.control.kind:
            raise KindMismatch("drift and control patterns belong to different algebras")

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
