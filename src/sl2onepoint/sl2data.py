"""Level and weight bookkeeping for affine sl(2) at level k.

Conformal weights, central charge, fusion rules, the label sets of
self-coupling intertwiners, leading exponents of the trace functions,
the diagonal T-action, eta-type multiplier systems, the weight bound
12*(sum of exponents)/d + 1 - d, holomorphy and weight-saturation
classification, and the positivity sum certifying that
the distinguished insertion vector has a non-vanishing trace.

Exponents are integer closed forms, one Fraction each: (2 mu^2 + 4 mu - k)
/(8(k+2)) and, for rho_t, (12 mu^2 + 24 mu - 6k - lam(lam+2))/(48(k+2));
the definitions are their test oracle.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import UnsupportedDimensionError

__all__ = [
    "RepSignature",
    "central_charge",
    "conformal_weight",
    "fusion_coefficient",
    "rep_dimension",
    "xi_set",
    "leading_exponents",
    "rho_t",
    "multiplier",
    "holomorphy_classify",
    "weight_lower_bound",
    "form_weight",
    "saturation_check",
    "leading_trace_sum",
    "HOLOMORPHIC_EQUAL",
    "HOLOMORPHIC_PROPER",
    "WEAKLY_ONLY",
]

HOLOMORPHIC_EQUAL = "holomorphic_equal"
HOLOMORPHIC_PROPER = "holomorphic_proper"
WEAKLY_ONLY = "weakly_only"

# Ranges of k for which torus one-point functions exhaust the holomorphic
# forms, per dimension d = k - lambda + 1.  Sharp, hence table-driven.
_EQUALITY_RANGES = {1: (2, 14), 2: (3, 13), 3: (4, 10)}


def central_charge(k: int) -> Fraction:
    _check_level(k)
    return Fraction(3 * k, k + 2)


def conformal_weight(k: int, mu: int) -> Fraction:
    """Conformal weight h_mu = mu(mu+2)/(4(k+2)) of the simple module mu."""
    _check_label(k, mu)
    return _conformal_weight(k, mu)


def _conformal_weight(k: int, w: int) -> Fraction:
    """h_w = w(w+2)/(4(k+2)) for any integer w, unchecked: the BGG
    resolution runs through weights far above the level."""
    return Fraction(w * (w + 2), 4 * (k + 2))


def _check_level(k: int) -> None:
    if k < 0:
        raise ValueError(f"level must be a non-negative integer, got {k}")


def _check_label(k: int, mu: int) -> None:
    if not 0 <= mu <= k:  # also false for every negative level
        _check_level(k)
        raise ValueError(f"label {mu} out of range 0..{k}")


class RepSignature(
    namedtuple("RepSignature", "level lam dimension t_exponents multiplier_weight")
):
    """Diagonal T-data of the representation attached to insertions from
    the simple module with finite weight ``lam``: the level, the weight,
    the dimension, the T-exponents (a tuple of Fractions) and the
    multiplier weight (a Fraction)."""

    __slots__ = ()

    def t_exponents_mod1(self) -> tuple[tuple[Fraction, int], ...]:
        """Canonical representatives in [0,1) with their integer offsets."""
        out = []
        for r in self.t_exponents:
            offset = math.floor(r)
            out.append((r - offset, offset))
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "lambda": self.lam,
            "dimension": self.dimension,
            "t_exponents": [str(r) for r in self.t_exponents],
            "t_exponents_mod1": [
                {"fraction": str(f), "offset": n}
                for f, n in self.t_exponents_mod1()
            ],
            "multiplier_weight": str(self.multiplier_weight),
        }


def fusion_coefficient(k: int, lam: int, mu: int, nu: int) -> int:
    """Fusion rule N_{lam,mu}^nu: 1 on the truncated Clebsch-Gordan range
    with even total parity, else 0."""
    _check_label(k, lam)
    _check_label(k, mu)
    _check_label(k, nu)
    if (lam + mu + nu) % 2 != 0:
        return 0
    if abs(lam - mu) <= nu <= min(lam + mu, 2 * k - lam - mu):
        return 1
    return 0


def xi_set(k: int, lam: int) -> list[int]:
    """Labels mu with a self-coupling N_{lam,mu}^mu = 1: the interval
    lam/2 <= mu <= k - lam/2 for even lam, empty for odd lam."""
    _check_label(k, lam)
    if lam % 2 != 0:
        return []
    return list(range(lam // 2, k - lam // 2 + 1))


def rep_dimension(k: int, lam: int) -> int:
    """Dimension d = k - lam + 1 of the representation attached to
    insertions from the simple module with finite weight ``lam``.  A label
    outside 0..k, or an odd one (no self-couplings), raises ``ValueError``."""
    _check_label(k, lam)
    if lam % 2 != 0:
        raise ValueError(f"label {lam} must be even: an odd label has no self-couplings")
    return k - lam + 1


def leading_exponents(k: int, lam: int) -> list[Fraction]:
    """h_mu - c/24 = (2 mu^2 + 4 mu - k)/(8(k+2)) for mu in the label set."""
    rep_dimension(k, lam)
    return [Fraction(2 * mu * mu + 4 * mu - k, 8 * k + 16) for mu in xi_set(k, lam)]


def rho_t(k: int, lam: int) -> RepSignature:
    """Exact exponents r_mu = h_mu - c/24 - h_lam/12 of the diagonal T-action."""
    d = rep_dimension(k, lam)
    c = 6 * k + lam * (lam + 2)
    exps = tuple(Fraction(12 * mu * mu + 24 * mu - c, 48 * k + 96) for mu in xi_set(k, lam))
    return RepSignature(k, lam, d, exps, _conformal_weight(k, lam))


def multiplier(r, generator: str) -> Fraction:
    """Phase exponent of the weight-r eta-type multiplier system on a
    group generator; the value of the multiplier is e(result).

    T -> r/12, S -> -r/4, ST -> -r/6, each reduced modulo 1.
    """
    r = Fraction(r)
    table = {"T": r / 12, "S": -r / 4, "ST": -r / 6}
    if generator not in table:
        raise ValueError(f"generator must be one of 'S', 'T', 'ST', got {generator!r}")
    value = table[generator]
    return value - math.floor(value)


def holomorphy_classify(k: int, lam: int) -> str:
    """Classify the forms attached to (k, lam).

    Weak holomorphy only iff lam^2 + 4*lam - 2k < 0 (minimal exponent
    negative).  Otherwise holomorphic; for dimensions 1-3 the result is
    refined to whether one-point functions exhaust the holomorphic space
    (sharp k-ranges), and higher dimensions have no refinement.
    """
    d = rep_dimension(k, lam)
    if lam * lam + 4 * lam - 2 * k < 0:
        return WEAKLY_ONLY
    if d not in _EQUALITY_RANGES:
        raise UnsupportedDimensionError(
            f"equality refinement only known for dimensions 1-3, got {d}"
        )
    lo, hi = _EQUALITY_RANGES[d]
    if lo <= k <= hi:
        return HOLOMORPHIC_EQUAL
    return HOLOMORPHIC_PROPER


def weight_lower_bound(exponents) -> Fraction:
    """12*(sum of exponents)/d + 1 - d for d exponents: the weight lower
    bound, which the cyclic generator built on them attains."""
    exps = [x if isinstance(x, Fraction) else Fraction(x) for x in exponents]
    if not exps:
        raise ValueError("need at least one exponent")
    d, den = len(exps), math.lcm(*(x.denominator for x in exps))
    total = sum(x.numerator * (den // x.denominator) for x in exps)
    return Fraction(12 * total + (1 - d) * d * den, d * den)


def form_weight(k: int, lam: int) -> Fraction:
    """Weight h_lam + lam/2 of the (k, lam) cyclic generator."""
    return conformal_weight(k, lam) + Fraction(lam, 2)


def saturation_check(k: int, lam: int) -> bool:
    """Exact equality weight_lower_bound(leading exponents) = form_weight."""
    return weight_lower_bound(leading_exponents(k, lam)) == form_weight(k, lam)


def leading_trace_sum(k: int, lam: int, mu: int) -> Fraction:
    """The positive rational multiplying the intertwiner normalisation in
    the leading trace coefficient:

    sum_{i=0}^{mu-lam/2} ((mu-i)!/(i! mu!)) *
        ((lam/2+i)! (mu-lam/2)!) / ((lam/2)! (mu-lam/2-i)!)
    """
    rep_dimension(k, lam)
    if mu not in xi_set(k, lam):
        raise ValueError(f"label {mu} admits no self-coupling with lambda={lam} at level {k}")
    half = lam // 2
    total = Fraction(0)
    for i in range(mu - half + 1):
        term = Fraction(math.factorial(mu - i), math.factorial(i) * math.factorial(mu))
        term *= Fraction(
            math.factorial(half + i) * math.factorial(mu - half),
            math.factorial(half) * math.factorial(mu - half - i),
        )
        total += term
    return total
