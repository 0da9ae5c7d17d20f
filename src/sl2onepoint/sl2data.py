"""Level and weight bookkeeping for affine sl(2) at level k.

Conformal weights, central charge, fusion rules, the label sets of
self-coupling intertwiners, leading exponents of the trace functions,
the diagonal T-action, eta-type multiplier systems and the weight of
the cyclic generator: the level data that every subcommand reads.  The
holomorphy and weight-saturation classification, which only
``classify`` and ``verify`` run, is in ``repanalysis``.

Exponents are integer closed forms, one Fraction each: (2 mu^2 + 4 mu - k)
/(8(k+2)) and, for rho_t, (12 mu^2 + 24 mu - 6k - lam(lam+2))/(48(k+2));
the definitions are their test oracle.
"""

import math
from collections import namedtuple
from fractions import Fraction

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
    "form_weight",
]


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


class RepSignature(namedtuple("RepSignature", "level lam t_exponents")):
    """Diagonal T-data of the representation attached to insertions from
    the simple module with finite weight ``lam``: the level, the weight and
    the T-exponents (a tuple of Fractions).  Its dimension, the number of
    exponents, and its multiplier weight h_lam, a Fraction, are derived."""

    __slots__ = ()
    dimension = property(lambda self: len(self.t_exponents))
    multiplier_weight = property(lambda self: _conformal_weight(self.level, self.lam))

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
    rep_dimension(k, lam)
    c = 6 * k + lam * (lam + 2)
    exps = tuple(Fraction(12 * mu * mu + 24 * mu - c, 48 * k + 96) for mu in xi_set(k, lam))
    return RepSignature(k, lam, exps)


# the phase exponent on each generator is r over its divisor
_MULTIPLIER_DIVISORS = {"T": 12, "S": -4, "ST": -6}


def multiplier(r, generator: str) -> Fraction:
    """Phase exponent of the weight-r eta-type multiplier system on a
    group generator; the value of the multiplier is e(result).

    T -> r/12, S -> -r/4, ST -> -r/6, each reduced modulo 1.
    """
    if generator not in _MULTIPLIER_DIVISORS:
        raise ValueError(f"generator must be one of 'S', 'T', 'ST', got {generator!r}")
    return Fraction(r) / _MULTIPLIER_DIVISORS[generator] % 1


def form_weight(k: int, lam: int) -> Fraction:
    """Weight h_lam + lam/2 of the (k, lam) cyclic generator."""
    return conformal_weight(k, lam) + Fraction(lam, 2)
