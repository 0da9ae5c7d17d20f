"""The quantum 6j-symbols and the ordinary modular data of sl(2) at level k.

What ``verify`` and the tests read besides the modular pairs, kept apart
from ``mtc`` so that an ``mtc`` job, which sums the pairs from the level
table alone, never compiles it: the general 6j-symbol ``six_j`` with its
Kirillov-Reshetikhin kernel ``_six_j2``, the unscaled ``quantum_integer``,
the character S-matrix, the Verlinde formula and the fusion sweep of
``adjoint_members``.  The kernel reads the rescaled tables of
``mtc.f_r_g_matrices``; ``mtc`` resolves every name here on first use
through its module ``__getattr__``, so ``mtc.six_j`` and the other old
spellings still work.

Label conventions as in ``mtc``: integer labels 0..k; 6j-symbols take
the spin (half label) values.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from operator import mul, truediv

from .mtc import DEFAULT_TOLERANCE, MtcLevelData, _precision_loss, f_r_g_matrices
from .sl2data import _check_label, _check_level, fusion_coefficient

__all__ = [
    "quantum_integer",
    "six_j",
    "character_s_matrix",
    "adjoint_members",
    "verlinde_fusion",
    "verlinde_numbers",
]


def quantum_integer(k: int, n: int) -> float:
    """[n] = sin(pi n/(k+2)) / sin(pi/(k+2)), with the numerator's argument
    folded into [0, pi/2] by its own expression, not read from the level
    table, whose oracle this is: n is reduced mod 2(k+2) with the sign of
    its half-period, and m taken to min(m, k+2-m)."""
    half = k + 2
    m = n % (2 * half)
    sign = -1.0 if m >= half else 1.0
    m %= half
    return sign * math.sin(math.pi * min(m, half - m) / half) / math.sin(math.pi / half)


def _as_twice(x) -> int:
    """A half-integer as its doubled integer value."""
    d = Fraction(x) * 2
    if d.denominator != 1:
        raise ValueError(f"{x} is not a half-integer")
    return int(d)


def _six_j2(
    data: MtcLevelData, a2: int, b2: int, e2: int, d2: int, c2: int, f2: int
) -> float:
    """Unitary quantum 6j-symbol {a b e; d c f} at the level of ``data``,
    from the rescaled tables there and doubled labels whose
    four triads are admissible (not checked here), by the
    Kirillov-Reshetikhin formula (Kirillov & Reshetikhin, "Representations
    of the algebra U_q(sl(2)), q-orthogonal polynomials and invariants of
    links", 1989).

    Admissible triads make every factorial argument an integer in
    0..k+1.  The sum runs z from the largest triad sum to the smallest of
    the quadrilateral sums and k ([k+2] = 0 kills anything beyond k), in
    the order of z.  A value lost to underflow or overflow raises
    ``PrecisionLossError``: such a symbol is not representable in double
    precision, and returning NaN or a zero would pass it on silently.  So
    does a term whose denominator product is below the normal doubles,
    and an alternating sum whose terms dwarf it: 16 eps pref sum |term|
    bounds the rounding of the value, and above ``mtc.DEFAULT_TOLERANCE``
    the symbol is refused, not returned with its digits lost.
    """
    k, qint, fact = data.level, data.qint, data.qfact
    # triad sums, halved
    t1, t2 = (a2 + b2 + e2) // 2, (a2 + c2 + f2) // 2
    t3, t4 = (b2 + d2 + f2) // 2, (c2 + d2 + e2) // 2
    # quadrilateral sums, halved
    s1, s2, s3 = (a2 + b2 + c2 + d2) // 2, (a2 + d2 + e2 + f2) // 2, (b2 + c2 + e2 + f2) // 2
    try:
        # sqrt([2e+1][2f+1]) times the four triangle coefficients, all positive
        pref = math.sqrt(qint[e2 + 1] * qint[f2 + 1])
        pref *= math.sqrt(fact[t1 - a2] * fact[t1 - b2] * fact[t1 - e2] / fact[t1 + 1])
        pref *= math.sqrt(fact[t2 - a2] * fact[t2 - c2] * fact[t2 - f2] / fact[t2 + 1])
        pref *= math.sqrt(fact[t4 - c2] * fact[t4 - e2] * fact[t4 - d2] / fact[t4 + 1])
        pref *= math.sqrt(fact[t3 - d2] * fact[t3 - b2] * fact[t3 - f2] / fact[t3 + 1])
        total = size = 0.0
        for z in range(max(t1, t2, t3, t4), min(s1, s2, s3, k) + 1):
            den = (
                fact[z - t1] * fact[z - t2] * fact[z - t3] * fact[z - t4]
                * fact[s1 - z] * fact[s2 - z] * fact[s3 - z]
            )
            if den < sys.float_info.min:
                raise _precision_loss(k, a2, b2, e2, d2, c2, f2)
            term = fact[z + 1] / den
            total += -term if z % 2 else term
            size += term
        value = -pref * total if (a2 + b2 - c2 - d2 - 2 * e2) // 2 % 2 else pref * total
        rounding = 16 * sys.float_info.epsilon * pref * size
    except ZeroDivisionError:
        value = rounding = math.nan
    if not math.isfinite(value):
        raise _precision_loss(k, a2, b2, e2, d2, c2, f2)
    # phrased so that a NaN bound fails too
    if not rounding <= DEFAULT_TOLERANCE:
        why = f"its alternating sum cancels (rounding bound {rounding:.1e})"
        raise _precision_loss(k, a2, b2, e2, d2, c2, f2, reason=why)
    return value


def six_j(k: int, a, b, e, d, c, f) -> float:
    """Quantum 6j-symbol {a b e; d c f} for half-integer spins at level k.
    A spin triad whose doubled labels break the fusion rule raises
    ``ValueError``."""
    a2, b2, e2, d2, c2, f2 = (_as_twice(x) for x in (a, b, e, d, c, f))
    for triad in ((a2, b2, e2), (a2, c2, f2), (c2, e2, d2), (d2, b2, f2)):
        if not fusion_coefficient(k, *triad):
            raise ValueError(f"inadmissible spin triad {tuple(x / 2 for x in triad)} at level {k}")
    return _six_j2(f_r_g_matrices(k), a2, b2, e2, d2, c2, f2)


@lru_cache(maxsize=None)
def character_s_matrix(k: int) -> tuple[tuple[float, ...], ...]:
    """The character S-matrix S_ij = sqrt(2/(k+2)) sin(pi (i+1)(j+1)/(k+2))
    of level k, real and symmetric; cached by level and immutable.  Each
    sine is the level table's: with n = k + 2, sin(pi m/n) = +-``qint[m
    mod n]``, negative on the odd half-periods, so the argument is folded
    as ``qint``'s is and column 0 is, by construction, the one that
    ``mtc.f_r_g_matrices`` builds."""
    n, qint = k + 2, f_r_g_matrices(k).qint
    scale = math.sqrt(2.0 / n)
    signed = (scale, -scale)
    labels = range(1, k + 2)
    return tuple(tuple(signed[a * b // n % 2] * qint[a * b % n] for b in labels) for a in labels)


def adjoint_members(k: int) -> list[int]:
    """Labels p admitting a self-coupling Hom(p (x) i, i) != 0 for some i,
    found by a fusion sweep (the even labels, but computed, not assumed)."""
    _check_level(k)
    out = []
    for p in range(k + 1):
        if any(fusion_coefficient(k, p, i, i) == 1 for i in range(k + 1)):
            out.append(p)
    return out


def verlinde_fusion(k: int, lam: int, mu: int, nu: int) -> float:
    """Fusion number from the character S-matrix:
    sum_m S_{lam,m} S_{mu,m} conj(S_{nu,m}) / S_{0,m}; the matrix is
    real, so the conjugation is the identity."""
    for label in (lam, mu, nu):
        _check_label(k, label)
    s = character_s_matrix(k)
    return float(sum(s[lam][m] * s[mu][m] * s[nu][m] / s[0][m] for m in range(k + 1)))


def verlinde_numbers(k: int) -> list[list[list[float]]]:
    """Every fusion number of level k by the Verlinde formula, in one pass:
    N[lam][mu][nu] is the weights S_{lam,m} S_{mu,m} / S_{0,m} of the pair
    (lam, mu) dotted with row nu of the character S-matrix, one label
    check for the level.  The sum of ``verlinde_fusion`` in another order,
    so equal to it up to rounding."""
    s = character_s_matrix(k)
    table = []
    for s_lam in s:
        ratios = list(map(truediv, s_lam, s[0]))
        by_mu = []
        for s_mu in s:
            weights = list(map(mul, ratios, s_mu))
            by_mu.append([sum(map(mul, weights, s_nu)) for s_nu in s])
        table.append(by_mu)
    return table
