"""Representation-level classification of the modular-group actions.

Minimal admissible exponent sets, the weight lower bound (defined in
``sl2data`` and re-exported here), Hilbert-Poincare graded dimensions of
the cyclic operator modules, closed-form dimension formulas for
dimensions 1-3, the order of the diagonal T-action, a sufficient
irreducibility test via subproducts of T-eigenvalues, and a rule engine
for congruence/non-congruence verdicts.  The rule engine is deliberately
not a decision procedure: "undetermined" is a first-class outcome
carrying the identifier of the last rule consulted.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import UnsupportedDimensionError
from .sl2data import RepSignature, rep_dimension, rho_t, weight_lower_bound

__all__ = [
    "AdmissibleSet",
    "CongruenceVerdict",
    "CONGRUENCE",
    "NONCONGRUENCE",
    "UNDETERMINED",
    "IRREDUCIBLE",
    "INCONCLUSIVE",
    "minimal_admissible_set",
    "weight_lower_bound",
    "hp_coefficient",
    "graded_dimension",
    "t_order",
    "irreducibility_subproduct_test",
    "congruence_classify",
    "prime_power_parameters",
    "prime_power_rule_applies",
    "NONCONGRUENCE_ORDER_BOUND",
]

CONGRUENCE = "congruence"
NONCONGRUENCE = "noncongruence"
UNDETERMINED = "undetermined"
IRREDUCIBLE = "irreducible"
INCONCLUSIVE = "inconclusive"

NONCONGRUENCE_ORDER_BOUND = 2**8 * 3**4 * 5**2 * 7**2


class AdmissibleSet(namedtuple("AdmissibleSet", "exponents")):
    """Exponents in [0,1), a tuple of Fractions, compatible with a
    (representation, multiplier) pair; the minimal admissible set is the
    unique such choice."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"exponents": [str(x) for x in self.exponents]}


class CongruenceVerdict(namedtuple("CongruenceVerdict", "status congruence_level basis")):
    __slots__ = ()

    def __new__(cls, status: str, congruence_level: int | None, basis: str):
        if congruence_level is not None and status != CONGRUENCE:
            raise ValueError("congruence_level only accompanies a congruence verdict")
        return super().__new__(cls, status, congruence_level, basis)

    # ``_replace`` builds through ``_make``: check there too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "congruence_level": self.congruence_level,
            "basis": self.basis,
        }


def _frac_mod(x: Fraction, modulus: int) -> Fraction:
    return x - modulus * math.floor(x / modulus)


def minimal_admissible_set(sig: RepSignature, multiplier_weight) -> AdmissibleSet:
    """lam_j = frac(r_j + m/12) with m the cusp parameter of the weight-r
    multiplier system (its weight reduced into [0,12))."""
    m = _frac_mod(Fraction(multiplier_weight), 12)
    out = []
    for r in sig.t_exponents:
        x = r + m / 12
        out.append(x - math.floor(x))
    return AdmissibleSet(exponents=tuple(out))


@lru_cache(maxsize=None)
def _hp_coefficients(d: int, count: int) -> tuple[int, ...]:
    """Coefficients of (1 - t^{2d}) / ((1-t^2)(1-t^4)(1-t^6))."""
    coeffs = [0] * count
    coeffs[0] = 1
    if 2 * d < count:
        coeffs[2 * d] = -1
    # divide by (1 - t^p) == multiply by the geometric series
    for p in (2, 4, 6):
        for n in range(p, count):
            coeffs[n] += coeffs[n - p]
    return tuple(coeffs)


def hp_coefficient(d: int, n: int) -> int:
    if d < 1:
        raise ValueError("rank d must be >= 1")
    if n < 0:
        raise ValueError("degree n must be >= 0")
    # one table per rank for every n < 64, and one more per doubling past it
    return _hp_coefficients(d, max(64, 1 << n.bit_length()))[n]


def graded_dimension(k: int, lam: int, n: int) -> int:
    """Closed-form graded dimension of the space of forms obtained from
    grade-n insertions, for dimensions 1-3 (k at least 2/3/4 resp.)."""
    d = rep_dimension(k, lam)
    if d not in (1, 2, 3):
        raise UnsupportedDimensionError(f"closed forms cover dimensions 1-3, got {d}")
    if k < d + 1:
        raise UnsupportedDimensionError(
            f"dimension-{d} closed form needs level k >= {d + 1}, got {k}"
        )
    if n < 0:
        raise ValueError("grade must be non-negative")
    if n % 2 == 1:
        return 0
    if d == 1:
        return n // 12 if n % 12 == 2 else n // 12 + 1
    if d == 2:
        return n // 6 + 1
    return n // 4 + 1


def t_order(k: int, lam: int) -> int:
    """Order of the diagonal T-action: lcm of the reduced denominators of
    its exponents."""
    sig = rho_t(k, lam)
    return math.lcm(*(r.denominator for r in sig.t_exponents))


def irreducibility_subproduct_test(sig: RepSignature) -> str:
    """Sufficient irreducibility criterion: if no non-empty proper subset
    of T-exponents sums to a multiple of 1/12, the representation is
    irreducible.  Inconclusive otherwise (the criterion is one-sided).

    Subset sums of the 12 r_i are decided by their residues modulo the
    common denominator m, in O(d m) steps.  When all d residues sum to 0,
    a qualifying proper subset or its complement omits the last exponent,
    so only subsets of the first d - 1 are searched.
    """
    m = math.lcm(*((12 * r).denominator for r in sig.t_exponents))
    residues = [int(12 * r * m) % m for r in sig.t_exponents]
    if sum(residues) % m == 0:
        residues.pop()
    sums: set[int] = set()
    for a in residues:
        sums |= {(s + a) % m for s in sums} | {a}
    return INCONCLUSIVE if 0 in sums else IRREDUCIBLE


def prime_power_parameters(k: int) -> tuple[int, int] | None:
    """(p, t) with k + 2 = p^t for a prime p > 3, or None."""
    n = k + 2
    if n < 2:
        return None  # no prime factor
    p = next((c for c in range(2, math.isqrt(n) + 1) if n % c == 0), n)
    t = 0
    while n % p == 0:
        n //= p
        t += 1
    return (p, t) if n == 1 and p > 3 else None


def prime_power_rule_applies(k: int, lam: int) -> bool:
    """Level/weight part of the prime-power non-congruence rule: k = p^t-2
    with p > 3 prime, 2 <= lam <= k even, and t = 1 or lam + 1 > p^(t-2).
    The rule's conclusion is conditional on irreducibility."""
    if lam % 2 != 0 or not 2 <= lam <= k:
        return False
    params = prime_power_parameters(k)
    if params is None:
        return False
    p, t = params
    if t == 1:
        return True
    return lam + 1 > p ** (t - 2)


def congruence_classify(k: int, lam: int) -> CongruenceVerdict:
    """Rule engine, applied in order: dimension 1 (always congruence),
    dimension 2 (congruence, level 8 iff k = 2 mod 3 else 24), dimension 3
    (non-congruence iff the T-order does not divide 2^8 3^4 5^2 7^2),
    then the prime-power rule (non-congruence conditional on
    irreducibility).  Anything unmatched is undetermined."""
    d = rep_dimension(k, lam)
    if d == 1:
        return CongruenceVerdict(CONGRUENCE, None, "thm-dim1")
    if d == 2:
        if k % 3 == 2:
            return CongruenceVerdict(CONGRUENCE, 8, "thm-dim2-level8")
        return CongruenceVerdict(CONGRUENCE, 24, "thm-dim2-level24")
    if d == 3:
        if NONCONGRUENCE_ORDER_BOUND % t_order(k, lam):
            return CongruenceVerdict(NONCONGRUENCE, None, "thm-dim3-order")
        return CongruenceVerdict(UNDETERMINED, None, "thm-dim3-order-divides")
    if prime_power_rule_applies(k, lam):
        if irreducibility_subproduct_test(rho_t(k, lam)) == IRREDUCIBLE:
            return CongruenceVerdict(NONCONGRUENCE, None, "thm-prime-power")
        return CongruenceVerdict(UNDETERMINED, None, "thm-prime-power-conditional")
    return CongruenceVerdict(UNDETERMINED, None, "no-rule")
