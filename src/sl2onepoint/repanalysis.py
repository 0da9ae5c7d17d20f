"""Representation-level classification of the modular-group actions.

Minimal admissible exponent sets, Hilbert-Poincare graded dimensions of
the cyclic operator modules, closed-form dimension formulas for
dimensions 1-3, the order of the diagonal T-action, a sufficient
irreducibility test via subproducts of T-eigenvalues, the weight bound
12*(sum of exponents)/d + 1 - d with the holomorphy and weight-saturation
classification, and a rule engine for congruence/non-congruence
verdicts.  The rule engine is deliberately not a decision procedure:
"undetermined" is a first-class outcome carrying the identifier of the
last rule consulted.  ``classification_report`` gathers all of it for
one (k, lambda), as ``sl2onepoint classify`` prints it.
"""

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import UnsupportedDimensionError
from .sl2data import RepSignature, form_weight, leading_exponents, rep_dimension, rho_t

__all__ = [
    "CongruenceVerdict",
    "CONGRUENCE",
    "NONCONGRUENCE",
    "UNDETERMINED",
    "IRREDUCIBLE",
    "INCONCLUSIVE",
    "minimal_admissible_set",
    "hp_coefficient",
    "graded_dimension",
    "t_order",
    "irreducibility_subproduct_test",
    "congruence_classify",
    "prime_power_parameters",
    "PRIME_PROOF_BOUND",
    "prime_power_rule_applies",
    "NONCONGRUENCE_ORDER_BOUND",
    "HOLOMORPHIC_EQUAL",
    "HOLOMORPHIC_PROPER",
    "WEAKLY_ONLY",
    "holomorphy_classify",
    "weight_lower_bound",
    "saturation_check",
    "classification_report",
]

CONGRUENCE = "congruence"
NONCONGRUENCE = "noncongruence"
UNDETERMINED = "undetermined"
IRREDUCIBLE = "irreducible"
INCONCLUSIVE = "inconclusive"

NONCONGRUENCE_ORDER_BOUND = 2**8 * 3**4 * 5**2 * 7**2

HOLOMORPHIC_EQUAL = "holomorphic_equal"
HOLOMORPHIC_PROPER = "holomorphic_proper"
WEAKLY_ONLY = "weakly_only"

# The widest sum set the subproduct test holds as bits: an integer of 2^30
# bits takes 128 MB, and a search that reaches 0 only at its 30th residue,
# m = 2^30 - 1, peaked at 561 MB with its shifted copies, well inside 2 GB.
_BITSET_LIMIT = 1 << 30

# The residue set gets the same 128 MB.  Holding 2^20 residues below 2^61
# peaked at 140 MB: about 96 bytes a residue besides its own digits.
_SET_BYTES = _BITSET_LIMIT // 8

# Miller-Rabin to the first 13 primes as bases proves every n below this
# bound prime or composite (Sorenson and Webster, Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_PROOF_BOUND = 3_317_044_064_679_887_385_961_981

# Ranges of k for which torus one-point functions exhaust the holomorphic
# forms, per dimension d = k - lambda + 1.  Sharp, hence table-driven.
_EQUALITY_RANGES = {1: (2, 14), 2: (3, 13), 3: (4, 10)}


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


def minimal_admissible_set(sig: RepSignature, multiplier_weight) -> tuple[Fraction, ...]:
    """lam_j = frac(r_j + m/12) with m the cusp parameter of the weight-r
    multiplier system (its weight reduced into [0,12)), as a tuple of
    Fractions: the unique choice of exponents in [0,1) compatible with the
    (representation, multiplier) pair."""
    m = _frac_mod(Fraction(multiplier_weight), 12)
    out = []
    for r in sig.t_exponents:
        x = r + m / 12
        out.append(x - math.floor(x))
    return tuple(out)


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
    common denominator m.  When all d residues sum to 0, a qualifying
    proper subset or its complement omits the last exponent, so only
    subsets of the n = d - 1 first are searched; otherwise n = d.  When
    2^n < m, as at a huge level with a small d, the reachable sums are
    held as a set of at most 2^n residues, O(n 2^n) work.  Otherwise they
    are the bits of one m-bit integer, rotated by each residue in turn: at
    most n shifts of m bits.  Both stop at the first subset that reaches 0.
    A set that the next residue could grow past ``_SET_BYTES`` is dropped
    for the bits.  When that integer would exceed ``_BITSET_LIMIT`` bits,
    the search is not made and the answer is inconclusive, which is sound
    because the criterion is one-sided.
    """
    exps = sig.t_exponents
    m = math.lcm(*(r.denominator // math.gcd(r.denominator, 12) for r in exps))
    residues = [12 * r.numerator * m // r.denominator % m for r in exps]
    if sum(residues) % m == 0:
        residues.pop()
    if 1 << len(residues) < m:
        limit = _SET_BYTES // (96 + m.bit_length() // 8)
        sums = set()  # the residues of the non-empty subsets so far
        for a in residues:
            if 2 * len(sums) + 1 > limit:
                break
            sums |= {(s + a) % m for s in sums}
            sums.add(a)
            if 0 in sums:
                return INCONCLUSIVE
        else:
            return IRREDUCIBLE
    if m > _BITSET_LIMIT:
        return INCONCLUSIVE
    full = (1 << m) - 1
    sums = 0  # bit s set: some non-empty subset so far sums to s mod m
    for a in residues:
        sums |= (((sums << a) | (sums >> (m - a))) & full) | (1 << a)
        if sums & 1:
            return INCONCLUSIVE
    return IRREDUCIBLE


def _integer_root(n: int, t: int) -> int:
    """floor(n^(1/t)) for n >= 1, by Newton's method from above."""
    if t == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // t)
    while True:
        y = ((t - 1) * x + n // x ** (t - 1)) // t
        if y >= x:
            return x
        x = y


def _passes_miller_rabin(n: int) -> bool:
    """n > 1 passes the strong probable-prime test to every base of
    ``_MILLER_RABIN_BASES``: n is prime if it does and n is below
    ``PRIME_PROOF_BOUND``."""
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power_parameters(k: int) -> tuple[int, int] | None:
    """(p, t) with k + 2 = p^t for a p > 3 that passes Miller-Rabin to the
    first 13 prime bases, or None.  That proves p prime below
    ``PRIME_PROOF_BOUND``; a larger p is only a probable prime.

    The largest t <= log2(k + 2) with an exact t-th root is found by
    integer roots: k + 2 = p^t with p prime is a perfect s-th power
    exactly when s divides t, so p is that root."""
    n = k + 2
    for t in range(n.bit_length() - 1, 0, -1):
        p = _integer_root(n, t)
        if p ** t == n:
            return (p, t) if p > 3 and _passes_miller_rabin(p) else None
    return None  # n < 2: no prime factor


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
    irreducibility), which leaves a prime p >= ``PRIME_PROOF_BOUND``
    unproven and the verdict undetermined.  Anything unmatched is
    undetermined."""
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
        if prime_power_parameters(k)[0] >= PRIME_PROOF_BOUND:
            return CongruenceVerdict(UNDETERMINED, None, "thm-prime-power-unproven-prime")
        if irreducibility_subproduct_test(rho_t(k, lam)) == IRREDUCIBLE:
            return CongruenceVerdict(NONCONGRUENCE, None, "thm-prime-power")
        return CongruenceVerdict(UNDETERMINED, None, "thm-prime-power-conditional")
    return CongruenceVerdict(UNDETERMINED, None, "no-rule")


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


def saturation_check(k: int, lam: int) -> bool:
    """Exact equality weight_lower_bound(leading exponents) = form_weight."""
    return weight_lower_bound(leading_exponents(k, lam)) == form_weight(k, lam)


def classification_report(k: int, lam: int):
    """Everything ``sl2onepoint classify`` reports on (k, lam), as a
    function that builds the JSON payload and a generator of the lines of
    the table format; the verdicts are computed here, once, and each format
    formats only what it prints.  Above dimension 3, where the holomorphy
    has no sharp refinement, ``holomorphy`` is None, and an undetermined
    verdict carries a hint to run the categorical probe."""
    sig = rho_t(k, lam)
    exponents = leading_exponents(k, lam)
    try:
        holomorphy = holomorphy_classify(k, lam)
    except UnsupportedDimensionError:
        holomorphy = None  # no sharp refinement above dimension 3
    verdict = congruence_classify(k, lam)
    irred = irreducibility_subproduct_test(sig)
    order = t_order(k, lam)
    saturation = saturation_check(k, lam)
    hint = verdict.status == UNDETERMINED and sig.dimension >= 4

    def payload():
        out = {
            "level": k,
            "lambda": lam,
            "dimension": sig.dimension,
            "leading_exponents": [str(x) for x in exponents],
            "rho_t": sig.to_json(),
            "t_order": order,
            "irreducibility": irred,
            "congruence": verdict.to_json(),
            "holomorphy": holomorphy,
            "saturation": saturation,
        }
        if hint:
            out["hint"] = "mtc"
        return out

    def lines():
        yield f"level={k} lambda={lam}: dimension {sig.dimension}"
        yield "  leading exponents: " + ", ".join(map(str, exponents))
        yield "  T-exponents: " + ", ".join(map(str, sig.t_exponents))
        yield f"  order of T-action: {order}"
        yield f"  irreducibility (subproduct test): {irred}"
        yield (
            f"  congruence: {verdict.status}"
            + (f" (level {verdict.congruence_level})" if verdict.congruence_level else "")
            + f" [{verdict.basis}]"
        )
        yield f"  holomorphy: {holomorphy if holomorphy else 'holomorphic (no sharp refinement above dimension 3)'}"
        yield f"  weight-bound saturation: {saturation}"
        if hint:
            yield "  hint: run `sl2onepoint mtc` for the categorical irreducibility probe"

    return payload, lines()
