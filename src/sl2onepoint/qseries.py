"""Exact truncated q-series arithmetic over the rationals.

Every modular object in this package is stored as a truncated expansion

    q**lam * (c[0] + c[1]*q + ... + c[order-1]*q**(order-1)),

where ``lam`` and all ``c[n]`` are exact :class:`fractions.Fraction`
values.  The leading exponent may be fractional, but all exponents of a
single series live in the coset ``lam + Z``; binary operations insist on
compatible cosets.  The ``order`` field records how many coefficients are
trustworthy; operations shrink it conservatively and never extrapolate.
The O(N^2) loops of products, rational powers and quotients run on
Python ints over shared denominators; only the N results become Fractions.

Alongside the ring operations this module provides the standard modular
constructors (Bernoulli numbers, Eisenstein series, Dedekind eta powers,
the reciprocal of the normalised j-invariant) and the modular derivative
``q d/dq + weight * E2``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import InternalInconsistencyError

__all__ = [
    "QExpansion",
    "bernoulli",
    "eisenstein",
    "euler_product",
    "eta_power",
    "j_inverse",
    "monomial",
    "one",
    "zero",
    "series_mul",
    "series_div",
    "series_pow_rational",
    "modular_derivative",
]


def _frac(x) -> Fraction:
    """Exact conversion to Fraction; floats are refused on purpose."""
    if isinstance(x, float):
        raise TypeError("refusing float->Fraction conversion; pass an exact value")
    return Fraction(x)


class QExpansion:
    """A truncated series q^lam * sum_{n<order} coeffs[n] q^n.

    Instances are immutable; ``coeffs`` is a tuple of Fractions of length
    exactly ``order``.  A series is exactly zero below its leading
    exponent, so zero-extension downwards is always legitimate, while
    coefficients at index >= order are unknown.
    """

    __slots__ = ("leading_exponent", "coeffs", "order")

    def __init__(self, leading_exponent, coeffs, order: int | None = None):
        object.__setattr__(self, "leading_exponent", _frac(leading_exponent))
        # a Fraction is immutable and kept as it is; _frac converts the rest and refuses floats
        cs = tuple(c if type(c) is Fraction else _frac(c) for c in coeffs)
        if order is None:
            order = len(cs)
        if order < 0:
            raise ValueError("order must be non-negative")
        if len(cs) != order:
            raise ValueError(f"got {len(cs)} coefficients for order {order}")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("QExpansion is immutable")

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def coefficient(self, exponent) -> Fraction:
        """Coefficient of q^exponent; 0 below the leading exponent."""
        diff = _frac(exponent) - self.leading_exponent
        if diff.denominator != 1:
            raise ValueError(f"exponent {exponent} not in coset {self.leading_exponent} + Z")
        n = int(diff)
        if n < 0:
            return Fraction(0)
        if n >= self.order:
            raise ValueError(f"exponent {exponent} beyond valid order {self.order}")
        return self.coeffs[n]

    def canonical(self) -> "QExpansion":
        """Strip leading zero coefficients, bumping the exponent."""
        s = 0
        while s < self.order and self.coeffs[s] == 0:
            s += 1
        if s == 0:
            return self
        if s == self.order:
            # identically zero within the window; keep a single zero row
            return QExpansion(self.leading_exponent, (Fraction(0),) * self.order, self.order)
        return QExpansion(self.leading_exponent + s, self.coeffs[s:], self.order - s)

    def monic(self) -> "QExpansion":
        """Canonical form rescaled to leading coefficient 1."""
        c = self.canonical()
        if c.is_zero():
            return c
        lead = c.coeffs[0]
        return QExpansion(c.leading_exponent, tuple(x / lead for x in c.coeffs), c.order)

    def truncate(self, order: int) -> "QExpansion":
        if order > self.order:
            raise ValueError("cannot extend validity by truncation")
        return QExpansion(self.leading_exponent, self.coeffs[:order], order)

    def agrees_with(self, other: "QExpansion") -> bool:
        """Equality on the overlap of the validity windows."""
        if self.is_zero() and other.is_zero():
            return True
        if (self.leading_exponent - other.leading_exponent).denominator != 1:
            return False
        return (self - other).is_zero()

    # -- ring operations ----------------------------------------------

    def _aligned(self, other: "QExpansion"):
        if (self.leading_exponent - other.leading_exponent).denominator != 1:
            raise ValueError(
                "cannot combine series with leading exponents in different cosets: "
                f"{self.leading_exponent} vs {other.leading_exponent}"
            )
        lam = min(self.leading_exponent, other.leading_exponent)
        sa = int(self.leading_exponent - lam)
        sb = int(other.leading_exponent - lam)
        n = min(sa + self.order, sb + other.order)
        return lam, sa, sb, n

    def __add__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        lam, sa, sb, n = self._aligned(other)
        coeffs = []
        for i in range(n):
            ca = self.coeffs[i - sa] if 0 <= i - sa < self.order else Fraction(0)
            cb = other.coeffs[i - sb] if 0 <= i - sb < other.order else Fraction(0)
            coeffs.append(ca + cb)
        return QExpansion(lam, coeffs, n)

    def __neg__(self):
        return QExpansion(self.leading_exponent, tuple(-c for c in self.coeffs), self.order)

    def __sub__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QExpansion):
            return series_mul(self, other)
        scalar = _frac(other)
        return QExpansion(
            self.leading_exponent, tuple(scalar * c for c in self.coeffs), self.order
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, QExpansion):
            return series_div(self, other)
        scalar = _frac(other)
        if scalar == 0:
            raise ZeroDivisionError("division of a series by zero")
        return QExpansion(
            self.leading_exponent, tuple(c / scalar for c in self.coeffs), self.order
        )

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("use series_pow_rational for fractional powers")
        if n < 0:
            return series_div(one(self.order), self ** (-n))
        result = one(self.order)
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, QExpansion)
            and self.leading_exponent == other.leading_exponent
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.leading_exponent, self.coeffs))

    # -- presentation ---------------------------------------------------

    def pretty(self, max_terms: int | None = None) -> str:
        terms = []
        shown = self.coeffs if max_terms is None else self.coeffs[:max_terms]
        for n, c in enumerate(shown):
            if c == 0:
                continue
            if n == 0:
                terms.append(str(c))
            else:
                qpow = "q" if n == 1 else f"q^{n}"
                if c == 1:
                    terms.append(f"+ {qpow}")
                elif c == -1:
                    terms.append(f"- {qpow}")
                elif c > 0:
                    terms.append(f"+ {c}*{qpow}")
                else:
                    terms.append(f"- {-c}*{qpow}")
        body = " ".join(terms) if terms else "0"
        if body.startswith("+ "):
            body = body[2:]
        if self.leading_exponent == 0:
            return body
        return f"q^({self.leading_exponent}) * ({body})"

    def __repr__(self):
        return f"QExpansion({self.pretty(max_terms=6)}, order={self.order})"

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {
            "leading_exponent": str(self.leading_exponent),
            "coeffs": [str(c) for c in self.coeffs],
            "order": self.order,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QExpansion":
        return cls(
            Fraction(obj["leading_exponent"]),
            [Fraction(c) for c in obj["coeffs"]],
            obj["order"],
        )


def zero(order: int, leading_exponent=0) -> QExpansion:
    return QExpansion(leading_exponent, (Fraction(0),) * order, order)


def one(order: int) -> QExpansion:
    return monomial(0, order)


def monomial(exponent, order: int) -> QExpansion:
    coeffs = [Fraction(0)] * order
    if order:
        coeffs[0] = Fraction(1)
    return QExpansion(exponent, coeffs, order)


def _convolve(xs, ys, n: int) -> list[int]:
    """First n terms of the Cauchy product of two integer sequences,
    skipping the zeros of both."""
    y_terms = [(j, y) for j, y in enumerate(ys[:n]) if y]
    acc = [0] * n
    for i, x in enumerate(xs[:n]):
        if not x:
            continue
        for j, y in y_terms:
            if i + j >= n:
                break
            acc[i + j] += x * y
    return acc


def _integers(coeffs) -> tuple[int, list[int]]:
    """(den, nums) with coeffs[i] = nums[i]/den and den the lcm of the
    denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def series_mul(a: QExpansion, b: QExpansion) -> QExpansion:
    """Cauchy product; exponents add, validity is the minimum of the inputs.

    Each factor is scaled to integers over the lcm of its denominators, so
    the O(N^2) inner loop runs on ints and only the N results pay for a
    Fraction's gcd.
    """
    n = min(a.order, b.order)
    da, xs = _integers(a.coeffs[:n])
    db, ys = _integers(b.coeffs[:n])
    den = da * db
    acc = _convolve(xs, ys, n)
    return QExpansion(a.leading_exponent + b.leading_exponent, [Fraction(x, den) for x in acc], n)


def series_div(a: QExpansion, b: QExpansion) -> QExpansion:
    """a/b = a * (b/b0)**-1 / b0 by Miller's reciprocal; b must have a
    non-zero initial coefficient b0."""
    if b.order == 0 or b.coeffs[0] == 0:
        raise ZeroDivisionError(
            "series division needs a divisor with non-zero initial coefficient; "
            "canonicalise the divisor first"
        )
    n = min(a.order, b.order)
    b0 = b.coeffs[0]
    unit = QExpansion(0, [c / b0 for c in b.coeffs[: max(n, 1)]])  # never order 0
    quotient = series_mul(a, series_pow_rational(unit, -1)) / b0
    return QExpansion(a.leading_exponent - b.leading_exponent, quotient.coeffs, n)


def series_pow_rational(a: QExpansion, alpha) -> QExpansion:
    """a**alpha with rational alpha, exactly.

    A unit-constant series (leading exponent 0, first coefficient 1) takes
    any rational alpha through J.C.P. Miller's recurrence (Knuth, TAOCP
    vol. 2, section 4.7),

        m b_m = sum_{i=1..m} ((alpha+1) i - m) a_i b_{m-i},

    which skips the zero coefficients of ``a``: O(N * nonzeros) operations,
    so eta powers from the sparse Euler product are cheap.  The loop runs
    on ints.  With alpha = P/Q and a_i = A_i/d over the lcm d of the
    denominators, b_m = B_m/(m! (Qd)^m) with integer B_m, so every b_m is
    held as an integer over the one denominator (N-1)! (Qd)^(N-1), and
    each step ends in an exact division by m*Q*d.  When Q = d = 1 the b_m
    are integers themselves (eta^r for integer r) and the denominator is 1.
    Only the N results become Fractions.

    Any other series takes only non-negative integer alpha, by binary
    powering.
    """
    alpha = _frac(alpha)
    unit = a.order > 0 and a.leading_exponent == 0 and a.coeffs[0] == 1
    if not unit and alpha.denominator == 1 and alpha >= 0:
        return a ** int(alpha)
    if a.order == 0:
        raise ValueError("cannot raise an order-0 series to a fractional power")
    if not unit:
        raise ValueError(
            "fractional powers need a unit-constant series "
            "(leading exponent 0 and first coefficient 1)"
        )
    # Miller recurrence: a*b' = alpha*a'*b with b = a**alpha, times Q*d*den
    n = a.order
    p, q = alpha.numerator, alpha.denominator
    d, nums = _integers(a.coeffs)
    qd = q * d
    # term i contributes ((P+Q) i - Q m) A_i b_{m-i} = (u - m v) b_{m-i}
    terms = [(i, (p + q) * i * x, q * x) for i, x in enumerate(nums) if i and x]
    den = 1 if qd == 1 else math.factorial(n - 1) * qd ** (n - 1)
    b = [den] + [0] * (n - 1)
    for m in range(1, n):
        acc = 0
        for i, u, v in terms:
            if i > m:
                break
            acc += (u - m * v) * b[m - i]
        b[m] = acc // (m * qd)
    return QExpansion(0, [Fraction(x, den) for x in b], n)


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n from x/(e^x - 1) = sum B_n x^n / n!."""
    if n < 0:
        raise ValueError("Bernoulli numbers need n >= 0")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


def _sigma(n: int, power: int) -> int:
    """Divisor power sum sigma_power(n)."""
    total = 0
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            total += d**power
            e = n // d
            if e != d:
                total += e**power
    return total


@lru_cache(maxsize=None)
def eisenstein(weight: int, order: int) -> QExpansion:
    """Eisenstein series normalised with constant term -B_{2k}/(2k)!.

    eis_{2k} = -B_{2k}/(2k)! + (2/(2k-1)!) * sum_{n>=1} sigma_{2k-1}(n) q^n
    """
    if weight <= 0 or weight % 2 != 0:
        raise ValueError(f"Eisenstein weight must be a positive even integer, got {weight}")
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = [-bernoulli(weight) / math.factorial(weight)]
    scale = Fraction(2, math.factorial(weight - 1))
    for n in range(1, order):
        coeffs.append(scale * _sigma(n, weight - 1))
    return QExpansion(0, coeffs, order)


@lru_cache(maxsize=None)
def euler_product(order: int) -> QExpansion:
    """prod_{n>=1} (1 - q^n) truncated, via the pentagonal number theorem."""
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = [Fraction(0)] * order
    coeffs[0] = Fraction(1)
    m = 1
    while True:
        p1 = m * (3 * m - 1) // 2
        p2 = m * (3 * m + 1) // 2
        if p1 >= order and p2 >= order:
            break
        sign = -1 if m % 2 else 1
        if p1 < order:
            coeffs[p1] = Fraction(sign)
        if p2 < order:
            coeffs[p2] = Fraction(sign)
        m += 1
    return QExpansion(0, coeffs, order)


@lru_cache(maxsize=None)
def eta_power(r, order: int) -> QExpansion:
    """eta^r = q^(r/24) * (prod (1-q^n))^r for any rational r."""
    r = _frac(r)
    if order < 1:
        raise ValueError("order must be >= 1")
    body = series_pow_rational(euler_product(order), r)
    return QExpansion(Fraction(r, 24), body.coeffs, order)


@lru_cache(maxsize=None)
def j_inverse(order: int) -> QExpansion:
    """1728/j as a q-series with leading term 1728*q.

    Built as 1728*eta^24/E_4^3, with the discriminant cross-checked
    against (E_4^3 - E_6^2)/1728 term by term; E_w = eis_w made monic is
    integral (720*eis_4 and -30240*eis_6).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    delta_eta = eta_power(24, order)
    e4 = eisenstein(4, order + 1).monic()
    e6 = eisenstein(6, order + 1).monic()
    e4cubed = e4**3
    diff = (e4cubed - e6**2) / 1728
    if diff.coeffs[0] != 0:
        raise InternalInconsistencyError("E4^3 - E6^2 has a non-zero constant term")
    delta_eis = diff.canonical()
    if not delta_eta.agrees_with(delta_eis):
        raise InternalInconsistencyError(
            "discriminant from eta^24 disagrees with (E4^3 - E6^2)/1728"
        )
    return series_div(1728 * delta_eta, e4cubed.truncate(order))


def modular_derivative(f: QExpansion, weight) -> QExpansion:
    """(q d/dq) f + weight * eis_2 * f, valid to one order less than f."""
    w = _frac(weight)
    if f.order < 2:
        raise ValueError("modular derivative needs at least 2 valid coefficients")
    lam = f.leading_exponent
    qd = QExpansion(lam, tuple((lam + n) * c for n, c in enumerate(f.coeffs)), f.order)
    result = qd + w * (eisenstein(2, f.order) * f)
    return result.truncate(f.order - 1)
