"""Exact truncated q-series arithmetic over the rationals.

Every modular object in this package is stored as a truncated expansion

    q**lam * (c[0] + c[1]*q + ... + c[order-1]*q**(order-1)),

where ``lam`` is a :class:`fractions.Fraction` and every ``c[n]`` is an
exact rational.  The leading exponent may be fractional, but all exponents
of a single series live in the coset ``lam + Z``; binary operations insist
on compatible cosets.  The ``order`` property records how many coefficients
are trustworthy; operations shrink it conservatively and never extrapolate.

A series holds c[n] = nums[n]/den with Python ints ``nums`` and ``den`` > 0
in canonical form, gcd(den, *nums) = 1, which one ``math.gcd`` restores after
each operation; every ring operation runs on these ints, and equal series
have equal (lam, den, nums).  ``coeffs``, the reduced Fractions, are kept when
a series is built from them and otherwise built once, on first use.

Alongside the ring operations this module provides the standard modular
constructors: Bernoulli numbers, Eisenstein series, Dedekind eta powers
and the reciprocal of the normalised j-invariant.  The modular derivative
``q d/dq + weight * E2``, which only tests apply, is in
``tests/mlde_oracle.py``.
"""

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
]


def _frac(x) -> Fraction:
    """Exact conversion to Fraction; floats are refused on purpose."""
    if isinstance(x, float):
        raise TypeError("refusing float->Fraction conversion; pass an exact value")
    return Fraction(x)


class QExpansion:
    """A truncated series q^lam * sum_{n<order} (nums[n]/den) q^n.

    Instances are immutable.  ``nums`` is a tuple of ints, whose length is
    ``order``, over the int ``den`` > 0, with gcd(den, *nums) = 1, and
    ``coeffs`` is the same tuple as reduced Fractions.  A series is exactly
    zero below its leading exponent, so zero-extension downwards is always
    legitimate, while coefficients at index >= order are unknown.
    """

    __slots__ = ("leading_exponent", "den", "nums", "_coeffs")
    order = property(lambda self: len(self.nums))

    def __init__(self, leading_exponent, coeffs):
        lam = _frac(leading_exponent)
        # a Fraction is immutable and kept as it is; _frac converts the rest and refuses floats
        cs = tuple(c if type(c) is Fraction else _frac(c) for c in coeffs)
        # over the lcm of reduced denominators no prime divides den and every numerator
        den = math.lcm(*(c.denominator for c in cs))
        _init(self, lam, den, tuple(c.numerator * (den // c.denominator) for c in cs), cs)

    def __setattr__(self, name, value):
        raise AttributeError("QExpansion is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients as reduced Fractions, built once on first use."""
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", tuple(Fraction(x, self.den) for x in self.nums))
        return self._coeffs

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def canonical(self) -> "QExpansion":
        """Strip leading zero coefficients, bumping the exponent; a series
        that is zero within its window stays as it is."""
        s = next((i for i, x in enumerate(self.nums) if x), 0)
        if s == 0:
            return self
        return _from_ints(self.leading_exponent + s, self.nums[s:], self.den)

    def monic(self) -> "QExpansion":
        """Canonical form rescaled to leading coefficient 1."""
        c = self.canonical()
        if c.is_zero():
            return c
        return _from_ints(c.leading_exponent, c.nums, c.nums[0])

    def truncate(self, order: int) -> "QExpansion":
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate a series of order {self.order} to order {order}")
        return _from_ints(self.leading_exponent, self.nums[:order], self.den)

    def agrees_with(self, other: "QExpansion") -> bool:
        """Equality on the overlap of the validity windows."""
        if self.is_zero() and other.is_zero():
            return True
        if (self.leading_exponent - other.leading_exponent).denominator != 1:
            return False
        return (self - other).is_zero()

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        shift = self.leading_exponent - other.leading_exponent
        if shift.denominator != 1:
            raise ValueError(
                "cannot combine series with leading exponents in different cosets: "
                f"{self.leading_exponent} vs {other.leading_exponent}"
            )
        # zeros below the later start; the window ends where either's knowledge does
        xs = (0,) * int(shift) + self.nums
        ys = (0,) * int(-shift) + other.nums
        g = math.gcd(self.den, other.den)
        ma, mb = other.den // g, self.den // g
        lam = min(self.leading_exponent, other.leading_exponent)
        return _from_ints(lam, [x * ma + y * mb for x, y in zip(xs, ys)], self.den * ma)

    def __neg__(self):
        return _from_ints(self.leading_exponent, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QExpansion):
            return series_mul(self, other)
        s = _frac(other)
        return _from_ints(self.leading_exponent, [s.numerator * x for x in self.nums], self.den * s.denominator)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, QExpansion):
            return series_div(self, other)
        s = _frac(other)
        if s == 0:
            raise ZeroDivisionError("division of a series by zero")
        return _from_ints(self.leading_exponent, [s.denominator * x for x in self.nums], self.den * s.numerator)

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

    # the form is canonical, so equal values have equal (lam, den, nums)
    def __eq__(self, other):
        return (
            isinstance(other, QExpansion)
            and self.leading_exponent == other.leading_exponent
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.leading_exponent, self.den, self.nums))

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


def _init(s: QExpansion, lam: Fraction, den: int, nums: tuple, coeffs) -> QExpansion:
    for name, value in zip(QExpansion.__slots__, (lam, den, nums, coeffs)):
        object.__setattr__(s, name, value)
    return s


def _from_ints(lam: Fraction, nums, den: int = 1, coeffs=None) -> QExpansion:
    """The series q^lam * sum (nums[n]/den) q^n in canonical form: one gcd
    cancels the common factor, and a negative ``den`` flips every sign.
    ``coeffs``, if given, are its coefficients as reduced Fractions."""
    g = math.gcd(den, *nums) * (-1 if den < 0 else 1)
    if g != 1:
        nums = [x // g for x in nums]
        den //= g
    return _init(object.__new__(QExpansion), lam, den, tuple(nums), coeffs)


def zero(order: int, leading_exponent=0) -> QExpansion:
    return _from_ints(_frac(leading_exponent), (0,) * order)


def one(order: int) -> QExpansion:
    return monomial(0, order)


def monomial(exponent, order: int) -> QExpansion:
    return _from_ints(_frac(exponent), [1] + [0] * (order - 1) if order else [])


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


def series_mul(a: QExpansion, b: QExpansion) -> QExpansion:
    """Cauchy product; exponents add, validity is the minimum of the inputs.
    The O(N^2) loop convolves the numerators, over the product of the
    denominators."""
    n = min(a.order, b.order)
    return _from_ints(a.leading_exponent + b.leading_exponent, _convolve(a.nums, b.nums, n), a.den * b.den)


def series_div(a: QExpansion, b: QExpansion) -> QExpansion:
    """a/b = a * (b/b0)**-1 / b0 by Miller's reciprocal; b must have a
    non-zero initial coefficient b0."""
    if b.order == 0 or b.nums[0] == 0:
        raise ZeroDivisionError(
            "series division needs a divisor with non-zero initial coefficient; "
            "canonicalise the divisor first"
        )
    n = min(a.order, b.order)
    b0 = b.nums[0]  # b's initial coefficient is b0 / b.den
    unit = _from_ints(Fraction(0), b.nums[: max(n, 1)], b0)  # never order 0
    quotient = series_mul(a, series_pow_rational(unit, -1))
    lam = a.leading_exponent - b.leading_exponent
    return _from_ints(lam, [b.den * x for x in quotient.nums], quotient.den * b0)


def series_pow_rational(a: QExpansion, alpha) -> QExpansion:
    """a**alpha with rational alpha, exactly.

    A unit-constant series (leading exponent 0, first coefficient 1) takes
    any rational alpha through J.C.P. Miller's recurrence (Knuth, TAOCP
    vol. 2, section 4.7),

        m b_m = sum_{i=1..m} ((alpha+1) i - m) a_i b_{m-i},

    which skips the zero coefficients of ``a``: O(N * nonzeros) operations,
    so eta powers from the sparse Euler product are cheap.  The loop runs
    on ints.  With alpha = P/Q and a_i = A_i/d, b_m = B_m/(m! (Qd)^m) with
    integer B_m, so every b_m is held as an integer over the one
    denominator (N-1)! (Qd)^(N-1), and each step ends in an exact division
    by m*Q*d.  When Q = d = 1 the b_m are integers themselves (eta^r for
    integer r) and the denominator is 1.

    Any other series takes only non-negative integer alpha, by binary
    powering.
    """
    alpha = _frac(alpha)
    unit = a.order > 0 and a.leading_exponent == 0 and a.nums[0] == a.den
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
    qd = q * a.den
    # term i contributes ((P+Q) i - Q m) A_i b_{m-i} = (u - m v) b_{m-i}
    terms = [(i, (p + q) * i * x, q * x) for i, x in enumerate(a.nums) if i and x]
    den = 1 if qd == 1 else math.factorial(n - 1) * qd ** (n - 1)
    b = [den] + [0] * (n - 1)
    for m in range(1, n):
        acc = 0
        for i, u, v in terms:
            if i > m:
                break
            acc += (u - m * v) * b[m - i]
        b[m] = acc // (m * qd)
    return _from_ints(Fraction(0), b, den)


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
    # -B/w! + (2/(w-1)!) sigma(n) q^n, over the denominator of B times w!
    b = bernoulli(weight)
    nums = [0] * order  # allocated before any per-coefficient work
    nums[0] = -b.numerator
    for n in range(1, order):
        nums[n] = 2 * weight * b.denominator * _sigma(n, weight - 1)
    return _from_ints(Fraction(0), nums, b.denominator * math.factorial(weight))


@lru_cache(maxsize=None)
def euler_product(order: int) -> QExpansion:
    """prod_{n>=1} (1 - q^n) truncated, via the pentagonal number theorem."""
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = [0] * order  # allocated before any per-coefficient work
    coeffs[0] = 1
    m = 1
    while True:
        p1 = m * (3 * m - 1) // 2
        p2 = m * (3 * m + 1) // 2
        if p1 >= order and p2 >= order:
            break
        sign = -1 if m % 2 else 1
        if p1 < order:
            coeffs[p1] = sign
        if p2 < order:
            coeffs[p2] = sign
        m += 1
    return _from_ints(Fraction(0), coeffs)


@lru_cache(maxsize=None)
def eta_power(r, order: int) -> QExpansion:
    """eta^r = q^(r/24) * (prod (1-q^n))^r for any rational r."""
    r = _frac(r)
    if order < 1:
        raise ValueError("order must be >= 1")
    body = series_pow_rational(euler_product(order), r)
    return _from_ints(Fraction(r, 24), body.nums, body.den)


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
    if diff.nums[0] != 0:
        raise InternalInconsistencyError("E4^3 - E6^2 has a non-zero constant term")
    delta_eis = diff.canonical()
    if not delta_eta.agrees_with(delta_eis):
        raise InternalInconsistencyError(
            "discriminant from eta^24 disagrees with (E4^3 - E6^2)/1728"
        )
    return series_div(1728 * delta_eta, e4cubed.truncate(order))
