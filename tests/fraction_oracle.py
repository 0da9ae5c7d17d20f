"""The exact q-series kernels in plain ``Fraction`` arithmetic.

Test fixture only.  The library holds every series as ints over one
canonical denominator, and runs its ring operations, Miller's power
recurrence, the theta-form of the monic equations, their coefficient
recurrence and the hypergeometric composition on those ints.  These are
the same operations on tuples of reduced ``Fraction`` coefficients:
slower, but with no common denominator, no exact division and no Horner
rearrangement of the denominators to get wrong.  Series division, which
the library runs as a product with Miller's reciprocal, is checked
against plain long division.  Each oracle reads its inputs' ``coeffs``
and builds its result with the public constructor; tests compare the
library against them with ``==``.
"""

import math
from fractions import Fraction

from sl2onepoint.qseries import QExpansion, eisenstein, one, zero


def add(a: QExpansion, b: QExpansion) -> QExpansion:
    """a + b term by term, on the overlap of the validity windows; the
    leading exponents must differ by an integer."""
    assert (a.leading_exponent - b.leading_exponent).denominator == 1
    lam = min(a.leading_exponent, b.leading_exponent)
    sa = int(a.leading_exponent - lam)
    sb = int(b.leading_exponent - lam)
    n = min(sa + a.order, sb + b.order)
    coeffs = []
    for i in range(n):
        ca = a.coeffs[i - sa] if 0 <= i - sa < a.order else Fraction(0)
        cb = b.coeffs[i - sb] if 0 <= i - sb < b.order else Fraction(0)
        coeffs.append(ca + cb)
    return QExpansion(lam, coeffs)


def scale(a: QExpansion, scalar) -> QExpansion:
    """scalar * a, coefficient by coefficient."""
    scalar = Fraction(scalar)
    return QExpansion(a.leading_exponent, tuple(scalar * c for c in a.coeffs))


def cauchy(a: QExpansion, b: QExpansion) -> QExpansion:
    """a * b, each coefficient a sum of Fraction products."""
    n = min(a.order, b.order)
    coeffs = [sum((a.coeffs[i] * b.coeffs[m - i] for i in range(m + 1)), Fraction(0)) for m in range(n)]
    return QExpansion(a.leading_exponent + b.leading_exponent, coeffs)


def modular_derivative(f: QExpansion, weight) -> QExpansion:
    """(q d/dq) f + weight * eis_2 * f, valid to one order less than f."""
    lam = f.leading_exponent
    qd = QExpansion(lam, tuple((lam + n) * c for n, c in enumerate(f.coeffs)))
    result = add(qd, scale(cauchy(eisenstein(2, f.order), f), weight))
    return QExpansion(lam, result.coeffs[: f.order - 1])


def hypergeom_series(spec, arg: QExpansion, order: int) -> QExpansion:
    """F(arg) = sum_n c_n arg^n for ``arg`` that vanishes at q = 0 and lives
    in integer exponents, with c_{n+1}/c_n = prod(a_i+n) / (prod(b_j+n)
    (n+1)), each power a Fraction Cauchy product of the one before."""
    arg = QExpansion(arg.leading_exponent, arg.coeffs[:order])
    total = one(order)
    power = one(order)
    c = Fraction(1)
    for n in range(order):
        for a in spec.upper:
            c *= a + n
        for b in spec.lower:
            c /= b + n
        c /= n + 1
        power = cauchy(power, arg)
        if power.leading_exponent >= order:
            break
        power = QExpansion(power.leading_exponent, power.coeffs[: order - int(power.leading_exponent)])
        total = add(total, scale(power, c))
    return total


def series_pow_rational(a: QExpansion, alpha) -> QExpansion:
    """a**alpha for a unit-constant series by J.C.P. Miller's recurrence,
    m b_m = sum_{i=1..m} ((alpha+1) i - m) a_i b_{m-i}."""
    alpha = Fraction(alpha)
    assert a.order > 0 and a.leading_exponent == 0 and a.coeffs[0] == 1
    n = a.order
    terms = [(i, c) for i, c in enumerate(a.coeffs) if i and c]
    b = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for m in range(1, n):
        acc = Fraction(0)
        for i, c in terms:
            if i > m:
                break
            acc += ((alpha + 1) * i - m) * c * b[m - i]
        b[m] = acc / m
    return QExpansion(0, b)


def series_div(a: QExpansion, b: QExpansion) -> QExpansion:
    """a/b by long division, for b with a non-zero initial coefficient:
    each quotient coefficient from the ones before it."""
    assert b.order > 0 and b.coeffs[0] != 0
    n = min(a.order, b.order)
    inv0 = 1 / b.coeffs[0]
    coeffs: list[Fraction] = []
    for i in range(n):
        acc = a.coeffs[i]
        for m in range(1, i + 1):
            if b.coeffs[m] != 0:
                acc -= b.coeffs[m] * coeffs[i - m]
        coeffs.append(acc * inv0)
    return QExpansion(a.leading_exponent - b.leading_exponent, coeffs)


def theta_form(weight, kappas, order: int) -> list[QExpansion]:
    """Series a_0, ..., a_d of the monic equation of order d = len(kappas)+1
    at ``weight`` written as sum_j a_j(q) theta^j with theta = q d/dq, by
    products and sums of ``QExpansion``s."""
    weight = Fraction(weight)
    e2 = eisenstein(2, order)
    # D_v (sum_j a_j theta^j) = sum_j (theta a_j + v eis_2 a_j) theta^j + a_j theta^(j+1)
    powers = [[one(order)]]
    for i in range(len(kappas) + 1):
        prev = powers[-1]
        v = weight + 2 * i
        nxt = [zero(order)] * (len(prev) + 1)
        for j, a in enumerate(prev):
            theta_a = QExpansion(0, tuple(n * c for n, c in enumerate(a.coeffs)))
            nxt[j] = nxt[j] + theta_a + v * (e2 * a)
            nxt[j + 1] = nxt[j + 1] + a
        powers.append(nxt)
    op = list(powers[-1])
    for j, a in enumerate(powers[-3]):
        op[j] = op[j] + kappas[0] * (eisenstein(4, order) * a)
    if len(kappas) == 2:
        op[0] = op[0] + kappas[1] * eisenstein(6, order)
    return op


def mlde_solutions(weight, exponents, kappas, order: int) -> list[QExpansion]:
    """The solutions q^x (1 + O(q)) of the monic equation with ``kappas``
    at ``weight``, one per indicial root x in ``exponents``.  With the
    operator as sum_j a_j(q) theta^j and indicial polynomial P(x) =
    sum_j a_j[0] x^j, c_0 = 1 and

        c_n = -sum_{m<n} sum_j a_j[n-m] (x+m)^j c_m / P(x+n).

    The polynomial in x+m is evaluated on integers, the sum over m in
    ``Fraction``.
    """
    weight = Fraction(weight)
    ops = [a.coeffs for a in theta_form(weight, kappas, order)]
    # a_top = 1, so a shift s >= 1 sees only a_0 .. a_{top-1}
    top = len(ops) - 1
    den = math.lcm(*(c.denominator for a in ops[:top] for c in a))
    lower = [[int(c * den) for c in a] for a in ops[:top]]

    def indicial(y: Fraction) -> Fraction:
        value = Fraction(1)
        for a in reversed(ops[:top]):
            value = value * y + a[0]
        return value

    out = []
    for x in exponents:
        x = Fraction(x)
        assert indicial(x) == 0
        # with x + m = (p + m r)/r, sum_j a_j[s] (x+m)^j = b / (den r^(top-1))
        p, r = x.numerator, x.denominator
        scaled = [[c * r ** (top - 1 - j) for c in a] for j, a in enumerate(lower)]
        cs = [Fraction(1)]
        for n in range(1, order):
            acc = Fraction(0)
            for m in range(n):
                y, s = p + m * r, n - m
                b = 0
                for a in reversed(scaled):
                    b = b * y + a[s]
                if b:
                    acc += b * cs[m]
            cs.append(-acc / (den * r ** (top - 1) * indicial(x + n)))
        out.append(QExpansion(x, cs))
    return out
