"""The monic modular equations of orders two and three, fixed by their
indicial exponents alone, the modular derivative they are built from,
and the leading trace sum: the positive factor between the intertwiner
normalisation and the leading coefficient of a trace function.

Test fixture only.  An equation D^2 + kappa_1 eis_4 or D^3 + kappa_1
eis_4 D + kappa_2 eis_6, acting at weight w, has the indicial polynomial
prod (x - s_i) + (kappa_1/720)(x - s_0) - kappa_2/30240 with
s_i = w/12 + i/6, so prescribing its roots forces the kappas.  Nothing
here reads a generator, which makes the equation an independent judge of
any series claimed to solve it.  The modular derivative runs on the
series' integer numerators; ``fraction_oracle.modular_derivative`` is
the same operator in ``Fraction`` arithmetic, its own oracle.
"""

import math
from fractions import Fraction

from sl2onepoint.qseries import QExpansion, _frac, _from_ints, eisenstein
from sl2onepoint.sl2data import rep_dimension, xi_set


def modular_derivative(f: QExpansion, weight) -> QExpansion:
    """(q d/dq) f + weight * eis_2 * f, valid to one order less than f."""
    w = _frac(weight)
    if f.order < 2:
        raise ValueError("modular derivative needs at least 2 valid coefficients")
    lam = f.leading_exponent
    p, r = lam.numerator, lam.denominator
    # q d/dq sends q^(lam+n) to ((p + n r)/r) q^(lam+n)
    qd = _from_ints(lam, [(p + n * r) * x for n, x in enumerate(f.nums)], f.den * r)
    result = qd + w * (eisenstein(2, f.order) * f)
    return result.truncate(f.order - 1)


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


def indicial_kappas(weight, exponents) -> tuple[Fraction, ...]:
    """(kappa_1,) or (kappa_1, kappa_2) of the monic equation of order
    len(exponents), acting at ``weight``, whose indicial roots are
    ``exponents``."""
    w = Fraction(weight)
    order = len(exponents)
    shifts = [w / 12 + Fraction(i, 6) for i in range(order)]
    assert sum(exponents) == sum(shifts), "exponent sum incompatible with the weight"
    if order == 2:
        # (x-s0)(x-s1) + kappa1/720 has the exponents as roots
        s0, s1 = shifts
        l0, l1 = exponents
        return (720 * (l0 * l1 - s0 * s1),)
    s0, s1, s2 = shifts
    l0, l1, l2 = exponents
    t2 = l0 * l1 + l0 * l2 + l1 * l2
    q2 = s0 * s1 + s0 * s2 + s1 * s2
    kappa1 = 720 * (t2 - q2)
    kappa2 = 30240 * (l0 * l1 * l2 - s0 * s1 * s2 - kappa1 * s0 / 720)
    return kappa1, kappa2


def apply_monic_operator(f: QExpansion, weight, kappas) -> QExpansion:
    """The monic equation with coefficients ``kappas``, applied to ``f`` at
    ``weight``; valid to len(kappas)+1 orders less than ``f``."""
    w = Fraction(weight)
    order = len(kappas) + 1
    valid = f.order - order
    ds = [f]
    for i in range(order):
        ds.append(modular_derivative(ds[-1], w + 2 * i))
    res = ds[order]
    if order == 2:
        (kappa1,) = kappas
        return res + kappa1 * (eisenstein(4, f.order) * f).truncate(valid)
    kappa1, kappa2 = kappas
    return (
        res
        + kappa1 * (eisenstein(4, f.order) * ds[1]).truncate(valid)
        + kappa2 * (eisenstein(6, f.order) * f).truncate(valid)
    )
