"""Exact series ring: constructor fixtures and algebraic properties.

Oracles are deliberately independent of the implementation: Bernoulli
numbers via direct series inversion of (e^x - 1)/x, Eisenstein
coefficients via brute-force divisor enumeration, the eta product by
multiplying the factors (1 - q^n) one at a time, and the modular
derivative against the classical weight-raising identities.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2onepoint.errors import InternalInconsistencyError
from sl2onepoint.qseries import (
    QExpansion,
    bernoulli,
    eisenstein,
    eta_power,
    euler_product,
    j_inverse,
    monomial,
    one,
    series_div,
    series_mul,
    series_pow_rational,
    zero,
)

import fraction_oracle
from mlde_oracle import modular_derivative


# -- oracles ------------------------------------------------------------


def bernoulli_oracle(count):
    """B_n via inversion of (e^x - 1)/x = sum x^n/(n+1)!."""
    import math

    a = [F(1, math.factorial(n + 1)) for n in range(count)]
    b = [F(1)]
    for n in range(1, count):
        b.append(-sum(a[m] * b[n - m] for m in range(1, n + 1)))
    return [b[n] * math.factorial(n) for n in range(count)]


def sigma_oracle(n, power):
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def eta_product_oracle(order):
    """prod (1 - q^n) by repeated multiplication, no pentagonal shortcut."""
    coeffs = [F(0)] * order
    coeffs[0] = F(1)
    for n in range(1, order):
        new = list(coeffs)
        for m in range(n, order):
            new[m] -= coeffs[m - n]
        coeffs = new
    return coeffs


# -- Bernoulli / Eisenstein ----------------------------------------------


def test_bernoulli_fixture_values():
    assert bernoulli(0) == 1
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(4) == F(-1, 30)


def test_bernoulli_against_series_inversion():
    want = bernoulli_oracle(20)
    assert [bernoulli(n) for n in range(20)] == want


def test_bernoulli_odd_vanish():
    assert all(bernoulli(n) == 0 for n in range(3, 30, 2))


def test_bernoulli_negative_rejected():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_eisenstein_fixture_values():
    assert eisenstein(2, 3).coeffs == (F(-1, 12), F(2), F(6))
    assert eisenstein(4, 2).coeffs == (F(1, 720), F(1, 3))
    assert eisenstein(6, 1).coeffs == (F(-1, 30240),)
    assert eisenstein(4, 2).leading_exponent == 0


def test_eisenstein_against_divisor_oracle():
    import math

    for weight in (2, 4, 6, 8, 10):
        series = eisenstein(weight, 12)
        assert series.coeffs[0] == -bernoulli(weight) / math.factorial(weight)
        for n in range(1, 12):
            want = F(2, math.factorial(weight - 1)) * sigma_oracle(n, weight - 1)
            assert series.coeffs[n] == want


def test_eisenstein_rejects_bad_weight():
    with pytest.raises(ValueError):
        eisenstein(3, 5)
    with pytest.raises(ValueError):
        eisenstein(0, 5)


# -- eta powers ----------------------------------------------------------


def test_euler_product_matches_direct_multiplication():
    assert euler_product(40).coeffs == tuple(eta_product_oracle(40))


def test_eta_fixture_values():
    eta = eta_power(1, 6)
    assert eta.leading_exponent == F(1, 24)
    assert eta.coeffs == (F(1), F(-1), F(-1), F(0), F(0), F(1))
    assert eta_power(0, 4).coeffs == (F(1), F(0), F(0), F(0))
    assert eta_power(0, 4).leading_exponent == 0
    delta = eta_power(24, 3)
    assert delta.leading_exponent == 1
    assert delta.coeffs == (F(1), F(-24), F(252))


def test_eta_power_addition_law():
    for r, s in [(F(1), F(1)), (F(3, 2), F(-1, 2)), (F(24), F(-23)), (F(5, 7), F(2, 3))]:
        lhs = eta_power(r, 12) * eta_power(s, 12)
        assert lhs.agrees_with(eta_power(r + s, 12))


def test_eta_square_vs_self_product():
    assert (eta_power(1, 15) * eta_power(1, 15)).agrees_with(eta_power(2, 15))


# -- 1728/j --------------------------------------------------------------


def test_j_inverse_fixture_values():
    ji = j_inverse(2)
    assert ji.leading_exponent == 1
    assert ji.coeffs == (F(1728), F(-1285632))
    assert j_inverse(1).coeffs == (F(1728),)
    # vanishing at the cusp: the series starts at q^1, so q^0 has coefficient 0
    assert j_inverse(3).leading_exponent == 1


def test_j_inverse_internal_cross_check_runs():
    # larger order exercises the dual-formula discriminant comparison
    ji = j_inverse(8)
    assert ji.order == 8


def test_classical_j_coefficients():
    # 1/J = 1728/j with j = 1/q + 744 + 196884 q + ...: invert and compare
    ji = j_inverse(6)
    j_over = series_div(monomial(0, 6), ji / 1728)  # = j as a series with exponent -1
    assert j_over.leading_exponent == -1
    assert j_over.coeffs[:4] == (F(1), F(744), F(196884), F(21493760))


# -- ring operations -----------------------------------------------------

small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def qexpansions(max_order=6):
    return st.builds(
        lambda lam, coeffs: QExpansion(lam, coeffs),
        st.sampled_from([F(0), F(1), F(-1), F(1, 3), F(-5, 24)]),
        st.lists(small_fracs, min_size=1, max_size=max_order),
    )


@settings(max_examples=60, deadline=None)
@given(qexpansions(), qexpansions(), qexpansions())
def test_mul_associative_and_distributive(a, b, c):
    assert series_mul(series_mul(a, b), c).agrees_with(series_mul(a, series_mul(b, c)))
    # distributivity needs matching cosets: shift b and c into a's coset
    b2 = QExpansion(a.leading_exponent, b.coeffs)
    c2 = QExpansion(a.leading_exponent, c.coeffs)
    lhs = series_mul(a, b2 + c2)
    rhs = series_mul(a, b2) + series_mul(a, c2)
    assert lhs.agrees_with(rhs)


@settings(max_examples=60, deadline=None)
@given(qexpansions(), qexpansions())
def test_mul_commutative(a, b):
    assert series_mul(a, b).agrees_with(series_mul(b, a))


@settings(max_examples=60, deadline=None)
@given(qexpansions(max_order=8), qexpansions(max_order=8))
def test_mul_matches_fraction_cauchy_product(a, b):
    # series_mul convolves the numerators over the product of the
    # denominators; the oracle sums Fraction products term by term
    prod = series_mul(a, b)
    assert prod == fraction_oracle.cauchy(a, b)
    assert prod.order == min(a.order, b.order)


# -- the integer ring against the Fraction oracles -------------------------


def _canonical(s):
    """ints over a positive denominator with no common factor, and
    ``coeffs`` the reduced Fractions they stand for."""
    return (
        s.den > 0
        and math.gcd(s.den, *s.nums) == 1
        and len(s.nums) == s.order
        and all(type(x) is int for x in s.nums)
        and s.coeffs == tuple(F(x, s.den) for x in s.nums)
    )


@st.composite
def same_coset_series(draw, count=2, min_order=0, max_order=8):
    """``count`` series in one coset (0, 1/3 or -5/24 + Z) at integer
    shifts -2..2, of orders min_order..max_order; a third of them zero."""
    base = draw(st.sampled_from([F(0), F(1, 3), F(-5, 24)]))
    coeffs = st.one_of(
        st.lists(small_fracs, min_size=min_order, max_size=max_order),
        st.lists(small_fracs, min_size=min_order, max_size=max_order).map(lambda cs: [0] * len(cs)),
    )
    return [QExpansion(base + draw(st.integers(-2, 2)), draw(coeffs)) for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(same_coset_series(), small_fracs)
def test_ring_operations_equal_fraction_oracle(pair, scalar):
    a, b = pair
    results = [
        (a + b, fraction_oracle.add(a, b)),
        (b + a, fraction_oracle.add(a, b)),
        (a - b, fraction_oracle.add(a, fraction_oracle.scale(b, -1))),
        (-a, fraction_oracle.scale(a, -1)),
        (a * scalar, fraction_oracle.scale(a, scalar)),
        (scalar * a, fraction_oracle.scale(a, scalar)),
        (series_mul(a, b), fraction_oracle.cauchy(a, b)),
    ]
    if scalar:
        results.append((a / scalar, fraction_oracle.scale(a, 1 / scalar)))
    for got, want in results:
        assert got == want
        assert got.leading_exponent == want.leading_exponent and got.order == want.order
        assert _canonical(got)


@settings(max_examples=100, deadline=None)
@given(same_coset_series(count=1), st.integers(0, 8))
def test_truncate_canonical_monic_follow_the_fractions(series, cut):
    (a,) = series
    assert _canonical(a)
    assert a.is_zero() == all(c == 0 for c in a.coeffs)
    cut = min(cut, a.order)
    assert a.truncate(cut).coeffs == a.coeffs[:cut] and _canonical(a.truncate(cut))
    lead = next((n for n, c in enumerate(a.coeffs) if c), None)
    c, m = a.canonical(), a.monic()
    if lead is None:  # zero within the window: nothing to strip or rescale
        assert c == m == a == zero(a.order, a.leading_exponent)
    else:
        assert c.leading_exponent == m.leading_exponent == a.leading_exponent + lead
        assert c.coeffs == a.coeffs[lead:]
        assert m.coeffs == tuple(x / a.coeffs[lead] for x in a.coeffs[lead:])
        assert _canonical(c) and _canonical(m)


@settings(max_examples=60, deadline=None)
@given(same_coset_series(count=1, min_order=2), st.fractions(-6, 6, max_denominator=7))
def test_modular_derivative_equals_fraction_oracle(series, weight):
    (f,) = series
    got = modular_derivative(f, weight)
    assert got == fraction_oracle.modular_derivative(f, weight)
    assert got.order == f.order - 1 and _canonical(got)


def test_one_value_has_one_canonical_form():
    # q^(1/3) (1/2 - 2/3 q + 0 q^2) by eight routes: one (den, nums), one hash
    lam = F(1, 3)
    direct = QExpansion(lam, [F(1, 2), F(-2, 3), F(0)])
    other = QExpansion(lam - 1, [F(1, 5), F(1, 9), F(2, 9), F(7)])
    routes = [
        direct,
        QExpansion(lam, [3, -4, 0]) / 6,
        QExpansion(lam, [F(-3, 4), 1, 0]) * F(-2, 3),
        QExpansion(lam, [F(1, 2), F(-2, 3), F(0), F(5, 7)]).truncate(3),
        ((direct + other) - other).canonical(),
        series_mul(direct, one(3)),
        series_mul(monomial(lam, 3), QExpansion(0, [1, F(-4, 3), 0])) / 2,
        series_div(direct * 7, QExpansion(0, [-7, 0, 0])) / -1,
    ]
    for s in routes:
        assert (s.leading_exponent, s.order, s.den, s.nums) == (lam, 3, 6, (3, -4, 0))
        assert s == direct and hash(s) == hash(direct)
        assert s.coeffs == (F(1, 2), F(-2, 3), F(0))
        assert all(type(c) is F and math.gcd(c.numerator, c.denominator) == 1 for c in s.coeffs)
    # zero is ints 0 over 1, whatever the route
    zeros = [direct - direct, direct * 0, zero(3, lam), QExpansion(lam, [F(0, 5)] * 3)]
    for z in zeros:
        assert (z.den, z.nums) == (1, (0, 0, 0)) and z == zeros[0] and hash(z) == hash(zeros[0])
    # coefficients given as Fractions are kept as they are; others are built once
    given = (F(1, 2), F(-2, 3), F(0))
    assert all(x is y for x, y in zip(QExpansion(lam, given).coeffs, given))
    built = routes[1]
    assert built.coeffs is built.coeffs


def test_mul_fixture_difference_of_squares():
    a = QExpansion(F(1, 2), [F(1), F(1), F(0)])
    b = QExpansion(F(1, 2), [F(1), F(-1), F(0)])
    prod = series_mul(a, b)
    assert prod.leading_exponent == 1
    assert prod.coeffs == (F(1), F(0), F(-1))


def test_mul_zero_absorbs():
    a = QExpansion(F(1, 3), [F(2), F(3)])
    z = QExpansion(F(1, 3), [F(0), F(0)])
    assert series_mul(a, z).is_zero()


def test_add_rejects_coset_mismatch():
    a = QExpansion(F(1, 2), [F(1)])
    b = QExpansion(F(1, 3), [F(1)])
    with pytest.raises(ValueError):
        a + b


def test_add_alignment_window():
    # a known to order 3 from exponent 0; b known to order 2 from exponent 2
    a = QExpansion(0, [F(1), F(1), F(1)])
    b = QExpansion(2, [F(5), F(7)])
    total = a + b
    assert total.leading_exponent == 0
    assert total.coeffs == (F(1), F(1), F(6))  # window ends where a's knowledge does


@settings(max_examples=40, deadline=None)
@given(
    st.lists(small_fracs, min_size=0, max_size=5),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_pow_rational_addition_law(tail, p, q):
    a = QExpansion(0, [F(1)] + tail)
    lhs = series_mul(series_pow_rational(a, p), series_pow_rational(a, q))
    rhs = series_pow_rational(a, p + q)
    assert lhs.agrees_with(rhs)


def test_pow_rational_fixture_values():
    a = QExpansion(0, [F(1), F(1), F(0), F(0)])
    half = series_pow_rational(a, F(1, 2))
    assert half.coeffs == (F(1), F(1, 2), F(-1, 8), F(1, 16))
    assert series_pow_rational(a, 0).coeffs == (F(1), F(0), F(0), F(0))


def test_pow_rational_geometric_round_trip():
    geom = QExpansion(0, [F(1)] * 8)  # 1/(1-q)
    inv = series_pow_rational(geom, -1)
    assert inv.coeffs == (F(1), F(-1)) + (F(0),) * 6


def test_pow_rational_rejects_non_unit():
    bad = QExpansion(0, [F(2), F(1)])
    with pytest.raises(ValueError):
        series_pow_rational(bad, F(1, 2))
    shifted = QExpansion(1, [F(1), F(1)])
    with pytest.raises(ValueError):
        series_pow_rational(shifted, F(1, 2))
    # non-negative integer powers are fine for those same inputs
    assert series_pow_rational(bad, 2).coeffs == (F(4), F(4))
    assert series_pow_rational(shifted, 2).leading_exponent == 2


@pytest.mark.parametrize(
    "series",
    [
        QExpansion(0, [F(1), F(-2), F(0), F(3, 4), F(0), F(-1, 5), F(7)]),  # unit constant: Miller
        QExpansion(F(1, 3), [F(2), F(1), F(-1, 2), F(0), F(5)]),  # not unit: binary powering
    ],
)
@pytest.mark.parametrize("n", [0, 1, 2, 5, 11])
def test_pow_rational_integer_powers_match_binary_powering(series, n):
    got = series_pow_rational(series, n)
    want = series**n
    assert got.leading_exponent == want.leading_exponent
    assert got.coeffs == want.coeffs
    assert got.order == want.order


_ALPHAS = [F(0), F(1, 3), F(-5, 7), F(7, 2), F(-3), F(24)]


def _v_unit(order):
    """The unit-constant part of 1728/(jq), a dense series with
    non-integer coefficients (the v of the hypergeometric generator)."""
    return QExpansion(0, tuple(c / 1728 for c in j_inverse(order).coeffs))


@pytest.mark.parametrize("alpha", _ALPHAS)
@pytest.mark.parametrize("base", ["euler", "v_unit"])
def test_pow_rational_equals_fraction_oracle(base, alpha):
    # the library holds b_m as integers over one denominator; the oracle
    # runs the same recurrence with a reduced Fraction per term
    series = euler_product(120) if base == "euler" else _v_unit(60)
    got = series_pow_rational(series, alpha)
    assert got == fraction_oracle.series_pow_rational(series, alpha)
    assert got.order == series.order


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=0, max_size=14),
    st.fractions(min_value=-40, max_value=40, max_denominator=30),
)
def test_pow_rational_equals_fraction_oracle_on_random_unit_series(tail, alpha):
    series = QExpansion(0, [F(1)] + tail)
    assert series_pow_rational(series, alpha) == fraction_oracle.series_pow_rational(series, alpha)


def test_order_zero_series_integer_powers():
    # an order-0 series knows no coefficients; its powers know none either
    empty = QExpansion(0, [])
    for got in (empty**2, series_pow_rational(empty, 2), empty**0, one(0)):
        assert got.order == 0
        assert got.coeffs == ()
    assert (QExpansion(F(1, 3), []) ** 2).leading_exponent == F(2, 3)


def test_series_div_round_trip():
    a = QExpansion(F(1, 4), [F(3), F(1), F(-2), F(5)])
    b = QExpansion(F(-1, 2), [F(2), F(7), F(1), F(0)])
    assert series_div(series_mul(a, b), b).agrees_with(a)


def test_series_div_rejects_zero_lead():
    num = one(3)
    den = QExpansion(0, [F(0), F(1), F(0)])
    with pytest.raises(ZeroDivisionError):
        series_div(num, den)


_leads = st.sampled_from([F(0), F(1, 3), F(-2), F(5, 4)])
_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(_coeffs, min_size=0, max_size=14),
    _coeffs.filter(lambda x: x != 0),
    st.lists(_coeffs, min_size=0, max_size=14),
    _leads,
    _leads,
)
def test_series_div_equals_fraction_oracle(a_coeffs, b0, b_tail, a_lead, b_lead):
    # Miller's reciprocal on ints against Fraction long division: any
    # non-zero b0, shifted leading exponents, unequal orders
    a = QExpansion(a_lead, a_coeffs)
    b = QExpansion(b_lead, [b0] + b_tail)
    got = series_div(a, b)
    assert got == fraction_oracle.series_div(a, b)
    assert got.order == min(a.order, b.order)


def test_j_inverse_equals_oracle_quotient():
    # 1728 eta^24 / E_4^3 by Fraction long division, with the integral
    # E_4 = 1 + 240 sum sigma_3(n) q^n from brute-force divisor sums
    big = 120
    e4 = QExpansion(0, [F(1)] + [F(240 * sigma_oracle(n, 3)) for n in range(1, big)])
    want = fraction_oracle.series_div(1728 * eta_power(24, big), e4**3)
    for n in range(1, big + 1):
        assert j_inverse(n) == want.truncate(n), n


# -- modular derivative ----------------------------------------------------


def test_derivative_annihilates_eta():
    eta = eta_power(1, 21)
    assert modular_derivative(eta, F(1, 2)).is_zero()


def test_derivative_weight_zero_constant():
    assert modular_derivative(one(5), 0).is_zero()


def test_derivative_ramanujan_identities():
    # classical weight-raising: D eis4 = 14 eis6, D eis6 = (60/7) eis4^2
    assert modular_derivative(eisenstein(4, 12), 4).agrees_with(14 * eisenstein(6, 11))
    assert modular_derivative(eisenstein(6, 12), 6).agrees_with(
        F(60, 7) * (eisenstein(4, 12) ** 2)
    )


@settings(max_examples=30, deadline=None)
@given(
    st.lists(small_fracs, min_size=3, max_size=5),
    st.lists(small_fracs, min_size=3, max_size=5),
    st.sampled_from([F(0), F(1, 2), F(2), F(-3, 7)]),
    st.sampled_from([F(0), F(1), F(4)]),
)
def test_derivative_is_a_derivation(ca, cb, wa, wb):
    a = QExpansion(F(1, 5), ca)
    b = QExpansion(F(2, 5), cb)
    lhs = modular_derivative(series_mul(a, b), wa + wb)
    rhs = series_mul(modular_derivative(a, wa), b.truncate(b.order - 1)) + series_mul(
        a.truncate(a.order - 1), modular_derivative(b, wb)
    )
    assert lhs.agrees_with(rhs)


def test_derivative_shrinks_order():
    f = eta_power(3, 10)
    assert modular_derivative(f, F(3, 2)).order == 9
    with pytest.raises(ValueError):
        modular_derivative(QExpansion(0, [F(1)]), 0)


# -- bookkeeping and serialization ----------------------------------------


def test_canonical_and_monic():
    f = QExpansion(F(1, 2), [F(0), F(0), F(3), F(6)])
    c = f.canonical()
    assert c.leading_exponent == F(5, 2)
    assert c.coeffs == (F(3), F(6))
    assert f.monic().coeffs == (F(1), F(2))


def test_immutability():
    f = one(3)
    with pytest.raises(AttributeError):
        f.order = 5


def test_json_round_trip():
    f = QExpansion(F(-5, 24), [F(1), F(-7, 3), F(0)])
    payload = f.to_json()
    assert payload == {"leading_exponent": "-5/24", "coeffs": ["1", "-7/3", "0"], "order": 3}
    # each string reads back as the Fraction it was written from
    assert QExpansion(F(payload["leading_exponent"]), map(F, payload["coeffs"])) == f


def test_fraction_codec():
    """JSON writes each Fraction as ``str`` does, an integer without a
    denominator, and ``Fraction`` reads it back."""
    f = QExpansion(F(3, 1), [F(3, 1), F(-7, 12)])
    assert f.to_json()["leading_exponent"] == "3"
    assert f.to_json()["coeffs"] == ["3", "-7/12"]


def test_float_refused():
    with pytest.raises(TypeError):
        QExpansion(0.5, [F(1)])


def test_float_coefficient_refused():
    # Fraction coefficients pass through as they are; every other type is
    # converted, so a float is still refused wherever it stands
    for coeffs in ([0.5], [F(1), 0.5], [1, F(1, 2), 0.25]):
        with pytest.raises(TypeError):
            QExpansion(F(0), coeffs)
    f = QExpansion(F(0), [1, F(1, 2), True])
    assert f.coeffs == (F(1), F(1, 2), F(1))
    assert all(type(c) is F for c in f.coeffs)


def test_internal_inconsistency_type():
    assert issubclass(InternalInconsistencyError, ArithmeticError)
