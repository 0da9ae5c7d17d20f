"""Cyclic generators: hypergeometric pieces, differential equations,
exponent structure, and the published-table comparison.

Two oracles judge the generator, which solves its differential equation
by a recurrence.  The hypergeometric construction of the library builds
the same components by another route, and must agree coefficient by
coefficient.  A Frobenius recursion here pins the annihilating monic
equation down by its indicial exponents alone (``mlde_oracle``) and
solves for each coefficient by applying the whole equation, with no
operator expansion and no hypergeometric machinery involved.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2onepoint import generator_checks, generators
from sl2onepoint.errors import DegenerateMldeError, UnsupportedDimensionError
from sl2onepoint.generator_checks import (
    FixtureReport,
    _component_factors,
    HypergeomSpec,
    generator_weight,
    hypergeom_series,
    hypergeometric_generator,
    minimal_exponents,
    mlde_residual,
    table_fixture_check,
)
from sl2onepoint.generators import (
    _indicial_kappas,
    _theta_form,
    cyclic_generator,
    mlde_equation,
    mlde_solutions,
)
from sl2onepoint.qseries import (
    QExpansion,
    eta_power,
    j_inverse,
    monomial,
    series_pow_rational,
    zero,
)
from sl2onepoint.repanalysis import minimal_admissible_set
from sl2onepoint.sl2data import conformal_weight, form_weight, leading_exponents, rho_t, xi_set

import fraction_oracle
from mlde_oracle import apply_monic_operator, indicial_kappas


# -- the Frobenius oracle -------------------------------------------------


def frobenius_solution(weight, exponents, exponent, nterms):
    """Unique power-series solution, with leading coefficient 1, of the
    monic modular equation of order len(exponents) whose indicial roots
    are ``exponents``, starting at q^exponent.

    The equation's coefficients are forced by matching the indicial
    polynomial against prod (x - exponent_i); each series coefficient is
    then solved linearly from the requirement that the residual vanish.
    """
    pad = nterms + len(exponents)
    kappas = indicial_kappas(weight, exponents)

    coeffs = [F(1)]
    for n in range(1, nterms):
        def residual_coeff(candidate):
            cs = coeffs + [candidate] + [F(0)] * (pad - n - 1)
            return apply_monic_operator(QExpansion(exponent, cs, pad), weight, kappas).coeffs[n]

        at0 = residual_coeff(F(0))
        slope = residual_coeff(F(1)) - at0
        coeffs.append(-at0 / slope)
    return QExpansion(exponent, coeffs, nterms), kappas


# -- hypergeometric series --------------------------------------------------


def test_hypergeom_zero_argument_is_one():
    spec = HypergeomSpec((F(1, 2), F(1, 3)), (F(5, 4),))
    out = hypergeom_series(spec, zero(4, leading_exponent=1), 4)
    assert out.coeffs == (F(1), F(0), F(0), F(0))


def test_hypergeom_geometric_series():
    spec = HypergeomSpec((F(1), F(1)), (F(1),))
    out = hypergeom_series(spec, monomial(1, 6), 6)
    assert out.coeffs == (F(1),) * 6


_hyper_params = st.fractions(-3, 3, max_denominator=6)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(_hyper_params, min_size=1, max_size=3),
    st.lists(_hyper_params.filter(lambda b: b.denominator != 1 or b > 0), min_size=1, max_size=2),
    st.integers(1, 3),
    st.fractions(-9, 9, max_denominator=12).filter(lambda x: x != 0),
    st.lists(st.fractions(-9, 9, max_denominator=12), max_size=14),
    st.integers(1, 14),
)
def test_hypergeom_series_equals_fraction_oracle(upper, lower, step, lead, tail, order):
    # the library sums ints over one denominator; the oracle sums Fraction
    # coefficients of Fraction Cauchy products, with arguments that have
    # non-integer coefficients and gaps of one to three exponents
    spec = HypergeomSpec(upper, lower)
    arg = QExpansion(step, ([lead] + tail + [F(0)] * order)[:order])
    got = hypergeom_series(spec, arg, order)
    assert got == fraction_oracle.hypergeom_series(spec, arg, order)
    assert got.order == order


@pytest.mark.parametrize("k, lam", [(3, 2), (5, 4), (4, 2), (10, 8)])
def test_hypergeom_of_j_inverse_equals_fraction_oracle(k, lam):
    # the generator's own compositions F(1728/j), component by component
    lambdas = minimal_exponents(k, lam)
    for i, lam_i in enumerate(lambdas):
        _, spec = _component_factors(lam_i, lambdas[:i] + lambdas[i + 1:])
        want = fraction_oracle.hypergeom_series(spec, j_inverse(25), 25)
        assert hypergeom_series(spec, j_inverse(25), 25) == want


def test_hypergeom_first_coefficients():
    spec = HypergeomSpec((F(-1, 24), F(7, 24)), (F(3, 4),))
    cs = spec.coefficients(3)
    assert cs[0] == 1
    assert cs[1] == F(-1, 24) * F(7, 24) / F(3, 4)


def test_hypergeom_rejects_bad_lower_parameter():
    with pytest.raises(ValueError):
        HypergeomSpec((F(1),), (F(0),))
    with pytest.raises(ValueError):
        HypergeomSpec((F(1),), (F(-3),))
    with pytest.raises(ValueError):
        HypergeomSpec((F(1),), (F(2),))._replace(lower=(F(0),))


def test_hypergeom_rejects_nonpositive_exponent():
    spec = HypergeomSpec((F(1),), (F(2),))
    with pytest.raises(ValueError):
        hypergeom_series(spec, monomial(0, 4), 4)
    with pytest.raises(ValueError):
        hypergeom_series(spec, monomial(-1, 4), 4)


def test_hypergeom_against_j_inverse_powers():
    # F(z) = 1/(1-z) composed with 1728/j equals the geometric sum directly
    spec = HypergeomSpec((F(1), F(1)), (F(1),))
    ji = j_inverse(6)
    lhs = hypergeom_series(spec, ji, 6)
    acc = monomial(0, 6)
    power = monomial(0, 6)
    for _ in range(5):
        power = power * ji
        acc = acc + power
    assert lhs.agrees_with(acc)


# -- generator structure ------------------------------------------------------


def test_dimension_one_is_eta_power():
    for k in range(0, 21, 2):
        gen = cyclic_generator(k, k, 12)
        assert gen.dimension == 1
        mu, series = gen.components[0]
        assert mu == k // 2
        assert series == eta_power(F(3 * k, 2), 12)


def test_generator_labels_and_exponents():
    for k, lam in [(3, 2), (4, 2), (7, 6), (10, 8), (13, 12), (2, 0)]:
        gen = cyclic_generator(k, lam, 6)
        assert [mu for mu, _ in gen.components] == xi_set(k, lam)
        exps = [s.leading_exponent for _, s in gen.components]
        assert exps == leading_exponents(k, lam)
        assert all(b > a for a, b in zip(exps, exps[1:]))
        assert all(s.coeffs[0] == 1 for _, s in gen.components)
        assert all(
            isinstance(c, F) for _, s in gen.components for c in s.coeffs
        )  # exact rationals end to end
        assert gen.form_weight == conformal_weight(k, lam) + F(lam, 2)


def test_generator_rejects_bad_input():
    with pytest.raises(ValueError):
        cyclic_generator(4, 3, 5)  # odd weight
    with pytest.raises(UnsupportedDimensionError):
        cyclic_generator(4, 0, 5)  # dimension 5
    with pytest.raises(ValueError):
        cyclic_generator(4, 6, 5)  # lambda > k
    with pytest.raises(ValueError):
        cyclic_generator(4, 2, 0)


def test_spec_weight_saturation_identity():
    # 12*(sum exponents)/d + 1 - d equals the insertion weight, d = 1, 2, 3
    for k, lam in [(2, 2), (3, 2), (5, 4), (4, 2), (8, 6)]:
        exps = leading_exponents(k, lam)
        d = len(exps)
        assert F(12) * sum(exps) / d + 1 - d == conformal_weight(k, lam) + F(lam, 2)


def test_rescaled_exponents_form_minimal_admissible_set():
    for k, lam in [(3, 2), (9, 8), (4, 2), (10, 8), (2, 2), (6, 6)]:
        exps = leading_exponents(k, lam)
        mu_min = exps[0]
        shifted = [x - mu_min for x in exps]
        assert shifted == minimal_exponents(k, lam)
        sig = rho_t(k, lam)
        adm = minimal_admissible_set(sig, conformal_weight(k, lam) - 12 * mu_min)
        assert list(adm.exponents) == shifted


def test_generator_weight_values():
    assert generator_weight(3, 2) == F(1, 2)
    assert generator_weight(13, 12) == F(1, 2)
    for k in (4, 6, 8, 10):
        assert generator_weight(k, k - 2) == F(k + 1, k + 2)
    assert generator_weight(8, 8) == 0


# -- Frobenius oracle comparison ----------------------------------------------


@pytest.mark.parametrize("k", [3, 5, 7])
def test_dimension_two_components_solve_the_unique_equation(k):
    order = 8
    gen = cyclic_generator(k, k - 1, order)
    mu_min = leading_exponents(k, k - 1)[0]
    eta_down = eta_power(-24 * mu_min, order)
    w = generator_weight(k, k - 1)
    for lam_i, (_, comp) in zip(minimal_exponents(k, k - 1), gen.components):
        want, kappas = frobenius_solution(w, minimal_exponents(k, k - 1), lam_i, order)
        got = eta_down * comp
        assert got.agrees_with(want)
        assert kappas == (F(-25, 4),)


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10])
def test_dimension_three_components_solve_the_unique_equation(k):
    order = 8
    gen = cyclic_generator(k, k - 2, order)
    mu_min = leading_exponents(k, k - 2)[0]
    eta_down = eta_power(-24 * mu_min, order)
    w = generator_weight(k, k - 2)
    exps = minimal_exponents(k, k - 2)
    for lam_i, (_, comp) in zip(exps, gen.components):
        want, kappas = frobenius_solution(w, exps, lam_i, order)
        got = eta_down * comp
        assert got.agrees_with(want)
    assert mlde_equation(k, k - 2)[1] == kappas


def test_deep_order_agrees_with_frobenius():
    # order bookkeeping regression: 16 coefficients, both routes
    k, order = 4, 16
    gen = cyclic_generator(k, k - 2, order)
    mu_min = leading_exponents(k, k - 2)[0]
    eta_down = eta_power(-24 * mu_min, order)
    exps = minimal_exponents(k, k - 2)
    w = generator_weight(k, k - 2)
    want, _ = frobenius_solution(w, exps, exps[0], order)
    assert (eta_down * gen.components[0][1]).agrees_with(want)


# -- the recurrence against the hypergeometric construction ---------------------


@pytest.mark.parametrize(
    "k, lam", [(k, k - 1) for k in range(3, 14, 2)] + [(k, k - 2) for k in range(2, 13, 2)]
)
def test_recurrence_equals_hypergeometric_construction(k, lam):
    fast = cyclic_generator(k, lam, 30)
    slow = hypergeometric_generator(k, lam, 30)
    assert fast == slow
    assert all(series.order == 30 for _, series in fast.components)


_RECURRENCE_CASES = [(k, k - 1) for k in range(3, 14, 2)] + [(k, k - 2) for k in range(2, 13, 2)]


@pytest.mark.parametrize("order", [1, 120])
@pytest.mark.parametrize("k, lam", _RECURRENCE_CASES)
def test_integer_recurrence_equals_fraction_oracle(k, lam, order):
    # the library holds c_n as ints over the lcm of their reduced
    # denominators; the oracle sums in Fraction, with its kappas from
    # mlde_oracle rather than the library
    weight = conformal_weight(k, lam) + F(lam, 2)
    exponents = leading_exponents(k, lam)
    want = fraction_oracle.mlde_solutions(
        weight, exponents, indicial_kappas(weight, exponents), order
    )
    assert mlde_solutions(weight, exponents, order) == want


def _non_resonant(exponents):
    return all((a - b).denominator != 1 for i, a in enumerate(exponents) for b in exponents[:i])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(-2, 2, max_denominator=30), min_size=2, max_size=3).filter(
        _non_resonant
    ),
    st.integers(1, 30),
)
def test_integer_recurrence_equals_fraction_oracle_for_any_exponents(exponents, order):
    # the weight that the exponents' sum fixes: 12 sum/d - (d - 1)
    d = len(exponents)
    weight = 12 * sum(exponents) / d - (d - 1)
    want = fraction_oracle.mlde_solutions(
        weight, exponents, indicial_kappas(weight, exponents), order
    )
    assert mlde_solutions(weight, exponents, order) == want


@pytest.mark.parametrize("k, lam", [(3, 2), (13, 12), (2, 0), (12, 10)])
def test_integer_theta_form_equals_fraction_oracle(k, lam):
    weight, kappas = mlde_equation(k, lam)
    ops = _theta_form(weight, kappas, 40)
    den = ops[-1][0]
    want = fraction_oracle.theta_form(weight, kappas, 40)
    assert [[F(x, den) for x in a] for a in ops] == [list(a.coeffs) for a in want]
    # one least common denominator, and a monic top coefficient
    assert math.gcd(den, *(x for a in ops for x in a)) == 1
    assert ops[-1] == [den] + [0] * 39


@pytest.mark.parametrize(
    "weight, exponents",
    [
        (5, [F(0), F(1)]),  # order two: 2 * 5/12 + 1/6 = 0 + 1
        (F(22, 3), [F(0), F(1, 3), F(2)]),  # order three: exponents 0 and 2
    ],
)
def test_resonant_exponents_are_refused(weight, exponents):
    with pytest.raises(DegenerateMldeError):
        mlde_solutions(weight, exponents, 4)


def test_solutions_need_exponents_matching_the_weight():
    with pytest.raises(ValueError):
        mlde_solutions(1, [F(0), F(1, 4)], 4)


def test_hypergeometric_construction_covers_dimensions_two_and_three():
    with pytest.raises(UnsupportedDimensionError):
        hypergeometric_generator(4, 4, 5)
    with pytest.raises(UnsupportedDimensionError):
        mlde_equation(4, 4)


def test_equation_kappas_match_the_oracle():
    # the eta factor shifts weight and exponents together, so the rescaled
    # data of mlde_oracle give the same kappas
    for k, lam in [(3, 2), (9, 8), (2, 0), (4, 2), (12, 10)]:
        _, kappas = mlde_equation(k, lam)
        assert kappas == indicial_kappas(generator_weight(k, lam), minimal_exponents(k, lam))


def test_mlde_equation_is_one_shared_immutable_value(monkeypatch):
    """Cached by (k, lam): an equal value every call, the same object, and
    nothing in it that a caller could change.  The generator solves with
    the cached kappas and derives none of its own."""
    for k, lam in [(3, 2), (13, 12), (4, 2), (10, 8)]:
        first = mlde_equation(k, lam)
        weight, kappas = first
        assert first == (form_weight(k, lam), _indicial_kappas(weight, leading_exponents(k, lam)))
        assert mlde_equation(k, lam) is first
        assert type(first) is tuple and type(kappas) is tuple
        assert all(type(x) is F for x in (weight, *kappas))
        want = mlde_solutions(weight, leading_exponents(k, lam), 12)

        def refuse(*args):
            raise AssertionError("kappas re-derived")

        with monkeypatch.context() as m:
            m.setattr(generators, "_indicial_kappas", refuse)
            gen = cyclic_generator(k, lam, 12)
            assert mlde_equation(k, lam) is first
        assert [series for _, series in gen.components] == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(-2, 2, max_denominator=48), min_size=2, max_size=3))
def test_indicial_kappas_equal_the_oracle_for_any_exponents(exponents):
    # the weight that the exponents' sum fixes: 12 sum/d - (d - 1)
    d = len(exponents)
    weight = 12 * sum(exponents) / d - (d - 1)
    assert _indicial_kappas(weight, exponents) == indicial_kappas(weight, exponents)


@pytest.mark.parametrize("exponents", [[F(0)], [F(0), F(1, 4), F(1, 2), F(3, 4)]])
def test_indicial_kappas_refuse_orders_without_forms(exponents):
    d = len(exponents)
    with pytest.raises(UnsupportedDimensionError):
        _indicial_kappas(12 * sum(exponents) / d - (d - 1), exponents)


# -- differential equation residuals -------------------------------------------


def test_mlde_residuals_dimension_two():
    for k in (3, 5, 9, 13):
        residuals = mlde_residual(k, k - 1, 8)
        assert len(residuals) == 2
        assert all(r.is_zero() for r in residuals)
        assert all(r.order == 6 for r in residuals)


def test_mlde_residuals_dimension_three():
    for k in (4, 6, 10):
        residuals = mlde_residual(k, k - 2, 8)
        assert len(residuals) == 3
        assert all(r.is_zero() for r in residuals)
        assert all(r.order == 5 for r in residuals)


def test_mlde_rejects_dimension_one():
    with pytest.raises(UnsupportedDimensionError):
        mlde_residual(4, 4, 8)
    with pytest.raises(ValueError):
        mlde_residual(3, 2, 3)


# -- the equation applied on integer lists, against the composed oracle --------


def _verify_mlde_inputs():
    """The 48 (series, weight, kappas) that ``verify`` applies the monic
    equations to: the components of its mlde suite's ten generators, at
    that suite's orders, and the 24 published series."""
    inputs = []
    for shift, levels, order in ((1, range(3, 14, 2), 12), (2, range(4, 11, 2), 13)):
        for k in levels:
            weight, kappas = mlde_equation(k, k - shift)
            inputs += [(comp, weight, kappas) for _, comp in cyclic_generator(k, k - shift, order).components]
    for table, k, comps in generator_checks._published_tables():
        weight, kappas = mlde_equation(k, k - (1 if table == "table1" else 2))
        inputs += [(series, weight, kappas) for _, series in comps]
    return inputs


def test_integer_mlde_application_equals_the_oracle_on_verify_inputs():
    inputs = _verify_mlde_inputs()
    assert len(inputs) == 48
    for f, weight, kappas in inputs:
        assert generator_checks._apply_mlde(f, weight, kappas) == apply_monic_operator(f, weight, kappas)


@settings(max_examples=80, deadline=None)
@given(
    st.fractions(-3, 3, max_denominator=24),
    st.integers(4, 20).flatmap(
        lambda n: st.lists(st.fractions(-10**6, 10**6, max_denominator=10**4), min_size=n, max_size=n)
    ),
    st.fractions(-12, 12, max_denominator=12),
    st.integers(2, 3).flatmap(
        lambda d: st.lists(st.fractions(-10**4, 10**4, max_denominator=10**3), min_size=d - 1, max_size=d - 1)
    ),
)
def test_integer_mlde_application_equals_the_oracle(exponent, coeffs, weight, kappas):
    # any exponent p/r, numerators and denominators, orders 4-20, d = 2 and 3
    f = QExpansion(exponent, coeffs)
    got = generator_checks._apply_mlde(f, weight, tuple(kappas))
    assert got == apply_monic_operator(f, weight, tuple(kappas))
    assert got.order == f.order - len(kappas) - 1


@pytest.mark.parametrize("d", [2, 3])
def test_integer_mlde_application_refuses_series_of_order_at_most_d(d):
    kappas = (F(-25, 4), F(3))[: d - 1]
    for order in range(d + 1):
        f = QExpansion(F(1, 4), [F(1)] * order)
        with pytest.raises(ValueError):
            generator_checks._apply_mlde(f, F(1, 2), kappas)
        with pytest.raises(ValueError):  # as the composition refuses it
            apply_monic_operator(f, F(1, 2), kappas)
    assert generator_checks._apply_mlde(QExpansion(F(1, 4), [F(1)] * (d + 1)), F(1, 2), kappas).order == 1


def test_powers_of_j_inverse_are_built_once_per_order():
    # every component of every generator at one order shares its powers of 1728/j
    generator_checks._powers.cache_clear()
    try:
        for k, lam in ((10, 8), (4, 2), (9, 8)):
            hypergeometric_generator(k, lam, 13)
        info = generator_checks._powers.cache_info()
    finally:
        generator_checks._powers.cache_clear()
    assert (info.misses, info.hits) == (1, 7)


def test_dim3_kappa_indicial_roots():
    # the solved coefficients reproduce the exponents as indicial roots
    for k in (4, 6, 8, 10):
        kappa1, kappa2 = mlde_equation(k, k - 2)[1]
        w = generator_weight(k, k - 2)
        shifts = [w / 12, (w + 2) / 12, (w + 4) / 12]
        for lam in minimal_exponents(k, k - 2):
            value = (
                (lam - shifts[0]) * (lam - shifts[1]) * (lam - shifts[2])
                + kappa1 * F(1, 720) * (lam - shifts[0])
                - kappa2 * F(1, 30240)
            )
            assert value == 0


# -- published tables -----------------------------------------------------------


def test_table1_matches_exactly():
    report = table_fixture_check("table1")
    assert isinstance(report, FixtureReport)
    assert len(report.entries) == 12
    assert report.all_passed
    by_key = {(e.level, e.mu): e for e in report.entries}
    assert by_key[(13, 7)].got_coeffs[4] == F(309009, 625)


def _table2_construction(k, column, slip, order=5):
    """Column 0 or 1 of the three-component generator at level k, built as
    eta^E * q^c * v^c * 3F2(1728/j) with its parameters written out from
    the exponents {0, l1, 1/2}, l1 = (k+1)/(4(k+2)).

    With ``slip`` one parameter set takes a wrong value: in column 0 the
    upper parameters c+1/3 and c+2/3 are raised by 5k/(24(k+2)); in
    column 1 the lower parameter l1+1/2 = (3k+5)/(4(k+2)) is replaced by
    5/8, its value at k = 0.
    """
    l1 = F(k + 1, 4 * (k + 2))
    if column == 0:
        c = -l1 / 3
        raise_by = F(5 * k, 24 * (k + 2)) if slip else 0
        spec = HypergeomSpec(
            (c, c + F(1, 3) + raise_by, c + F(2, 3) + raise_by), (1 - l1, F(1, 2))
        )
    else:
        c = 2 * l1 / 3
        spec = HypergeomSpec(
            (c, c + F(1, 3), c + F(2, 3)), (l1 + 1, F(5, 8) if slip else l1 + F(1, 2))
        )
    eta_expo = 24 * leading_exponents(k, k - 2)[0] + 2 * generator_weight(k, k - 2)
    jinv = j_inverse(order)
    v_unit = QExpansion(0, tuple(x / 1728 for x in jinv.coeffs), order)
    return (
        eta_power(eta_expo, order)
        * monomial(c, order)
        * series_pow_rational(v_unit, c)
        * hypergeom_series(spec, jinv, order)
    )


def test_table2_known_discrepancy_pattern():
    """The three-component table's first two columns are known to disagree
    with the computed generator: the published expansions do not solve the
    annihilating equation (criterion 2 shows their residuals), while the
    computed ones do (verified against the Frobenius oracle above).  The
    third column agrees.  This test freezes that exact failure pattern so
    any drift in either direction is caught, and checks its cause: every
    disagreeing entry is the generator's own construction with one
    parameter set wrongly, and the same construction without the slip is
    the computed entry."""
    report = table_fixture_check("table2")
    assert len(report.entries) == 12
    failed = {(e.level, e.mu) for e in report.entries if not e.passed}
    assert failed == {
        (4, 1), (4, 2), (6, 2), (6, 3), (8, 3), (8, 4), (10, 4), (10, 5)
    }
    for e in report.entries:
        assert e.expected_exponent == e.got_exponent  # exponents always agree
        if e.passed:
            assert e.mu == e.level // 2 + 1  # the largest label in each triple
        else:
            column = e.mu - (e.level // 2 - 1)
            slipped = _table2_construction(e.level, column, slip=True)
            assert slipped.leading_exponent == e.expected_exponent
            assert slipped.coeffs == e.expected_coeffs
            assert _table2_construction(e.level, column, slip=False).coeffs == e.got_coeffs


def test_table_fixture_rejects_unknown_table(monkeypatch):
    # before it reads the fixture file
    def unread():
        raise AssertionError("the fixture file was read for an unknown table")

    monkeypatch.setattr(generator_checks, "_published_tables", unread)
    with pytest.raises(ValueError, match="unknown table 'table3'"):
        table_fixture_check("table3")


def test_table_fixtures_are_parsed_once_and_shared_immutable(monkeypatch):
    parsed = []
    real = generator_checks.json.loads
    monkeypatch.setattr(generator_checks.json, "loads", lambda text: parsed.append(1) or real(text))
    generator_checks._published_tables.cache_clear()
    try:
        reports = [table_fixture_check(which) for which in ("table1", "table2", "table1")]
        assert len(parsed) == 1
    finally:
        generator_checks._published_tables.cache_clear()
    assert reports[0] == reports[2]
    assert [len(r.entries) for r in reports] == [12, 12, 12]
    # what every caller shares holds no dict or list: it hashes
    hash(generator_checks._published_tables())


def test_fixture_report_serialises():
    payload = table_fixture_check("table1").to_json()
    assert payload["all_passed"] is True
    assert payload["entries"][0]["expected_coeffs"][0] == "1"


def test_generators_resolves_the_moved_names_lazily():
    """Of the public names that moved to ``generator_checks``, ``generators``
    still resolves exactly the three the benchmark's tracer looks up, as the
    same objects; every other spelling raises ``AttributeError``."""
    pinned = {"hypergeom_series", "mlde_residual", "table_fixture_check"}
    moved = [name for name in generators.__all__ if name not in vars(generators)]
    assert sorted(moved) == sorted(pinned)
    for name in moved:
        assert getattr(generators, name) is getattr(generator_checks, name)
    from sl2onepoint.generators import table_fixture_check as via_generators

    assert via_generators is table_fixture_check
    for name in sorted(set(generator_checks.__all__) - pinned):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(generators, name)
    # the imports only the moved code used are gone, and private helpers stay put
    with pytest.raises(AttributeError, match="has no attribute 'j_inverse'"):
        generators.j_inverse
    assert not hasattr(generators, "_published_tables")
    assert not hasattr(generators, "no_such_name")
