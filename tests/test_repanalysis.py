"""Admissible sets, graded dimensions, T-orders, irreducibility and the
congruence rule engine."""

from fractions import Fraction as F
from itertools import combinations

import pytest

from sl2onepoint.errors import UnsupportedDimensionError
from sl2onepoint.repanalysis import (
    CONGRUENCE,
    INCONCLUSIVE,
    IRREDUCIBLE,
    NONCONGRUENCE,
    NONCONGRUENCE_ORDER_BOUND,
    UNDETERMINED,
    CongruenceVerdict,
    congruence_classify,
    graded_dimension,
    hp_coefficient,
    irreducibility_subproduct_test,
    minimal_admissible_set,
    prime_power_parameters,
    prime_power_rule_applies,
    t_order,
    weight_lower_bound,
)
from sl2onepoint.sl2data import RepSignature, conformal_weight, leading_exponents, rho_t


# -- admissible sets -------------------------------------------------------


def shifted_weight(k, lam):
    return conformal_weight(k, lam) - 12 * leading_exponents(k, lam)[0]


def test_minimal_admissible_dimension_two():
    for k in (3, 5, 11, 25):
        adm = minimal_admissible_set(rho_t(k, k - 1), shifted_weight(k, k - 1))
        assert adm.exponents == (F(0), F(1, 4))


def test_minimal_admissible_dimension_three():
    for k in (2, 4, 6, 10):
        adm = minimal_admissible_set(rho_t(k, k - 2), shifted_weight(k, k - 2))
        assert adm.exponents == (F(0), F(k + 1, 4 * (k + 2)), F(1, 2))


def test_minimal_admissible_integral_inputs():
    sig = RepSignature(
        level=0, lam=0, dimension=3, t_exponents=(F(1), F(-2), F(5)), multiplier_weight=F(0)
    )
    adm = minimal_admissible_set(sig, 0)
    assert adm.exponents == (F(0), F(0), F(0))


def test_minimal_admissible_range_and_shift():
    for k in range(0, 11):
        for lam in range(0, k + 1, 2):
            sig = rho_t(k, lam)
            mw = shifted_weight(k, lam)
            adm = minimal_admissible_set(sig, mw)
            m = mw % 12
            for x, r in zip(adm.exponents, sig.t_exponents):
                assert 0 <= x < 1
                assert (x - (r + m / 12)).denominator == 1


# -- weight bound ------------------------------------------------------------


def test_weight_lower_bound_fixture_values():
    assert weight_lower_bound([F(0), F(1, 4)]) == F(1, 2)
    assert weight_lower_bound([F(0), F(5, 24), F(1, 2)]) == F(5, 6)
    assert weight_lower_bound([F(0)]) == 0
    with pytest.raises(ValueError):
        weight_lower_bound([])


def test_weight_lower_bound_dim3_closed_form():
    for k in (2, 4, 8, 20):
        exps = [F(0), F(k + 1, 4 * (k + 2)), F(1, 2)]
        assert weight_lower_bound(exps) == F(k + 1, k + 2)


# -- Hilbert-Poincare coefficients --------------------------------------------


def hp_oracle(d, n):
    """Count n = 2a + 4b + 6c representations, minus the same count for
    n - 2d (the numerator's second term)."""

    def partitions(m):
        if m < 0:
            return 0
        return sum(
            1
            for a in range(m // 2 + 1)
            for b in range((m - 2 * a) // 4 + 1)
            if (m - 2 * a - 4 * b) % 6 == 0
        )

    return partitions(n) - partitions(n - 2 * d)


def test_hp_fixture_values():
    assert hp_coefficient(1, 2) == 0
    assert hp_coefficient(1, 12) == 2
    assert hp_coefficient(2, 6) == 2
    assert hp_coefficient(3, 8) == 3


def test_hp_against_counting_oracle():
    for d in (1, 2, 3, 4):
        for n in range(40):
            assert hp_coefficient(d, n) == hp_oracle(d, n)


def hp_by_recurrence(d, n):
    """Coefficient n of (1 - t^{2d}) / ((1-t^2)(1-t^4)(1-t^6)) from a
    series of n + 1 terms of its own."""
    coeffs = [1] + [0] * n
    if 2 * d <= n:
        coeffs[2 * d] = -1
    for p in (2, 4, 6):
        for m in range(p, n + 1):
            coeffs[m] += coeffs[m - p]
    return coeffs[n]


def test_hp_tables_equal_the_per_degree_recurrence():
    for d in range(1, 7):
        for n in range(121):
            assert hp_coefficient(d, n) == hp_by_recurrence(d, n)
    assert hp_coefficient(2, 1000) == hp_by_recurrence(2, 1000)


def test_hp_monotone_along_parity():
    # non-decreasing along parity classes for ranks 2 and 3; the rank-1
    # sequence dips at every n = 2 (mod 12) (its floor(n/12) branch), so
    # there monotonicity only holds along residue classes mod 12
    for d in (2, 3):
        for n in range(2, 61):
            assert hp_coefficient(d, n) >= hp_coefficient(d, n - 2)
    for n in range(12, 61):
        assert hp_coefficient(1, n) >= hp_coefficient(1, n - 12)
    for n in range(2, 61, 12):
        assert hp_coefficient(1, n) == n // 12  # the dip values


def test_hp_input_validation():
    with pytest.raises(ValueError):
        hp_coefficient(0, 3)
    with pytest.raises(ValueError):
        hp_coefficient(2, -1)


# -- graded dimensions ----------------------------------------------------------


def test_graded_dimension_fixture_values():
    assert graded_dimension(6, 6, 14) == 1
    assert graded_dimension(3, 2, 6) == 2
    assert graded_dimension(4, 2, 3) == 0


def test_graded_dimension_equals_hp():
    for d, kmin in ((1, 2), (2, 3), (3, 4)):
        for k in range(kmin, 21):
            lam = k - d + 1
            if lam % 2 != 0:
                continue
            for n in range(61):
                assert graded_dimension(k, lam, n) == hp_coefficient(d, n)


def test_graded_dimension_guards():
    with pytest.raises(UnsupportedDimensionError):
        graded_dimension(8, 2, 4)
    with pytest.raises(UnsupportedDimensionError):
        graded_dimension(2, 0, 4)  # dim 3 needs k >= 4


def test_graded_dimension_rejects_bad_labels():
    # an odd lambda has no self-couplings; lambda > k and a negative level
    # are no labels: invalid input, not an unsupported dimension
    for args in ((5, 3, 4), (1, 3, 0), (-1, 0, 0)):
        with pytest.raises(ValueError):
            graded_dimension(*args)


# -- T-order ----------------------------------------------------------------------


def test_t_order_fixture_values():
    assert t_order(4, 2) == 72
    assert t_order(6, 4) == 32
    assert t_order(24, 24) == 1


def test_t_order_closed_form_sweep():
    for k in range(4, 101, 2):
        want = 12 * (k + 2) if k % 6 == 4 else 4 * (k + 2)
        assert t_order(k, k - 2) == want


def test_t_order_dimension_one():
    for k in range(0, 49, 2):
        assert t_order(k, k) == F(k, 24).denominator
        assert (t_order(k, k) == 1) == (k % 24 == 0)


# -- irreducibility ------------------------------------------------------------------


def test_subproduct_test_fixture_values():
    assert irreducibility_subproduct_test(rho_t(3, 2)) == IRREDUCIBLE
    assert irreducibility_subproduct_test(rho_t(4, 2)) == IRREDUCIBLE
    assert irreducibility_subproduct_test(rho_t(5, 2)) == INCONCLUSIVE


def test_subproduct_sweeps():
    for k in range(3, 100, 2):
        assert irreducibility_subproduct_test(rho_t(k, k - 1)) == IRREDUCIBLE
    for k in range(4, 101, 2):
        assert irreducibility_subproduct_test(rho_t(k, k - 2)) == IRREDUCIBLE


def subproduct_by_enumeration(sig):
    """The subproduct criterion by enumerating every non-empty proper subset."""
    exps = sig.t_exponents
    for size in range(1, len(exps)):
        for subset in combinations(exps, size):
            if (12 * sum(subset)).denominator == 1:
                return INCONCLUSIVE
    return IRREDUCIBLE


def test_subproduct_residues_equal_enumeration():
    cases = [(k, lam) for k in range(60) for lam in range(0, k + 1, 2) if k - lam < 14]
    assert len(cases) == 378
    for k, lam in cases:
        sig = rho_t(k, lam)
        assert irreducibility_subproduct_test(sig) == subproduct_by_enumeration(sig), (k, lam)


def test_subproduct_decides_large_dimension():
    assert irreducibility_subproduct_test(rho_t(24, 2)) == INCONCLUSIVE  # dimension 23


# -- congruence rule engine ------------------------------------------------------------


def test_congruence_dimension_one():
    verdict = congruence_classify(8, 8)
    assert verdict.status == CONGRUENCE
    assert verdict.basis == "thm-dim1"
    assert verdict.congruence_level is None


def test_congruence_dimension_two_levels():
    for k in range(3, 26, 2):
        verdict = congruence_classify(k, k - 1)
        assert verdict.status == CONGRUENCE
        want = 8 if k % 3 == 2 else 24
        assert verdict.congruence_level == want
    assert congruence_classify(5, 4).congruence_level == 8
    assert congruence_classify(3, 2).congruence_level == 24


def test_congruence_dimension_three_divisibility():
    # derived by exact sweep: noncongruence exactly when the T-order has a
    # prime factor outside {2,3,5,7} or an excessive prime power
    noncongruence_levels = []
    for k in range(4, 201, 2):
        verdict = congruence_classify(k, k - 2)
        order = t_order(k, k - 2)
        expect_non = NONCONGRUENCE_ORDER_BOUND % order != 0
        assert (verdict.status == NONCONGRUENCE) == expect_non
        if expect_non:
            noncongruence_levels.append(k)
            assert verdict.basis == "thm-dim3-order"
        else:
            assert verdict.status == UNDETERMINED
    # frozen sweep fixtures
    assert 20 in noncongruence_levels  # order 88 = 2^3 * 11
    assert 4 not in noncongruence_levels  # order 72 divides the bound
    assert 34 not in noncongruence_levels  # order 432 = 2^4 * 27 divides
    assert len(noncongruence_levels) == 57
    assert noncongruence_levels[:6] == [20, 24, 32, 36, 42, 44]
    assert noncongruence_levels[-3:] == [192, 196, 200]


def test_congruence_prime_power_rule():
    assert prime_power_parameters(5) == (7, 1)
    assert prime_power_parameters(3) == (5, 1)
    assert prime_power_parameters(23) == (5, 2)
    assert prime_power_parameters(4) is None  # 6 is not a prime power
    assert prime_power_parameters(2) is None  # 4 = 2^2 has p = 2
    assert prime_power_parameters(7) is None  # 9 = 3^2 has p = 3
    assert prime_power_rule_applies(5, 2)
    assert prime_power_rule_applies(23, 24) is False  # lambda > k
    assert prime_power_rule_applies(23, 2)  # t=2, lambda+1 = 3 > 5^0 = 1
    assert prime_power_rule_applies(123, 2) is False  # t=3, 3 <= 5^1
    assert prime_power_rule_applies(123, 6)  # t=3, 7 > 5
    assert prime_power_rule_applies(5, 0) is False  # lambda must be >= 2


def test_congruence_undetermined_cases():
    verdict = congruence_classify(5, 2)
    assert verdict.status == UNDETERMINED
    assert verdict.basis == "thm-prime-power-conditional"
    verdict = congruence_classify(9, 2)  # k+2 = 11 prime, dim 8, subproduct check
    assert verdict.status in (NONCONGRUENCE, UNDETERMINED)
    verdict = congruence_classify(10, 2)  # k+2 = 12 not a prime power
    assert verdict.status == UNDETERMINED
    assert verdict.basis == "no-rule"
    # k+2 = 25 = 5^2, the rule applies, and the subproduct test is
    # inconclusive in dimension 22
    verdict = congruence_classify(23, 2)
    assert verdict.status == UNDETERMINED
    assert verdict.basis == "thm-prime-power-conditional"


def test_congruence_rule_order_shields_dim_two():
    # k = 3 = 5 - 2 sits in the prime-power family, but the sharp
    # two-dimensional result wins by rule order
    verdict = congruence_classify(3, 2)
    assert verdict.status == CONGRUENCE
    assert verdict.basis == "thm-dim2-level24"


def test_verdict_invariants():
    with pytest.raises(ValueError):
        CongruenceVerdict(NONCONGRUENCE, 8, "bad")
    with pytest.raises(ValueError):
        CongruenceVerdict(NONCONGRUENCE, None, "bad")._replace(congruence_level=8)
    payload = congruence_classify(5, 4).to_json()
    assert payload == {"status": "congruence", "congruence_level": 8, "basis": "thm-dim2-level8"}


def test_congruence_input_validation():
    with pytest.raises(ValueError):
        congruence_classify(5, 3)
    with pytest.raises(ValueError):
        congruence_classify(3, 4)
