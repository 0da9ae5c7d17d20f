"""Level/weight bookkeeping: fusion rules, label sets, exponents,
T-action data and multipliers; the holomorphy and saturation
classification built on them (``repanalysis``), and the leading trace
sum (``mlde_oracle``)."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2onepoint.errors import UnsupportedDimensionError
from sl2onepoint.repanalysis import (
    HOLOMORPHIC_EQUAL,
    HOLOMORPHIC_PROPER,
    WEAKLY_ONLY,
    holomorphy_classify,
    saturation_check,
    weight_lower_bound,
)
from sl2onepoint.sl2data import (
    central_charge,
    conformal_weight,
    fusion_coefficient,
    leading_exponents,
    multiplier,
    rep_dimension,
    rho_t,
    xi_set,
)

from mlde_oracle import leading_trace_sum


def test_level_data_basic():
    c = central_charge(3)
    weights = [conformal_weight(3, mu) for mu in range(4)]
    assert c == F(9, 5)
    assert weights == [F(0), F(3, 20), F(2, 5), F(3, 4)]
    assert weights[0] == 0
    assert all(b > a for a, b in zip(weights, weights[1:]))
    assert c < 3


# -- fusion ---------------------------------------------------------------


def test_fusion_fixture_values():
    assert fusion_coefficient(2, 1, 1, 1) == 0  # parity fails
    assert fusion_coefficient(2, 2, 1, 1) == 1
    for k in range(0, 7):
        for mu in range(k + 1):
            assert fusion_coefficient(k, 0, mu, mu) == 1


def test_fusion_rejects_out_of_range():
    with pytest.raises(ValueError):
        fusion_coefficient(2, 3, 0, 0)
    with pytest.raises(ValueError):
        fusion_coefficient(2, 0, -1, 0)


def test_fusion_symmetry_and_unit():
    for k in range(0, 7):
        for a in range(k + 1):
            for b in range(k + 1):
                for c in range(k + 1):
                    assert fusion_coefficient(k, a, b, c) == fusion_coefficient(k, b, a, c)
                assert fusion_coefficient(k, a, 0, b) == (1 if a == b else 0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=6))
def test_fusion_associativity(k):
    labels = range(k + 1)
    for lam in labels:
        for mu in labels:
            for nu in labels:
                for rho in labels:
                    lhs = sum(
                        fusion_coefficient(k, lam, mu, s) * fusion_coefficient(k, s, nu, rho)
                        for s in labels
                    )
                    rhs = sum(
                        fusion_coefficient(k, lam, s, rho) * fusion_coefficient(k, mu, nu, s)
                        for s in labels
                    )
                    assert lhs == rhs


# -- label sets and exponents ----------------------------------------------


def test_xi_set_fixture_values():
    assert xi_set(3, 2) == [1, 2]
    assert xi_set(5, 3) == []
    assert xi_set(4, 2) == [1, 2, 3]
    for k in range(0, 13):
        for lam in range(0, k + 1, 2):
            assert len(xi_set(k, lam)) == k - lam + 1


def test_xi_set_refuses_a_level_whose_labels_cannot_be_listed():
    # 2^63 labels or more overflow range before anything is allocated (the
    # command line reports it as invalid input); a huge level with a label
    # near it still has its few labels
    with pytest.raises(OverflowError):
        xi_set(10**20, 0)
    assert xi_set(10**20, 10**20 - 2) == [10**20 // 2 - 1, 10**20 // 2, 10**20 // 2 + 1]


def test_xi_set_matches_fusion_sweep():
    for k in range(0, 9):
        for lam in range(k + 1):
            sweep = [mu for mu in range(k + 1) if fusion_coefficient(k, lam, mu, mu) == 1]
            assert xi_set(k, lam) == sweep


def test_leading_exponents_fixture_values():
    assert leading_exponents(3, 2) == [F(3, 40), F(13, 40)]
    assert leading_exponents(4, 2) == [F(1, 24), F(1, 4), F(13, 24)]
    assert leading_exponents(2, 2) == [F(1, 8)]


def test_leading_exponents_formula_and_monotone():
    for k in range(0, 16):
        for lam in range(0, k + 1, 2):
            exps = leading_exponents(k, lam)
            for mu, x in zip(xi_set(k, lam), exps):
                assert x == F(2 * mu * mu + 4 * mu - k, 8 * (k + 2))
            assert all(b > a for a, b in zip(exps, exps[1:]))


def test_leading_exponents_rejects_odd():
    with pytest.raises(ValueError):
        leading_exponents(5, 3)


def test_rep_dimension_is_the_one_label_gate():
    assert [rep_dimension(6, lam) for lam in (0, 2, 4, 6)] == [7, 5, 3, 1]
    for k in range(9):
        for lam in range(0, k + 1, 2):
            assert rho_t(k, lam).dimension == rep_dimension(k, lam) == len(xi_set(k, lam))
    for k, lam in ((5, 3), (1, 3), (-1, 0), (4, -2)):
        with pytest.raises(ValueError):
            rep_dimension(k, lam)


# -- T-action ---------------------------------------------------------------


def test_rho_t_fixture_values():
    assert rho_t(3, 2).t_exponents == (F(1, 24), F(7, 24))
    assert rho_t(4, 2).t_exponents == (F(1, 72), F(2, 9), F(37, 72))
    for k in range(0, 26, 2):
        assert rho_t(k, k).t_exponents == (F(k, 24),)


def test_rho_t_dimension_two_closed_form():
    for k in range(1, 20, 2):
        sig = rho_t(k, k - 1)
        mods = [x for x, _ in sig.t_exponents_mod1()]
        assert mods == [F(k - 2, 24) % 1, F(k + 4, 24) % 1]


def test_rho_t_relates_to_leading_exponents():
    for k in range(0, 13):
        for lam in range(0, k + 1, 2):
            sig = rho_t(k, lam)
            shift = conformal_weight(k, lam) / 12
            assert [r + shift for r in sig.t_exponents] == leading_exponents(k, lam)
            assert len(set(sig.t_exponents)) == sig.dimension


def test_exponent_closed_forms_equal_the_definitions():
    """The integer closed forms of ``leading_exponents`` and ``rho_t``
    against h_mu - c/24 - h_lam/12 from the definitions, exactly."""
    for k in range(0, 121):
        c24 = central_charge(k) / 24
        heads = [conformal_weight(k, mu) - c24 for mu in range(k + 1)]
        for lam in range(0, k + 1, 2):
            want = [heads[mu] for mu in xi_set(k, lam)]
            shift = conformal_weight(k, lam) / 12
            assert leading_exponents(k, lam) == want
            sig = rho_t(k, lam)
            assert list(sig.t_exponents) == [x - shift for x in want]
            assert sig.multiplier_weight == conformal_weight(k, lam)
            assert (sig.level, sig.lam, sig.dimension) == (k, lam, len(want))


def test_rho_t_mod1_representatives():
    sig = rho_t(24, 24)
    assert sig.t_exponents == (F(1),)
    assert sig.t_exponents_mod1() == ((F(0), 1),)
    payload = sig.to_json()
    assert payload["t_exponents"] == ["1"]
    assert payload["t_exponents_mod1"][0] == {"fraction": "0", "offset": 1}


# -- multiplier systems ------------------------------------------------------


def test_multiplier_fixture_values():
    assert multiplier(12, "T") == 0
    assert multiplier(F(2, 5), "T") == F(1, 30)
    # e(-1/4) reduced into [0,1)
    assert multiplier(1, "S") == F(3, 4)
    assert multiplier(1, "ST") == F(5, 6)
    assert multiplier(0, "T") == 0


def test_multiplier_range_and_errors():
    for r in [F(-7, 3), F(0), F(11, 2), F(100)]:
        for g in ("S", "T", "ST"):
            v = multiplier(r, g)
            assert 0 <= v < 1
    with pytest.raises(ValueError):
        multiplier(1, "TS")


# -- holomorphy and saturation ------------------------------------------------


def test_holomorphy_fixture_values():
    assert holomorphy_classify(3, 2) == HOLOMORPHIC_EQUAL
    assert holomorphy_classify(16, 16) == HOLOMORPHIC_PROPER
    assert holomorphy_classify(1, 0) == WEAKLY_ONLY


def test_holomorphy_matches_exponent_sign():
    for k in range(0, 17):
        for lam in range(0, k + 1, 2):
            min_exp = leading_exponents(k, lam)[0]
            try:
                verdict = holomorphy_classify(k, lam)
            except UnsupportedDimensionError:
                assert k - lam + 1 > 3 and min_exp >= 0
                continue
            assert (verdict == WEAKLY_ONLY) == (min_exp < 0)


def test_holomorphy_sharp_ranges():
    assert holomorphy_classify(0, 0) == HOLOMORPHIC_PROPER  # trivial level
    assert holomorphy_classify(2, 2) == HOLOMORPHIC_EQUAL
    assert holomorphy_classify(14, 14) == HOLOMORPHIC_EQUAL
    assert holomorphy_classify(13, 12) == HOLOMORPHIC_EQUAL
    assert holomorphy_classify(15, 14) == HOLOMORPHIC_PROPER
    assert holomorphy_classify(10, 8) == HOLOMORPHIC_EQUAL
    assert holomorphy_classify(12, 10) == HOLOMORPHIC_PROPER
    assert holomorphy_classify(2, 0) == WEAKLY_ONLY
    with pytest.raises(UnsupportedDimensionError):
        holomorphy_classify(20, 10)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.fractions(), st.integers(-50, 50)), min_size=1, max_size=8))
def test_weight_lower_bound_equals_its_definition(exponents):
    """The sum over the lcm of the denominators against 12 sum/d + 1 - d
    in Fraction arithmetic."""
    d = len(exponents)
    want = F(12) * sum(F(x) for x in exponents) / d + 1 - d
    got = weight_lower_bound(exponents)
    assert type(got) is F and got == want
    assert weight_lower_bound(iter(exponents)) == want
    assert weight_lower_bound([str(x) for x in exponents]) == want


def test_saturation_sweep():
    for k in range(0, 21):
        for lam in range(0, k + 1, 2):
            assert saturation_check(k, lam)


def test_saturation_fixture_values():
    # both sides equal 7/5 at (3, 2)
    exps = leading_exponents(3, 2)
    assert F(12) * sum(exps) / 2 - 1 == F(7, 5)
    assert conformal_weight(3, 2) + 1 == F(7, 5)


# -- leading trace sum --------------------------------------------------------


def test_leading_trace_sum_fixture_values():
    for k in range(0, 8):
        for mu in range(k + 1):
            assert leading_trace_sum(k, 0, mu) == mu + 1
    assert leading_trace_sum(2, 2, 1) == 1
    assert leading_trace_sum(4, 2, 2) == 2


def test_leading_trace_sum_positive():
    for k in range(0, 21):
        for lam in range(0, k + 1, 2):
            for mu in xi_set(k, lam):
                assert leading_trace_sum(k, lam, mu) > 0


def test_leading_trace_sum_rejects_bad_label():
    with pytest.raises(ValueError):
        leading_trace_sum(4, 2, 0)  # 0 not in the label set of (4, 2)


def test_central_charge_values():
    assert central_charge(0) == 0
    assert central_charge(1) == 1
    assert central_charge(2) == F(3, 2)
    assert central_charge(5) == F(15, 7)
