"""Characters from the resolution: oracle comparisons and structure.

The deep oracle is tests/pbw_oracle.py, which computes the same graded
dimensions by building the Verma module concretely and quotienting by
the submodule generated by the singular vectors; completely independent
of the alternating character sum being tested.
"""

from fractions import Fraction as F

import pytest

from sl2onepoint.bgg import simple_character

from pbw_oracle import VermaOracle


# -- fixture rows --------------------------------------------------------


def test_vacuum_grade_zero():
    for k in (1, 4, 7):
        ch = simple_character(k, 0, 1)
        assert ch.rows[0] == {0: 1}


def test_top_level_is_finite_module():
    ch = simple_character(2, 2, 1)
    assert ch.rows[0] == {2: 1, 0: 1, -2: 1}
    ch = simple_character(5, 3, 1)
    assert ch.rows[0] == {3: 1, 1: 1, -1: 1, -3: 1}


def test_level_one_weight_one_against_pbw_oracle():
    ch = simple_character(1, 1, 4)
    oracle = VermaOracle(1, 1)
    for n in range(4):
        assert ch.rows[n] == oracle.grade_row(n)


@pytest.mark.parametrize("k,lam", [(1, 0), (2, 2), (2, 1), (3, 2), (3, 0)])
def test_small_modules_against_pbw_oracle(k, lam):
    ch = simple_character(k, lam, 4)
    oracle = VermaOracle(k, lam)
    for n in range(4):
        assert ch.rows[n] == oracle.grade_row(n)


# -- structural invariants --------------------------------------------------


def test_rows_symmetric_and_non_negative():
    for k, lam in [(2, 0), (3, 2), (4, 2), (5, 4), (6, 1)]:
        ch = simple_character(k, lam, 8)
        for row in ch.rows:
            for e, c in row.items():
                assert c > 0
                assert row.get(-e, 0) == c
                assert isinstance(c, int)


def test_z_support_parity_and_bounds():
    for k, lam in [(3, 2), (4, 1), (5, 0)]:
        ch = simple_character(k, lam, 6)
        for n, row in enumerate(ch.rows):
            for e in row:
                assert (e - lam) % 2 == 0
                assert abs(e) <= lam + 2 * n + 2


def test_z_to_one_specialisation():
    """Grade dimensions agree with an independent single-variable
    evaluation of the alternating sum at z = 1."""
    qorder = 9

    def one_var_inverse_cubed():
        # 1 / prod (1-q^m)^3 as integer coefficients
        coeffs = [0] * qorder
        coeffs[0] = 1
        for m in range(1, qorder):
            for _ in range(3):
                for n in range(m, qorder):
                    coeffs[n] += coeffs[n - m]
        return coeffs

    inv3 = one_var_inverse_cubed()
    for k, lam in [(1, 1), (3, 2), (4, 0)]:
        ch = simple_character(k, lam, qorder)
        dims = [0] * qorder
        i = 0
        while True:
            if i % 2 == 0:
                w = lam + (i // 2) * 2 * (k + 2)
            else:
                w = -lam - 2 + ((i + 1) // 2) * 2 * (k + 2)
            gap = F(w * (w + 2) - lam * (lam + 2), 4 * (k + 2))
            assert gap.denominator == 1
            n0 = int(gap)
            if i > 0 and n0 >= qorder:
                break
            sign = -1 if i % 2 else 1
            for n in range(n0, qorder):
                dims[n] += sign * (w + 1) * inv3[n - n0]
            i += 1
        assert dims == [ch.graded_dimension(n) for n in range(qorder)]


def test_two_variable_product_identity():
    """1/prod (1-z^2 q^m)(1-z^-2 q^m) equals the double-sum side
    sum_n z^{2n} sum_i q^{2i+|n|} / ((q)_i (q)_{i+|n|}) row by row."""
    qorder = 10

    # left side: rows built by direct factor-by-factor inversion
    rows = [{0: 1}] + [{} for _ in range(qorder - 1)]
    for m in range(1, qorder):
        for shift in (2, -2):
            # multiply by 1/(1 - z^shift q^m) = geometric series
            new = [dict(r) for r in rows]
            power = 1
            while m * power < qorder:
                for n in range(m * power, qorder):
                    for e, c in rows[n - m * power].items():
                        key = e + shift * power
                        new[n][key] = new[n].get(key, 0) + c
                power += 1
            rows = new
    lhs = [{e: c for e, c in row.items() if c} for row in rows]

    # right side: (q)_i pochhammer products, assembled per z-exponent
    def inv_pochhammer_pair(i, absn):
        # q^{2i+|n|} / ((q)_i (q)_{i+|n|}) as integer coefficient list
        coeffs = [0] * qorder
        start = 2 * i + absn
        if start >= qorder:
            return coeffs
        coeffs[start] = 1
        for m in list(range(1, i + 1)) + list(range(1, i + absn + 1)):
            for n in range(m, qorder):
                coeffs[n] += coeffs[n - m]
        return coeffs

    rhs = [{} for _ in range(qorder)]
    for zn in range(-(qorder + 1), qorder + 2):
        acc = [0] * qorder
        i = 0
        while 2 * i + abs(zn) < qorder:
            for n, c in enumerate(inv_pochhammer_pair(i, abs(zn))):
                acc[n] += c
            i += 1
        for n, c in enumerate(acc):
            if c:
                rhs[n][2 * zn] = c
    assert lhs == rhs


# -- trivial multiplicities ----------------------------------------------------


def test_trivial_multiplicity_fixture_values():
    assert simple_character(4, 2, 1).trivial_multiplicity(0) == 0
    assert simple_character(4, 2, 2).trivial_multiplicity(1) == 1
    for k in (1, 3, 6):
        assert simple_character(k, 0, 1).trivial_multiplicity(0) == 1


def test_trivial_multiplicity_lemma_sweep_small():
    for k in range(2, 9):
        for lam in range(2, k + 1, 2):
            ch = simple_character(k, lam, lam // 2 + 1)
            for n in range(lam // 2):
                assert ch.trivial_multiplicity(n) == 0
            assert ch.trivial_multiplicity(lam // 2) == 1


def test_trivial_multiplicity_errors():
    # a grade outside the computed rows, below or above
    ch = simple_character(4, 2, 2)
    for n in (-1, 2):
        with pytest.raises(ValueError):
            ch.trivial_multiplicity(n)


def test_simple_character_input_validation():
    with pytest.raises(ValueError):
        simple_character(3, 4, 2)
    with pytest.raises(ValueError):
        simple_character(3, 2, 0)
