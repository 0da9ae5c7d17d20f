"""Categorical data: 6j-symbols, recoupling tensors, coherence axioms,
and the generalised modular pairs.

High-precision oracle: the 6j formula re-evaluated in 50-digit mpmath
arithmetic with the unscaled quantum integers, up to k = 480.  Coherence
oracles, on the tensors of ``mtc_oracle``: F-matrix unitarity (6j
orthogonality), the pentagon identity, and both hexagon identities.  The
braiding R lives in ``mtc_oracle`` only: the library's modular pairs
contain no braiding phase, because every one of them cancels from the
one-punctured-torus sum.  The hexagon needs the braiding with the halved
sign (-1)^{(r+s-t)/2}; the oracle's R keeps the trivial-sign convention
of its defining formula, and the phases cancel in both conventions, as
a test below checks.  The three-symbol oracle S keeps every phase, so it
alone checks the cancellation in the library's S.  The library sums S as
table rows; the oracle's sum of collapsed symbols checks those entry by
entry, and near p = k, where that kernel underflows, the symbols in
mpmath do.
"""

import cmath
import functools
import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2onepoint.errors import PrecisionLossError, RelationViolationError
from sl2onepoint.mtc import (
    GenModularPair,
    _quarter_products,
    _s_rows,
    compare_with_analytic,
    f_r_g_matrices,
    gen_modular_pair,
    irreducibility_probe,
)
from sl2onepoint.sixj import (
    _six_j2,
    adjoint_members,
    character_s_matrix,
    quantum_integer,
    six_j,
    verlinde_fusion,
    verlinde_numbers,
)
from sl2onepoint.sl2data import conformal_weight, fusion_coefficient, rho_t, xi_set

from mtc_oracle import _qnumbers as oracle_qnumbers
from mtc_oracle import (
    _coupling_norm,
    _matmul,
    _self_coupling_six_j,
    _six_j_2,
    certification,
    f_tensor,
    g_tensor,
    irreducibility_by_subsets,
    r_tensor,
    s_entry_by_symbols,
    s_matrix_loop,
    twist,
)

TOL = 1e-9


def _adm(k, a, b, c):
    return fusion_coefficient(k, a, b, c) == 1


def _admissible_sixj_tuples(k):
    """All doubled-label tuples (a,b,e,d,c,f) with the four triads
    admissible."""
    doubles = range(k + 1)
    for a, b, e, d, c, f in itertools.product(doubles, repeat=6):
        if (
            _adm(k, a, b, e)
            and _adm(k, a, c, f)
            and _adm(k, c, e, d)
            and _adm(k, d, b, f)
        ):
            yield (a, b, e, d, c, f)


def _random_sixj_tuples(k, count, seed):
    """``count`` seeded doubled-label tuples with all four triads admissible."""
    rng = random.Random(seed)
    labels = range(k + 1)
    tuples = []
    while len(tuples) < count:
        a, b, c = (rng.choice(labels) for _ in range(3))
        es = [e for e in labels if _adm(k, a, b, e)]
        fs = [f for f in labels if _adm(k, a, c, f)]
        if not (es and fs):
            continue
        e, f = rng.choice(es), rng.choice(fs)
        ds = [d for d in labels if _adm(k, c, e, d) and _adm(k, d, b, f)]
        if ds:
            tuples.append((a, b, e, rng.choice(ds), c, f))
    return tuples


# -- quantum integers and factorials ------------------------------------------


def test_quantum_factorial_values():
    # the unscaled [n]! of the scalar oracle
    assert oracle_qnumbers(5).qfact[0] == 1.0
    assert oracle_qnumbers(1).qfact[1] == 1.0
    assert abs(oracle_qnumbers(2).qfact[2] - math.sqrt(2)) < 1e-14
    assert abs(quantum_integer(3, 2) - 2 * math.cos(math.pi / 5)) < 1e-14


def test_quantum_factorial_guards():
    q = oracle_qnumbers(3)
    with pytest.raises(ValueError):
        q.fact2(10)  # [5]!
    with pytest.raises(ValueError):
        q.fact2(-2)
    with pytest.raises(ValueError):
        q.fact2(3)
    assert q.fact2(8) > 0  # [k+1]! is the largest allowed


# -- 6j symbols ------------------------------------------------------------------


def test_six_j_all_zeros():
    assert six_j(4, 0, 0, 0, 0, 0, 0) == 1.0


def test_six_j_rejects_inadmissible():
    with pytest.raises(ValueError):
        six_j(2, F(1, 2), F(1, 2), 1, 0, 0, 0)  # (a,c,f) fails
    with pytest.raises(ValueError):
        six_j(1, 1, 1, 1, 1, 1, 1)  # a+b+e > k
    with pytest.raises(ValueError, match="out of range"):
        six_j(2, F(-1, 2), F(1, 2), 0, 0, 0, 0)  # a negative label


def test_six_j_collapse_pattern():
    # {a b e; 0 e b} is +-1 in the unitary normalisation; equivalently the
    # unnormalised Racah symbol (divide out the sqrt([2e+1][2f+1]) prefactor,
    # f = b here) has magnitude 1/sqrt([2b+1][2e+1])
    for k in (2, 3, 4):
        for a2, b2, e2 in itertools.product(range(k + 1), repeat=3):
            if not _adm(k, a2, b2, e2):
                continue
            val = six_j(k, F(a2, 2), F(b2, 2), F(e2, 2), 0, F(e2, 2), F(b2, 2))
            assert abs(abs(val) - 1.0) < 1e-12
            prefactor = math.sqrt(quantum_integer(k, e2 + 1) * quantum_integer(k, b2 + 1))
            want = 1.0 / math.sqrt(quantum_integer(k, b2 + 1) * quantum_integer(k, e2 + 1))
            assert abs(abs(val) / prefactor - want) < 1e-12


def _six_j_mpmath(k, tuples):
    """The 6j formula re-evaluated in 50-digit arithmetic with the unscaled
    quantum integers [n], its factorials tabulated once for the level."""
    import mpmath

    with mpmath.workdps(50):
        qint = [mpmath.sin(mpmath.pi * n / (k + 2)) / mpmath.sin(mpmath.pi / (k + 2))
                for n in range(k + 2)]
        qfact = [mpmath.mpf(1)]
        for n in range(1, k + 2):
            qfact.append(qfact[-1] * qint[n])

        def delta(a2, b2, c2):
            return mpmath.sqrt(
                qfact[(-a2 + b2 + c2) // 2]
                * qfact[(a2 - b2 + c2) // 2]
                * qfact[(a2 + b2 - c2) // 2]
                / qfact[(a2 + b2 + c2) // 2 + 1]
            )

        out = []
        for a2, b2, e2, d2, c2, f2 in tuples:
            pref = (
                (-1) ** ((a2 + b2 - c2 - d2 - 2 * e2) // 2)
                * mpmath.sqrt(qint[e2 + 1] * qint[f2 + 1])
                * delta(a2, b2, e2)
                * delta(a2, c2, f2)
                * delta(c2, e2, d2)
                * delta(d2, b2, f2)
            )
            triads = (a2 + b2 + e2, a2 + c2 + f2, b2 + d2 + f2, c2 + d2 + e2)
            quads = (a2 + b2 + c2 + d2, a2 + d2 + e2 + f2, b2 + c2 + e2 + f2)
            total = mpmath.mpf(0)
            for z2 in range(max(triads), min(min(quads), 2 * k) + 2, 2):
                term = (-1) ** (z2 // 2) * qfact[z2 // 2 + 1]
                for t in triads:
                    term /= qfact[(z2 - t) // 2]
                for s in quads:
                    term /= qfact[(s - z2) // 2]
                total += term
            out.append(float(pref * total))
    return out


def test_six_j_against_mpmath_oracle():
    """Every admissible sextuple at k = 2, 3, and 20 seeded ones at
    k = 150 and 300, where the unscaled [k+1]! overflows a double."""
    for k in (2, 3):
        tuples = list(_admissible_sixj_tuples(k))
        for tup, want in zip(tuples, _six_j_mpmath(k, tuples)):
            got = six_j(k, *(F(x, 2) for x in tup))
            assert abs(got - want) < 1e-12, (k, tup)
    for k in (150, 300):
        tuples = _random_sixj_tuples(k, 20, seed=k)
        for tup, want in zip(tuples, _six_j_mpmath(k, tuples)):
            got = six_j(k, *(F(x, 2) for x in tup))
            assert abs(got - want) < 1e-10, (k, tup)


def _six_j_doubled(k, tup):
    return six_j(k, *(F(x, 2) for x in tup))


def test_six_j_kernel_equals_scalar_oracle():
    """The library's scalar loop on rescaled tables against the oracle's
    loop on unscaled ones, on every admissible sextuple for k <= 6."""
    for k in range(0, 7):
        for tup in _admissible_sixj_tuples(k):
            assert abs(_six_j_doubled(k, tup) - _six_j_2(k, *tup)) < 1e-13, (k, tup)


def test_six_j_kernel_equals_scalar_oracle_at_level_48():
    k = 48
    for tup in _random_sixj_tuples(k, 2000, seed=4848):
        assert abs(_six_j_doubled(k, tup) - _six_j_2(k, *tup)) < 1e-13, tup


def test_six_j_kernel_rejects_one_bad_element():
    k = 4
    for tup in list(_admissible_sixj_tuples(k))[:20]:
        assert math.isfinite(_six_j_doubled(k, tup))
    # (a, b, e) with an odd sum; every triad summing to 12 > 2k; only
    # (c, e, d) = (0, 4, 0) off the triangle inequality
    for bad in ((1, 1, 1, 0, 0, 0), (4, 4, 4, 4, 4, 4), (0, 4, 4, 0, 0, 0)):
        with pytest.raises(ValueError, match="inadmissible spin triad"):
            _six_j_doubled(k, bad)
    # the table is [n]! rescaled by sin(pi/(k+2))^n
    scale = math.sin(math.pi / (k + 2))
    for n in (0, 1, 5):
        want = oracle_qnumbers(k).qfact[n] * scale**n
        assert abs(f_r_g_matrices(k).qfact[n] - want) <= 1e-14 * want


@pytest.mark.parametrize("k", [48, 200, 260])
def test_quantum_integer_table_is_within_ulps_of_mpmath(k):
    """Every rescaled quantum integer sin(pi m/(k+2)) is within 4 ulps of
    its 40-digit value, near m = k+2 too, and both ends are exactly 0.  An
    argument pi m/(k+2) rounded near pi is off by 16 ulps at k = 48 and
    by 267 at k = 260.  The same holds for the unscaled [m] of
    ``quantum_integer``, the table's oracle, which folds its argument by
    its own expression: unfolded it was off by 21, 59 and 174 ulps at
    these levels, and [k+2] came out as 1.95e-15, 7.9e-15 and 1.0e-14."""
    import mpmath

    qint, n = f_r_g_matrices(k).qint, k + 2
    assert len(qint) == n + 1
    assert qint[0] == qint[n] == 0.0
    assert quantum_integer(k, 0) == quantum_integer(k, n) == 0.0
    with mpmath.workdps(40):
        for m in range(1, n):
            want = mpmath.sin(mpmath.pi * m / n)
            assert abs(qint[m] - want) <= 4 * math.ulp(float(want)), m
            want /= mpmath.sin(mpmath.pi / n)
            assert abs(quantum_integer(k, m) - want) <= 4 * math.ulp(float(want)), m


def test_character_s_matrix_reads_the_level_table():
    """Each entry is +-sqrt(2/n) times the table's sine qint[(i+1)(j+1) mod
    n], negative on the odd half-periods, float for float."""
    for k in range(0, 61):
        n, qint = k + 2, f_r_g_matrices(k).qint
        s = character_s_matrix(k)
        for i in range(k + 1):
            for j in range(k + 1):
                m = (i + 1) * (j + 1)
                want = math.sqrt(2.0 / n) * qint[m % n]
                assert s[i][j] == (-want if m // n % 2 else want), (k, i, j)


@pytest.mark.parametrize("k", [48, 200, 260])
def test_quantum_dimensions_and_s_matrix_are_within_ulps_of_mpmath(k):
    """The quantum dimensions and every entry of the character S-matrix are
    within 4 ulps of their 40-digit values, and the entries with (i+1)(j+1)
    a multiple of k+2 are exactly 0.  With the sine's argument unfolded the
    quantum dimensions were off by 20 ulps at k = 48 and by 173 at k = 260."""
    import mpmath

    s, n = character_s_matrix(k), k + 2
    qdim = f_r_g_matrices(k).qdim
    with mpmath.workdps(40):
        for i in range(k + 1):
            want = mpmath.sin(mpmath.pi * (i + 1) / n) / mpmath.sin(mpmath.pi / n)
            assert abs(qdim[i] - want) <= 4 * math.ulp(float(want)), i
        scale = mpmath.sqrt(mpmath.mpf(2) / n)
        for i in range(k + 1):
            for j in range(i, k + 1):
                if (i + 1) * (j + 1) % n == 0:
                    assert s[i][j] == 0.0, (i, j)
                    continue
                want = scale * mpmath.sin(mpmath.pi * (i + 1) * (j + 1) / n)
                assert abs(s[i][j] - want) <= 4 * math.ulp(float(want)), (i, j)


def test_six_j_refuses_underflow():
    """At k = 480, 16 of these 150 sextuples are refused, naming the level
    and the labels, and every other value is finite: 6 have a denominator
    product below the normal doubles, among them 15, which came out as
    -1.4e10 for 0.098, and 104, -340 for -0.118; the other 10 have an
    alternating sum whose rounding bound exceeds the tolerance."""
    tuples = _random_sixj_tuples(480, 150, seed=480)
    refused, cancelled = [], []
    for n, tup in enumerate(tuples):
        try:
            assert math.isfinite(_six_j_doubled(480, tup))
        except PrecisionLossError as exc:
            refused.append(n)
            assert "at level 480" in str(exc)
            if "alternating sum cancels" in str(exc):
                cancelled.append(n)
    assert refused == [8, 15, 33, 44, 69, 79, 91, 97, 101, 104, 107, 116, 126, 129, 130, 143]
    assert cancelled == [69, 79, 91, 97, 101, 107, 116, 126, 129, 143]
    assert "{151 219/2 237/2; 265/2 109 192}" in str(
        pytest.raises(PrecisionLossError, _six_j_doubled, 480, tuples[8]).value
    )
    # from k = 1085 on the factorial table itself holds zeros
    with pytest.raises(PrecisionLossError, match="at level 1200"):
        six_j(1200, 362, 362, 362, 362, 362, 362)


@pytest.mark.parametrize("k, refusals", [(300, 0), (350, 5), (420, 9), (480, 16)])
def test_six_j_is_refused_or_within_1e_10_of_mpmath(k, refusals):
    """Above k = 300 the terms of the alternating sum can dwarf the symbol:
    each of 150 seeded symbols is either refused or within 1e-10 of its
    50-digit value (2.2e-11 at worst)."""
    tuples = _random_sixj_tuples(k, 150, seed=k)
    refused = 0
    for n, (tup, want) in enumerate(zip(tuples, _six_j_mpmath(k, tuples))):
        try:
            got = _six_j_doubled(k, tup)
        except PrecisionLossError:
            refused += 1
            continue
        assert abs(got - want) < 1e-10, (k, n)
    assert refused == refusals


def _pair_symbols(k, p):
    """(i, j, r) of every symbol {p/2 i/2 i/2; r/2 j/2 j/2} that the pair
    (S^(p), T^(p)) at level k sums over."""
    basis = xi_set(k, p)
    return [(i, j, r) for i in basis for j in basis for r in range(k + 1) if _adm(k, i, j, r)]


def _check_self_coupling_six_j(k, p, symbols):
    """The collapsed kernel against the general one, and exactly
    symmetric in i and j."""
    data = f_r_g_matrices(k)
    for i, j, r in symbols:
        got = _self_coupling_six_j(data, p, i, j, r, _coupling_norm(data, p, i), _coupling_norm(data, p, j))
        assert abs(got - _six_j2(data, p, i, i, r, j, j)) < 1e-13, (k, p, i, j, r)
        swapped = _self_coupling_six_j(data, p, j, i, r, _coupling_norm(data, p, j), _coupling_norm(data, p, i))
        assert got == swapped, (k, p, i, j, r)


def test_self_coupling_six_j_equals_general_kernel():
    """Every symbol of every pair with k <= 24."""
    for k in range(0, 25):
        for p in range(0, k + 1, 2):
            _check_self_coupling_six_j(k, p, _pair_symbols(k, p))


def test_self_coupling_six_j_equals_general_kernel_at_levels_48_and_100():
    """1000 seeded symbols of the pairs at each level."""
    for k in (48, 100):
        rng = random.Random(k)
        for _ in range(1000):
            p = rng.randrange(0, k + 1, 2)
            i, j = rng.choices(xi_set(k, p), k=2)
            r = rng.choice([r for r in range(k + 1) if _adm(k, i, j, r)])
            _check_self_coupling_six_j(k, p, [(i, j, r)])


def test_self_coupling_six_j_refuses_underflow_like_the_general_kernel():
    # the symbol that stopped mtc -k 600 --p 590 before the pairs were summed
    # as table rows: both scalar kernels refuse it in the same words
    data = f_r_g_matrices(600)
    norm = _coupling_norm(data, 590, 295)
    collapsed = pytest.raises(PrecisionLossError, _self_coupling_six_j, data, 590, 295, 295, 250, norm, norm)
    general = pytest.raises(PrecisionLossError, _six_j2, data, 590, 295, 295, 250, 295, 295)
    assert "6j-symbol {295 295/2 295/2; 125 295/2 295/2} at level 600" in str(collapsed.value)
    assert str(collapsed.value) == str(general.value)
    # where the factorial table itself holds zeros, the norm is NaN, and the
    # pair refuses before it sums anything
    assert math.isnan(_coupling_norm(f_r_g_matrices(1200), 1198, 599))
    with pytest.raises(PrecisionLossError, match="at level 1200"):
        gen_modular_pair(1200, 1198)


# -- recoupling tensors ------------------------------------------------------------


def test_f_unitor_normalisation():
    for k in (2, 5):
        zero_entries = [v for key, v in f_tensor(k).items() if 0 in key[:3]]
        assert zero_entries
        assert all(abs(v - 1.0) < 1e-12 for v in zero_entries)


def test_f_matrix_unitarity():
    # rows of each F-block are orthonormal (6j orthogonality)
    for k in (2, 3, 4):
        f = f_tensor(k)
        labels = range(k + 1)
        for i, j, kk, l in itertools.product(labels, repeat=4):
            ps = [p for p in labels if _adm(k, j, kk, p) and _adm(k, i, p, l)]
            qs = [q for q in labels if _adm(k, i, j, q) and _adm(k, q, kk, l)]
            if not ps:
                continue
            assert len(ps) == len(qs)
            block = np.array(
                [[f[(i, j, kk, l, p, q)] for q in qs] for p in ps]
            )
            assert np.max(np.abs(block @ block.T - np.eye(len(ps)))) < 1e-12


def test_g_inverts_f():
    for k in (2, 3):
        f, g = f_tensor(k), g_tensor(k)
        labels = range(k + 1)
        for i, j, kk, l in itertools.product(labels, repeat=4):
            ps = [p for p in labels if _adm(k, i, j, p) and _adm(k, p, kk, l)]
            qs = [q for q in labels if _adm(k, j, kk, q) and _adm(k, i, q, l)]
            for p in ps:
                for p2 in ps:
                    acc = sum(g[(i, j, kk, l, p, q)] * f[(i, j, kk, l, q, p2)] for q in qs)
                    assert abs(acc - (1.0 if p == p2 else 0.0)) < 1e-12


def test_r_fixture_value():
    for k in (2, 5, 8):
        h1 = conformal_weight(k, 1)
        want = complex(np.exp(2j * np.pi * float(h1)))
        assert abs(r_tensor(k)[(1, 1, 0)] - want) < 1e-14


def test_braiding_phases_cancel_from_the_pair():
    """The phases the one-punctured-torus sum drops, in the trivial-sign
    convention of the oracle's R and in the hexagon-compatible one:
    phi_ijr = R^{(ij)r} R^{(ir)j} / (R^{(ii)0} R^{(0j)j}) is 1, and
    R^{(pi)i} does not depend on i (e(h_p/2), times (-1)^(p/2) in the
    hexagon convention), for every admissible triple with k <= 24."""
    for k in range(0, 25):
        r = r_tensor(k)
        for hexagon in (False, True):

            def rho(x, y, t):
                return ((-1.0) ** ((x + y - t) // 2) if hexagon else 1.0) * r[(x, y, t)]

            checked = 0
            for i, j, t in r:
                phi = rho(i, j, t) * rho(i, t, j) / (rho(i, i, 0) * rho(0, j, j))
                assert abs(phi - 1) < 1e-14, (k, hexagon, i, j, t)
                checked += 1
            assert checked == len(r)
            for p in range(0, k + 1, 2):
                want = ((-1.0) ** (p // 2) if hexagon else 1.0) * cmath.exp(
                    1j * math.pi * float(conformal_weight(k, p))
                )
                for i in range(k + 1):
                    if (p, i, i) in r:
                        assert abs(rho(p, i, i) - want) < 1e-14, (k, hexagon, p, i)


def test_g_entry_equals_tabulated_recoupling():
    """G from the oracle's own 6j loop, as the oracle S-matrix uses it,
    against G built from the library's F entries and four braiding
    phases."""
    from mtc_oracle import _g_entry

    k = 6
    g = g_tensor(k)
    assert set(g) == {(i, j, kk, l, p, q) for (kk, j, i, l, p, q) in f_tensor(k)}
    for key, value in g.items():
        assert abs(_g_entry(k, *key) - value) < 1e-13, key


def test_pentagon_identity():
    # F^{(abx)e}_{yu} F^{(ucd)e}_{xv} = sum_h F^{(bcd)y}_{xh} F^{(ahd)e}_{yv} F^{(abc)v}_{hu}
    for k in (2, 3):
        f = f_tensor(k)
        labels = range(k + 1)
        checked = 0
        for a, b, c, d in itertools.product(labels, repeat=4):
            for x in labels:
                if not _adm(k, c, d, x):
                    continue
                for y in labels:
                    if not _adm(k, b, x, y):
                        continue
                    for e in labels:
                        if not _adm(k, a, y, e):
                            continue
                        for u in labels:
                            if not _adm(k, a, b, u):
                                continue
                            for v in labels:
                                if not (
                                    _adm(k, u, c, v)
                                    and _adm(k, v, d, e)
                                    and _adm(k, u, x, e)
                                ):
                                    continue
                                lhs = f[(a, b, x, e, y, u)] * f[(u, c, d, e, x, v)]
                                rhs = sum(
                                    f[(b, c, d, y, x, h)]
                                    * f[(a, h, d, e, y, v)]
                                    * f[(a, b, c, v, h, u)]
                                    for h in labels
                                    if (b, c, d, y, x, h) in f
                                    and (a, h, d, e, y, v) in f
                                    and (a, b, c, v, h, u) in f
                                )
                                assert abs(lhs - rhs) < 1e-12
                                checked += 1
        assert checked > 100


def test_hexagon_identities():
    """Both hexagon orientations, with the braiding carrying the halved
    sign (-1)^{(r+s-t)/2} relative to the shipped R (the sign cancels in
    all modular-pair quantities but matters here)."""
    for k in (2, 3, 4):
        f, r = f_tensor(k), r_tensor(k)
        labels = range(k + 1)

        def rho(x, y, t, conj):
            v = ((-1.0) ** ((x + y - t) // 2)) * r[(x, y, t)]
            return v.conjugate() if conj else v

        for conj in (False, True):
            checked = 0
            for a, b, c, d in itertools.product(labels, repeat=4):
                rset = [t for t in labels if _adm(k, c, a, t) and _adm(k, b, t, d)]
                qset = [q for q in labels if _adm(k, a, b, q) and _adm(k, q, c, d)]
                for rr in rset:
                    for q in qset:
                        lhs = sum(
                            f[(b, c, a, d, rr, t)] * rho(a, t, d, conj) * f[(a, b, c, d, t, q)]
                            for t in labels
                            if (b, c, a, d, rr, t) in f
                            and (a, b, c, d, t, q) in f
                            and (a, t, d) in r
                        )
                        rhs = 0.0
                        if (b, a, c, d, rr, q) in f:
                            rhs = (
                                rho(a, c, rr, conj)
                                * f[(b, a, c, d, rr, q)]
                                * rho(a, b, q, conj)
                            )
                        assert abs(lhs - rhs) < 1e-12
                        checked += 1
            assert checked > 30


def test_theta_and_quantum_dimensions():
    for k in range(0, 11):
        data = f_r_g_matrices(k)
        for i in data.labels:
            assert abs(data.theta[i] - np.exp(2j * np.pi * float(conformal_weight(k, i)))) < TOL
            assert abs(data.qdim[i] - quantum_integer(k, i + 1)) < TOL
            assert data.qdim[i] > 0
        assert abs(data.qdim[0] - 1.0) < TOL
        assert abs(data.global_dim_root - math.sqrt(float(np.sum(np.asarray(data.qdim) ** 2)))) < 1e-9


def test_s_char_orthogonal_and_involutive():
    for k in range(0, 11):
        s = np.asarray(character_s_matrix(k))
        n = k + 1
        assert np.max(np.abs(s - s.T)) < 1e-12
        assert np.max(np.abs(s @ s - np.eye(n))) < 1e-12  # self-dual: S^2 = C = 1


def test_verlinde_reproduces_fusion():
    for k in range(0, 9):
        for lam in range(k + 1):
            for mu in range(k + 1):
                for nu in range(k + 1):
                    got = round(verlinde_fusion(k, lam, mu, nu))
                    assert got == fusion_coefficient(k, lam, mu, nu)


def test_character_s_matrix_column_zero_is_the_level_table():
    """The level table reads column 0 of the character S-matrix by its own
    expression: the quantum dimensions and the global dimension root are
    those of the full matrix, bit for bit."""
    for k in [*range(0, 61), 100, 200, 1000]:
        s, data = character_s_matrix(k), f_r_g_matrices(k)
        assert len(s) == k + 1 and all(len(row) == k + 1 for row in s)
        assert tuple(row[0] / s[0][0] for row in s) == data.qdim
        assert 1.0 / s[0][0] == data.global_dim_root
    assert character_s_matrix(7) is character_s_matrix(7)
    with pytest.raises(ValueError):
        character_s_matrix(-1)


def test_verlinde_numbers_equal_verlinde_fusion():
    """The one-pass level table against the per-triple sum it replaces in
    ``verify``."""
    for k in range(0, 13):
        table = verlinde_numbers(k)
        assert len(table) == k + 1
        for lam in range(k + 1):
            for mu in range(k + 1):
                for nu in range(k + 1):
                    assert abs(table[lam][mu][nu] - verlinde_fusion(k, lam, mu, nu)) <= 1e-12
    with pytest.raises(ValueError):
        verlinde_numbers(-1)


# -- adjoint members and modular pairs ------------------------------------------------


def test_adjoint_members():
    assert adjoint_members(2) == [0, 2]
    assert adjoint_members(5) == [0, 2, 4]
    assert adjoint_members(0) == [0]
    for k in range(0, 12):
        assert adjoint_members(k) == list(range(0, k + 1, 2))


def test_pair_basis_is_label_set():
    for k in range(0, 9):
        for p in range(0, k + 1, 2):
            pair = gen_modular_pair(k, p)
            assert list(pair.basis) == xi_set(k, p)


def test_braid_relations_sweep():
    for k in range(0, 11):
        for p in range(0, k + 1, 2):
            pair = gen_modular_pair(k, p)
            assert max(pair.relation_residuals.values()) < TOL


def test_s0_equals_character_s_matrix():
    for k in range(0, 11):
        pair = gen_modular_pair(k, 0)
        diff = np.max(np.abs(np.asarray(pair.s_matrix) - np.asarray(character_s_matrix(k))))
        assert diff < TOL


_LOOP_CASES = [(k, p) for k in range(0, 25) for p in range(0, k + 1, 2)] + [(48, 2), (48, 4), (48, 6)]


@functools.lru_cache(maxsize=None)
def _loop_s(k, p):
    """The oracle's three-symbol S^(p), which sums every entry and
    mirrors none; read-only, since tests share it."""
    s = s_matrix_loop(k, p)
    s.flags.writeable = False
    return s


def test_pair_s_matrix_equals_per_triple_loop():
    """The one-symbol assembly, summed on the anti-diagonals i + j <= k
    and mirrored, against the three-symbol sum over (i, j, r), term by
    term, on every entry: every pair with k <= 24, (48, 2/4/6), and pairs
    with p near k."""
    for k, p in _LOOP_CASES + [(30, 28), (100, 98), (200, 190)]:
        got = np.asarray(gen_modular_pair(k, p).s_matrix)
        want = _loop_s(k, p) if (k, p) in _LOOP_CASES else s_matrix_loop(k, p)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12, (k, p)


def _mirror_sign(k, i, j):
    return -1 if (k + i + j) % 2 else 1


def test_simple_current_laws_hold_on_the_oracles():
    """S^(p)_{k-i,k-j} = (-1)^(k+i+j) S^(p)_ij on the oracle's three-symbol
    S of every pair with k <= 24 and (48, 2/4/6), and on seeded entries of
    its one-symbol sum for one seeded p at each level 25 <= k <= 60;
    theta_{k-i} = i^k (-1)^i theta_i on every label of every level
    k <= 60.  All to 1e-12, on computations that use no mirror."""
    for k, p in _LOOP_CASES:
        s, basis = _loop_s(k, p), xi_set(k, p)
        signs = np.array([[_mirror_sign(k, i, j) for j in basis] for i in basis])
        assert np.max(np.abs(s[::-1, ::-1] - signs * s)) < 1e-12, (k, p)
    rng = random.Random(60)
    for k in range(25, 61):
        p = rng.randrange(0, k + 1, 2)
        basis = xi_set(k, p)
        for _ in range(4):
            i, j = rng.choice(basis), rng.choice(basis)
            want, _ = s_entry_by_symbols(k, p, i, j)
            mirror, _ = s_entry_by_symbols(k, p, k - i, k - j)
            assert abs(mirror - _mirror_sign(k, i, j) * want) < 1e-12, (k, p, i, j)
    for k in range(0, 61):
        theta = f_r_g_matrices(k).theta
        for i in range(k + 1):
            assert abs(theta[k - i] - 1j**k * (-1) ** i * theta[i]) < 1e-12, (k, i)


@pytest.mark.parametrize("k", [48, 200, 1000])
def test_twists_are_within_an_ulp_of_mpmath(k):
    """Every twist e(h_i) and zeta = e(c/24) within 1e-15 of its 40-digit
    value: the exponent is reduced mod 1 exactly before it becomes a
    float.  Unreduced, 2 pi h_i with h_i up to about k/4 put the twists
    off by 1.1e-14 at k = 48, 4.7e-14 at k = 200 and 2.5e-13 at k = 1000."""
    import mpmath

    from sl2onepoint.sl2data import central_charge

    data = f_r_g_matrices(k)
    with mpmath.workdps(40):
        for i in range(k + 1):
            h = conformal_weight(k, i)
            want = mpmath.expjpi(2 * mpmath.mpf(h.numerator) / h.denominator)
            assert abs(mpmath.mpc(data.theta[i]) - want) < 1e-15, (k, i)
        c = central_charge(k) / 24
        assert abs(mpmath.mpc(data.zeta) - mpmath.expjpi(2 * mpmath.mpf(c.numerator) / c.denominator)) < 1e-15


def test_twist_equals_the_cmath_form_float_for_float():
    """``mtc._e`` takes cos t and sin t at t = 2 pi x with ``math``; it
    equals ``cmath.exp(2j * cmath.pi * x)`` bit for bit, signs of zeros
    included, on every conformal weight h_i and every c/24 of the levels
    k <= 300, 1000 and 1030: 47,786 twists and zetas."""
    from sl2onepoint.mtc import _e
    from sl2onepoint.sl2data import central_charge

    def bits(z):
        # float.hex tells -0.0 from 0.0, which == does not
        return z.real.hex(), z.imag.hex()

    checked = 0
    for k in [*range(301), 1000, 1030]:
        for x in [*(conformal_weight(k, i) for i in range(k + 1)), central_charge(k) / 24]:
            assert bits(_e(x)) == bits(twist(x)), (k, x)
            checked += 1
    assert checked == 47_786


def _nudged(z):
    """z with its real part one ulp larger."""
    return complex(math.nextafter(z.real, math.inf), z.imag)


def test_certification_refuses_a_broken_mirror_law(monkeypatch):
    """The last diagonal entry of S one ulp off its mirror, the first, or
    the last T entry one ulp off the first, is refused with the entries named, even
    at a tolerance of 1, where the residuals alone would pass it: the
    quarter products assume both laws."""
    import sl2onepoint.mtc as mtc_module

    true_rows, true_t = mtc_module._s_rows, mtc_module._t_diagonal
    for k, p in ((3, 2), (5, 2), (24, 6), (48, 2)):
        last = k - p

        def nudged_rows(data, p_label, basis):
            rows, evaluations = true_rows(data, p_label, basis)
            rows[last][last] = _nudged(rows[last][last])
            return rows, evaluations

        monkeypatch.setattr(mtc_module, "_s_rows", nudged_rows)
        h = p // 2
        with pytest.raises(RelationViolationError, match=rf"level {k}, p={p}: S breaks .* at i={h}, j={h}: "):
            gen_modular_pair(k, p, tolerance=1.0)
        monkeypatch.setattr(mtc_module, "_s_rows", true_rows)

        def nudged_t(data, basis):
            t = list(true_t(data, basis))
            t[-1] = _nudged(t[-1])
            return tuple(t)

        monkeypatch.setattr(mtc_module, "_t_diagonal", nudged_t)
        with pytest.raises(RelationViolationError, match=rf"level {k}, p={p}: T breaks .* at i={h}: "):
            gen_modular_pair(k, p, tolerance=1.0)
        monkeypatch.setattr(mtc_module, "_t_diagonal", true_t)
        assert gen_modular_pair(k, p).basis == tuple(xi_set(k, p))


def test_pair_s_matrix_is_exactly_symmetric():
    """Each unordered {i, j} is summed once, so S equals its transpose
    float for float."""
    cases = [(k, p) for k in range(0, 25) for p in range(0, k + 1, 2)]
    cases += [(48, 2), (48, 4), (48, 6)]
    for k, p in cases:
        s = gen_modular_pair(k, p).s_matrix
        assert s == tuple(zip(*s)), (k, p)


def _check_rows_against_symbol_sum(k, p, entries):
    """The pair's table rows against the oracle's sum over r of d_r theta_r
    times one collapsed symbol, on the basis positions ``entries`` (all of
    them when None), and exactly symmetric.  Returns the oracle's count of
    symbols over the unordered entries checked."""
    data = f_r_g_matrices(k)
    basis = tuple(xi_set(k, p))
    rows, evaluations = _s_rows(data, p, basis)
    assert rows == [list(col) for col in zip(*rows)], (k, p)
    if entries is None:
        entries = [(a, b) for a in range(len(basis)) for b in range(a, len(basis))]
    count = 0
    for a, b in entries:
        want, symbols = s_entry_by_symbols(k, p, basis[a], basis[b])
        assert abs(rows[a][b] - want) < 1e-13, (k, p, basis[a], basis[b])
        count += symbols
    return evaluations, count


def test_pair_rows_equal_symbol_sum():
    """Every entry of every pair with k <= 24, and the count of symbols."""
    for k in range(0, 25):
        for p in range(0, k + 1, 2):
            evaluations, count = _check_rows_against_symbol_sum(k, p, None)
            assert evaluations == count, (k, p)


def test_pair_rows_equal_symbol_sum_at_levels_48_and_100():
    """200 seeded entries at each level: 50 on each of four seeded p."""
    for k in (48, 100):
        rng = random.Random(k)
        for p in rng.sample(range(0, k + 1, 2), 4):
            dim = len(xi_set(k, p))
            entries = [(rng.randrange(dim), rng.randrange(dim)) for _ in range(50)]
            _check_rows_against_symbol_sum(k, p, entries)
    assert gen_modular_pair(48, 2).stages["six_j_evaluations"] == 10628


def test_pair_rows_near_p_equals_k_against_mpmath():
    """Seeded entries of (600, 590) and (1000, 990), where the symbol
    kernel's factorial products underflow, against the same sum of symbols
    with each symbol in 50-digit mpmath."""
    for k, p in ((600, 590), (1000, 990)):
        pair = gen_modular_pair(k, p)
        data = f_r_g_matrices(k)
        rng = random.Random(k)
        for _ in range(3):
            a, b = rng.randrange(len(pair.basis)), rng.randrange(len(pair.basis))
            i, j = pair.basis[a], pair.basis[b]
            rs = range(abs(i - j), min(i + j, 2 * k - i - j) + 1, 2)
            symbols = _six_j_mpmath(k, [(p, i, i, r, j, j) for r in rs])
            acc = sum(data.qdim[r] * data.theta[r] * x for r, x in zip(rs, symbols))
            want = acc / (data.global_dim_root * data.theta[i] * data.theta[j])
            assert abs(pair.s_matrix[a][b] - want) < 1e-12, (k, p, i, j)


def test_pair_refuses_a_subnormal_or_zero_table_value(monkeypatch):
    """A zero or subnormal value of the factorial table, or of a row Q_m,
    raises before it is summed, naming a symbol that reads it."""
    import sl2onepoint.mtc as mtc_module

    data = f_r_g_matrices(3)

    def serve(**poisoned):
        monkeypatch.setattr(mtc_module, "f_r_g_matrices", lambda k: data._replace(**poisoned))

    for bad in (0.0, 5e-324):
        serve(qfact=data.qfact[:2] + (bad,) + data.qfact[3:])
        with pytest.raises(PrecisionLossError, match=r"\{1 1 1; 0 1 1\} at level 3"):
            gen_modular_pair(3, 2)
    # d_2 subnormal makes Q_0[2] on sigma = 2 subnormal, which the pair
    # (1, 1) reads at r = 2
    serve(qdim=data.qdim[:2] + (5e-324,) + data.qdim[3:])
    with pytest.raises(PrecisionLossError, match=r"\{1 1/2 1/2; 1 1/2 1/2\} at level 3"):
        gen_modular_pair(3, 2)


_PAIRS_TO_LEVEL_24 = [(k, p) for k in range(0, 25) for p in range(0, k + 1, 2)]


def test_certification_bounds_the_four_full_products():
    """Each certified bound against the entrywise residual of the four
    full products of the oracle: never below it by more than rounding,
    and at most twice it.  The quarter product S^2 equals the oracle's
    full product float for float on the entries a + c <= d - 1 that it
    sums, and within rounding on the mirrored rest; S T S, with its
    mirror (E - O) rule, equals the full product within rounding."""
    for k, p in _PAIRS_TO_LEVEL_24 + [(48, 2), (48, 4), (48, 6), (100, 2)]:
        pair = gen_modular_pair(k, p)
        s, t = pair.s_matrix, pair.t_diagonal
        s2, _, want = certification(s, t, f_r_g_matrices(k).theta[p])
        sts = _matmul(_matmul(s, _diag(t)), s)
        got_s2, got_sts = _quarter_products(s, t, k, p // 2)
        dim = len(s)
        for a in range(dim):
            for c in range(dim):
                if a + c <= dim - 1:
                    assert got_s2[a][c] == s2[a][c], (k, p, a, c)
                assert abs(got_s2[a][c] - s2[a][c]) <= 1e-14, (k, p, a, c)
                assert abs(got_sts[a][c] - sts[a][c]) <= 1e-14, (k, p, a, c)
        for key, got in pair.relation_residuals.items():
            assert want[key] - 1e-15 <= got <= 2 * want[key] + 1e-15, (k, p, key)


def test_certification_bounds_hold_under_perturbation(monkeypatch):
    """Seeded perturbations of S, 1e-13 to 1e-5, that keep it symmetric
    and keep its simple-current symmetry S_{k-i,k-j} = (-1)^(k+i+j) S_ij
    (noise on the entries a <= b, a + b <= d - 1, mirrored with that
    sign), so that the certification runs: each certified bound is at
    least the oracle's residual, and a tolerance just below the oracle's
    worst residual refuses the pair."""
    import sl2onepoint.mtc as mtc_module

    true_rows = mtc_module._s_rows
    rng = random.Random(19)
    for k, p in [(3, 2), (5, 2), (8, 0), (12, 4), (24, 6)]:
        dim = len(gen_modular_pair(k, p).basis)
        last = dim - 1
        for size in (1e-13, 1e-11, 1e-9, 1e-7, 1e-5):
            noise = [[0j] * dim for _ in range(dim)]
            for a in range(dim):
                for b in range(a, dim - a):
                    x = noise[a][b] = noise[b][a] = size * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    if a + b < last:
                        noise[last - a][last - b] = noise[last - b][last - a] = -x if (k + a + b) % 2 else x

            def perturbed_rows(data, p_label, basis, noise=noise):
                rows, evaluations = true_rows(data, p_label, basis)
                return [list(map(sum, zip(row, extra))) for row, extra in zip(rows, noise)], evaluations

            monkeypatch.setattr(mtc_module, "_s_rows", perturbed_rows)
            pair = gen_modular_pair(k, p, tolerance=1.0)
            _, _, want = certification(pair.s_matrix, pair.t_diagonal, f_r_g_matrices(k).theta[p])
            for key, got in pair.relation_residuals.items():
                assert got >= want[key] - 1e-15, (k, p, size, key)
            with pytest.raises(RelationViolationError):
                gen_modular_pair(k, p, tolerance=0.99 * max(want.values()))
            monkeypatch.setattr(mtc_module, "_s_rows", true_rows)


def test_s_squared_is_diagonal():
    # every sl(2) label is self-dual, so S^2 maps each coupling space to
    # itself; the Dehn bound is tight only because of this
    for k, p in _PAIRS_TO_LEVEL_24:
        s = gen_modular_pair(k, p).s_matrix
        s2 = _matmul(s, s)
        off = max((abs(x) for a, row in enumerate(s2) for b, x in enumerate(row) if a != b), default=0.0)
        assert off <= 1e-13, (k, p, off)


def test_one_dimensional_t_value():
    # T^(k) = e(k/16)
    for k in (2, 4, 6, 10):
        pair = gen_modular_pair(k, k)
        assert len(pair.t_diagonal) == 1
        want = np.exp(2j * np.pi * k / 16)
        assert abs(pair.t_diagonal[0] - want) < TOL


def test_one_dimensional_s_value_is_the_multiplier_value():
    """The 1x1 S^(k) is e(-3k/16), the weight-3k/4 multiplier value on S,
    to rounding (1.7e-15 at worst for even k <= 60), and not e(-3k/32)
    unless 32 | k; from k = 202 on the unscaled [k+1]! would overflow a
    double."""

    def e(x):
        return cmath.exp(2j * cmath.pi * float(x % 1))

    for k in (*range(0, 61, 2), 202, 206, 400):
        s = gen_modular_pair(k, k).s_matrix[0][0]
        assert abs(s - e(F(-3 * k, 16))) < 4e-15, k
        if k % 32 != 0:
            assert abs(s - e(F(-3 * k, 32))) > 0.1, k


def test_one_dimensional_s_value_deprojectivises_correctly():
    # dividing S^(k) by the weight-h_k multiplier value on S recovers the
    # analytic one-dimensional action e(-k/8)
    from sl2onepoint.sl2data import multiplier

    for k in (2, 4, 6, 8, 10):
        pair = gen_modular_pair(k, k)
        nu_s = np.exp(2j * np.pi * float(multiplier(conformal_weight(k, k), "S")))
        got = complex(pair.s_matrix[0][0]) / nu_s
        want = np.exp(-2j * np.pi * k / 8)
        assert abs(got - want) < TOL


def test_level5_p2_published_matrix():
    pair = gen_modular_pair(5, 2)
    assert pair.basis == (1, 2, 3, 4)
    # diagonal T = e(1/56), e(11/56), e(25/56), e(43/56)
    for entry, frac in zip(pair.t_diagonal, (F(1, 56), F(11, 56), F(25, 56), F(43, 56))):
        assert abs(entry - np.exp(2j * np.pi * float(frac))) < TOL
    a = -0.16 - 0.33j
    b = -0.26 - 0.55j
    published = np.array(
        [
            [a, b, b, a],
            [b, a, -a, -b],
            [b, -a, -a, b],
            [a, -b, b, -a],
        ]
    )
    s = np.asarray(pair.s_matrix)
    assert np.max(np.abs(np.round(s, 2) - published)) < 5e-3
    assert np.min(np.abs(s)) > 1e-6
    assert irreducibility_probe(pair) == "irreducible"


def test_gen_modular_pair_guards():
    with pytest.raises(ValueError):
        gen_modular_pair(5, 3)
    with pytest.raises(ValueError):
        gen_modular_pair(5, 6)
    with pytest.raises(ValueError):
        gen_modular_pair(-1, 0)
    # any level builds: the relation residuals are the precision guard
    pair = gen_modular_pair(60, 0)
    assert max(pair.relation_residuals.values()) < TOL
    assert np.max(np.abs(np.asarray(pair.s_matrix) - np.asarray(character_s_matrix(60)))) < TOL


def _poison_s_entry(monkeypatch, factor):
    """Make the (3, 2) pair's S_11 (rows[0][0], basis (1, 2)) ``factor``
    times its value."""
    import sl2onepoint.mtc as mtc_module

    true_rows = mtc_module._s_rows

    def poisoned_rows(data, p, basis):
        rows, evaluations = true_rows(data, p, basis)
        if (data.level, p) == (3, 2):
            rows[0][0] *= factor
        return rows, evaluations

    monkeypatch.setattr(mtc_module, "_s_rows", poisoned_rows)


def test_relation_violation_surfaces_loudly(monkeypatch):
    # poison one S entry: the pair construction must refuse to return
    # silently wrong data
    _poison_s_entry(monkeypatch, 1.05)
    with pytest.raises(RelationViolationError):
        gen_modular_pair(3, 2)


def test_nan_residual_is_refused(monkeypatch):
    # a NaN compares false with any tolerance; the certification must
    # still refuse it
    _poison_s_entry(monkeypatch, math.nan)
    with pytest.raises(RelationViolationError, match="nan"):
        gen_modular_pair(3, 2)


def test_pair_beyond_double_range_factorials_is_certified():
    # the unscaled [k+1]! overflows a double from k = 202 on
    pair = gen_modular_pair(250, 240)
    assert len(pair.basis) == 11
    assert np.all(np.isfinite(np.asarray(pair.s_matrix)))
    assert max(pair.relation_residuals.values()) < TOL


def test_pair_json_payload():
    payload = gen_modular_pair(3, 2).to_json()
    assert payload["basis"] == [1, 2]
    assert len(payload["s_matrix"]) == 2
    assert all(len(entry) == 2 for row in payload["s_matrix"] for entry in row)
    assert set(payload["relation_residuals"]) == {
        "st_cubed_vs_s_squared",
        "s_fourth_vs_inverse_twist",
    }


def test_pair_stages_count_one_six_j_per_term():
    # the basis (1, 2, 3, 4) at k = 5 couples through 36 admissible (i, j, r);
    # the symbol is symmetric in i and j, so 23 of them are evaluated
    pair = gen_modular_pair(5, 2)
    triples = [
        (i, j, r) for i in pair.basis for j in pair.basis for r in range(6) if _adm(5, i, j, r)
    ]
    assert len(triples) == 36
    unordered = [(i, j, r) for i, j, r in triples if i <= j]
    assert pair.stages["six_j_evaluations"] == len(unordered) == 23
    assert pair.stages["assembly_s"] >= 0 and pair.stages["certification_s"] >= 0
    worst = max(pair.relation_residuals.values())
    assert abs(pair.stages["headroom_digits"] - math.log10(TOL / worst)) < 1e-12
    assert gen_modular_pair(0, 0).stages["six_j_evaluations"] == 1


# -- irreducibility probe ----------------------------------------------------------


def test_probe_trivial_and_cross_check():
    assert irreducibility_probe(gen_modular_pair(4, 4)) == "irreducible"  # 1x1
    assert irreducibility_probe(gen_modular_pair(3, 2)) == "irreducible"  # dim 2


def _diag(entries):
    n = len(entries)
    return tuple(tuple(entries[a] if a == b else 0j for b in range(n)) for a in range(n))


def test_probe_inconclusive_on_t_collision():
    fake = GenModularPair(
        level=1,
        p_label=0,
        basis=(0, 1),
        s_matrix=_diag([1.0 + 0j, 1.0 + 0j]),
        t_diagonal=(1.0 + 0j, 1.0 + 0j),
        relation_residuals={},
    )
    assert irreducibility_probe(fake) == "inconclusive"


def test_probe_detects_zero_coupling():
    fake = GenModularPair(
        level=1,
        p_label=0,
        basis=(0, 1),
        s_matrix=_diag([1.0 + 0j, -1.0 + 0j]),  # block diagonal: invariant axes
        t_diagonal=(1.0 + 0j, 1j),
        relation_residuals={},
    )
    assert irreducibility_probe(fake) == "inconclusive"


def test_probe_refuses_large_basis():
    n = 21
    fake = GenModularPair(
        level=1,
        p_label=0,
        basis=tuple(range(n)),
        s_matrix=_diag([1.0 + 0j] * n),
        t_diagonal=tuple(complex(np.exp(2j * np.pi * a / n)) for a in range(n)),
        relation_residuals={},
    )
    with pytest.raises(ValueError):
        irreducibility_probe(fake)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_probe_refuses_non_finite_s(bad):
    # the off-diagonal entries couple and the T-eigenvalues are distinct,
    # so the subset test alone would call this pair irreducible
    s = ((complex(bad, 0.0), 0.5 + 0j), (0.5 + 0j, 0.5 + 0j))
    fake = GenModularPair(
        level=3,
        p_label=2,
        basis=(1, 2),
        s_matrix=s,
        t_diagonal=(1.0 + 0j, 1j),
        relation_residuals={},
    )
    with pytest.raises(ValueError, match="non-finite"):
        irreducibility_probe(fake)
    imaginary = GenModularPair(3, 2, (1, 2), ((complex(0.0, bad), 0.5 + 0j), s[1]), fake.t_diagonal, {})
    with pytest.raises(ValueError, match="non-finite"):
        irreducibility_probe(imaginary)
    finite = GenModularPair(3, 2, (1, 2), ((0.5 + 0j, 0.5 + 0j), s[1]), fake.t_diagonal, {})
    assert irreducibility_probe(finite) == "irreducible"
    # finite entries whose row sum overflows to inf are not refused
    huge = GenModularPair(3, 2, (1, 2), ((1e308 + 0j, 1e308 + 0j), s[1]), fake.t_diagonal, {})
    assert sum(huge.s_matrix[0]) == complex(math.inf, 0.0)
    assert irreducibility_probe(huge) == "irreducible"


def test_probe_equals_subset_enumeration_on_every_small_pair():
    cases = [
        (k, p) for k in range(21) for p in range(0, k + 1, 2) if k - p + 1 <= 14
    ]
    assert len(cases) == 105
    for k, p in cases:
        pair = gen_modular_pair(k, p)
        assert irreducibility_probe(pair) == irreducibility_by_subsets(pair), (k, p)


# an S-entry that couples, one below the tolerance, and none
_COUPLINGS = (0.3 - 0.4j, TOL / 2 + 0j, 0j)


@st.composite
def _synthetic_pairs(draw):
    """Pairs of basis size d <= 7 with distinct T-eigenvalues and S-entries
    drawn one by one, so an edge may run one way only."""
    dim = draw(st.integers(1, 7))
    entries = draw(
        st.lists(st.sampled_from(_COUPLINGS), min_size=dim * dim, max_size=dim * dim)
    )
    return GenModularPair(
        level=1,
        p_label=0,
        basis=tuple(range(dim)),
        s_matrix=tuple(tuple(entries[o * dim : (o + 1) * dim]) for o in range(dim)),
        t_diagonal=tuple(cmath.exp(2j * math.pi * a / dim) for a in range(dim)),
        relation_residuals={},
    )


@settings(max_examples=300, deadline=None)
@given(_synthetic_pairs())
def test_probe_equals_subset_enumeration_on_synthetic_pairs(pair):
    assert irreducibility_probe(pair) == irreducibility_by_subsets(pair)


def test_probe_certifies_basis_size_twenty():
    # 2^20 subsets for the enumeration; two sweeps for the probe
    pair = gen_modular_pair(21, 2)
    assert len(pair.basis) == 20
    assert irreducibility_probe(pair) == "irreducible"


# -- categorical vs analytic -----------------------------------------------------------


def test_compare_with_analytic_sweep():
    for k in range(0, 8):
        for lam in range(0, k + 1, 2):
            report = compare_with_analytic(k, lam)
            assert report["t_consistent"]
            assert report["max_t_residual"] < TOL


def test_reports_take_the_callers_pair():
    pair = gen_modular_pair(6, 2)
    assert compare_with_analytic(6, 2, pair=pair) == compare_with_analytic(6, 2)
    with pytest.raises(ValueError):
        compare_with_analytic(6, 4, pair=pair)
    with pytest.raises(ValueError):
        compare_with_analytic(5, 2, pair=pair)


def test_cached_level_table_refuses_assignment():
    data = f_r_g_matrices(6)
    assert f_r_g_matrices(6) is data
    with pytest.raises(AttributeError):
        data.zeta = 1.0
    assert data.zeta != 1.0
    # a pair built without stages gets a read-only mapping, shared by no
    # mutable default
    pair = GenModularPair(1, 0, (0, 1), _diag([1j, 1j]), (1j, 1j), {})
    assert pair.stages == {}
    with pytest.raises(TypeError):
        pair.stages["six_j_evaluations"] = 0


def test_level_table_refuses_a_level_whose_labels_cannot_be_listed():
    # a pair with p near such a level has a small basis, but its level
    # table would still hold 10^20 + 1 twists
    for p in (2, 10**20 - 2):
        with pytest.raises(ValueError, match="level 100000000000000000000 is too large"):
            gen_modular_pair(10**20, p)


def test_compare_fixture_values():
    report = compare_with_analytic(3, 2)
    sig = rho_t(3, 2)
    assert sig.t_exponents == (F(1, 24), F(7, 24))
    assert set(report["t_residuals"]) == {1, 2}
    report0 = compare_with_analytic(4, 0)
    assert report0["nu_t_exponent"] == "0"


def test_mtc_resolves_the_moved_names_lazily():
    """Of the public names that moved to ``sixj``, ``mtc`` still resolves
    exactly ``verlinde_fusion``, which the benchmark's tracer looks up, as
    the same object; every other spelling raises ``AttributeError``."""
    import sl2onepoint.mtc as mtc_module
    from sl2onepoint import sixj

    moved = [name for name in mtc_module.__all__ if name not in vars(mtc_module)]
    assert moved == ["verlinde_fusion"]
    from sl2onepoint.mtc import verlinde_fusion as via_mtc

    assert via_mtc is verlinde_fusion
    for name in sorted(set(sixj.__all__) - {"verlinde_fusion"}):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(mtc_module, name)
    with pytest.raises(AttributeError, match="has no attribute '_six_j2'"):
        mtc_module._six_j2
    assert not hasattr(mtc_module, "no_such_name")
