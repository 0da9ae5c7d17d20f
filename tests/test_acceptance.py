"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s or -v to see them).  Tolerances are stated inline;
exact-rational criteria use equality, numeric ones 1e-9 except where a
printed two-decimal matrix is being reproduced.

Criterion 2 judges each entry of the published three-component table by
the third-order equation that defines it.  At each level the published
exponents {0, (k+1)/(4(k+2)), 1/2} (after removing the eta factor) fix
that equation through its indicial polynomial, and no two of them differ
by an integer, so each column has exactly one solution with leading
coefficient 1.  The test asserts that the exponents are the published
ones, that every computed series solves the equation exactly through all
five coefficients, and that each entry either equals the published five
coefficients or is published as a series that leaves a non-zero q^1
residual under the same equation.  The published first and second
columns are of the second kind at every level, so no correct program can
match them: each is the generator's own hypergeometric construction with
one parameter set wrongly (test_table2_known_discrepancy_pattern in
test_generators rebuilds all eight).  The published third column is
matched exactly.  ``verify --suite tables`` still reports the eight
mismatches as failing checks.
"""

import time
from fractions import Fraction as F

import numpy as np

from sl2onepoint import bgg, generator_checks, generators, mtc, repanalysis, sl2data, suites
from sl2onepoint.qseries import QExpansion, eta_power, euler_product

from mlde_oracle import apply_monic_operator, indicial_kappas

TOL = 1e-9


def _five_terms(k, lam):
    """The (k, lam) generator to the published tables' five terms."""
    return generators.cyclic_generator(k, lam, 5)


def _report(criterion: str, passed: bool, detail: str = "") -> bool:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    return passed


def test_criterion_01_table1_reproduction():
    start = time.perf_counter()
    entries = generator_checks.table_fixture_check("table1", _five_terms)
    elapsed = time.perf_counter() - start
    ok = all(e.passed for e in entries) and len(entries) == 12
    ok = _report(
        "criterion 1: two-component table, 6 levels x 2 components x 5 exact coefficients",
        ok,
        f"{elapsed:.2f}s",
    )
    assert ok
    assert elapsed < 1.0


def test_criterion_02_table2_reproduction():
    start = time.perf_counter()
    entries = generator_checks.table_fixture_check("table2", _five_terms)
    elapsed = time.perf_counter() - start
    problems, exact, off_equation = [], 0, []
    for k in sorted({e.level for e in entries}):
        row = [e for e in entries if e.level == k]
        mu_min = min(e.expected_exponent for e in row)
        exps = [e.expected_exponent - mu_min for e in row]
        weight = 4 * sum(exps) - 2  # 12*(sum of exponents)/3 + 1 - 3
        kappas = indicial_kappas(weight, exps)
        # three orders more than the table, so the residual reaches q^4
        gen = generators.cyclic_generator(k, k - 2, 8)
        for e in row:
            where = f"k={k} mu={e.mu}"
            if e.got_exponent != e.expected_exponent:
                problems.append(f"{where}: exponent {e.got_exponent}, published {e.expected_exponent}")
            computed = gen.component(e.mu)
            if computed.coeffs[:5] != e.got_coeffs:
                problems.append(f"{where}: order-8 generator disagrees with the compared one")
            if not apply_monic_operator(
                eta_power(-24 * mu_min, 8) * computed, weight, kappas
            ).is_zero():
                problems.append(f"{where}: computed series does not solve the equation")
            if e.passed:
                exact += 1
                continue
            published = QExpansion(e.expected_exponent, e.expected_coeffs)
            residual = apply_monic_operator(
                eta_power(-24 * mu_min, 5) * published, weight, kappas
            )
            if residual.is_zero():
                problems.append(f"{where}: published series solves the equation, yet differs")
            else:
                off_equation.append(f"{where}: {residual.coeffs[1]}")
    ok = len(entries) == 12 and not problems
    _report(
        "criterion 2: three-component table, 4 levels x 3 components x 5 exact coefficients, "
        "each judged by its level's third-order equation",
        ok,
        f"{elapsed:.2f}s; {exact} entries exact; published q^1 residuals of the others: "
        + ", ".join(off_equation),
    )
    assert elapsed < 2.0
    assert ok, problems


def test_criterion_03_dimension_one_identity():
    ok = True
    for k in range(2, 21, 2):
        gen = generators.cyclic_generator(k, k, 30)
        # the generator raises the Euler product by the Miller recurrence;
        # binary powering is a second route to the same series
        want = QExpansion(F(k, 16), (euler_product(30) ** (3 * k // 2)).coeffs)
        ok = ok and gen.components[0][1] == want
    ok = _report("criterion 3: one-component generator equals eta^(3k/2), k = 2..20", ok)
    assert ok


def test_criterion_04_mlde_annihilation():
    ok = True
    for k in range(3, 14, 2):
        residuals = generator_checks.mlde_residual(generators.cyclic_generator(k, k - 1, 12))
        ok = ok and all(r.is_zero() and r.order >= 10 for r in residuals)
    for k in range(4, 11, 2):
        residuals = generator_checks.mlde_residual(generators.cyclic_generator(k, k - 2, 13))
        ok = ok and all(r.is_zero() and r.order >= 10 for r in residuals)
    ok = _report(
        "criterion 4: exact differential-equation residuals vanish through order 10", ok
    )
    assert ok


def test_criterion_05_bgg_multiplicities():
    start = time.perf_counter()
    ok = True
    for k in range(2, 13):
        for lam in range(2, k + 1, 2):
            ch = bgg.simple_character(k, lam, lam // 2 + 1)
            ok = ok and all(ch.trivial_multiplicity(n) == 0 for n in range(lam // 2))
            ok = ok and ch.trivial_multiplicity(lam // 2) == 1
    elapsed = time.perf_counter() - start
    ok = _report(
        "criterion 5: trivial multiplicities 0 below lambda/2 and 1 at lambda/2, k <= 12",
        ok,
        f"{elapsed:.2f}s",
    )
    assert ok
    assert elapsed < 30.0


def test_criterion_06_saturation():
    ok = all(
        repanalysis.saturation_check(k, lam)
        for k in range(0, 21)
        for lam in range(0, k + 1, 2)
    )
    ok = _report("criterion 6: weight bound saturates exactly for all even lambda <= k <= 20", ok)
    assert ok


def test_criterion_07_graded_dimensions():
    ok = True
    for d, kmin in ((1, 2), (2, 3), (3, 4)):
        for k in range(kmin, 21):
            lam = k - d + 1
            if lam % 2 != 0:
                continue
            for n in range(61):
                ok = ok and repanalysis.graded_dimension(k, lam, n) == repanalysis.hp_coefficient(
                    d, n
                )
    ok = _report("criterion 7: closed-form graded dimensions equal series coefficients", ok)
    assert ok


def test_criterion_08_braid_relations():
    start = time.perf_counter()
    worst = 0.0
    for k in range(0, 11):
        for p in range(0, k + 1, 2):
            pair = mtc.gen_modular_pair(k, p, TOL)
            worst = max(worst, *pair.relation_residuals.values())
    elapsed = time.perf_counter() - start
    ok = worst < TOL
    ok = _report(
        "criterion 8: (S T)^3 = S^2 and S^4 = 1/twist for k <= 10, all even p",
        ok,
        f"worst residual {worst:.2e}, {elapsed:.1f}s",
    )
    assert ok
    assert elapsed < 60.0


def test_criterion_09_s0_and_verlinde():
    worst = 0.0
    for k in range(0, 11):
        pair = mtc.gen_modular_pair(k, 0, TOL)
        diff = np.asarray(pair.s_matrix) - np.asarray(suites.character_s_matrix(k))
        worst = max(worst, float(np.max(np.abs(diff))))
    ok = worst < TOL
    for k in range(0, 9):
        for lam in range(k + 1):
            for mu in range(k + 1):
                for nu in range(k + 1):
                    got = round(suites.verlinde_fusion(k, lam, mu, nu))
                    ok = ok and got == sl2data.fusion_coefficient(k, lam, mu, nu)
    ok = _report(
        "criterion 9: S^(0) equals the character S-matrix; Verlinde numbers equal fusion rules",
        ok,
        f"worst S-residual {worst:.2e}",
    )
    assert ok


def test_criterion_10_four_dimensional_noncongruence():
    pair = mtc.gen_modular_pair(5, 2, TOL)
    a = -0.16 - 0.33j
    b = -0.26 - 0.55j
    published = np.array(
        [[a, b, b, a], [b, a, -a, -b], [b, -a, -a, b], [a, -b, b, -a]]
    )
    s = np.asarray(pair.s_matrix)
    two_decimals = np.max(np.abs(np.round(s, 2) - published)) < 5e-3
    no_zero = float(np.min(np.abs(s))) > 1e-6
    probe = mtc.irreducibility_probe(pair, tolerance=TOL) == "irreducible"
    rule = repanalysis.prime_power_parameters(5) == (7, 1) and repanalysis.prime_power_rule_applies(
        5, 2
    )
    ok = _report(
        "criterion 10: printed 4x4 S-matrix to two decimals, no vanishing entry, "
        "irreducible, prime-power rule fires (jointly: non-congruence)",
        two_decimals and no_zero and probe and rule,
    )
    assert ok


def test_criterion_11_classification_fixtures():
    ok = True
    for k in range(3, 26, 2):
        verdict = repanalysis.congruence_classify(k, k - 1)
        want = 8 if k % 3 == 2 else 24
        ok = ok and verdict.status == repanalysis.CONGRUENCE
        ok = ok and verdict.congruence_level == want
    for k in range(4, 101, 2):
        want = 12 * (k + 2) if k % 6 == 4 else 4 * (k + 2)
        ok = ok and repanalysis.t_order(k, k - 2) == want
    for k in range(0, 49, 2):
        sig = sl2data.rho_t(k, k)
        trivial = all(r.denominator == 1 for r in sig.t_exponents)
        ok = ok and trivial == (k % 24 == 0)
    ok = _report(
        "criterion 11: two-dim congruence levels, three-dim T-orders, trivial action iff 24 | k",
        ok,
    )
    assert ok


def test_criterion_12_categorical_analytic_consistency():
    worst = 0.0
    for k in range(0, 11):
        for lam in range(0, k + 1, 2):
            report = mtc.compare_with_analytic(k, lam, TOL)
            worst = max(worst, report["max_t_residual"])
    ok = worst < TOL
    ok = _report(
        "criterion 12: categorical T divided by the multiplier matches the analytic exponents",
        ok,
        f"worst residual {worst:.2e}",
    )
    assert ok
