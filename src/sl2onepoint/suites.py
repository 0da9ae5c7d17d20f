"""The suites of ``sl2onepoint verify``: each takes the ``cli.RunConfig``
and returns (name, passed, note) checks, importing the layers it checks.
Only ``cli.cmd_verify`` imports this module, so no other job compiles it.
"""

from fractions import Fraction

from . import sl2data


def _fixture_note(entry) -> str:
    """Evidence for a failed fixture entry: the residual the level's
    differential equation leaves on the published series."""
    if any(entry.published_residual):
        return (
            f"published series leaves q^1 residual {entry.published_residual[1]} "
            "under the level's differential equation"
        )
    return "published series solves the level's differential equation, yet differs"


def check_tables(config):
    from . import generator_checks, generators
    from .qseries import QExpansion, euler_product

    checks = []
    for which in ("table1", "table2"):
        report = generator_checks.table_fixture_check(which)
        for entry in report.entries:
            checks.append(
                (f"{which} k={entry.level} mu={entry.mu}", entry.passed,
                 "" if entry.passed else _fixture_note(entry))
            )
    for k in range(2, 21, 2):
        gen = generators.cyclic_generator(k, k, 30)
        # eta^(3k/2) by binary powering of the Euler product, a second route
        want = QExpansion(Fraction(k, 16), (euler_product(30) ** (3 * k // 2)).coeffs)
        checks.append((f"dimension-1 identity k={k}", gen.components[0][1] == want, ""))
    return checks


def check_mlde(config):
    """Each generator solves its equation, and equals the hypergeometric
    construction it is built to replace."""
    from . import generator_checks, generators

    checks = []
    for name, levels, shift, order in (
        ("second-order", range(3, 14, 2), 1, 12),
        ("third-order", range(4, 11, 2), 2, 13),
    ):
        for k in levels:
            gen = generators.cyclic_generator(k, k - shift, order)
            res = generator_checks.mlde_residual(k, k - shift, order, gen)
            solved = all(r.is_zero() and r.order >= 10 for r in res)
            same = gen == generator_checks.hypergeometric_generator(k, k - shift, order)
            note = "" if same else "recurrence differs from the hypergeometric construction"
            if not solved:
                note = "non-zero residual"
            checks.append((f"{name} annihilation k={k}", solved and same, note))
    return checks


def check_bgg(config):
    from . import bgg

    checks = []
    for k in range(2, 13):
        for lam in range(2, k + 1, 2):
            ch = bgg.simple_character(k, lam, lam // 2 + 1)
            ok = all(ch.trivial_multiplicity(n) == 0 for n in range(lam // 2))
            ok = ok and ch.trivial_multiplicity(lam // 2) == 1
            checks.append((f"trivial multiplicities k={k} lambda={lam}", ok, ""))
    return checks


def check_dims(config):
    from . import repanalysis

    checks = []
    for k in range(0, 21):
        for lam in range(0, k + 1, 2):
            ok = sl2data.saturation_check(k, lam)
            checks.append((f"saturation k={k} lambda={lam}", ok, ""))
    for d, kmin in ((1, 2), (2, 3), (3, 4)):
        for k in range(kmin, 21):
            lam = k - d + 1
            if lam < 0 or lam % 2 != 0:
                continue
            ok = all(
                repanalysis.graded_dimension(k, lam, n) == repanalysis.hp_coefficient(d, n)
                for n in range(61)
            )
            checks.append((f"graded dimensions d={d} k={k}", ok, ""))
    for k in range(3, 26, 2):
        verdict = repanalysis.congruence_classify(k, k - 1)
        want = 8 if k % 3 == 2 else 24
        checks.append(
            (f"two-dimensional congruence level k={k}", verdict.congruence_level == want, "")
        )
    for k in range(4, 101, 2):
        want = 12 * (k + 2) if k % 6 == 4 else 4 * (k + 2)
        checks.append((f"T-order closed form k={k}", repanalysis.t_order(k, k - 2) == want, ""))
    for k in range(0, 49, 2):
        sig = sl2data.rho_t(k, k)
        trivial = all(r.denominator == 1 for r in sig.t_exponents)
        checks.append((f"trivial action iff 24 | k, k={k}", trivial == (k % 24 == 0), ""))
    return checks


def check_mtc(config):
    from . import mtc, sixj

    checks = []
    kmax = 10
    pairs = {}  # (k, p) -> the certified pair, built once for all three sweeps
    # certify no tighter than the default, so that a residual above a tight
    # --tolerance fails its check below instead of aborting the suite
    build_tolerance = max(config.tolerance, mtc.DEFAULT_TOLERANCE)
    for k in range(0, kmax + 1):
        for p in range(0, k + 1, 2):
            pair = pairs[(k, p)] = mtc.gen_modular_pair(k, p, build_tolerance)
            worst = max(pair.relation_residuals.values())
            checks.append((f"braid relations k={k} p={p}", worst < config.tolerance, f"residual {worst:.2e}"))
    for k in range(0, kmax + 1):
        diff = max(
            abs(x - y)
            for row, char_row in zip(pairs[(k, 0)].s_matrix, sixj.character_s_matrix(k))
            for x, y in zip(row, char_row)
        )
        checks.append((f"S^(0) equals character S-matrix k={k}", diff < config.tolerance, f"max diff {diff:.2e}"))
    for k in range(0, min(kmax, 8) + 1):
        table = sixj.verlinde_numbers(k)
        ok = all(
            round(table[lam][mu][nu]) == sl2data.fusion_coefficient(k, lam, mu, nu)
            for lam in range(k + 1)
            for mu in range(k + 1)
            for nu in range(k + 1)
        )
        checks.append((f"Verlinde numbers k={k}", ok, ""))
    for k in range(0, kmax + 1):
        for lam in range(0, k + 1, 2):
            rep = mtc.compare_with_analytic(k, lam, config.tolerance, pair=pairs[(k, lam)])
            checks.append(
                (f"categorical/analytic T k={k} lambda={lam}", rep["t_consistent"],
                 f"max residual {rep['max_t_residual']:.2e}")
            )
    return checks


# the suites of ``verify --suite all``, in the order they run
SUITES = {
    "tables": check_tables, "mlde": check_mlde, "bgg": check_bgg, "dims": check_dims, "mtc": check_mtc
}
