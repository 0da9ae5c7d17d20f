"""The suites of ``sl2onepoint verify``: each takes the ``cli.RunConfig``
and returns (name, passed, note) checks, importing the layers it checks;
``report`` runs one suite, or all, and gives what ``verify`` prints.
Only ``cli.cmd_verify`` imports this module, so no other job compiles it.
"""

from fractions import Fraction
from functools import lru_cache

from . import sl2data

# the equations of the mlde suite: name, levels, k - lambda, and the order,
# which leaves each residual ten valid terms
_EQUATIONS = (("second-order", range(3, 14, 2), 1, 12), ("third-order", range(4, 11, 2), 2, 13))


@lru_cache(maxsize=None)
def _generator(k, lam):
    """``cyclic_generator(k, lam)`` at the order of the mlde suite, built
    once per process.  The published tables cover the same (k, lambda) to
    five terms, so one build serves both suites."""
    from . import generators

    order = next(order for _, _, shift, order in _EQUATIONS if shift == k - lam)
    return generators.cyclic_generator(k, lam, order)


def _fixture_note(entry) -> str:
    """Evidence for a failed fixture entry: the residual the level's
    differential equation leaves on the published series."""
    if any(entry.published_residual):
        return (
            f"published series leaves q^1 residual {entry.published_residual[1]} "
            "under the level's differential equation"
        )
    return "published series solves the level's differential equation, yet differs"


def _first_difference(entries):
    """The first (entry, got, want) of ``entries`` whose two values differ,
    or None.  It reads ``entries`` up to that one only, as ``all`` would, and
    a failed check formats its note from it."""
    return next((e for e in entries if e[1] != e[2]), None)


def check_tables(config):
    from . import generator_checks, generators
    from .qseries import euler_product, monomial

    checks = []
    for which in ("table1", "table2"):
        report = generator_checks.table_fixture_check(which, _generator)
        for entry in report.entries:
            checks.append(
                (f"{which} k={entry.level} mu={entry.mu}", entry.passed,
                 "" if entry.passed else _fixture_note(entry))
            )
    # eta^(3k/2) as powers of the Euler product, each the last times its
    # cube: a second route, which shares nothing with Miller's recurrence
    cube = euler_product(30) ** 3
    power = cube
    for k in range(2, 21, 2):
        gen = generators.cyclic_generator(k, k, 30)
        want = monomial(Fraction(k, 16), 30) * power
        checks.append((f"dimension-1 identity k={k}", gen.components[0][1] == want, ""))
        power = power * cube
    return checks


def check_mlde(config):
    """Each generator solves its equation, and equals the hypergeometric
    construction it is built to replace."""
    from . import generator_checks

    checks = []
    for name, levels, shift, order in _EQUATIONS:
        for k in levels:
            gen = _generator(k, k - shift)
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
            # 0 below grade lam/2, 1 at it
            bad = _first_difference(
                (n, ch.trivial_multiplicity(n), int(n == lam // 2)) for n in range(lam // 2 + 1)
            )
            note = "" if bad is None else "grade {}: multiplicity {}, expected {}".format(*bad)
            checks.append((f"trivial multiplicities k={k} lambda={lam}", bad is None, note))
    return checks


def check_dims(config):
    from . import repanalysis

    checks = []
    for k in range(0, 21):
        for lam in range(0, k + 1, 2):
            ok = repanalysis.saturation_check(k, lam)
            note = "" if ok else "weight lower bound {}, form weight {}".format(
                repanalysis.weight_lower_bound(repanalysis.leading_exponents(k, lam)),
                repanalysis.form_weight(k, lam),
            )
            checks.append((f"saturation k={k} lambda={lam}", ok, note))
    for d, kmin in ((1, 2), (2, 3), (3, 4)):
        for k in range(kmin, 21):
            lam = k - d + 1
            if lam < 0 or lam % 2 != 0:
                continue
            bad = _first_difference(
                (n, repanalysis.graded_dimension(k, lam, n), repanalysis.hp_coefficient(d, n))
                for n in range(61)
            )
            note = "" if bad is None else "grade {}: graded dimension {}, HP coefficient {}".format(*bad)
            checks.append((f"graded dimensions d={d} k={k}", bad is None, note))
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
        bad = _first_difference(
            ((lam, mu, nu), round(table[lam][mu][nu]), sl2data.fusion_coefficient(k, lam, mu, nu))
            for lam in range(k + 1)
            for mu in range(k + 1)
            for nu in range(k + 1)
        )
        note = "" if bad is None else "N_({0[0]},{0[1]})^{0[2]}: Verlinde {1}, fusion rule {2}".format(*bad)
        checks.append((f"Verlinde numbers k={k}", bad is None, note))
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


def report(suite: str, config) -> tuple[dict, list[str]]:
    """Run ``suite``, or every suite for ``"all"``, and give the JSON
    payload and the lines of the table format: the counts of checks run
    and failed, and each failure with its note."""
    checks = []
    for key in SUITES if suite == "all" else (suite,):
        checks.extend(SUITES[key](config))
    failures = [(name, note) for name, ok, note in checks if not ok]
    payload = {
        "suite": suite,
        "total": len(checks),
        "failed": len(failures),
        "failures": [{"check": name, "note": note} for name, note in failures],
    }
    lines = [f"suite {suite}: {len(checks) - len(failures)}/{len(checks)} checks passed"]
    for name, note in failures:
        lines.append(f"  FAIL {name}" + (f": {note}" if note else ""))
    return payload, lines
