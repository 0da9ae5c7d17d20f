"""The suites of ``sl2onepoint verify``: each takes the tolerance of
``--tolerance`` and returns (name, passed, note) checks, importing the
layers it checks; ``report`` runs one suite, or all, and gives what
``verify`` prints.  The ordinary modular data that only the mtc suite
reads lives here too: the character S-matrix, the Verlinde numbers of a
level and ``verlinde_fusion``, their one-triple oracle.
Only ``cli.cmd_verify`` imports this module, so no other job compiles it.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from operator import mul, truediv

from . import sl2data

__all__ = [
    "character_s_matrix",
    "verlinde_fusion",
    "verlinde_numbers",
    "check_tables",
    "check_mlde",
    "check_bgg",
    "check_dims",
    "check_mtc",
    "SUITES",
    "report",
]

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


def _series_note(got, want) -> str:
    """Evidence for a generator that differs from the series expected: the
    two leading exponents when they differ, else the first coefficient that
    does."""
    if got.leading_exponent != want.leading_exponent:
        return f"leading exponent {got.leading_exponent}, expected {want.leading_exponent}"
    n, x, y = _first_difference((n, x, y) for n, (x, y) in enumerate(zip_longest(got.coeffs, want.coeffs)))
    return f"coefficient of q^({got.leading_exponent + n}): generator {x}, Euler-product power {y}"


def check_tables(tolerance):
    from . import generator_checks, generators
    from .qseries import euler_product, monomial

    checks = []
    for which in ("table1", "table2"):
        for entry in generator_checks.table_fixture_check(which, _generator):
            checks.append(
                (f"{which} k={entry.level} mu={entry.mu}", entry.passed,
                 "" if entry.passed else _fixture_note(entry))
            )
    # eta^(3k/2) as powers of the Euler product, each the last times its
    # cube: a second route, which shares nothing with Miller's recurrence
    cube = euler_product(30) ** 3
    power = cube
    for k in range(2, 21, 2):
        got = generators.cyclic_generator(k, k, 30).components[0][1]
        want = monomial(Fraction(k, 16), 30) * power
        ok = got == want
        checks.append((f"dimension-1 identity k={k}", ok, "" if ok else _series_note(got, want)))
        power = power * cube
    return checks


def check_mlde(tolerance):
    """Each generator solves its equation, and equals the hypergeometric
    construction it is built to replace."""
    from . import generator_checks

    checks = []
    for name, levels, shift, order in _EQUATIONS:
        for k in levels:
            gen = _generator(k, k - shift)
            res = generator_checks.mlde_residual(gen)
            solved = all(r.is_zero() and r.order >= 10 for r in res)
            same = gen == generator_checks.hypergeometric_generator(k, k - shift, order)
            note = "" if same else "recurrence differs from the hypergeometric construction"
            if not solved:
                note = "non-zero residual"
            checks.append((f"{name} annihilation k={k}", solved and same, note))
    return checks


def check_bgg(tolerance):
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


def check_dims(tolerance):
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
        got = repanalysis.congruence_classify(k, k - 1).congruence_level
        want = 8 if k % 3 == 2 else 24
        note = "" if got == want else f"congruence level {got}, expected {want}"
        checks.append((f"two-dimensional congruence level k={k}", got == want, note))
    for k in range(4, 101, 2):
        got = repanalysis.t_order(k, k - 2)
        want = 12 * (k + 2) if k % 6 == 4 else 4 * (k + 2)
        note = "" if got == want else f"T-order {got}, closed form {want}"
        checks.append((f"T-order closed form k={k}", got == want, note))
    for k in range(0, 49, 2):
        bad = next((r for r in sl2data.rho_t(k, k).t_exponents if r.denominator != 1), None)
        ok = (bad is None) == (k % 24 == 0)
        note = "" if ok else (
            "every T-exponent is an integer" if bad is None else f"first non-integral T-exponent {bad}"
        )
        checks.append((f"trivial action iff 24 | k, k={k}", ok, note))
    return checks


@lru_cache(maxsize=None)
def character_s_matrix(k: int) -> tuple[tuple[float, ...], ...]:
    """The character S-matrix S_ij = sqrt(2/(k+2)) sin(pi (i+1)(j+1)/(k+2))
    of level k, real and symmetric; cached by level and immutable.  Each
    sine is the level table's: with n = k + 2, sin(pi m/n) = +-``qint[m
    mod n]``, negative on the odd half-periods, so the argument is folded
    as ``qint``'s is and column 0 is, by construction, the one that
    ``mtc.f_r_g_matrices`` builds."""
    from .mtc import f_r_g_matrices

    n, qint = k + 2, f_r_g_matrices(k).qint
    scale = math.sqrt(2.0 / n)
    signed = (scale, -scale)
    labels = range(1, k + 2)
    return tuple(tuple(signed[a * b // n % 2] * qint[a * b % n] for b in labels) for a in labels)


def verlinde_fusion(k: int, lam: int, mu: int, nu: int) -> float:
    """Fusion number from the character S-matrix:
    sum_m S_{lam,m} S_{mu,m} conj(S_{nu,m}) / S_{0,m}; the matrix is
    real, so the conjugation is the identity."""
    for label in (lam, mu, nu):
        sl2data._check_label(k, label)
    s = character_s_matrix(k)
    return float(sum(s[lam][m] * s[mu][m] * s[nu][m] / s[0][m] for m in range(k + 1)))


def verlinde_numbers(k: int) -> list[list[list[float]]]:
    """Every fusion number of level k by the Verlinde formula, in one pass:
    N[lam][mu][nu] is the weights S_{lam,m} S_{mu,m} / S_{0,m} of the pair
    (lam, mu) dotted with row nu of the character S-matrix, one label
    check for the level.  The sum of ``verlinde_fusion`` in another order,
    so equal to it up to rounding."""
    s = character_s_matrix(k)
    table = []
    for s_lam in s:
        ratios = list(map(truediv, s_lam, s[0]))
        by_mu = []
        for s_mu in s:
            weights = list(map(mul, ratios, s_mu))
            by_mu.append([sum(map(mul, weights, s_nu)) for s_nu in s])
        table.append(by_mu)
    return table


def check_mtc(tolerance):
    from . import mtc

    checks = []
    kmax = 10
    pairs = {}  # (k, p) -> the certified pair, built once for all three sweeps
    # certify no tighter than the default, so that a residual above a tight
    # --tolerance fails its check below instead of aborting the suite
    build_tolerance = max(tolerance, mtc.DEFAULT_TOLERANCE)
    for k in range(0, kmax + 1):
        for p in range(0, k + 1, 2):
            pair = pairs[(k, p)] = mtc.gen_modular_pair(k, p, build_tolerance)
            worst = max(pair.relation_residuals.values())
            checks.append((f"braid relations k={k} p={p}", worst < tolerance, f"residual {worst:.2e}"))
    for k in range(0, kmax + 1):
        diff = max(
            abs(x - y)
            for row, char_row in zip(pairs[(k, 0)].s_matrix, character_s_matrix(k))
            for x, y in zip(row, char_row)
        )
        checks.append((f"S^(0) equals character S-matrix k={k}", diff < tolerance, f"max diff {diff:.2e}"))
    for k in range(0, min(kmax, 8) + 1):
        table = verlinde_numbers(k)
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
            rep = mtc.compare_with_analytic(k, lam, tolerance, pair=pairs[(k, lam)])
            checks.append(
                (f"categorical/analytic T k={k} lambda={lam}", rep["t_consistent"],
                 f"max residual {rep['max_t_residual']:.2e}")
            )
    return checks


# the suites of ``verify --suite all``, in the order they run
SUITES = {
    "tables": check_tables, "mlde": check_mlde, "bgg": check_bgg, "dims": check_dims, "mtc": check_mtc
}


def report(suite: str, tolerance: float) -> tuple[dict, list[str]]:
    """Run ``suite``, or every suite for ``"all"``, and give the JSON
    payload and the lines of the table format: the counts of checks run
    and failed, and each failure with its note."""
    checks = []
    for key in SUITES if suite == "all" else (suite,):
        checks.extend(SUITES[key](tolerance))
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
