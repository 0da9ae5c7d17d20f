"""Command line surface: every computation as a subcommand.

    sl2onepoint expand   --level K --lambda L [--order N] [--format F]
    sl2onepoint classify --level K --lambda L [--format F]
    sl2onepoint mtc      --level K --p P [--tolerance T] [--format F]
    sl2onepoint verify   --suite NAME [--tolerance T] [--format F]

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 unsupported request.  A computation that fails its own consistency
check (a modular pair off its braid relations, say at a tolerance
below double-precision error) also exits 1, with the message on stderr.

The categorical layer (``mtc``) is imported inside the two functions
that use it, ``cmd_mtc`` and ``_suite_mtc``: it needs numpy, whose import
is most of the start-up time and memory of ``expand`` and ``classify``,
which never touch it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

from . import bgg, generators, repanalysis, sl2data
from .errors import (
    DegenerateMldeError,
    InternalInconsistencyError,
    RelationViolationError,
    UnsupportedDimensionError,
)
from .qseries import QExpansion, euler_product, fraction_to_str

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_UNSUPPORTED = 3

SUITES = ("tables", "mlde", "bgg", "dims", "mtc", "all")


@dataclass
class RunConfig:
    order: int = 12
    tolerance: float = 1e-9
    output_format: str = "table"

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.output_format not in ("json", "table"):
            raise ValueError(f"unknown format {self.output_format!r}")


def _emit(payload: dict, config: RunConfig, table_lines) -> None:
    if config.output_format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in table_lines:
            print(line)


# -- expand -------------------------------------------------------------


def cmd_expand(k: int, lam: int, config: RunConfig) -> int:
    gen = generators.cyclic_generator(k, lam, config.order)
    lines = [f"cyclic generator  level={k}  lambda={lam}  weight={fraction_to_str(gen.form_weight)}"]
    for mu, series in gen.components:
        lines.append(f"  mu={mu}: {series.pretty()}")
    _emit(gen.to_json(), config, lines)
    return EXIT_OK


# -- classify -----------------------------------------------------------


def cmd_classify(k: int, lam: int, config: RunConfig) -> int:
    sig = sl2data.rho_t(k, lam)
    exponents = sl2data.leading_exponents(k, lam)
    try:
        holomorphy = sl2data.holomorphy_classify(k, lam)
    except UnsupportedDimensionError:
        holomorphy = None  # no sharp refinement above dimension 3
    verdict = repanalysis.congruence_classify(k, lam)
    try:
        irred = repanalysis.irreducibility_subproduct_test(sig)
    except ValueError as exc:
        irred = f"refused: {exc}"
    payload = {
        "level": k,
        "lambda": lam,
        "dimension": sig.dimension,
        "leading_exponents": [fraction_to_str(x) for x in exponents],
        "rho_t": sig.to_json(),
        "t_order": repanalysis.t_order(k, lam),
        "irreducibility": irred,
        "congruence": verdict.to_json(),
        "holomorphy": holomorphy,
        "saturation": sl2data.saturation_check(k, lam),
    }
    lines = [
        f"level={k} lambda={lam}: dimension {sig.dimension}",
        "  leading exponents: " + ", ".join(fraction_to_str(x) for x in exponents),
        "  T-exponents: " + ", ".join(fraction_to_str(x) for x in sig.t_exponents),
        f"  order of T-action: {payload['t_order']}",
        f"  irreducibility (subproduct test): {irred}",
        f"  congruence: {verdict.status}"
        + (f" (level {verdict.congruence_level})" if verdict.congruence_level else "")
        + f" [{verdict.basis}]",
        f"  holomorphy: {holomorphy if holomorphy else 'holomorphic (no sharp refinement above dimension 3)'}",
        f"  weight-bound saturation: {payload['saturation']}",
    ]
    if verdict.status == repanalysis.UNDETERMINED and sig.dimension >= 4:
        lines.append("  hint: run `sl2onepoint mtc` for the categorical irreducibility probe")
        payload["hint"] = "mtc"
    _emit(payload, config, lines)
    return EXIT_OK


# -- mtc ----------------------------------------------------------------


def cmd_mtc(k: int, p: int, config: RunConfig) -> int:
    from . import mtc

    pair = mtc.gen_modular_pair(k, p, config.tolerance)
    try:
        probe = mtc.irreducibility_probe(pair, tolerance=config.tolerance)
    except ValueError as exc:
        probe = f"refused: {exc}"
    payload = pair.to_json()
    payload["irreducibility_probe"] = probe
    payload["analytic_comparison"] = mtc.compare_with_analytic(k, p, config.tolerance, pair=pair)
    if p == k and k % 2 == 0:
        # the 1x1 case, where competing printed values exist; report all
        payload["s_value_report"] = mtc.s_k_report(k, pair=pair)
    lines = [f"modular pair  level={k}  p={p}  basis={list(pair.basis)}"]
    for key, value in pair.relation_residuals.items():
        lines.append(f"  {key}: {value:.3e}")
    lines.append(f"  irreducibility probe: {probe}")
    lines.append("  S matrix:")
    for row in pair.s_matrix:
        lines.append("    " + "  ".join(f"{z.real:+.4f}{z.imag:+.4f}i" for z in row))
    _emit(payload, config, lines)
    return EXIT_OK


# -- verify -------------------------------------------------------------


def _fixture_note(entry) -> str:
    """Evidence for a failed fixture entry: the residual the level's
    differential equation leaves on the published series."""
    if any(entry.published_residual):
        return (
            f"published series leaves q^1 residual {fraction_to_str(entry.published_residual[1])} "
            "under the level's differential equation"
        )
    return "published series solves the level's differential equation, yet differs"


def _suite_tables(config: RunConfig):
    checks = []
    for which in ("table1", "table2"):
        report = generators.table_fixture_check(which)
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


def _suite_mlde(config: RunConfig):
    """Each generator solves its equation, and equals the hypergeometric
    construction it is built to replace."""
    checks = []
    for name, levels, shift, order in (
        ("second-order", range(3, 14, 2), 1, 12),
        ("third-order", range(4, 11, 2), 2, 13),
    ):
        for k in levels:
            res = generators.mlde_residual(k, k - shift, order)
            solved = all(r.is_zero() and r.order >= 10 for r in res)
            gen = generators.cyclic_generator(k, k - shift, order)
            same = gen == generators.hypergeometric_generator(k, k - shift, order)
            note = "" if same else "recurrence differs from the hypergeometric construction"
            if not solved:
                note = "non-zero residual"
            checks.append((f"{name} annihilation k={k}", solved and same, note))
    return checks


def _suite_bgg(config: RunConfig):
    checks = []
    for k in range(2, 13):
        for lam in range(2, k + 1, 2):
            ch = bgg.simple_character(k, lam, lam // 2 + 1)
            ok = all(ch.trivial_multiplicity(n) == 0 for n in range(lam // 2))
            ok = ok and ch.trivial_multiplicity(lam // 2) == 1
            checks.append((f"trivial multiplicities k={k} lambda={lam}", ok, ""))
    return checks


def _suite_dims(config: RunConfig):
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


def _suite_mtc(config: RunConfig):
    from . import mtc

    checks = []
    kmax = 10
    pairs = {}  # (k, p) -> the certified pair, built once for all three sweeps
    for k in range(0, kmax + 1):
        for p in range(0, k + 1, 2):
            pair = pairs[(k, p)] = mtc.gen_modular_pair(k, p, config.tolerance)
            worst = max(pair.relation_residuals.values())
            checks.append((f"braid relations k={k} p={p}", worst < config.tolerance, f"residual {worst:.2e}"))
    for k in range(0, kmax + 1):
        diff = float(abs(pairs[(k, 0)].s_matrix - mtc.f_r_g_matrices(k).s_char).max())
        checks.append((f"S^(0) equals character S-matrix k={k}", diff < config.tolerance, f"max diff {diff:.2e}"))
    for k in range(0, min(kmax, 8) + 1):
        ok = True
        for lam in range(k + 1):
            for mu in range(k + 1):
                for nu in range(k + 1):
                    got = round(mtc.verlinde_fusion(k, lam, mu, nu))
                    if got != sl2data.fusion_coefficient(k, lam, mu, nu):
                        ok = False
        checks.append((f"Verlinde numbers k={k}", ok, ""))
    for k in range(0, kmax + 1):
        for lam in range(0, k + 1, 2):
            rep = mtc.compare_with_analytic(k, lam, config.tolerance, pair=pairs[(k, lam)])
            checks.append(
                (f"categorical/analytic T k={k} lambda={lam}", rep["t_consistent"],
                 f"max residual {rep['max_t_residual']:.2e}")
            )
    return checks


def cmd_verify(suite: str, config: RunConfig) -> int:
    suite_fns = {
        "tables": [_suite_tables],
        "mlde": [_suite_mlde],
        "bgg": [_suite_bgg],
        "dims": [_suite_dims],
        "mtc": [_suite_mtc],
        "all": [_suite_tables, _suite_mlde, _suite_bgg, _suite_dims, _suite_mtc],
    }
    checks = []
    for fn in suite_fns[suite]:
        checks.extend(fn(config))
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
    _emit(payload, config, lines)
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


# -- argument plumbing ---------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2onepoint",
        description="Exact and categorical modular data of affine sl(2) torus one-point functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, level=True, lam=False, order=False, tolerance=False):
        """The options a subcommand reads, and no others."""
        if level:
            p.add_argument("--level", "-k", type=int, required=True, help="level k >= 0")
        if lam:
            p.add_argument("--lambda", "-l", dest="lam", type=int, required=True,
                           help="finite weight lambda (even)")
        if order:
            p.add_argument("--order", "-n", type=int, default=RunConfig.order,
                           help="series truncation order")
        if tolerance:
            p.add_argument("--tolerance", type=float, default=RunConfig.tolerance)
        p.add_argument("--format", dest="output_format", choices=("json", "table"),
                       default=RunConfig.output_format)

    common(sub.add_parser("expand", help="q-expansions of the cyclic generator"),
           lam=True, order=True)
    common(sub.add_parser("classify", help="representation-level classification"), lam=True)
    p_mtc = sub.add_parser("mtc", help="generalised modular pair from categorical data")
    common(p_mtc, tolerance=True)
    p_mtc.add_argument("--p", type=int, required=True, help="acting label p (even)")
    p_verify = sub.add_parser("verify", help="run a verification suite")
    common(p_verify, level=False, tolerance=True)
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig(
            **{f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
        )
        if args.command == "expand":
            return cmd_expand(args.level, args.lam, config)
        if args.command == "classify":
            return cmd_classify(args.level, args.lam, config)
        if args.command == "mtc":
            return cmd_mtc(args.level, args.p, config)
        return cmd_verify(args.suite, config)
    except UnsupportedDimensionError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (RelationViolationError, InternalInconsistencyError, DegenerateMldeError) as exc:
        print(f"consistency check failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (ValueError, ZeroDivisionError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
