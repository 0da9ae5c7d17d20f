"""Command line surface: every computation as a subcommand.

    sl2onepoint expand   --level K --lambda L [--order N] [--format F]
    sl2onepoint classify --level K --lambda L [--format F]
    sl2onepoint mtc      --level K --p P [--tolerance T] [--format F]
    sl2onepoint verify   --suite NAME [--tolerance T] [--format F]

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 unsupported request.  A computation that fails its own consistency
check (a modular pair off its braid relations, say at a tolerance
below double-precision error), or whose value a double cannot hold (a
6j-symbol whose factorial products underflow), also exits 1, with the
message on stderr.  So does a command whose reader closes the pipe
before all of its output is written (``| head``): stdout then points at
the null device, so that neither the interrupted write nor the
interpreter's final flush prints a traceback.

Each subcommand imports the layers it uses, inside the function that
uses them: ``generators`` in ``cmd_expand``, ``repanalysis`` in
``cmd_classify``, ``mtc`` in ``cmd_mtc``, and the verification suites
(``suites``, which import what they check) in ``cmd_verify``.  Compiling
and running a module adds to the start of every process, which the other
subcommands would pay for nothing.  Without a bytecode cache
(``python -X importtime``, best of 25 fresh processes on 2 cores, Python
3.11) importing this module, with ``sl2data``, takes about 6 ms; ``expand`` adds 8 ms
(``qseries`` 4, ``generators`` 3), ``classify`` 2 ms (``repanalysis``),
``mtc`` 6 ms, and ``verify --suite all`` 22 ms, of which ``suites`` takes
2 and ``generator_checks``, the oracles that only ``verify`` and the tests
call, 3.5.  Only ``sl2data``, which every layer imports, loads with this
module; ``qseries`` loads with ``generators`` alone.  The records are named
tuples, so no subcommand loads ``dataclasses`` (and ``inspect`` with it),
which took about 10 ms of every start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import namedtuple

from . import sl2data
from .errors import (
    DegenerateMldeError,
    InternalInconsistencyError,
    PrecisionLossError,
    RelationViolationError,
    UnsupportedDimensionError,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_UNSUPPORTED = 3

SUITES = ("tables", "mlde", "bgg", "dims", "mtc", "all")


class RunConfig(namedtuple("RunConfig", "order tolerance output_format")):
    """The options shared by the subcommands, checked on construction."""

    __slots__ = ()

    def __new__(cls, order: int = 12, tolerance: float = 1e-9, output_format: str = "table"):
        if order < 1:
            raise ValueError("order must be >= 1")
        # phrased so that NaN fails too
        if not 0 < tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
        if output_format not in ("json", "table"):
            raise ValueError(f"unknown format {output_format!r}")
        return super().__new__(cls, order, tolerance, output_format)

    # ``_replace`` builds through ``_make``: check there too
    _make = classmethod(lambda cls, fields: cls(*fields))


def _emit(payload, config: RunConfig, table_lines) -> None:
    """Print the JSON payload or the table lines.  ``payload`` is a
    function returning the payload's dict, called only for JSON output,
    and ``table_lines`` is iterated only for table output, so neither
    format builds what the other would throw away."""
    if config.output_format == "json":
        print(json.dumps(payload()))
    else:
        for line in table_lines:
            print(line)


# -- expand -------------------------------------------------------------


def cmd_expand(k: int, lam: int, config: RunConfig) -> int:
    from . import generators

    start = time.perf_counter()
    gen = generators.cyclic_generator(k, lam, config.order)
    generator_s = time.perf_counter() - start

    def lines():
        yield f"cyclic generator  level={k}  lambda={lam}  weight={gen.form_weight}"
        for mu, series in gen.components:
            yield f"  mu={mu}: {series.pretty()}"

    def payload():
        out = gen.to_json()
        # the largest numerator or denominator of any coefficient, in bits
        bits = max(
            max(abs(c.numerator).bit_length(), c.denominator.bit_length())
            for _, series in gen.components
            for c in series.coeffs
        )
        out["stages"] = {"generator_s": generator_s, "coeff_bits_max": bits}
        return out

    _emit(payload, config, lines())
    return EXIT_OK


# -- classify -----------------------------------------------------------


def cmd_classify(k: int, lam: int, config: RunConfig) -> int:
    from . import repanalysis

    sig = sl2data.rho_t(k, lam)
    exponents = sl2data.leading_exponents(k, lam)
    try:
        holomorphy = sl2data.holomorphy_classify(k, lam)
    except UnsupportedDimensionError:
        holomorphy = None  # no sharp refinement above dimension 3
    verdict = repanalysis.congruence_classify(k, lam)
    irred = repanalysis.irreducibility_subproduct_test(sig)
    payload = {
        "level": k,
        "lambda": lam,
        "dimension": sig.dimension,
        "leading_exponents": [str(x) for x in exponents],
        "rho_t": sig.to_json(),
        "t_order": repanalysis.t_order(k, lam),
        "irreducibility": irred,
        "congruence": verdict.to_json(),
        "holomorphy": holomorphy,
        "saturation": sl2data.saturation_check(k, lam),
    }
    lines = [
        f"level={k} lambda={lam}: dimension {sig.dimension}",
        "  leading exponents: " + ", ".join(map(str, exponents)),
        "  T-exponents: " + ", ".join(map(str, sig.t_exponents)),
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
    _emit(lambda: payload, config, lines)
    return EXIT_OK


# -- mtc ----------------------------------------------------------------


def cmd_mtc(k: int, p: int, config: RunConfig) -> int:
    from . import mtc

    pair = mtc.gen_modular_pair(k, p, config.tolerance)
    try:
        probe = mtc.irreducibility_probe(pair, tolerance=config.tolerance)
    except ValueError as exc:
        probe = f"refused: {exc}"
    # built for both formats: its check of the basis against the label set
    # guards table output too
    analytic = mtc.compare_with_analytic(k, p, config.tolerance, pair=pair)

    def payload():
        out = pair.to_json()
        out["irreducibility_probe"] = probe
        out["analytic_comparison"] = analytic
        if p == k:
            # the 1x1 case, where competing printed values exist; report all
            out["s_value_report"] = mtc.s_k_report(pair)
        return out

    def lines():
        yield f"modular pair  level={k}  p={p}  basis={list(pair.basis)}"
        for key, value in pair.relation_residuals.items():
            yield f"  {key}: {value:.3e}"
        yield f"  irreducibility probe: {probe}"
        yield "  S matrix:"
        for row in pair.s_matrix:
            yield "    " + "  ".join(f"{z.real:+.4f}{z.imag:+.4f}i" for z in row)

    _emit(payload, config, lines())
    return EXIT_OK


# -- verify -------------------------------------------------------------


def cmd_verify(suite: str, config: RunConfig) -> int:
    from . import suites

    checks = []
    for key in suites.SUITES if suite == "all" else (suite,):
        checks.extend(suites.SUITES[key](config))
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
    _emit(lambda: payload, config, lines)
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


# -- argument plumbing ---------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2onepoint",
        description="Exact and categorical modular data of affine sl(2) torus one-point functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, level=True, lam=False, order=False, tolerance=False):
        """The options a subcommand reads, and no others.  An option left
        out stays off the namespace, so that ``RunConfig`` supplies its
        default."""
        if level:
            p.add_argument("--level", "-k", type=int, required=True, help="level k >= 0")
        if lam:
            p.add_argument("--lambda", "-l", dest="lam", type=int, required=True,
                           help="finite weight lambda (even)")
        if order:
            p.add_argument("--order", "-n", type=int, default=argparse.SUPPRESS,
                           help="series truncation order")
        if tolerance:
            p.add_argument("--tolerance", type=float, default=argparse.SUPPRESS)
        p.add_argument("--format", dest="output_format", choices=("json", "table"),
                       default=argparse.SUPPRESS)

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
            **{name: getattr(args, name) for name in RunConfig._fields if hasattr(args, name)}
        )
        if args.command == "expand":
            code = cmd_expand(args.level, args.lam, config)
        elif args.command == "classify":
            code = cmd_classify(args.level, args.lam, config)
        elif args.command == "mtc":
            code = cmd_mtc(args.level, args.p, config)
        else:
            code = cmd_verify(args.suite, config)
        # a reader that closed the pipe shows here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the recipe of the ``signal`` module's documentation: with stdout on
        # the null device, the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VERIFY_FAILED
    except UnsupportedDimensionError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (
        RelationViolationError,
        InternalInconsistencyError,
        DegenerateMldeError,
        PrecisionLossError,
    ) as exc:
        print(f"consistency check failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (ValueError, ZeroDivisionError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
