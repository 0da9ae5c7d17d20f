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
interpreter's final flush prints a traceback.  A level whose labels do
not fit in memory (2^63 or more of them never do) is invalid input, exit 2.

Garbage collection.  When ``main`` runs as the program, with ``argv``
None (the ``sl2onepoint`` console script, ``python -m sl2onepoint.cli``),
it disables the cyclic garbage collector before the command and calls
``gc.freeze()`` just before it returns.  No job leaves cyclic garbage:
run with the collector off, every subcommand's job frees all it
allocates by reference counting (``test_jobs_leave_no_cyclic_garbage``
pins this), so the collector's passes during a job found nothing, and
its full passes at interpreter exit only walked the heap.  The freeze
moves every tracked object into the permanent generation in constant
time, which those final passes skip.  The two saved about 5 ms of a
small job and 15 ms of ``verify --suite all`` (median of 20 alternated
fresh processes, 2-core Xeon, Python 3.11).  A call with an explicit
``argv`` (the tests, the benchmark's traced jobs, a program that embeds
the command line) leaves the collector as it found it, since its
process goes on after the call.  ``os._exit`` would skip the final
passes as well, but it also skips the ``atexit`` handlers and the flush
of buffered streams.  A command line that only argparse reads leaves
the cycles of its parser, a few hundred objects, to the end of the
process.

The command line is read from one table, ``_COMMANDS``: each
subcommand's options, with their flag spellings, the attribute each sets,
the type or the choices of its value, whether it is required, and its
help.  ``main`` first reads ``argv`` with ``_parse``, which accepts only
``<subcommand> (<flag> <value>)*`` with every flag spelled as in the
table and given once, no value starting with ``-``, every value of its
type or among its choices, and every required option given.  Any other
``argv`` (``-h``, an abbreviation such as ``--lev``, ``--level=3``,
``-k3``, ``--``, a repeated or unknown option, a negative number, a bad
value) goes to the argparse parser that ``_build_parser`` builds from
the same table, which prints the help, or the usage error with exit
code 2.  So a well-formed job loads neither ``argparse`` nor ``gettext``
nor ``locale``, and ``json`` loads only for ``--format json``.

Each subcommand imports the layers it uses, inside the function that
uses them: ``generators`` in ``cmd_expand``, ``repanalysis`` in
``cmd_classify``, ``mtc`` in ``cmd_mtc``, and the verification suites
(``suites``, which import what they check) in ``cmd_verify``.  Compiling
and running a module adds to the start of every process, which the other
subcommands would pay for nothing.  So ``cmd_classify`` and
``cmd_verify`` only dispatch: what they print comes from
``repanalysis.classification_report`` and ``suites.report``, compiled
only by their own jobs.  Measured with ``python -X importtime`` under
``PYTHONDONTWRITEBYTECODE=1`` and no ``__pycache__`` (cumulative, best
of 15 fresh processes on a 2-core Xeon, Python 3.11), importing this
module takes about 3.5 ms, where ``argparse`` and ``json`` would add
3.6 ms and building the argparse parser 2.1 ms more; ``expand`` adds
11.3 ms (``generators`` with ``qseries`` and ``sl2data``), ``classify``
6.7 ms (``repanalysis`` with ``sl2data``), ``mtc`` 8.4 ms (with
``sl2data``), and ``verify --suite all`` 30 ms, of which ``suites``
with ``sl2data`` takes 6.1.  An ``mtc`` job compiles only the modular
pair: the 6j-symbols and the ordinary modular data are ``sixj``, which
``verify --suite mtc`` loads.  No layer loads with this module:
``sl2data``, the level data, loads with the first layer a job imports,
``qseries`` with ``generators`` alone, and ``generator_checks``, the
oracles that only ``verify`` and the tests call, with ``verify`` alone.
No module of the package imports ``__future__``, and an ``mtc`` job
takes its phases from ``math``, not ``cmath``: each costs about half a
millisecond to load.  The records are named tuples built by
``collections.namedtuple``, so no subcommand loads ``dataclasses`` (and
``inspect`` with it), which took about 10 ms of every start, nor
``typing``, which costs 3.5-4.5 ms where ``site`` does not preload it.
"""

import gc
import math
import os
import sys
import time
from collections import namedtuple
from types import SimpleNamespace

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
FORMATS = ("json", "table")


class RunConfig(namedtuple("RunConfig", "order tolerance output_format")):
    """The options shared by the subcommands, checked on construction."""

    __slots__ = ()

    def __new__(cls, order: int = 12, tolerance: float = 1e-9, output_format: str = "table"):
        if order < 1:
            raise ValueError("order must be >= 1")
        # phrased so that NaN fails too
        if not 0 < tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
        if output_format not in FORMATS:
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
        import json

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
    from .repanalysis import classification_report

    payload, lines = classification_report(k, lam)
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

    def payload():
        # JSON only: the table format prints no comparison with the analytic T
        out = pair.to_json()
        out["irreducibility_probe"] = probe
        out["analytic_comparison"] = mtc.compare_with_analytic(k, p, config.tolerance, pair=pair)
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
    from .suites import report

    payload, lines = report(suite, config)
    _emit(lambda: payload, config, lines)
    return EXIT_OK if not payload["failed"] else EXIT_VERIFY_FAILED


# -- argument plumbing ---------------------------------------------------


class _Option(
    namedtuple("_Option", "flags dest type choices required help", defaults=(None, None, False, None))
):
    """One option of a subcommand: its flag spellings, the namespace
    attribute it sets, and either the type its value converts with or the
    choices it must be one of.  An optional option left out stays off the
    namespace, so that ``RunConfig`` supplies its default."""

    __slots__ = ()


_LEVEL = _Option(("--level", "-k"), "level", int, required=True, help="level k >= 0")
_LAMBDA = _Option(("--lambda", "-l"), "lam", int, required=True, help="finite weight lambda (even)")
_ORDER = _Option(("--order", "-n"), "order", int, help="series truncation order")
_TOLERANCE = _Option(("--tolerance",), "tolerance", float)
_FORMAT = _Option(("--format",), "output_format", choices=FORMATS)

# the grammar: each subcommand's help and its options, in the order of its help
_COMMANDS = {
    "expand": ("q-expansions of the cyclic generator", (_LEVEL, _LAMBDA, _ORDER, _FORMAT)),
    "classify": ("representation-level classification", (_LEVEL, _LAMBDA, _FORMAT)),
    "mtc": (
        "generalised modular pair from categorical data",
        (
            _LEVEL,
            _TOLERANCE,
            _FORMAT,
            _Option(("--p",), "p", int, required=True, help="acting label p (even)"),
        ),
    ),
    "verify": (
        "run a verification suite",
        (_TOLERANCE, _FORMAT, _Option(("--suite",), "suite", choices=SUITES, required=True)),
    ),
}


def _parse(argv):
    """The namespace of a well-formed ``argv``, ``<subcommand> (<flag>
    <value>)*``, read from the table, or None for any other ``argv``.  Each
    flag is spelled as in the table and given once, no value starts with
    ``-``, each value converts with its type or is one of its choices, and
    every required option is given; the namespace is then the one
    ``_build_parser`` would return."""
    if len(argv) % 2 == 0 or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][1]
    by_flag = {flag: opt for opt in options for flag in opt.flags}
    values = {"command": argv[0]}
    for flag, value in zip(argv[1::2], argv[2::2]):
        opt = by_flag.get(flag)
        if opt is None or opt.dest in values or value.startswith("-"):
            return None
        if opt.choices is not None:
            if value not in opt.choices:
                return None
        else:
            try:
                value = opt.type(value)
            except ValueError:
                return None
        values[opt.dest] = value
    if any(opt.required and opt.dest not in values for opt in options):
        return None
    return SimpleNamespace(**values)


def _build_parser():
    """The argparse parser of the same table.  It prints help and usage
    errors, so it is built, and ``argparse`` imported, only for an ``argv``
    that ``_parse`` declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="sl2onepoint",
        description="Exact and categorical modular data of affine sl(2) torus one-point functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for opt in options:
            p.add_argument(
                *opt.flags,
                dest=opt.dest,
                type=opt.type,
                choices=opt.choices,
                required=opt.required,
                help=opt.help,
                default=None if opt.required else argparse.SUPPRESS,
            )
    return parser


def main(argv=None) -> int:
    if argv is not None:
        return _run(list(argv))
    # run as the program: no cyclic garbage to collect (module docstring)
    gc.disable()
    try:
        return _run(sys.argv[1:])
    finally:
        gc.freeze()


def _run(argv: list) -> int:
    args = _parse(argv)
    if args is None:
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
