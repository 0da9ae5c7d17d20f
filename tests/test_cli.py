"""Command line surface: exit codes, output formats, determinism."""

import cmath
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2onepoint.cli import (
    _COMMANDS,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    EXIT_VERIFY_FAILED,
    RunConfig,
    _build_parser,
    _parse,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_table_row(capsys):
    code, out, _ = run(capsys, "expand", "--level", "3", "--lambda", "2", "--order", "5")
    assert code == EXIT_OK
    assert "q^(3/40)" in out
    assert "117/25" in out
    assert "q^(13/40)" in out


def test_expand_dimension_one(capsys):
    code, out, _ = run(capsys, "expand", "-k", "2", "-l", "2", "-n", "4")
    assert code == EXIT_OK
    assert "q^(1/8)" in out


def test_expand_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "expand", "--level", "3", "--lambda", "2", "--order", "5", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["level"] == 3
    assert payload["components"][0]["series"]["leading_exponent"] == "3/40"
    assert payload["components"][0]["series"]["coeffs"][2] == "-117/25"


def test_expand_json_reports_stages(capsys):
    code, out, _ = run(capsys, "expand", "-k", "3", "-l", "2", "-n", "5", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    stages = payload["stages"]
    assert set(stages) == {"generator_s", "coeff_bits_max"}
    assert stages["generator_s"] >= 0
    # the largest numerator or denominator is 3659, of 3659/625 at q^4 for mu = 1
    assert payload["components"][0]["series"]["coeffs"][4] == "3659/625"
    assert stages["coeff_bits_max"] == (3659).bit_length() == 12
    assert set(payload) == {"level", "weight_label", "form_weight", "components", "stages"}


def test_expand_unsupported_dimension(capsys):
    code, _, err = run(capsys, "expand", "--level", "4", "--lambda", "0")
    assert code == EXIT_UNSUPPORTED
    assert "unsupported" in err


def test_expand_invalid_input(capsys):
    code, _, err = run(capsys, "expand", "--level", "4", "--lambda", "3")
    assert code == EXIT_INVALID
    assert "invalid" in err


def test_classify_congruence_level(capsys):
    code, out, _ = run(capsys, "classify", "--level", "5", "--lambda", "4")
    assert code == EXIT_OK
    assert "dimension 2" in out
    assert "level 8" in out


def test_classify_dimension_three(capsys):
    code, out, _ = run(capsys, "classify", "--level", "4", "--lambda", "2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["dimension"] == 3
    assert payload["t_order"] == 72
    assert payload["irreducibility"] == "irreducible"
    assert payload["saturation"] is True


def test_classify_dimension_four_points_to_mtc(capsys):
    code, out, _ = run(capsys, "classify", "--level", "5", "--lambda", "2")
    assert code == EXIT_OK
    assert "dimension 4" in out
    assert "undetermined" in out
    assert "mtc" in out


def test_classify_rejects_odd_weight(capsys):
    code, _, err = run(capsys, "classify", "--level", "5", "--lambda", "3")
    assert code == EXIT_INVALID


def test_mtc_subcommand(capsys):
    code, out, _ = run(capsys, "mtc", "--level", "5", "--p", "2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["basis"] == [1, 2, 3, 4]
    assert payload["irreducibility_probe"] == "irreducible"
    assert payload["analytic_comparison"]["t_consistent"] is True
    assert max(payload["relation_residuals"].values()) < 1e-9


@pytest.mark.parametrize("k, p", [(7, 2), (6, 6)])
def test_mtc_builds_one_pair(capsys, monkeypatch, k, p):
    import sl2onepoint.mtc as mtc_module
    from sl2onepoint.mtc import compare_with_analytic

    built = []
    real = mtc_module.gen_modular_pair

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mtc_module, "gen_modular_pair", counting)
    code, out, _ = run(capsys, "mtc", "--level", str(k), "--p", str(p), "--format", "json")
    assert code == EXIT_OK
    assert len(built) == 1
    monkeypatch.undo()
    payload = json.loads(out)
    assert payload["analytic_comparison"] == json.loads(json.dumps(compare_with_analytic(k, p)))


@pytest.mark.parametrize("output_format, calls", [("table", 0), ("json", 1)])
def test_mtc_compares_with_analytic_for_json_only(capsys, monkeypatch, output_format, calls):
    """The table format prints no analytic comparison, so it builds none."""
    import sl2onepoint.mtc as mtc_module

    compared = []
    real = mtc_module.compare_with_analytic

    def counting(*args, **kwargs):
        compared.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mtc_module, "compare_with_analytic", counting)
    code, _, _ = run(capsys, "mtc", "--level", "6", "--p", "2", "--format", output_format)
    assert code == EXIT_OK
    assert len(compared) == calls


def test_mtc_one_dimensional_pair_above_default_level_cap(capsys):
    # any level builds, with no option; at k = 206 the unscaled [k+1]!
    # would overflow a double.  The 1x1 S^(k) is e(-3k/16), read from
    # s_matrix: there is no separate report of it
    code, out, err = run(capsys, "mtc", "--level", "206", "--p", "206", "--format", "json")
    assert code == EXIT_OK, err
    payload = json.loads(out)
    assert "s_value_report" not in payload
    assert payload["level"] == 206 and payload["basis"] == [103]
    s = complex(*payload["s_matrix"][0][0])
    assert abs(s - cmath.exp(-2j * cmath.pi * 3 * 206 / 16)) < 1e-12


def test_mtc_nan_relation_residual_exits_1(capsys, monkeypatch):
    import math

    import sl2onepoint.mtc as mtc_module

    true_rows = mtc_module._s_rows

    def nan_rows(data, p, basis):
        # S_11 of the (3, 2) pair, basis (1, 2)
        rows, evaluations = true_rows(data, p, basis)
        rows[0][0] *= math.nan
        return rows, evaluations

    monkeypatch.setattr(mtc_module, "_s_rows", nan_rows)
    code, out, err = run(capsys, "mtc", "--level", "3", "--p", "2", "--format", "json")
    assert code == EXIT_VERIFY_FAILED
    assert out == ""
    assert "relations violated at level 3, p=2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "-k", "3", "-l", "2", "--max-level", "64"),
        ("classify", "-k", "5", "-l", "2", "--max-level", "64"),
        ("mtc", "-k", "5", "--p", "2", "--max-level", "64"),
        ("verify", "--suite", "bgg", "--max-level", "64"),
        ("expand", "-k", "3", "-l", "2", "--tolerance", "1e-6"),
        ("classify", "-k", "5", "-l", "2", "--order", "5"),
        ("classify", "-k", "5", "-l", "2", "--tolerance", "1e-6"),
        ("mtc", "-k", "5", "--p", "2", "--order", "5"),
        ("verify", "--suite", "bgg", "--order", "5"),
    ],
)
def test_options_no_code_reads_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == EXIT_INVALID
    assert "unrecognized arguments" in capsys.readouterr().err


def test_mtc_relation_violation_exits_1(capsys):
    # double-precision residuals at k=30 are about 1e-14, above this tolerance
    code, out, err = run(capsys, "mtc", "--level", "30", "--p", "2", "--tolerance", "1e-16")
    assert code == EXIT_VERIFY_FAILED
    assert out == ""
    assert "relations violated at level 30, p=2" in err
    assert "Traceback" not in err


def test_mtc_unrepresentable_six_j_exits_1(capsys):
    # at k = 1200 the factorial table underflows a double from [1166]! on,
    # and {599 601/2 601/2; 0 601/2 601/2} reads [1201]!: a limit of the
    # arithmetic, not bad input
    code, out, err = run(capsys, "mtc", "--level", "1200", "--p", "1198")
    assert code == EXIT_VERIFY_FAILED
    assert out == ""
    assert "6j-symbol {599 601/2 601/2; 0 601/2 601/2} at level 1200" in err
    assert "Traceback" not in err


def test_mtc_json_reports_stages(capsys):
    code, out, _ = run(capsys, "mtc", "--level", "5", "--p", "2", "--format", "json")
    assert code == EXIT_OK
    stages = json.loads(out)["stages"]
    assert set(stages) == {"six_j_evaluations", "assembly_s", "certification_s", "headroom_digits"}


def test_mtc_rejects_odd_p(capsys):
    code, out, err = run(capsys, "mtc", "--level", "5", "--p", "3")
    assert code == EXIT_INVALID
    # one gate serves --p and --lambda, so its message names the label, not the option
    assert out == ""
    assert "invalid input: label 3 must be even: an odd label has no self-couplings" in err
    assert "Traceback" not in err


def test_expand_rejects_odd_lambda(capsys):
    code, out, err = run(capsys, "expand", "-k", "5", "-l", "3")
    assert code == EXIT_INVALID
    assert out == ""
    assert "invalid input: label 3 must be even: an odd label has no self-couplings" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "1e400"])
@pytest.mark.parametrize(
    "argv", [("mtc", "-k", "5", "--p", "2"), ("verify", "--suite", "mtc")]
)
def test_non_finite_tolerance_is_invalid_input(capsys, argv, tolerance):
    code, out, err = run(capsys, *argv, "--tolerance", tolerance, "--format", "json")
    assert code == EXIT_INVALID
    assert out == ""
    assert "invalid input: tolerance must be finite and positive" in err


def test_verify_mtc_suite_builds_each_pair_once(capsys, monkeypatch):
    import sl2onepoint.mtc as mtc_module

    built = []
    real = mtc_module.gen_modular_pair

    def counting(k, p, *args, **kwargs):
        built.append((k, p))
        return real(k, p, *args, **kwargs)

    monkeypatch.setattr(mtc_module, "gen_modular_pair", counting)
    code, out, _ = run(capsys, "verify", "--suite", "mtc", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {"suite": "mtc", "total": 92, "failed": 0, "failures": []}
    # the 36 (k, p) with p even, 0 <= p <= k <= 10, each built once
    assert len(built) == 36
    assert set(built) == {(k, p) for k in range(11) for p in range(0, k + 1, 2)}


def test_verify_mlde_suite_builds_each_generator_once(capsys, monkeypatch):
    import sl2onepoint.generators as generators

    built = []
    real = generators.cyclic_generator

    def counting(k, lam, order):
        built.append((k, lam, order))
        return real(k, lam, order)

    monkeypatch.setattr(generators, "cyclic_generator", counting)
    code, out, _ = run(capsys, "verify", "--suite", "mlde", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {"suite": "mlde", "total": 10, "failed": 0, "failures": []}
    # six dimension-2 and four dimension-3 generators, each built once and
    # shared by its residual check and its hypergeometric comparison
    assert sorted(built) == sorted([(k, k - 1, 12) for k in range(3, 14, 2)] + [(k, k - 2, 13) for k in range(4, 11, 2)])


def test_verify_mtc_suite_reports_residuals_above_a_tight_tolerance(capsys):
    # the pairs are certified at the default tolerance and judged at 1e-15,
    # so a double-precision residual fails its check instead of the suite
    code, out, err = run(capsys, "verify", "--suite", "mtc", "--tolerance", "1e-15", "--format", "json")
    assert code == EXIT_VERIFY_FAILED
    assert err == ""
    payload = json.loads(out)
    assert payload["total"] == 92
    notes = {f["check"]: f["note"] for f in payload["failures"]}
    assert float(notes["braid relations k=9 p=0"].removeprefix("residual ")) > 1e-15


def test_no_subcommand_loads_numpy():
    """The package runs without numpy, which only the tests use: the
    import, ``expand``, ``classify``, ``mtc`` and ``verify --suite mtc``
    leave it unloaded, checked in a fresh interpreter."""
    import os
    import subprocess
    import sys

    import sl2onepoint

    src = os.path.dirname(os.path.dirname(os.path.abspath(sl2onepoint.__file__)))
    script = "\n".join(
        [
            "import sys",
            "from sl2onepoint.cli import main",
            "assert 'numpy' not in sys.modules, 'loaded by the import'",
            "assert main(['expand', '-k', '3', '-l', '2', '-n', '5']) == 0",
            "assert main(['classify', '-k', '5', '-l', '2']) == 0",
            "assert main(['mtc', '-k', '5', '--p', '2']) == 0",
            "assert main(['verify', '--suite', 'mtc']) == 0",
            "assert 'numpy' not in sys.modules, 'loaded by a subcommand'",
        ]
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_only_verify_loads_generator_checks():
    """``expand``, ``classify`` and ``mtc`` never load the constructions
    the generators are checked against, ``generator_checks``, so their
    jobs do not compile it; ``verify --suite mlde`` loads it.  Checked in
    a fresh interpreter."""
    import os
    import subprocess
    import sys

    import sl2onepoint

    src = os.path.dirname(os.path.dirname(os.path.abspath(sl2onepoint.__file__)))
    script = "\n".join(
        [
            "import sys",
            "from sl2onepoint.cli import main",
            "checks = 'sl2onepoint.generator_checks'",
            "assert main(['expand', '-k', '3', '-l', '2', '-n', '5']) == 0",
            "assert main(['expand', '-k', '4', '-l', '2', '-n', '5']) == 0",
            "assert main(['classify', '-k', '5', '-l', '2']) == 0",
            "assert main(['mtc', '-k', '5', '--p', '2']) == 0",
            "assert checks not in sys.modules, 'loaded by a job'",
            "assert main(['verify', '--suite', 'mlde']) == 0",
            "assert checks in sys.modules, 'not loaded by verify'",
        ]
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_subcommands_load_only_their_layers():
    """Each subcommand imports the layers it uses and no others, and the
    CLI's own import stays lean.  In a fresh interpreter per case, the
    modules that the import and the command add to ``sys.modules`` leave
    out: for the import alone ``dataclasses``, ``inspect`` and ``qseries``;
    for ``expand`` ``dataclasses``, ``bgg``, ``repanalysis`` and ``mtc``;
    for ``classify`` ``qseries`` and ``generators``; and for ``mtc``
    ``qseries``, ``generators``, ``bgg``, ``repanalysis`` and ``sixj``,
    the 6j-symbols and ordinary modular data that ``verify --suite mtc``
    loads.  None of them loads the verification suites, ``suites``, and
    no well-formed job of any subcommand loads ``argparse``, ``gettext``
    or ``locale``: the table parses its argv."""
    import os
    import subprocess
    import sys

    import sl2onepoint

    src = os.path.dirname(os.path.dirname(os.path.abspath(sl2onepoint.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    layer = "sl2onepoint.{}".format
    parsing = ("argparse", "gettext", "locale")
    mtc_layers = (layer("qseries"), layer("generators"), layer("bgg"), layer("repanalysis"), layer("sixj"))
    for argv, unloaded, needed in (
        (None, ("dataclasses", "inspect", layer("qseries"), layer("suites"), *parsing), ()),
        (
            ["expand", "-k", "3", "-l", "2", "-n", "5"],
            ("dataclasses", layer("bgg"), layer("repanalysis"), layer("mtc"), layer("suites"), *parsing),
            (),
        ),
        (
            ["classify", "-k", "5", "-l", "2", "--format", "json"],
            (layer("qseries"), layer("generators"), layer("suites"), *parsing),
            (),
        ),
        (
            ["mtc", "--level", "5", "--p", "2", "--tolerance", "1e-8"],
            (*mtc_layers, layer("suites"), *parsing),
            (layer("mtc"),),
        ),
        (["verify", "--suite", "bgg", "--format", "table"], parsing, ()),
        (["verify", "--suite", "mtc"], parsing, (layer("sixj"),)),
    ):
        script = "\n".join(
            [
                "import sys",
                "before = set(sys.modules)",
                "from sl2onepoint.cli import main",
                f"assert main({argv!r}) == 0" if argv else "",
                f"loaded = sorted(set(sys.modules).difference(before).intersection({unloaded!r}))",
                "assert not loaded, loaded",
                f"missing = sorted(set({needed!r}).difference(sys.modules))",
                "assert not missing, missing",
            ]
        )
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, (argv, result.stderr)


def test_verify_tables_reads_the_fixtures_without_importlib_resources():
    """Without ``site``, which preloads ``importlib.resources`` on some
    installs, ``verify --suite tables`` reads ``data/published_tables.json``
    through the package's own loader and leaves ``importlib.resources``
    unloaded, with the same report: 8 failed checks, all of them
    ``table2`` entries, and exit 1.  Checked in a fresh ``python -S``
    interpreter."""
    import os
    import subprocess
    import sys

    import sl2onepoint

    src = os.path.dirname(os.path.dirname(os.path.abspath(sl2onepoint.__file__)))
    script = "\n".join(
        [
            "import sys",
            f"sys.path.insert(0, {src!r})",
            "from sl2onepoint.cli import main",
            "code = main(['verify', '--suite', 'tables', '--format', 'json'])",
            "sys.stderr.write(repr('importlib.resources' in sys.modules))",
            "sys.exit(code)",
        ]
    )
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (EXIT_VERIFY_FAILED, "False")
    payload = json.loads(result.stdout)
    assert (payload["suite"], payload["failed"]) == ("tables", 8)
    assert all(failure["check"].startswith("table2 ") for failure in payload["failures"])


def test_table_format_jobs_load_neither_argparse_json_nor_typing():
    """Without ``site``, which preloads ``typing`` on some installs, a
    table-format ``expand``, ``classify`` and ``mtc`` job loads neither
    ``argparse`` nor ``json`` nor ``typing``, checked in a fresh ``python
    -S`` interpreter per job."""
    import os
    import subprocess
    import sys

    import sl2onepoint

    src = os.path.dirname(os.path.dirname(os.path.abspath(sl2onepoint.__file__)))
    for argv in (
        ["expand", "-k", "4", "-l", "2", "-n", "5"],
        ["classify", "-k", "5", "-l", "2"],
        ["mtc", "-k", "5", "--p", "2", "--format", "table"],
    ):
        script = "\n".join(
            [
                "import sys",
                f"sys.path.insert(0, {src!r})",
                "from sl2onepoint.cli import main",
                f"assert main({argv!r}) == 0",
                "loaded = sorted({'argparse', 'json', 'typing'}.intersection(sys.modules))",
                "assert not loaded, loaded",
            ]
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, (argv, result.stderr)


# flag spellings of every subcommand, some that argparse abbreviates or
# splits, and values that argparse reads as options or refuses
_FLAGS = sorted({flag for _, options in _COMMANDS.values() for opt in options for flag in opt.flags})
_TOKENS = _FLAGS + [
    "--lev", "--lam", "--ord", "--tol", "--form", "--su", "--level=3", "--format=json", "-k3", "-l2",
    "-n5", "--", "-h", "--help", "--max-level", "-x",
]
_VALUES = [
    "0", "2", "3", "4", "5", "12", "+2", " 4", "4_0", "1e-6", "1e-16", "-1e-6", "-3", "-0", "nan",
    "inf", "", "json", "table", "yaml", "all", "bgg", "mtc", "expand", "junk", "-", "--",
]


# values that each type converts
_FITS = {int: ("3", "12", "+2", " 4", "4_0"), float: ("1e-6", "3", "nan", "inf")}


@st.composite
def _argvs(draw):
    """argv near the grammar: a subcommand, then most of its options, each
    with one of its flags or a stray token and a value that fits or not, in
    any order, and sometimes stray tokens after them."""
    def stray():
        # one draw in five
        return draw(st.sampled_from(range(5))) == 0

    command = draw(st.sampled_from(["bogus", "-h"] if stray() else list(_COMMANDS)))
    pairs = []
    for opt in _COMMANDS.get(command, ("", ()))[1]:
        if stray():
            continue
        flag = draw(st.sampled_from(_TOKENS if stray() else opt.flags))
        fits = opt.choices or _FITS[opt.type]
        pairs.append((flag, draw(st.sampled_from(_VALUES if stray() else fits))))
    pairs = draw(st.permutations(pairs))
    extra = draw(st.lists(st.sampled_from(_TOKENS + _VALUES), min_size=1, max_size=2)) if stray() else []
    return [command, *(token for pair in pairs for token in pair), *extra]


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_parse_agrees_with_argparse_whenever_it_accepts(argv):
    """Whenever the direct parse accepts an argv, its namespace is the one
    argparse returns, value types included (compared by ``repr``, since
    NaN equals nothing)."""
    args = _parse(argv)
    if args is not None:
        want = vars(_build_parser().parse_args(argv))
        assert {k: repr(v) for k, v in vars(args).items()} == {k: repr(v) for k, v in want.items()}


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "-k", "3", "-l", "2", "-n", "5"),
        ("classify", "--level", "5", "--lambda", "4", "--format", "json"),
        ("mtc", "--format", "table", "--p", "2", "-k", "5", "--tolerance", "1e-6"),
        ("verify", "--tolerance", "1e-7", "--suite", "all"),
    ],
)
def test_parse_reads_well_formed_argv(argv):
    args = _parse(list(argv))
    assert args is not None
    assert vars(args) == vars(_build_parser().parse_args(list(argv)))


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("-h",),
        ("expand", "--help"),
        ("expand",),
        ("expand", "-k", "3"),
        ("expand", "--lev", "3", "-l", "2"),
        ("expand", "--level=3", "-l", "2"),
        ("expand", "-k3", "-l2"),
        ("expand", "--", "-k", "3", "-l", "2"),
        ("expand", "-k", "3", "-l", "2", "-k", "3"),
        ("expand", "-k", "-3", "-l", "2"),
        ("mtc", "-k", "5", "--p", "2", "--tolerance", "-1e-6"),
        ("mtc", "-k", "x", "--p", "2"),
        ("mtc", "-k", "5", "--p", "2", "--format", "yaml"),
        ("verify", "--suite", "nope"),
        ("classify", "-k", "5", "-l", "2", "junk"),
        ("classify", "-k", "5", "-l", "2", "--order", "5"),
    ],
)
def test_parse_declines_what_argparse_handles(argv):
    """Help, abbreviations, ``=`` and attached forms, ``--``, repeated,
    unknown or missing options, negative numbers and bad values are left
    to argparse, which prints their help or usage error."""
    assert _parse(list(argv)) is None


@pytest.mark.parametrize("command", [None, *_COMMANDS])
def test_help_names_every_flag_in_the_table(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(["--help"] if command is None else [command, "--help"])
    assert exc.value.code == EXIT_OK
    out = capsys.readouterr().out
    if command is None:
        assert all(name in out for name in _COMMANDS), out
    else:
        flags = [flag for opt in _COMMANDS[command][1] for flag in opt.flags]
        assert all(f"{flag} " in out for flag in flags), out


@pytest.mark.parametrize(
    "argv",
    [
        ("mtc", "-k", "48", "--p", "2", "--format", "json"),
        ("expand", "-k", "3", "-l", "2", "-n", "400", "--format", "json"),
    ],
)
def test_closed_pipe_exits_1_without_traceback(argv):
    """A reader that closes the pipe early, as ``| head -c 10`` does, ends
    the command with exit 1 and an empty stderr.  Both outputs are larger
    than a pipe holds (about 355 KB for the pair at k = 48), so the write
    is still blocked when the pipe closes."""
    import os
    import subprocess
    import sys

    import sl2onepoint

    src = os.path.dirname(os.path.dirname(os.path.abspath(sl2onepoint.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    entry = "import sys; from sl2onepoint.cli import main; sys.exit(main())"
    proc = subprocess.Popen(
        [sys.executable, "-c", entry, *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert err == ""
    assert code == EXIT_VERIFY_FAILED


def test_verify_mlde_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "mlde")
    assert code == EXIT_OK
    assert "10/10" in out


def test_verify_tables_reports_known_failures(capsys):
    # the published three-component table disagrees with the computed
    # generator in its first two columns; the suite must say so and fail
    code, out, _ = run(capsys, "verify", "--suite", "tables", "--format", "json")
    assert code == EXIT_VERIFY_FAILED
    payload = json.loads(out)
    assert payload["failed"] == 8
    assert all("table2" in f["check"] for f in payload["failures"])


def test_verify_tables_notes_give_published_residuals(capsys):
    # each failure note carries the q^1 residual that the level's equation
    # leaves on the published series (k=4, first column: -50/3)
    _, out, _ = run(capsys, "verify", "--suite", "tables", "--format", "json")
    notes = {f["check"]: f["note"] for f in json.loads(out)["failures"]}
    assert "q^1 residual -50/3 " in notes["table2 k=4 mu=1"]
    assert all("q^1 residual" in note for note in notes.values())


def test_verify_suite_choices_name_every_suite():
    # ``--suite`` is parsed before the suites module loads; ``all`` runs them in order
    from sl2onepoint import cli, suites

    assert cli.SUITES == (*suites.SUITES, "all")


def test_verify_bgg_suite_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "bgg", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert payload["total"] == 36


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(order=0)
    for tolerance in (0.0, -1e-9, float("nan"), float("inf"), float("1e400")):
        with pytest.raises(ValueError):
            RunConfig(tolerance=tolerance)
    with pytest.raises(ValueError):
        RunConfig(output_format="yaml")
    with pytest.raises(ValueError):
        RunConfig()._replace(order=0)


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "classify", "--level", "7", "--lambda", "6", "--format", "json")
    _, second, _ = run(capsys, "classify", "--level", "7", "--lambda", "6", "--format", "json")
    assert first == second
