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


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "-k", "100000000000000000000", "-l", "0"),
        ("classify", "-k", str(2**63), "-l", "0"),
        ("mtc", "-k", "100000000000000000000", "--p", "2"),
        ("mtc", "-k", "100000000000000000000", "--p", "99999999999999999998"),
    ],
)
def test_level_whose_labels_cannot_be_listed_is_invalid_input(capsys, argv):
    """Each of these levels has 2^63 labels or more, whose ``range``
    overflows before anything is allocated: exit 2, with a message that
    names the level.  (A level such as 2^32 would try to allocate its
    labels instead, so none is tested.)"""
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert err == f"invalid input: level {argv[2]} is too large: its labels do not fit in memory\n"


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
    from sl2onepoint import suites

    built = []
    real = generators.cyclic_generator

    def counting(k, lam, order):
        built.append((k, lam, order))
        return real(k, lam, order)

    monkeypatch.setattr(generators, "cyclic_generator", counting)
    # the suites keep each generator for the process: start from none
    suites._generator.cache_clear()
    try:
        code, out, _ = run(capsys, "verify", "--suite", "mlde", "--format", "json")
    finally:
        suites._generator.cache_clear()
    assert code == EXIT_OK
    assert json.loads(out) == {"suite": "mlde", "total": 10, "failed": 0, "failures": []}
    # six dimension-2 and four dimension-3 generators, each built once and
    # shared by its residual check and its hypergeometric comparison
    assert sorted(built) == sorted([(k, k - 1, 12) for k in range(3, 14, 2)] + [(k, k - 2, 13) for k in range(4, 11, 2)])


def test_verify_tables_and_mlde_suites_share_each_generator(capsys, monkeypatch):
    import sl2onepoint.generators as generators
    from sl2onepoint import suites

    built = []
    real = generators.cyclic_generator
    monkeypatch.setattr(generators, "cyclic_generator", lambda *key: built.append(key) or real(*key))
    suites._generator.cache_clear()
    try:
        assert run(capsys, "verify", "--suite", "tables")[0] == EXIT_VERIFY_FAILED
        assert run(capsys, "verify", "--suite", "mlde")[0] == EXIT_OK
    finally:
        suites._generator.cache_clear()
    # the ten published (k, lambda) at the mlde suite's orders, built once for
    # both suites, and the ten dimension-1 generators of the tables suite
    assert sorted(built) == sorted(
        [(k, k - 1, 12) for k in range(3, 14, 2)]
        + [(k, k - 2, 13) for k in range(4, 11, 2)]
        + [(k, k, 30) for k in range(2, 21, 2)]
    )


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
    loads, and ``cmath``.  None of them loads the verification suites,
    ``suites``, and no well-formed job of any subcommand loads
    ``argparse``, ``gettext`` or ``locale``: the table parses its argv.
    Neither the import nor any job, ``verify --suite all`` included,
    loads ``__future__``: no module of the package needs it."""
    import os
    import subprocess
    import sys

    import sl2onepoint

    src = os.path.dirname(os.path.dirname(os.path.abspath(sl2onepoint.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    layer = "sl2onepoint.{}".format
    never = ("argparse", "gettext", "locale", "__future__")
    mtc_layers = (layer("qseries"), layer("generators"), layer("bgg"), layer("repanalysis"), layer("sixj"))
    for argv, code, unloaded, needed in (
        (None, None, ("dataclasses", "inspect", layer("qseries"), layer("suites"), *never), ()),
        (
            ["expand", "-k", "3", "-l", "2", "-n", "5"],
            0,
            ("dataclasses", layer("bgg"), layer("repanalysis"), layer("mtc"), layer("suites"), *never),
            (),
        ),
        (
            ["classify", "-k", "5", "-l", "2", "--format", "json"],
            0,
            (layer("qseries"), layer("generators"), layer("suites"), *never),
            (),
        ),
        (
            ["mtc", "--level", "5", "--p", "2", "--tolerance", "1e-8"],
            0,
            (*mtc_layers, layer("suites"), "cmath", *never),
            (layer("mtc"),),
        ),
        (["verify", "--suite", "bgg", "--format", "table"], 0, never, ()),
        (["verify", "--suite", "mtc"], 0, never, (layer("sixj"),)),
        # exit 1: the eight documented table2 failures
        (["verify", "--suite", "all", "--format", "json"], 1, never, (layer("suites"),)),
    ):
        script = "\n".join(
            [
                "import sys",
                "before = set(sys.modules)",
                "from sl2onepoint.cli import main",
                f"assert main({argv!r}) == {code}" if argv else "",
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


# the README's commands, the largest pair and generator of the quick
# benchmark jobs, and every suite
_GC_JOBS = (
    (["expand", "--level", "3", "--lambda", "2", "--order", "5"], EXIT_OK),
    (["classify", "--level", "5", "--lambda", "2"], EXIT_OK),
    (["mtc", "--level", "5", "--p", "2"], EXIT_OK),
    (["verify", "--suite", "all"], EXIT_VERIFY_FAILED),
    (["mtc", "-k", "48", "--p", "2", "--format", "json"], EXIT_OK),
    (["expand", "-k", "20", "-l", "20", "-n", "300", "--format", "json"], EXIT_OK),
)


def _fresh_process(script, *argv):
    """Run ``script`` with ``argv`` in a fresh interpreter that imports the
    package under test; the completed process, stdout and stderr as bytes."""
    import os
    import subprocess
    import sys

    import sl2onepoint

    src = os.path.dirname(os.path.dirname(os.path.abspath(sl2onepoint.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("argv, code", _GC_JOBS, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_jobs_leave_no_cyclic_garbage(argv, code):
    """With the collector off from the start of a fresh interpreter, a job
    frees everything it allocates by reference counting: a collection
    after it finds nothing.  This is what makes it safe for ``main``, run
    as the program, to leave the collector off; a change that creates
    reference cycles fails here instead of growing a job's memory."""
    script = "\n".join(
        [
            "import gc, io, sys",
            "gc.disable()",
            "from sl2onepoint.cli import main",
            "sys.stdout = io.StringIO()",
            "code = main(sys.argv[1:])",
            "sys.stdout = sys.__stdout__",
            "print(code, gc.collect(), gc.garbage)",
        ]
    )
    result = _fresh_process(script, *argv)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.decode() == f"{code} 0 []\n"


@pytest.mark.parametrize(
    "argv", [["mtc", "-k", "5", "--p", "2"], ["classify", "-k", "7", "-l", "6", "--format", "json"]]
)
def test_collector_policy_applies_only_to_the_program(capsys, argv):
    """An explicit ``argv`` leaves the collector on and unfrozen; ``main()``
    reading ``sys.argv``, as the program does, leaves it off with the heap
    frozen, and prints the same bytes."""
    import gc

    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert gc.isenabled() and gc.get_freeze_count() == 0
    script = (
        "import gc, sys; from sl2onepoint.cli import main; code = main(); "
        "print(code, gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)"
    )
    result = _fresh_process(script, *argv)
    assert result.stderr.decode() == "0 False True\n"
    assert result.stdout == out.encode()


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


# sha256 of the bytes ``verify --suite all`` prints in each format: 407
# checks with the 8 documented table2 failures, whose notes are exact
# fractions, so the bytes do not depend on the Python release
_VERIFY_ALL_SHA256 = {
    "json": "5ec2503a72d93cc00903a62d84c59afa9d8d93fb93f18e4efc7400a253ee6e73",
    "table": "540ba89b7fa61de57363ba5d66caff460492da3f32d5263cffeba44f19d6511b",
}


@pytest.mark.parametrize("fmt", sorted(_VERIFY_ALL_SHA256))
def test_verify_all_output_is_pinned_byte_for_byte(capsys, fmt):
    import hashlib

    code, out, _ = run(capsys, "verify", "--suite", "all", "--format", fmt)
    assert code == EXIT_VERIFY_FAILED
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_ALL_SHA256[fmt], out


def test_verify_all_equals_each_suite_run_alone():
    """Each suite, run alone in a fresh interpreter, gives the same checks
    (name, verdict and note) as its share of ``verify --suite all`` in
    another, in the same order: no suite passes only because one before
    it filled a cache (the powers of 1728/j, the shared generators)."""
    import os
    import subprocess
    import sys

    import sl2onepoint
    from sl2onepoint import suites

    src = os.path.dirname(os.path.dirname(os.path.abspath(sl2onepoint.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import json, sys\n"
        "from sl2onepoint import cli, suites\n"
        "print(json.dumps([c for name in sys.argv[1:] for c in suites.SUITES[name](cli.RunConfig())]))"
    )

    def checks(*names):
        result = subprocess.run(
            [sys.executable, "-c", script, *names], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    together = checks(*suites.SUITES)
    assert len(together) == 407
    assert together == [check for name in suites.SUITES for check in checks(name)]


def _failed_notes(suite):
    """{check: note} of the failed checks of one verify suite at the default options."""
    from sl2onepoint import suites

    return {check: note for check, ok, note in suites.SUITES[suite](RunConfig()) if not ok}


def test_verify_graded_dimension_note_names_the_first_wrong_grade(monkeypatch):
    from sl2onepoint import repanalysis

    real = repanalysis.hp_coefficient
    monkeypatch.setattr(repanalysis, "hp_coefficient", lambda d, n: real(d, n) + ((d, n) == (2, 7)))
    # every two-dimensional case, k = 3, 5, ..., 19, and no other check
    assert _failed_notes("dims") == {
        f"graded dimensions d=2 k={k}": "grade 7: graded dimension 0, HP coefficient 1" for k in range(3, 21, 2)
    }


def test_verify_saturation_note_gives_both_weights(monkeypatch):
    from sl2onepoint import repanalysis

    real = repanalysis.form_weight
    monkeypatch.setattr(repanalysis, "form_weight", lambda k, lam: real(k, lam) + ((k, lam) == (4, 2)))
    # h_2 + 1 = 1/3 + 1 at level 4, which the bound attains
    assert _failed_notes("dims") == {"saturation k=4 lambda=2": "weight lower bound 4/3, form weight 7/3"}


def test_verify_trivial_multiplicity_note_names_the_first_wrong_grade(monkeypatch):
    from sl2onepoint import bgg

    real = bgg.ZQCharacter.trivial_multiplicity

    def wrong(ch, n):
        return real(ch, n) + ((ch.level, ch.weight, n) == (6, 4, 1))

    monkeypatch.setattr(bgg.ZQCharacter, "trivial_multiplicity", wrong)
    assert _failed_notes("bgg") == {
        "trivial multiplicities k=6 lambda=4": "grade 1: multiplicity 1, expected 0"
    }


def test_verify_verlinde_note_names_the_first_wrong_coefficient(monkeypatch):
    from sl2onepoint import sl2data

    real = sl2data.fusion_coefficient

    def wrong(k, lam, mu, nu):
        return real(k, lam, mu, nu) ^ ((k, lam, mu, nu) in ((2, 1, 1, 2), (2, 2, 2, 2)))

    monkeypatch.setattr(sl2data, "fusion_coefficient", wrong)
    # N_(1,1)^2 comes first in the order lambda, mu, nu
    assert _failed_notes("mtc") == {"Verlinde numbers k=2": "N_(1,1)^2: Verlinde 1, fusion rule 0"}


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
