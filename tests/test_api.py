"""Each library module's ``__all__`` is its public API: every listed name
exists, and every public function or class the module defines is listed.
Every public name has one home: the only names an ``__all__`` takes from
another module are the four the benchmark's tracer looks up there.  Every
record the layers return is immutable."""

import importlib
import inspect

import pytest

MODULES = ("bgg", "generator_checks", "generators", "mtc", "qseries", "repanalysis", "sl2data", "suites")


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"sl2onepoint.{name}")
    listed = module.__all__
    assert len(set(listed)) == len(listed)
    assert [n for n in listed if not hasattr(module, n)] == []
    defined = [
        n
        for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert [n for n in defined if n not in listed] == []


# the names ``perfbench/tracer.py`` looks up outside their home (ROADMAP item 6)
TRACER_PINS = {
    "generators.hypergeom_series": "generator_checks",
    "generators.mlde_residual": "generator_checks",
    "generators.table_fixture_check": "generator_checks",
    "mtc.verlinde_fusion": "suites",
}


def test_every_public_name_has_one_home():
    """A name listed in an ``__all__`` is defined in that module, or is one
    of the tracer's pins, resolved from its home as the same object."""
    foreign = {}
    for name in MODULES:
        module = importlib.import_module(f"sl2onepoint.{name}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            home = getattr(obj, "__module__", module.__name__) if callable(obj) else module.__name__
            if attr not in vars(module) or home != module.__name__:
                foreign[f"{name}.{attr}"] = home.rpartition(".")[2]
    assert foreign == TRACER_PINS
    for spelling, home in TRACER_PINS.items():
        module, attr = spelling.split(".")
        owner = importlib.import_module(f"sl2onepoint.{home}")
        assert attr in owner.__all__
        assert getattr(importlib.import_module(f"sl2onepoint.{module}"), attr) is getattr(owner, attr)


def test_moved_names_have_no_old_spelling():
    """The holomorphy and saturation classification moved from ``sl2data``
    to ``repanalysis``, and ``leading_trace_sum`` and ``modular_derivative``
    to ``tests/mlde_oracle.py``; no old spelling resolves."""
    from sl2onepoint import qseries, repanalysis, sl2data

    moved = ("HOLOMORPHIC_EQUAL", "HOLOMORPHIC_PROPER", "WEAKLY_ONLY", "holomorphy_classify",
             "saturation_check", "weight_lower_bound", "_EQUALITY_RANGES")
    for name in moved:
        assert hasattr(repanalysis, name), name
        with pytest.raises(AttributeError):
            getattr(sl2data, name)
    with pytest.raises(AttributeError):
        sl2data.leading_trace_sum
    with pytest.raises(AttributeError):
        qseries.modular_derivative


def test_six_j_lives_in_the_tests_alone():
    """No command evaluates a 6j-symbol on its own, so the general symbol,
    its quantum integers and the fusion sweep of ``adjoint_members`` are
    oracles in ``tests/mtc_oracle.py``: the module that held them is gone,
    and no library module defines them."""
    import pkgutil

    import sl2onepoint

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("sl2onepoint.sixj")
    names = [info.name for info in pkgutil.iter_modules(sl2onepoint.__path__)]
    assert "sixj" not in names and set(MODULES) <= set(names)
    for name in names:
        module = importlib.import_module(f"sl2onepoint.{name}")
        for attr in ("six_j", "_six_j2", "quantum_integer", "adjoint_members"):
            assert attr not in vars(module), (name, attr)


def test_removed_names_do_not_resolve():
    """The codecs, accessors and wrapper that no command called are gone,
    and so are the records that only re-wrapped what their callers held,
    ``QExpansion`` reads its order from its coefficients, and
    ``GenModularPair`` has no default ``stages``."""
    from sl2onepoint import bgg, cli, generator_checks, mtc, qseries, repanalysis

    removed = {
        qseries.QExpansion: ("from_json", "coefficient"),
        bgg.ZQCharacter: ("coefficient", "to_json"),
        bgg: ("trivial_multiplicity",),
        generator_checks.HypergeomSpec: ("coefficients",),
        generator_checks.FixtureEntry: ("to_json",),
        cli: ("RunConfig",),
        generator_checks: ("FixtureReport",),
        repanalysis: ("AdmissibleSet",),
    }
    for owner, names in removed.items():
        for name in names:
            with pytest.raises(AttributeError):
                getattr(owner, name)
    assert "trivial_multiplicity" not in bgg.__all__
    with pytest.raises(TypeError):
        qseries.QExpansion(0, [1], 1)
    assert qseries.QExpansion(0, [1, 2]).order == 2
    assert mtc.GenModularPair._field_defaults == {}


def _records():
    from sl2onepoint import bgg, generator_checks, generators, mtc, repanalysis, sl2data

    entries = generator_checks.table_fixture_check("table1", lambda k, lam: generators.cyclic_generator(k, lam, 5))
    return [
        sl2data.rho_t(5, 2),
        repanalysis.congruence_classify(5, 4),
        bgg.simple_character(3, 2, 3),
        generators.cyclic_generator(3, 2, 5),
        generator_checks.HypergeomSpec((1,), (2,)),
        entries[0],
        mtc.f_r_g_matrices(4),
        mtc.gen_modular_pair(4, 2),
    ]


def test_every_record_refuses_assignment():
    """Every record a layer returns is immutable and equal to its copy:
    assigning to a field, or to a new attribute, raises ``AttributeError``."""
    for record in _records():
        name = type(record).__name__
        for field in record._fields:
            value = getattr(record, field)
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            assert getattr(record, field) is value, (name, field)
        with pytest.raises(AttributeError):
            record.extra = None
        assert type(record)(*record) == record, name


def test_records_keep_their_fields_and_defaults():
    """The records are ``collections.namedtuple`` classes with the field
    order of their constructors, and no field has a default: each is built
    with all of its fields."""
    from sl2onepoint import bgg, generator_checks, generators, mtc, repanalysis, sl2data

    fields = {
        sl2data.RepSignature: "level lam t_exponents",
        bgg.ZQCharacter: "level weight rows",
        generators.VvmfVector: "level weight_label components",
        mtc.MtcLevelData: "level labels theta zeta qdim global_dim_root qint qfact",
        mtc.GenModularPair: "level p_label s_matrix t_diagonal relation_residuals stages",
        generator_checks.FixtureEntry: (
            "level mu expected_exponent got_exponent expected_coeffs got_coeffs published_residual"
        ),
    }
    for record, names in fields.items():
        assert record._fields == tuple(names.split()), record.__name__
        assert record.__slots__ == (), record.__name__
    assert [r.__name__ for r in fields if r._field_defaults] == []
    with pytest.raises(TypeError):
        mtc.GenModularPair(0, 0, ((1.0,),), (1.0,), {})
