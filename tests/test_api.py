"""Each library module's ``__all__`` is its public API: every listed name
exists, and every public function or class the module defines is listed.
Names a module re-exports from another may be listed too.  Every record
the layers return is immutable."""

import importlib
import inspect

import pytest

MODULES = ("bgg", "generator_checks", "generators", "mtc", "qseries", "repanalysis", "sixj", "sl2data")


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


def _records():
    from sl2onepoint import bgg, generators, mtc, repanalysis, sl2data
    from sl2onepoint.cli import RunConfig

    sig = sl2data.rho_t(5, 2)
    report = generators.table_fixture_check("table1")
    return [
        sig,
        repanalysis.minimal_admissible_set(sig, 0),
        repanalysis.congruence_classify(5, 4),
        bgg.simple_character(3, 2, 3),
        generators.cyclic_generator(3, 2, 5),
        generators.HypergeomSpec((1,), (2,)),
        report,
        report.entries[0],
        mtc.f_r_g_matrices(4),
        mtc.gen_modular_pair(4, 2),
        RunConfig(),
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
    order of their constructors; only ``GenModularPair.stages`` has a
    default, a read-only empty mapping."""
    from sl2onepoint import bgg, generator_checks, generators, mtc, repanalysis, sl2data

    fields = {
        sl2data.RepSignature: "level lam dimension t_exponents multiplier_weight",
        repanalysis.AdmissibleSet: "exponents",
        bgg.ZQCharacter: "level weight qorder rows",
        generators.VvmfVector: "level weight_label components form_weight",
        mtc.MtcLevelData: "level labels theta zeta qdim global_dim_root qint qfact",
        mtc.GenModularPair: "level p_label basis s_matrix t_diagonal relation_residuals stages",
        generator_checks.FixtureEntry: (
            "level mu expected_exponent got_exponent expected_coeffs got_coeffs published_residual"
        ),
        generator_checks.FixtureReport: "table entries",
    }
    for record, names in fields.items():
        assert record._fields == tuple(names.split()), record.__name__
        assert record.__slots__ == (), record.__name__
    assert {r.__name__ for r in fields if r._field_defaults} == {"GenModularPair"}
    stages = mtc.GenModularPair(0, 0, (0,), ((1.0,),), (1.0,), {}).stages
    assert stages == {}
    with pytest.raises(TypeError):
        stages["assembly_s"] = 0.0
