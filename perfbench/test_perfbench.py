"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_traced_children():
    clock = FakeClock()
    tr = tracer.Tracer(clock)

    def leaf(dt):
        clock.now += dt

    leaf = tr.wrap("m.leaf", leaf)

    def middle():
        clock.now += 1.0
        leaf(2.0)
        leaf(3.0)
        clock.now += 0.5

    middle = tr.wrap("m.middle", middle)

    def top():
        middle()
        clock.now += 4.0
        leaf(1.0)

    top = tr.wrap("m.top", top)
    top()
    rep = tr.report()
    assert rep["m.leaf"] == {"calls": 3, "total_s": 6.0, "self_s": 6.0}
    assert rep["m.middle"] == {"calls": 1, "total_s": 6.5, "self_s": 1.5}
    assert rep["m.top"] == {"calls": 1, "total_s": 11.5, "self_s": 4.0}


def test_self_time_counts_a_call_that_raises():
    clock = FakeClock()
    tr = tracer.Tracer(clock)

    def boom():
        clock.now += 2.0
        raise ValueError

    boom = tr.wrap("m.boom", boom)
    with pytest.raises(ValueError):
        boom()
    assert tr.report()["m.boom"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}
    assert tr._open == []


@pytest.fixture
def traced_package():
    """Install the tracer, restore every sl2onepoint namespace afterwards."""
    import sl2onepoint.cli  # noqa: F401  (imports every module)

    saved = {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name.startswith(tracer.PACKAGE)
    }
    tr = tracer.Tracer()
    originals = tracer.install(tr)
    try:
        yield tr, originals
    finally:
        for name, namespace in saved.items():
            vars(sys.modules[name]).update(namespace)


def test_rebinding_reaches_names_imported_by_other_modules(traced_package):
    tr, originals = traced_package
    from sl2onepoint import cli, generators, mtc

    for module, attr, traced in (
        (generators, "eta_power", "qseries.eta_power"),
        (generators, "j_inverse", "qseries.j_inverse"),
        (generators, "series_pow_rational", "qseries.series_pow_rational"),
        (cli, "eta_power", "qseries.eta_power"),
        (mtc, "conformal_weight", "sl2data.conformal_weight"),
        (mtc, "fusion_coefficient", "sl2data.fusion_coefficient"),
    ):
        bound = getattr(module, attr)
        assert bound is not originals[traced]
        assert bound.__wrapped__ is originals[traced]

    before = originals["qseries.eta_power"].cache_info()
    generators.cyclic_generator(5, 4, 6)
    rep = tr.report()
    assert rep["generators.cyclic_generator"]["calls"] == 1
    assert rep["generators.hypergeom_series"]["calls"] == 2
    assert rep["qseries.eta_power"]["calls"] >= 1
    assert rep["qseries.series_pow_rational"]["calls"] >= 2
    assert rep["qseries.j_inverse"]["calls"] == 1
    after = tracer.cache_counts(originals)["qseries.eta_power"]
    assert sum(after) > before.hits + before.misses


def _expand_payload():
    from sl2onepoint import generators

    return generators.cyclic_generator(3, 2, 5).to_json()


def test_reference_check_accepts_the_recorded_output():
    from sl2onepoint import sl2data

    job = jobs.expand(3, 2, 5)
    stdout = json.dumps(_expand_payload()).encode()
    assert jobs.check(job, 0, stdout, jobs.load_references(), sl2data) is None


def test_wrong_outputs_are_reported():
    from sl2onepoint import sl2data

    refs = jobs.load_references()
    job = jobs.expand(3, 2, 5)
    payload = _expand_payload()
    payload["components"][0]["series"]["coeffs"][3] = "12345"
    assert "coefficients differ" in jobs.check(job, 0, json.dumps(payload).encode(), refs, sl2data)
    payload = _expand_payload()
    payload["components"][1]["series"]["leading_exponent"] = "1/4"
    assert "leading exponents" in jobs.check(job, 0, json.dumps(payload).encode(), refs, sl2data)
    assert "exit code" in jobs.check(job, 3, b"", refs, sl2data)
    assert "malformed" in jobs.check(job, 0, b"not json", refs, sl2data)

    verify = jobs.Job(("verify", "--suite", "all"))
    fixed = {"suite": "all", "total": 407, "failed": 0, "failures": []}
    assert jobs.check(verify, 1, json.dumps(fixed).encode(), refs, sl2data) is not None

    mtc_job = jobs.mtc(5, 2)
    from sl2onepoint import mtc

    pair = mtc.gen_modular_pair(5, 2)
    good = pair.to_json()
    good["irreducibility_probe"] = mtc.irreducibility_probe(pair)
    good["analytic_comparison"] = mtc.compare_with_analytic(5, 2)
    assert jobs.check(mtc_job, 0, json.dumps(good).encode(), refs, sl2data) is None
    good["s_matrix"][0][1][0] += 1e-6
    assert "s_matrix differs" in jobs.check(mtc_job, 0, json.dumps(good).encode(), refs, sl2data)


def test_a_wrong_job_output_counts_as_failed():
    from sl2onepoint import sl2data

    refs = jobs.load_references()
    job = jobs.expand(3, 2, 5)
    refs[job.key] = dict(refs[job.key], components_sha256="0" * 64)
    runner = run.Runner(ROOT / "src", refs, sl2data, deadline=float("inf"))
    bad = runner.run(job, traced=False)
    assert bad.failure == "coefficients differ from the reference"
    good = run.Runner(ROOT / "src", jobs.load_references(), sl2data, float("inf")).run(job, traced=True)
    assert good.failure is None
    assert good.trace["layers"]["cli.cmd_expand"]["calls"] == 1
    assert good.facts["coeff_bits"] > 0


def test_every_drawable_job_has_a_reference():
    refs = jobs.load_references()
    drawn = {j.key for w in jobs.WORKLOADS for seed in range(50) for j in jobs.draw(w, seed)}
    assert drawn <= set(refs)
    assert {j.key for j in jobs.every_job()} == set(refs)
    assert jobs.draw("series-order", 7) == jobs.draw("series-order", 7)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_specs()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    traced = {f"{m}.{f}" for m, names in tracer.LAYERS.items() for f in names}
    assert {layer for layer, _ in run.LAYER_STATS} == traced


def test_summed_median_wall_scales_by_the_calibration():
    a, b = jobs.expand(5, 4, 40), jobs.expand(5, 4, 80)
    ref = run.CALIBRATION_REF_S
    runs = [run.JobRun(a, w, ref, 0, None, False) for w in (1.0, 5.0, 2.0)]
    runs += [run.JobRun(b, w, 2 * ref, 0, None, False) for w in (10.0, 30.0)]
    assert run.summed_median(runs, run.scaled) == pytest.approx(2.0 + 10.0)
    assert run.summed_median(runs, run.unscaled) == pytest.approx(2.0 + 20.0)
