"""Benchmark of the ``sl2onepoint`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the directory that holds
``src/sl2onepoint``.  The seed draws the workload's jobs (see jobs.py);
each job is one CLI command in a fresh interpreter, started one at a time
from this process.  Passes over the job list repeat until ``--seconds``
would be exceeded.  Every job's output is checked against the recorded
references.

With ``--trace 0`` the end-to-end metrics are reported: ``wall_s`` (the
sum over jobs of each job's median wall time), ``setup_s`` (median wall
time of a fresh ``import sl2onepoint.cli``) and ``peak_rss_mb`` (largest
max-RSS of any job, read with ``os.wait4``).  Both times are scaled to a
reference machine speed with a calibration task (see CALIBRATION).  With
``--trace 1`` every job also runs under perfbench/traced_job.py and the
per-layer metrics are reported instead.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import jobs
from traced_job import TRACE_MARK

HERE = Path(__file__).resolve().parent
TRACED_JOB = HERE / "traced_job.py"
# The console script ``sl2onepoint`` does exactly this.
ENTRY = "import sys; from sl2onepoint.cli import main; sys.exit(main())"
SETUP = "import sl2onepoint.cli"
SETUP_REPEATS = 9
# A fixed stdlib-only task, mixing the exact rational and complex float
# arithmetic the jobs do.  The host's speed drifts by up to 1.7x over
# minutes; each timed command is paired with a run of this task just
# before it, and its time is scaled by CALIBRATION_REF_S / (task's time).
# Reported times are therefore seconds on a machine where the task takes
# CALIBRATION_REF_S.  The program under test cannot change the task.
CALIBRATION = (
    "from fractions import Fraction as F\n"
    "import cmath\n"
    "a = [F(1, i + 2) for i in range(60)]\n"
    "s = F(0)\n"
    "for i in range(60):\n"
    "    for j in range(60 - i):\n"
    "        s += a[i] * a[j]\n"
    "z = 0j\n"
    "for i in range(60000):\n"
    "    z += cmath.exp(1j * i / 7.0)\n"
)
CALIBRATION_REF_S = 0.1
JOB_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0  # the whole run must end within 180 s

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Per-layer metrics: traced function and the statistics reported for it.
LAYER_STATS = (
    ("qseries.series_mul", ("calls", "self_s")),
    ("qseries.series_div", ("calls", "self_s")),
    ("qseries.series_pow_rational", ("calls", "self_s")),
    ("generators.cyclic_generator", ("calls", "total_s", "self_s")),
    ("generators.hypergeom_series", ("calls", "total_s", "self_s")),
    ("qseries.eta_power", ("calls", "total_s", "hit_ratio")),
    ("qseries.eisenstein", ("calls", "total_s", "hit_ratio")),
    ("qseries.j_inverse", ("calls", "total_s", "hit_ratio")),
    ("generators.mlde_residual", ("total_s",)),
    ("generators.table_fixture_check", ("total_s",)),
    ("mtc.f_r_g_matrices", ("calls", "total_s")),
    ("mtc.verlinde_fusion", ("total_s",)),
    ("bgg.simple_character", ("calls", "total_s")),
    ("repanalysis.congruence_classify", ("calls", "total_s")),
    ("repanalysis.irreducibility_subproduct_test", ("calls", "total_s")),
    ("repanalysis.graded_dimension", ("calls", "total_s")),
    ("mtc.gen_modular_pair", ("calls", "total_s", "self_s")),
    ("mtc.compare_with_analytic", ("calls", "total_s", "self_s")),
    ("mtc.irreducibility_probe", ("total_s",)),
    ("sl2data.fusion_coefficient", ("calls", "total_s")),
    ("sl2data.conformal_weight", ("calls", "total_s")),
    ("sl2data.rho_t", ("calls", "total_s")),
    ("cli.cmd_expand", ("self_s",)),
    ("cli.cmd_classify", ("self_s",)),
    ("cli.cmd_mtc", ("self_s",)),
    ("cli.cmd_verify", ("self_s",)),
)
STAT_UNITS = {
    "calls": ("count", "lower"),
    "total_s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "hit_ratio": ("ratio", "higher"),
}
# Whole-workload descriptors, reported with the layer metrics.  Each is 0
# on a workload without the jobs it is taken from.
DESCRIPTORS = (
    ("generators.cyclic_generator.order_doubling_ratio", "ratio", "lower"),
    ("mtc.gen_modular_pair.level_doubling_ratio", "ratio", "lower"),
    ("qseries.coeff_bits_max", "bits", "lower"),
    ("mtc.basis_dim_max", "count", "lower"),
    ("headroom_digits", "digits", "higher"),
    ("failed_ratio", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("calibration_s", "s", "lower"),
    ("wall_unscaled_s", "s", "lower"),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [
        (f"{layer}.{stat}", *STAT_UNITS[stat]) for layer, stats in LAYER_STATS for stat in stats
    ]
    return specs + list(DESCRIPTORS)


# -- running one command ----------------------------------------------------


@dataclass
class Exit:
    wall_s: float
    maxrss_kb: int
    code: int
    stdout: bytes
    stderr: bytes


def spawn(argv: list[str], env: dict, timeout: float) -> Exit:
    """Run ``argv`` to completion; wall time from before the fork to the
    reaping ``os.wait4``, which also gives the child's max-RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    return Exit(wall, usage.ru_maxrss, proc.returncode, out, err[0] if err else b"")


@dataclass
class JobRun:
    job: jobs.Job
    wall_s: float
    calibration_s: float  # the calibration task's wall time just before the job
    maxrss_kb: int
    failure: str | None
    traced: bool
    trace: dict | None = None
    facts: dict = field(default_factory=dict)

    @property
    def scaled_s(self) -> float:
        return self.wall_s * CALIBRATION_REF_S / self.calibration_s


def child_env(src: Path) -> dict:
    """The environment of every child: ours, with ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    return env


class Runner:
    """Runs and checks the jobs of one benchmark run."""

    def __init__(self, src: Path, refs: dict, sl2data, deadline: float):
        self.env = child_env(src)
        self.refs = refs
        self.sl2data = sl2data
        self.deadline = deadline

    def timeout(self) -> float:
        return max(1.0, min(JOB_TIMEOUT_S, self.deadline - time.perf_counter()))

    def calibrate(self) -> float:
        """Wall time of one run of the calibration task."""
        ex = spawn([sys.executable, "-c", CALIBRATION], self.env, self.timeout())
        if ex.code != 0:
            raise RuntimeError(f"calibration task failed: {ex.stderr.decode(errors='replace')}")
        return ex.wall_s

    def setup_times(self) -> list[float]:
        """Scaled wall times of fresh ``import sl2onepoint.cli`` processes,
        after one untimed import that writes the bytecode cache."""
        argv = [sys.executable, "-c", SETUP]
        times = []
        for i in range(SETUP_REPEATS + 1):
            calibration = self.calibrate()
            ex = spawn(argv, self.env, self.timeout())
            if ex.code != 0:
                raise RuntimeError(f"`{SETUP}` failed: {ex.stderr.decode(errors='replace')}")
            if i:
                times.append(ex.wall_s * CALIBRATION_REF_S / calibration)
        return times

    def run(self, job: jobs.Job, traced: bool) -> JobRun:
        if traced:
            argv = [sys.executable, str(TRACED_JOB), *job.args, "--format", "json"]
        else:
            argv = [sys.executable, "-c", ENTRY, *job.args, "--format", "json"]
        calibration = self.calibrate()
        ex = spawn(argv, self.env, self.timeout())
        failure = jobs.check(job, ex.code, ex.stdout, self.refs, self.sl2data)
        run = JobRun(job, ex.wall_s, calibration, ex.maxrss_kb, failure, traced)
        if failure is None:
            run.facts = describe(job, ex.stdout)
        if traced:
            run.trace = _trace_report(ex.stderr)
            if run.trace is None and run.failure is None:
                run.failure = "traced job wrote no trace report"
        if run.failure:
            print(f"FAILED {job.key}: {run.failure}", file=sys.stderr)
        return run


def _trace_report(stderr: bytes) -> dict | None:
    for line in reversed(stderr.decode(errors="replace").splitlines()):
        if line.startswith(TRACE_MARK):
            return json.loads(line[len(TRACE_MARK):])
    return None


def describe(job: jobs.Job, stdout: bytes) -> dict:
    """Scale and margin facts of one correct job's output."""
    if job.command not in ("expand", "mtc"):
        return {}
    payload = json.loads(stdout)
    if job.command == "expand":
        return {"coeff_bits": jobs.coeff_bits(payload)}
    return {"basis_dim": len(payload["basis"]), "headroom_digits": jobs.headroom_digits(payload)}


def run_passes(seconds: float, one_pass) -> list:
    """Repeat ``one_pass`` while another pass of median length still fits
    in ``seconds``; always at least once."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one_pass())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


# -- metrics ------------------------------------------------------------------


def summed_median(runs: list[JobRun], time_of) -> float:
    """Sum over the distinct jobs of the median of ``time_of(run)``."""
    by_job: dict[jobs.Job, list[float]] = {}
    for r in runs:
        by_job.setdefault(r.job, []).append(time_of(r))
    return sum(statistics.median(ts) for ts in by_job.values())


def scaled(run: JobRun) -> float:
    return run.scaled_s


def unscaled(run: JobRun) -> float:
    return run.wall_s


def end_to_end(runs: list[JobRun], setup: list[float]) -> dict:
    return {
        "wall_s": summed_median(runs, scaled),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r.maxrss_kb for r in runs) / 1024.0,
    }


def _pass_layers(traced: list[JobRun]) -> dict:
    """Per-layer values of one traced pass over the workload."""
    sums: dict[str, dict] = {}
    cache: dict[str, list[int]] = {}
    for run in traced:
        if run.trace is None:
            continue
        for name, st in run.trace["layers"].items():
            acc = sums.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += st[key]
        for name, (hits, misses) in run.trace["cache"].items():
            c = cache.setdefault(name, [0, 0])
            c[0] += hits
            c[1] += misses
    out = {}
    for layer, stats in LAYER_STATS:
        for stat in stats:
            if stat == "hit_ratio":
                hits, misses = cache.get(layer, (0, 0))
                out[f"{layer}.{stat}"] = hits / (hits + misses) if hits + misses else 0.0
            else:
                out[f"{layer}.{stat}"] = sums.get(layer, {}).get(stat, 0)
    out["generators.cyclic_generator.order_doubling_ratio"] = _doubling(
        traced, "generators.cyclic_generator", "2N", "N"
    )
    out["mtc.gen_modular_pair.level_doubling_ratio"] = _doubling(
        traced, "mtc.gen_modular_pair", "2k", "k"
    )
    return out


def _doubling(traced: list[JobRun], layer: str, big: str, small: str) -> float:
    """total_s of ``layer`` in the job marked ``big`` over that in the job
    marked ``small``; 0 when the workload has no such pair."""
    times = {}
    for run in traced:
        if run.job.role in (big, small) and run.trace is not None:
            times[run.job.role] = run.trace["layers"][layer]["total_s"]
    if len(times) < 2 or times[small] <= 0:
        return 0.0
    return times[big] / times[small]


def per_layer(passes: list[list[tuple[JobRun, JobRun]]]) -> dict:
    """Medians over traced passes, plus the descriptors and the overhead."""
    layer_passes = [_pass_layers([traced for _, traced in p]) for p in passes]
    out = {name: statistics.median(lp[name] for lp in layer_passes) for name in layer_passes[0]}
    runs = [r for p in passes for pair in p for r in pair]
    facts = [r.facts for r in runs]
    out["qseries.coeff_bits_max"] = max((f["coeff_bits"] for f in facts if "coeff_bits" in f), default=0)
    out["mtc.basis_dim_max"] = max((f["basis_dim"] for f in facts if "basis_dim" in f), default=0)
    out["headroom_digits"] = min(
        (f["headroom_digits"] for f in facts if "headroom_digits" in f), default=0.0
    )
    out["failed_ratio"] = sum(r.failure is not None for r in runs) / len(runs)
    plain = [pair[0] for p in passes for pair in p]
    traced = [pair[1] for p in passes for pair in p]
    # Each traced job runs right after its untraced twin, so the drift the
    # scaling corrects for is shared; unscaled times avoid the calibration's
    # own sample noise in a difference of two small medians.
    out["trace.overhead_s"] = summed_median(traced, unscaled) - summed_median(plain, unscaled)
    out["calibration_s"] = statistics.median(r.calibration_s for r in runs)
    out["wall_unscaled_s"] = summed_median(plain, unscaled)
    return out


# -- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + RUN_DEADLINE_S
    src = Path.cwd() / "src"
    if not (src / "sl2onepoint" / "cli.py").is_file():
        print(f"no sl2onepoint sources under {src}; run from the checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from sl2onepoint import sl2data

    runner = Runner(src, jobs.load_references(), sl2data, deadline)
    workload = jobs.draw(args.workload, args.seed)
    print(f"{args.workload} seed {args.seed}: " + "; ".join(j.key for j in workload), file=sys.stderr)
    setup = runner.setup_times()

    if args.trace:
        passes = run_passes(
            args.seconds, lambda: [(runner.run(j, False), runner.run(j, True)) for j in workload]
        )
        runs = [r for p in passes for pair in p for r in pair]
        values = per_layer(passes)
        specs = per_layer_specs()
    else:
        passes = run_passes(args.seconds, lambda: [runner.run(j, False) for j in workload])
        runs = [r for p in passes for r in p]
        values = end_to_end(runs, setup)
        specs = END_TO_END

    for job in workload:
        mine = [r for r in runs if r.job == job and not r.traced]
        print(
            f"{job.key}: {len(mine)} runs, wall s / calibration s "
            + " ".join(f"{r.wall_s:.3f}/{r.calibration_s:.3f}" for r in mine),
            file=sys.stderr,
        )
    failed = sum(r.failure is not None for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
