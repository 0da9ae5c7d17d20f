"""Workloads of the benchmark and the checks on each job's output.

A workload is a list of ``sl2onepoint`` CLI jobs drawn from a seed.  Each
job runs in a fresh interpreter, so the library's ``lru_cache``s start
cold, as they do for a user at the command line.  The seed draws levels
only from bands where the measured cost of a job is flat, so that runs
with different seeds measure the same amount of work (see README.md).
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json.gz"

# Bands the seed draws from, where a job's measured cost is flat.
# Dimension d = k - lambda + 1 for expand.
DIM2_LEVELS = (3, 5, 7, 9, 11)  # expand at N=80 and N=40, lambda = k-1
DIM3_LEVELS = (4, 6, 8, 10, 12)  # expand at N=60, lambda = k-2
DIM1_LEVELS = (12, 14, 16, 18, 20, 22, 24)  # expand at N=300, lambda = k: eta^(3k/2)
# mtc runs at the top level k=48 and at k/2 with the same p.  The cost of
# gen_modular_pair follows its inner-loop count, which grows like k^3
# (16k at k=44, 18k at 46, 20k at 48, for p=2) but moves only 2-4% with p.
MTC_LEVEL = 48
MTC_LABELS = (2, 4, 6)
MTC_PROBE = (20, 2)  # basis size 19, within irreducibility_probe's limit of 20

DESK_SESSION = (
    ("expand", "-k", "3", "-l", "2", "-n", "5"),
    ("classify", "-k", "5", "-l", "2"),
    ("mtc", "-k", "5", "--p", "2"),
    ("verify", "--suite", "all"),
)

WORKLOADS = ("series-order", "categorical-level", "desk-session")

# Default tolerance of the CLI; the jobs do not pass --tolerance.
TOLERANCE = 1e-9
VERIFY_TOTAL = 407
VERIFY_KNOWN_FAILURES = 8  # the table2 fixture discrepancy (README)


@dataclass(frozen=True)
class Job:
    args: tuple[str, ...]
    role: str = ""  # "N" / "2N" and "k" / "2k" mark the doubling pairs

    @property
    def command(self) -> str:
        return self.args[0]

    @property
    def key(self) -> str:
        return " ".join(self.args)


def expand(k: int, lam: int, order: int, role: str = "") -> Job:
    return Job(("expand", "-k", str(k), "-l", str(lam), "-n", str(order)), role)


def mtc(k: int, p: int, role: str = "") -> Job:
    return Job(("mtc", "-k", str(k), "--p", str(p)), role)


def draw(workload: str, seed: int) -> list[Job]:
    """The jobs of ``workload`` for ``seed``, in the order they run."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "series-order":
        k2 = rng.choice(DIM2_LEVELS)
        k3 = rng.choice(DIM3_LEVELS)
        k1 = rng.choice(DIM1_LEVELS)
        jobs = [
            expand(k2, k2 - 1, 80, "2N"),
            expand(k2, k2 - 1, 40, "N"),
            expand(k3, k3 - 2, 60),
            expand(k1, k1, 300),
        ]
    elif workload == "categorical-level":
        p = rng.choice(MTC_LABELS)
        jobs = [mtc(MTC_LEVEL, p, "2k"), mtc(MTC_LEVEL // 2, p, "k"), mtc(*MTC_PROBE)]
    elif workload == "desk-session":
        jobs = [Job(args) for args in DESK_SESSION]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def every_job() -> list[Job]:
    """Every job any seed can draw: the inputs the references cover."""
    jobs = []
    for k in DIM2_LEVELS:
        jobs += [expand(k, k - 1, 80), expand(k, k - 1, 40)]
    jobs += [expand(k, k - 2, 60) for k in DIM3_LEVELS]
    jobs += [expand(k, k, 300) for k in DIM1_LEVELS]
    for p in MTC_LABELS:
        jobs += [mtc(MTC_LEVEL, p), mtc(MTC_LEVEL // 2, p)]
    jobs.append(mtc(*MTC_PROBE))
    jobs += [Job(args) for args in DESK_SESSION]
    return jobs


# -- references ------------------------------------------------------------


def components_digest(components: list) -> str:
    """sha256 of the exact coefficients, exponents and orders of an
    ``expand --format json`` payload's components."""
    text = json.dumps(components, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def reference_entry(job: Job, code: int, payload: dict) -> dict:
    """What the references keep of one job's output."""
    entry = {"exit": code}
    if job.command == "expand":
        entry["components_sha256"] = components_digest(payload["components"])
    elif job.command == "mtc":
        entry["basis"] = payload["basis"]
        entry["t_diagonal"] = _rounded(payload["t_diagonal"])
        entry["s_matrix"] = _rounded(payload["s_matrix"])
        entry["irreducibility_probe"] = payload["irreducibility_probe"]
    elif job.command == "verify":
        entry["total"] = payload["total"]
        entry["failures"] = [f["check"] for f in payload["failures"]]
    else:
        entry["payload"] = payload
    return entry


def _rounded(value):
    # 12 decimals keep the stored matrices well inside the 1e-9 tolerance.
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return round(value, 12)


def load_references(path: Path = REFERENCES) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save_references(refs: dict, path: Path = REFERENCES) -> None:
    text = json.dumps(refs, sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps the file byte-identical when the references are unchanged
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode())


# -- output checks ---------------------------------------------------------


def check(job: Job, code: int, stdout: bytes, refs: dict, sl2data) -> str | None:
    """None when the job's output is correct, else the reason it is not.

    ``sl2data`` is the library module under test; expand's leading
    exponents are compared against its ``leading_exponents``.
    """
    ref = refs.get(job.key)
    if ref is None:
        return "no reference recorded for this job"
    if code != ref["exit"]:
        return f"exit code {code}, expected {ref['exit']}"
    try:
        payload = json.loads(stdout)
        if job.command == "expand":
            return _check_expand(job, payload, ref, sl2data)
        if job.command == "mtc":
            return _check_mtc(payload, ref)
        if job.command == "verify":
            return _check_verify(payload, ref)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"malformed output: {exc!r}"
    if payload != ref["payload"]:
        return "output differs from the reference"
    return None


def _check_expand(job: Job, payload: dict, ref: dict, sl2data) -> str | None:
    k, lam = int(job.args[2]), int(job.args[4])
    want = sl2data.leading_exponents(k, lam)
    comps = payload["components"]
    got = [Fraction(c["series"]["leading_exponent"]) for c in comps]
    if got != want:
        return f"leading exponents {got} != sl2data.leading_exponents {want}"
    if any(c["series"]["coeffs"][0] != "1" for c in comps):
        return "a component's leading coefficient is not 1"
    if components_digest(comps) != ref["components_sha256"]:
        return "coefficients differ from the reference"
    return None


def _check_mtc(payload: dict, ref: dict) -> str | None:
    if payload["basis"] != ref["basis"]:
        return f"basis {payload['basis']} != reference {ref['basis']}"
    for key in ("s_matrix", "t_diagonal"):
        diff = _max_abs_diff(payload[key], ref[key])
        if not diff <= TOLERANCE:
            return f"{key} differs from the reference by {diff:.3e}"
    residuals = dict(payload["relation_residuals"])
    comparison = payload.get("analytic_comparison")
    if comparison is not None:
        residuals["max_t_residual"] = comparison["max_t_residual"]
    for name, value in residuals.items():
        if not value <= TOLERANCE:
            return f"residual {name} = {value:.3e} exceeds {TOLERANCE}"
    if payload["irreducibility_probe"] != ref["irreducibility_probe"]:
        return f"irreducibility_probe {payload['irreducibility_probe']!r} != {ref['irreducibility_probe']!r}"
    return None


def _max_abs_diff(a, b) -> float:
    if isinstance(a, list):
        if not isinstance(b, list) or len(a) != len(b):
            return math.inf
        return max((_max_abs_diff(x, y) for x, y in zip(a, b)), default=0.0)
    return abs(a - b)


def _check_verify(payload: dict, ref: dict) -> str | None:
    failures = [f["check"] for f in payload["failures"]]
    if payload["total"] != VERIFY_TOTAL or payload["failed"] != VERIFY_KNOWN_FAILURES:
        return f"{payload['failed']}/{payload['total']} checks failed, expected {VERIFY_KNOWN_FAILURES}/{VERIFY_TOTAL}"
    if not all(name.startswith("table2 ") for name in failures) or failures != ref["failures"]:
        return f"failing checks {failures} are not the known table2 entries"
    return None


# -- descriptors -----------------------------------------------------------


def coeff_bits(payload: dict) -> int:
    """Largest numerator or denominator, in bits, of an expand payload."""
    bits = 0
    for comp in payload["components"]:
        for c in comp["series"]["coeffs"]:
            x = Fraction(c)
            bits = max(bits, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return bits


def headroom_digits(payload: dict) -> float:
    """log10(tolerance / worst relation residual) of an mtc payload.  A
    residual below one ulp of 1.0 counts as one ulp."""
    worst = max(max(payload["relation_residuals"].values()), 2.0**-52)
    return math.log10(TOLERANCE / worst)
