"""Every benchmark job's output passes the benchmark's own check.

The benchmark (``perfbench/``) rejects a run whose outputs differ from its
recorded references: the exact ``expand`` coefficients, the ``mtc``
matrices and probe verdicts, the ``verify`` totals and the desk commands'
payloads.  This runs each job the benchmark can draw through the CLI in
process and applies ``jobs.check``, so such a change fails here first.
``perfbench`` is not a package, so ``jobs.py`` is loaded by path.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from sl2onepoint import sl2data
from sl2onepoint.cli import main

JOBS = Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"


def _load_jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", JOBS)
    module = importlib.util.module_from_spec(spec)
    # dataclass looks its module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


jobs = _load_jobs()
REFERENCES = jobs.load_references()


@pytest.mark.parametrize("job", jobs.every_job(), ids=lambda job: job.key)
def test_job_output_matches_the_benchmark_reference(capsys, job):
    code = main([*job.args, "--format", "json"])
    out = capsys.readouterr().out
    assert jobs.check(job, code, out.encode(), REFERENCES, sl2data) is None
