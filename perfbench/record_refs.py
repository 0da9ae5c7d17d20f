"""Record the reference outputs that the benchmark checks jobs against.

    python3 perfbench/record_refs.py

Run from the checkout root at the commit whose outputs are the reference.
Runs every job any seed can draw and rewrites perfbench/references.json.gz.
"""

import json
import sys
from pathlib import Path

import jobs
from run import ENTRY, child_env, spawn


def main() -> int:
    src = Path.cwd() / "src"
    env = child_env(src)
    refs = {}
    for job in jobs.every_job():
        ex = spawn([sys.executable, "-c", ENTRY, *job.args, "--format", "json"], env, 600.0)
        refs[job.key] = jobs.reference_entry(job, ex.code, json.loads(ex.stdout))
        print(f"{ex.wall_s:7.2f} s  exit {ex.code}  {job.key}", file=sys.stderr)
    jobs.save_references(refs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
