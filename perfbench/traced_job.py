"""Run one sl2onepoint CLI command with the layer tracer installed.

    python3 perfbench/traced_job.py <cli arguments...>

The command's output goes to stdout as usual.  After it finishes, one
line starting with ``TRACE_MARK`` is written to stderr, carrying the
per-layer counters as JSON.  ``src`` must be on PYTHONPATH.
"""

import json
import sys

from tracer import Tracer, cache_counts, install

TRACE_MARK = "perfbench-trace "


def main(argv) -> int:
    from sl2onepoint import cli

    tracer = Tracer()
    originals = install(tracer)
    code = cli.main(argv)
    sys.stdout.flush()
    payload = {"layers": tracer.report(), "cache": cache_counts(originals)}
    print(TRACE_MARK + json.dumps(payload), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
