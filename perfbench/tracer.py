"""Per-layer counters for one sl2onepoint process.

Each traced function is replaced by a wrapper that counts calls and
accumulates total and self time.  Self time is a call's duration minus
the durations of the traced calls made inside it.  Nothing is kept per
call: hot leaves such as ``sl2data.conformal_weight`` run about a million
times in one ``mtc --level 48`` job, so every function is aggregated as a
count plus two sums.

A wrapper only takes effect where callers look the function up, so it is
rebound in every ``sl2onepoint`` module whose namespace holds the original
object (``generators`` imports ``eta_power``, ``j_inverse`` and
``series_pow_rational`` by name, ``cli`` imports ``eta_power``, ``mtc``
imports ``conformal_weight`` and ``fusion_coefficient``).  ``lru_cache``
functions are wrapped outside the cache, so ``calls`` counts hits too, and
their hit ratio comes from ``cache_info()``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# The layers the benchmark reports, by module.  Only these are wrapped: every
# wrapper costs about a microsecond per call, which shows in trace.overhead_s.
LAYERS = {
    "qseries": ("series_mul", "series_div", "series_pow_rational", "eta_power", "eisenstein", "j_inverse"),
    "generators": ("cyclic_generator", "hypergeom_series", "mlde_residual", "table_fixture_check"),
    "sl2data": ("fusion_coefficient", "conformal_weight", "rho_t"),
    "bgg": ("simple_character",),
    "repanalysis": ("congruence_classify", "irreducibility_subproduct_test", "graded_dimension"),
    "mtc": ("f_r_g_matrices", "verlinde_fusion", "gen_modular_pair", "compare_with_analytic", "irreducibility_probe"),
    "cli": ("cmd_expand", "cmd_classify", "cmd_mtc", "cmd_verify"),
}

PACKAGE = "sl2onepoint"


class Tracer:
    """Call counts, total time and self time per traced name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self._open: list[list[float]] = []  # per active traced call: [time spent in traced children]

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = self.clock
        open_calls = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            open_calls.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_calls.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children[0]
                if open_calls:
                    open_calls[-1][0] += elapsed

        return traced

    def report(self) -> dict:
        return {
            name: {"calls": calls, "total_s": total, "self_s": own}
            for name, (calls, total, own) in self.stats.items()
        }


def rebind(original, replacement) -> None:
    """Point every ``sl2onepoint`` module attribute bound to ``original``
    at ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> dict:
    """Wrap every function in ``LAYERS``; return {traced name: original}."""
    for module in LAYERS:
        importlib.import_module(f"{PACKAGE}.{module}")
    originals = {}
    for module, names in LAYERS.items():
        mod = sys.modules[f"{PACKAGE}.{module}"]
        for fname in names:
            original = getattr(mod, fname)
            name = f"{module}.{fname}"
            rebind(original, tracer.wrap(name, original))
            originals[name] = original
    return originals


def cache_counts(originals: dict) -> dict:
    """{traced name: [hits, misses]} for the ``lru_cache`` functions."""
    out = {}
    for name, fn in originals.items():
        info = getattr(fn, "cache_info", None)
        if info is not None:
            ci = info()
            out[name] = [ci.hits, ci.misses]
    return out
