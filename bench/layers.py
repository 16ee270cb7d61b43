"""Per-layer trace of the s3double package, installed from outside.

Each traced function is replaced on its module by a timing wrapper
(``setattr(module, name, wrapper)``).  Calls made inside the same module
resolve the name through the module globals at call time, so they reach the
wrapper too; ``fusion_sim`` imports ``default_category`` by name, so that
function is replaced there as well.  No file of the package is changed.

Spans are aggregated in memory by name ``<module>.<function>``: call count,
self time (the span's duration minus the time covered by its traced child
spans) and, for a few protocol steps, the per-call durations behind the
p50/p95 figures.  Counts that measure work (lattice term counts, protocol
rounds, decoder pairs, Kraus branches, dense vectors) are taken at the same
boundaries from the arguments and results.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Fn(NamedTuple):
    """One traced function: which metrics it reports beyond ``calls``."""

    name: str
    self_s: bool = True
    percentiles: bool = False
    extra: tuple = ()  # (suffix, unit, better) of the counts its probe sets
    probe: Callable | None = None  # probe(tracer, key, args, result)


def _terms(obj):
    """Term count of a LatticeState, or of the first one in a result tuple."""
    if isinstance(obj, tuple):
        obj = next((x for x in obj if hasattr(x, "n_terms")), None)
    return obj.n_terms if hasattr(obj, "n_terms") else None


def _lattice_terms(tracer, key, args, result):
    t_in = _terms(args[0]) if args else None
    t_out = _terms(result)
    counts = tracer.counts
    for t in (t_in, t_out):
        if t is not None and t > counts["lattice.peak_terms"]:
            counts["lattice.peak_terms"] = t
    counts[key + ".terms_in"] += t_in or 0
    counts[key + ".terms_out"] += t_out or 0


def _keys_in(tracer, key, args, result):
    tracer.counts[key + ".keys_in"] += len(args[1])


def _move(tracer, key, args, result):
    tracer.counts[key + ".rounds"] += result.rounds
    tracer.counts[key + ".successes"] += bool(result.success)


def _rounds(tracer, key, args, result):
    tracer.counts[key + ".rounds"] += result.rounds


def _distinct(tracer, key, args, result):
    tracer.distinct[key].add(args[:3])


def _pairs(tracer, key, args, result):
    tracer.counts[key + ".pairs"] += len(result)


def _branches(tracer, key, args, result):
    tracer.counts[key + ".branches"] += len(result)


def _pool(tracer, key, args, result):
    # apply_schedule works on a copy, so the argument's pool is the baseline
    tracer.counts["concat_code.pool_vectors"] += len(result[0].pool) - len(args[1].pool)


_TERMS = (("terms_in", "count", "lower"), ("terms_out", "count", "lower"))


def _lat(name, self_s=True, terms=False):
    return Fn(name, self_s, extra=_TERMS if terms else (), probe=_lattice_terms)


LAYERS = {
    "lattice": [
        _lat("apply_ribbon", terms=True),
        _lat("anyon_ribbon_branch", terms=True),
        _lat("apply_anyon_ribbon", self_s=False),
        _lat("deuniformize", terms=True),
        _lat("uniformize", terms=True),
        Fn("canonicalize_keys", extra=(("keys_in", "count", "lower"),), probe=_keys_in),
        _lat("apply_K", terms=True),
        _lat("apply_plaquette"),
        _lat("measure_site", terms=True),
        _lat("measure_MK", terms=True),
        _lat("ground_state"),
        _lat("expanded", self_s=False, terms=True),
        _lat("inner"),
        Fn("ribbon_operator_matrix"),
    ],
    "protocols": [
        Fn(
            "move_step",
            percentiles=True,
            extra=(("rounds", "count", "lower"),),
            probe=_move,
        ),
    ],
    "fusion_sim": [
        Fn("measure_MU", percentiles=True, extra=(("rounds", "count", "lower"),), probe=_rounds),
        Fn("measure_MA", percentiles=True, extra=(("rounds", "count", "lower"),), probe=_rounds),
        Fn("merge_qutrits"),
        Fn("split_qutrit", extra=(("rounds", "count", "lower"),), probe=_rounds),
        Fn("qutrit_state"),
        Fn("factor_halves"),
    ],
    "category": [
        Fn("default_category"),
        Fn("interferometry_amplitude", probe=_distinct),
        Fn("u_measurement_amplitude"),
        Fn("fusion_probability"),
        Fn("verify_consistency"),
        Fn("raw_symbols"),
        Fn("derive_gauge_invariants"),
    ],
    "qec": [
        Fn("qec_cycle"),
        Fn("decode_greedy", extra=(("pairs", "count", "lower"),), probe=_pairs),
        Fn("inject_pauli"),
        Fn("sample_fusion"),
    ],
    "circuits": [
        Fn("simulate"),
        Fn("channel_kraus", extra=(("branches", "count", "lower"),), probe=_branches),
        Fn("choi_matrix"),
        Fn("check_equivalence"),
        Fn("ribbon_operator_kraus"),
        Fn("build_ribbon_circuit"),
    ],
    "concat_code": [
        Fn("error_correct"),
        Fn("apply_schedule", probe=_pool),
        Fn("verify_logical_action"),
        Fn("correction_table"),
    ],
}

# Names bound by ``from .module import name`` elsewhere in the package: the
# wrapper must replace those bindings too.
ALIASES = {("category", "default_category"): ("fusion_sim",)}

# Metrics computed from the CLI records and the run, not from spans.
RUN_METRICS = (
    ("qec.zero_residual_ground_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("check_fail_ratio", "ratio", "lower"),
)

# Whole-module extras that are not tied to one function's suffix list.
MODULE_EXTRAS = {
    "lattice": (("lattice.peak_terms", "count", "lower"),),
    "protocols": (("protocols.move_step.success_ratio", "ratio", "higher"),),
    "category": (("category.interferometry_amplitude.distinct_ratio", "ratio", "higher"),),
    "concat_code": (("concat_code.pool_vectors", "count", "lower"),),
}


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for module, fns in LAYERS.items():
        for fn in fns:
            key = f"{module}.{fn.name}"
            out.append((key + ".calls", "count", "lower"))
            if fn.self_s:
                out.append((key + ".self_s", "s", "lower"))
            if fn.percentiles:
                out.append((key + ".p50_us", "us", "lower"))
                out.append((key + ".p95_us", "us", "lower"))
            out.extend((f"{key}.{suffix}", unit, better) for suffix, unit, better in fn.extra)
        out.extend(MODULE_EXTRAS.get(module, ()))
        out.append((module + ".self_s", "s", "lower"))
    out.extend(RUN_METRICS)
    return out


def timing_metric(name):
    """True for metrics that are times (they vary between runs); every other
    per-layer metric is a count fixed by the seed."""
    return name.endswith(("self_s", "_us")) or name == "trace.overhead_ratio"


class Tracer:
    """Installs the wrappers and aggregates spans and counts in memory."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self.edges = defaultdict(int)  # (caller span, callee span) -> calls
        self._stack = []  # [span name, time covered by child spans]

    def install(self):
        """Wrap every traced function of the s3double modules."""
        for module_name, fns in LAYERS.items():
            module = importlib.import_module("s3double." + module_name)
            for fn in fns:
                original = getattr(module, fn.name)
                wrapper = self._wrap(f"{module_name}.{fn.name}", original, fn)
                targets = [module] + [
                    importlib.import_module("s3double." + alias)
                    for alias in ALIASES.get((module_name, fn.name), ())
                ]
                for target in targets:
                    setattr(target, fn.name, wrapper)

    def _wrap(self, key, original, fn):
        stack = self._stack
        calls, self_time, edges = self.calls, self.self_time, self.edges
        durations = self.durations[key] if fn.percentiles else None
        probe = fn.probe
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            if stack:
                edges[stack[-1][0], key] += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                if probe is not None:
                    probe(self, key, args, result)
                return result
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                calls[key] += 1
                self_time[key] += duration - frame[1]
                if durations is not None:
                    durations.append(duration)

        return wrapper

    def metrics(self):
        """Per-layer metrics of everything traced so far (names as in
        ``metric_specs``; the run-level metrics are added by the caller)."""
        out = {}
        for module, fns in LAYERS.items():
            module_self = 0.0
            for fn in fns:
                key = f"{module}.{fn.name}"
                module_self += self.self_time[key]
                out[key + ".calls"] = self.calls[key]
                if fn.self_s:
                    out[key + ".self_s"] = self.self_time[key]
                if fn.percentiles:
                    d = self.durations[key] or [0.0]
                    p95 = statistics.quantiles(d, n=20)[18] if len(d) > 1 else d[0]
                    out[key + ".p50_us"] = statistics.median(d) * 1e6
                    out[key + ".p95_us"] = p95 * 1e6
                for suffix, _, _ in fn.extra:
                    out[f"{key}.{suffix}"] = self.counts[f"{key}.{suffix}"]
            out[module + ".self_s"] = module_self
        moves = self.calls["protocols.move_step"]
        out["protocols.move_step.success_ratio"] = (
            self.counts["protocols.move_step.successes"] / moves if moves else 0.0
        )
        amp = "category.interferometry_amplitude"
        out[amp + ".distinct_ratio"] = (
            len(self.distinct[amp]) / self.calls[amp] if self.calls[amp] else 0.0
        )
        out["lattice.peak_terms"] = self.counts["lattice.peak_terms"]
        out["concat_code.pool_vectors"] = self.counts["concat_code.pool_vectors"]
        return out

    def edge_counts(self):
        return {f"{a} -> {b}": n for (a, b), n in sorted(self.edges.items())}
