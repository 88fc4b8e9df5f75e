"""Layer tracing for the benchmark's traced run (``--trace 1``).

:class:`Tracer` wraps the public functions of each ``repro`` layer from
the outside; nothing under ``src/`` changes.  Each call becomes a span
(name, start, end, parent) kept in memory and written out when the run
ends.  A layer's self time is the time its spans cover minus the part
their child spans cover, so a ``certify`` span that calls the hazard
detector is charged only for its own work.

Counts are taken at the same boundaries by small hooks that read each
call's arguments or result (profiles made, decisions solved, waits
elided, batches formed ...).  Simulated quantities are read from the
program's own records; the tracer never changes what the program does.

Layers follow the ``src/repro`` packages: ``gpusim``; ``runtime`` (with
``kernels``: lowering and executors); ``nn``; ``core`` (with ``cupti``
and ``milp``); ``interop``; ``analyze``; ``graphs``; ``serve``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from collections import defaultdict
from typing import Callable, Optional

#: Wrapped class methods: (module, class, method, span name).
_METHODS = (
    ("repro.gpusim.engine", "GPU", "__init__", "gpusim.init"),
    ("repro.gpusim.engine", "GPU", "launch", "gpusim.launch"),
    ("repro.gpusim.engine", "GPU", "launch_graph", "gpusim.launch_graph"),
    ("repro.gpusim.engine", "GPU", "record_event", "gpusim.record_event"),
    ("repro.gpusim.engine", "GPU", "wait_event", "gpusim.wait_event"),
    ("repro.gpusim.engine", "GPU", "synchronize", "gpusim.synchronize"),
    ("repro.runtime.executor", "Executor", "run_pass", "runtime.pass"),
    ("repro.runtime.session", "TrainingSession", "run_iteration",
     "runtime.iteration"),
    ("repro.nn.net", "Net", "forward", "nn.forward"),
    ("repro.nn.net", "Net", "backward", "nn.backward"),
    ("repro.nn.solver", "Solver", "step", "nn.update"),
    ("repro.core.runtime_scheduler", "RuntimeScheduler", "run_layer",
     "core.dispatch"),
    ("repro.core.resource_tracker", "ResourceTracker", "profile_layer",
     "core.profile"),
    ("repro.core.kernel_analyzer", "KernelAnalyzer", "decision_for",
     "core.analyze"),
    ("repro.core.kernel_analyzer", "ConcurrencyAnalyzer", "analyze",
     "core.analyze"),
    ("repro.milp.model", "Model", "solve", "milp.solve"),
    ("repro.graphs.replay", "GraphExec", "launch", "graphs.replay"),
    ("repro.graphs.replay", "GraphExec", "run", "graphs.run"),
    ("repro.serve.engine", "ServingEngine", "serve", "serve.serve"),
    ("repro.serve.engine", "ServingEngine", "warm_up", "serve.warmup"),
    ("repro.serve.batcher", "LoweredNetCache", "works_for", "serve.lowering"),
    ("repro.serve.batcher", "DynamicBatcher", "form", "serve.batch"),
)

#: Wrapped module functions: (module, function, span name).  Every
#: ``repro`` module holding a reference to the function is rebound.
_FUNCTIONS = (
    ("repro.runtime.lowering", "lower_net", "runtime.lower"),
    ("repro.runtime.lowering", "lower_layer", "runtime.lower"),
    ("repro.runtime.lowering", "lower_conv_forward", "runtime.lower"),
    ("repro.runtime.lowering", "lower_conv_backward", "runtime.lower"),
    ("repro.interop.planner", "build_plan", "interop.plan"),
    ("repro.interop.certify", "certify", "interop.certify"),
    ("repro.interop.execute", "run_plan", "interop.execute"),
    ("repro.interop.execute", "replay_plan", "interop.execute"),
    ("repro.interop.execute", "compile_plan", "interop.execute"),
    ("repro.analyze.hazards", "verdict_for", "analyze.hazards"),
    ("repro.analyze.deadlock", "deadlock_verdict_for", "analyze.deadlock"),
    ("repro.analyze.elide", "certified_minimize", "analyze.elide"),
    ("repro.analyze.capacity", "check_capacity", "analyze.capacity"),
    ("repro.graphs.admission", "admit", "graphs.compile"),
    ("repro.graphs.replay", "instantiate", "graphs.compile"),
)

#: Per-layer metrics: name -> (unit, better).  Every traced run reports
#: all of them; a layer a workload does not exercise reads 0.
PER_LAYER = {
    "gpusim.host_s": ("s", "lower"),
    "gpusim.events": ("count", "lower"),
    "gpusim.host_us_per_event": ("us", "lower"),
    "gpusim.kernels": ("count", "lower"),
    "gpusim.sim_launch_overhead_us": ("us", "lower"),
    "gpusim.sim_utilization": ("ratio", "higher"),
    "runtime.lower_host_s": ("s", "lower"),
    "runtime.lowered_kernels": ("count", "lower"),
    "nn.forward_host_s": ("s", "lower"),
    "nn.backward_host_s": ("s", "lower"),
    "nn.update_host_s": ("s", "lower"),
    "core.dispatch_host_s": ("s", "lower"),
    "core.profile_host_s": ("s", "lower"),
    "core.analyze_host_s": ("s", "lower"),
    "core.layers_profiled": ("count", "lower"),
    "core.decision_hit_ratio": ("ratio", "higher"),
    "core.streams_chosen": ("count", "higher"),
    "core.sim_profile_us": ("us", "lower"),
    "core.sim_analysis_us": ("us", "lower"),
    "cupti.records": ("count", "lower"),
    "cupti.buffer_bytes": ("B", "lower"),
    "milp.solves": ("count", "lower"),
    "milp.host_s": ("s", "lower"),
    "milp.bb_nodes": ("count", "lower"),
    "milp.simplex_iterations": ("count", "lower"),
    "interop.plan_host_s": ("s", "lower"),
    "interop.certify_host_s": ("s", "lower"),
    "interop.execute_host_s": ("s", "lower"),
    "interop.fallbacks": ("count", "lower"),
    "analyze.hazards_host_s": ("s", "lower"),
    "analyze.deadlock_host_s": ("s", "lower"),
    "analyze.elide_host_s": ("s", "lower"),
    "analyze.capacity_host_s": ("s", "lower"),
    "analyze.waits": ("count", "lower"),
    "analyze.waits_removed": ("count", "higher"),
    "analyze.elide_yield": ("ratio", "higher"),
    "graphs.compile_host_s": ("s", "lower"),
    "graphs.replays": ("count", "higher"),
    "serve.host_s": ("s", "lower"),
    "serve.batches": ("count", "lower"),
    "serve.mean_batch": ("req", "higher"),
    "serve.lowering_hit_ratio": ("ratio", "higher"),
    "serve.queue_high_water": ("req", "lower"),
    "serve.sim_wait_us": ("us", "lower"),
    "serve.sim_service_us": ("us", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

#: Self-time metric -> span names whose self time it sums.
_SELF_TIME = {
    "gpusim.host_s": ("gpusim.",),
    "runtime.lower_host_s": ("runtime.lower",),
    "nn.forward_host_s": ("nn.forward",),
    "nn.backward_host_s": ("nn.backward",),
    "nn.update_host_s": ("nn.update",),
    "core.dispatch_host_s": ("core.dispatch",),
    "core.profile_host_s": ("core.profile",),
    "core.analyze_host_s": ("core.analyze",),
    "milp.host_s": ("milp.",),
    "interop.plan_host_s": ("interop.plan",),
    "interop.certify_host_s": ("interop.certify",),
    "interop.execute_host_s": ("interop.execute",),
    "analyze.hazards_host_s": ("analyze.hazards",),
    "analyze.deadlock_host_s": ("analyze.deadlock",),
    "analyze.elide_host_s": ("analyze.elide",),
    "analyze.capacity_host_s": ("analyze.capacity",),
    "graphs.compile_host_s": ("graphs.compile",),
    "serve.host_s": ("serve.",),
}


class Tracer:
    """In-memory span recorder plus per-layer counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.active = False
        self._patches: list[tuple[object, str, object]] = []
        #: id(gpu) -> (weak reference, counters when last read); work a
        #: GPU does while tracing is off is skipped by re-reading them.
        self._gpu_last: dict[int, tuple] = {}
        #: events, kernels, launch overhead, device time, warp time.
        self._gpu_totals = [0.0] * 5
        self._before_count = 0
        self._serve: Optional[tuple] = None
        self._waits: dict[int, float] = {}
        self._sim_wait: list[float] = []
        self._sim_service: list[float] = []

    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self
        before = _BEFORE.get(name)
        after = _AFTER.get((name, fn.__name__))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            stack = tracer._stack
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.ends.append(0)
            stack.append(idx)
            tracer.starts.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter_ns()
                stack.pop()
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function and start recording."""
        for key, (ref, _) in list(self._gpu_last.items()):
            gpu = ref()
            if gpu is None:
                del self._gpu_last[key]
            else:
                self._gpu_last[key] = (ref, _gpu_counters(gpu))
        for module, cls_name, attr, name in _METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            orig = cls.__dict__[attr]
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(orig, name))
        for module, attr, name in _FUNCTIONS:
            orig = getattr(importlib.import_module(module), attr)
            wrapped = self._wrap(orig, name)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__dict__", {}).get(attr) is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        self.active = True

    def uninstall(self) -> None:
        """Stop recording and restore every wrapped function."""
        self.active = False
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------------
    def self_times_s(self) -> dict[str, float]:
        """Self time per span name, seconds."""
        child = [0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += (self.ends[i] - self.starts[i] - child[i]) * 1e-9
        return out

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric of :data:`PER_LAYER`."""
        selfs = self.self_times_s()
        c = self.counts
        m: dict[str, float] = {}
        for metric, prefixes in _SELF_TIME.items():
            m[metric] = sum(v for k, v in selfs.items()
                            if k.startswith(prefixes))
        events, kernels, overhead, busy, warp_time = self._gpu_totals
        m["gpusim.events"] = events
        m["gpusim.host_us_per_event"] = (m["gpusim.host_s"] * 1e6 / events
                                         if events else 0.0)
        m["gpusim.kernels"] = kernels
        m["gpusim.sim_launch_overhead_us"] = overhead
        m["gpusim.sim_utilization"] = warp_time / busy if busy else 0.0
        m["runtime.lowered_kernels"] = c["lowered_kernels"]
        m["core.layers_profiled"] = c["layers_profiled"]
        m["core.decision_hit_ratio"] = (
            1.0 - c["decisions_solved"] / c["decision_lookups"]
            if c["decision_lookups"] else 0.0)
        m["core.streams_chosen"] = c["streams_chosen"]
        m["core.sim_profile_us"] = c["sim_profile_us"]
        m["core.sim_analysis_us"] = c["sim_analysis_us"]
        m["cupti.records"] = c["cupti_records"]
        m["cupti.buffer_bytes"] = c["cupti_bytes"]
        m["milp.solves"] = c["milp_solves"]
        m["milp.bb_nodes"] = c["milp_nodes"]
        m["milp.simplex_iterations"] = c["milp_iterations"]
        m["interop.fallbacks"] = c["fallbacks"]
        m["analyze.waits"] = c["waits"]
        m["analyze.waits_removed"] = c["waits_removed"]
        m["analyze.elide_yield"] = (c["waits_removed"] / c["waits"]
                                    if c["waits"] else 0.0)
        m["graphs.replays"] = c["replays"]
        m["serve.batches"] = c["batches"]
        m["serve.mean_batch"] = (c["batched"] / c["batches"]
                                 if c["batches"] else 0.0)
        m["serve.lowering_hit_ratio"] = (
            1.0 - c["lowering_misses"] / c["lowering_calls"]
            if c["lowering_calls"] else 0.0)
        m["serve.queue_high_water"] = c["queue_high_water"]
        m["serve.sim_wait_us"] = _mean(self._sim_wait)
        m["serve.sim_service_us"] = _mean(self._sim_service)
        m["trace.overhead_s"] = overhead_s
        assert set(m) == set(PER_LAYER), set(PER_LAYER) ^ set(m)
        return m

    def write_spans(self, path) -> None:
        """Write the spans as ``[name, start_ns, end_ns, parent]`` rows."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        t0 = self.starts[0] if self.starts else 0
        rows = [[index[n], s - t0, e - t0, p] for n, s, e, p in
                zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "columns": ["name", "start_ns", "end_ns", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Count hooks.  ``before`` hooks see the call's arguments; ``after`` hooks
# also see its result.  Keyed by span name (and wrapped function name).
# ----------------------------------------------------------------------

def _gpu_counters(gpu) -> tuple:
    return (gpu.events_processed, gpu.kernels_launched,
            gpu.launch_overhead_total, gpu.now, gpu.utilization() * gpu.now)


def _gpu_init(t: Tracer, args, result) -> None:
    gpu = args[0]
    t._gpu_last[id(gpu)] = (weakref.ref(gpu), (0.0,) * 5)


def _gpu_synced(t: Tracer, args, result) -> None:
    gpu = args[0]
    _, last = t._gpu_last.get(id(gpu), (None, (0.0,) * 5))
    now = _gpu_counters(gpu)
    t._gpu_totals = [a + n - b for a, n, b in zip(t._gpu_totals, now, last)]
    t._gpu_last[id(gpu)] = (weakref.ref(gpu), now)


def _lowered(t: Tracer, args, result) -> None:
    # Count at the outermost lowering call only (lower_net -> lower_layer).
    stack = t._stack
    if stack and t.names[stack[-1]] == "runtime.lower":
        return
    works = result if isinstance(result, list) else [result]
    t.counts["lowered_kernels"] += sum(w.num_kernels for w in works if w)


def _dispatch(t: Tracer, args, result) -> None:
    from repro.core.runtime_scheduler import DispatchPolicy
    if args[0].policy is DispatchPolicy.MODEL:
        t.counts["decision_lookups"] += 1


def _count_profiles(t: Tracer, args) -> None:
    t._before_count = args[0].layers_profiled


def _profiled(t: Tracer, args, profile) -> None:
    from repro.cupti import ACTIVITY_BUFFER_BYTES

    if args[0].layers_profiled == t._before_count:
        return                          # served from the tracker's cache
    t.counts["layers_profiled"] += 1
    t.counts["sim_profile_us"] += profile.profiling_time_us
    if profile.report is not None:
        t.counts["cupti_records"] += len(profile.report.records)
        t.counts["cupti_bytes"] += (profile.report.buffers_used
                                    * ACTIVITY_BUFFER_BYTES)


def _decided(t: Tracer, args, decision) -> None:
    t.counts["decisions_solved"] += 1
    t.counts["streams_chosen"] += decision.c_out
    t.counts["sim_analysis_us"] += decision.analysis_time_us


def _solved(t: Tracer, args, sol) -> None:
    t.counts["milp_solves"] += 1
    t.counts["milp_nodes"] += sol.nodes_explored
    t.counts["milp_iterations"] += sol.simplex_iterations


def _certified(t: Tracer, args, cert) -> None:
    t.counts["fallbacks"] += int(cert.fell_back)


def _elided(t: Tracer, args, result) -> None:
    t.counts["waits"] += result.waits_checked
    t.counts["waits_removed"] += result.waits_removed


def _replayed(t: Tracer, args, result) -> None:
    t.counts["replays"] += 1


def _serve_start(t: Tracer, args) -> None:
    engine = args[0]
    t._serve = (engine, engine.gpu.host_time)
    t._waits = {}


def _serve_end(t: Tracer, args, report) -> None:
    engine = args[0]
    t.counts["queue_high_water"] = max(t.counts["queue_high_water"],
                                       engine.queue.high_water)
    for rec in engine.slo.records:
        wait = t._waits.get(rec.rid)
        if rec.finish_us is not None and wait is not None:
            t._sim_wait.append(wait)
            t._sim_service.append(rec.finish_us - rec.arrival_us - wait)
    t._serve = None


def _count_lowerings(t: Tracer, args) -> None:
    t._before_count = args[0].lowerings


def _lowering(t: Tracer, args, result) -> None:
    t.counts["lowering_calls"] += 1
    t.counts["lowering_misses"] += args[0].lowerings - t._before_count


def _batch_formed(t: Tracer, args, batch) -> None:
    t.counts["batches"] += 1
    t.counts["batched"] += len(batch)
    if t._serve is not None:
        engine, base = t._serve
        start = engine.gpu.host_time - base
        for request in batch:
            t._waits[request.rid] = start - request.arrival_us


_BEFORE = {
    "serve.serve": _serve_start,
    "core.profile": _count_profiles,
    "serve.lowering": _count_lowerings,
}

_AFTER = {
    ("gpusim.init", "__init__"): _gpu_init,
    ("gpusim.synchronize", "synchronize"): _gpu_synced,
    ("runtime.lower", "lower_net"): _lowered,
    ("runtime.lower", "lower_layer"): _lowered,
    ("runtime.lower", "lower_conv_forward"): _lowered,
    ("runtime.lower", "lower_conv_backward"): _lowered,
    ("core.dispatch", "run_layer"): _dispatch,
    ("core.profile", "profile_layer"): _profiled,
    ("core.analyze", "analyze"): _decided,
    ("milp.solve", "solve"): _solved,
    ("interop.certify", "certify"): _certified,
    ("analyze.elide", "certified_minimize"): _elided,
    ("graphs.replay", "launch"): _replayed,
    ("serve.serve", "serve"): _serve_end,
    ("serve.lowering", "works_for"): _lowering,
    ("serve.batch", "form"): _batch_formed,
}
