"""Engine-equivalence goldens: optimizations must be behaviorally invisible.

The gpusim engine underpins every bit-exactness claim the repo makes —
the PR-4 differential suite, the schedule/fault/fleet fuzzers and the
graph-replay verifier all reduce to "the simulated timeline is a pure
function of the workload".  Any engine *optimization* therefore carries
an obligation stronger than "the tests still pass": the timelines it
produces must be **bit-identical** to the pre-optimization engine's, or
every historical number in ``results/`` silently changes meaning.

This module discharges that obligation mechanically:

* a registry of representative workloads (:data:`ENGINE_WORKLOADS`) —
  raw DAG launches, memcpy/compute overlap, CIFAR10 conv passes under
  the GLP4NN executor, interop inception plans (eager and graph
  replay), a serving-fleet slice, a faulted run, summaries of the
  PR-4 differential suite plus the schedule/fleet fuzzers, and a
  many-wave CaffeNet forward pass;
* each workload renders the engine-visible outcome to canonical text
  lines (``repr`` for floats, so every IEEE-754 bit participates) and
  hashes them (:func:`fingerprint_lines`);
* :func:`record_engine_goldens` captures those lines from the *current*
  engine into ``tests/fixtures/engine_goldens/``;
* :func:`run_engine_equivalence` replays every workload and diffs it
  line-by-line against the recorded goldens, reporting the first
  divergent line per workload.

Run ``python -m repro verify --only engine`` to check, or
``python -m repro.verify.engine_equiv --record`` to re-capture goldens
(only legitimate after an *intentional* semantic change to the engine).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.faults import hooks as fault_hooks
from repro.gpusim import GPU, KernelSpec, LaunchConfig, get_device
from repro.gpusim.stream import Event, reset_handle_ids
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans

#: Where the committed goldens live, relative to the repo root.
DEFAULT_GOLDEN_DIR = (
    Path(__file__).resolve().parents[3] / "tests" / "fixtures"
    / "engine_goldens"
)


# ----------------------------------------------------------------------
# canonical rendering


def _f(x) -> str:
    """Canonical float rendering: ``repr`` of the Python float.

    ``repr`` round-trips every IEEE-754 double exactly, so two timelines
    agree on these strings iff they agree bit-for-bit.
    """
    return repr(float(x))


def _timeline_lines(gpu: GPU) -> List[str]:
    """Render a GPU's full observable outcome to canonical lines."""
    lines: List[str] = []
    for r in gpu.timeline.records:
        lines.append(
            f"K|{r.name}|{r.tag}|{r.stream_id}|{_f(r.enqueue_us)}"
            f"|{_f(r.start_us)}|{_f(r.end_us)}|{tuple(r.grid)}"
            f"|{tuple(r.block)}|{r.registers}|{r.shared_mem}"
        )
    for s in gpu.timeline.syncs:
        lines.append(
            f"S|{s.kind}|{s.event_id}|{s.event_name}|{s.stream_id}"
            f"|{_f(s.enqueue_us)}|{_f(s.complete_us)}"
        )
    lines.append(
        f"T|now={_f(gpu.now)}|host={_f(gpu.host_time)}"
        f"|events={gpu.events_processed}"
        f"|overhead={_f(gpu.launch_overhead_total)}"
    )
    return lines


def fingerprint_lines(lines: Sequence[str]) -> str:
    """SHA-256 over the canonical lines (the golden identity)."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _reset_globals() -> None:
    """Mirror the test suite's hermetic fixture for CLI/recording runs."""
    reset_handle_ids()
    obs_spans.install(None)
    obs_metrics.install(None)
    fault_hooks.install(None)


# ----------------------------------------------------------------------
# workloads


def _wl_dag_events() -> List[str]:
    """Layered branchy DAG with event joins — the raw hot-loop shape."""
    gpu = GPU(get_device("P100"), record_timeline=True)
    streams = [gpu.create_stream() for _ in range(5)]
    prev_events: List[Event] = []
    k = 0
    for d in range(15):
        events = []
        for w, s in enumerate(streams):
            for e in prev_events:
                gpu.wait_event(e, stream=s)
            spec = KernelSpec(
                name=f"k{d}_{w}",
                launch=LaunchConfig(
                    grid=(8 + (k % 13), 1, 1),
                    block=(128 + 32 * (k % 4), 1, 1),
                    shared_mem_dynamic=(k % 3) * 2048,
                ),
                flops_per_thread=1e4 + 137.0 * (k % 29),
                bytes_per_thread=16.0,
            )
            gpu.launch(spec, stream=s)
            k += 1
            ev = Event(name=f"e{d}_{w}")
            gpu.record_event(ev, stream=s)
            events.append(ev)
        prev_events = events if d % 3 == 2 else []
    gpu.synchronize()
    return _timeline_lines(gpu)


def _wl_memcpy_streams() -> List[str]:
    """Copy/compute overlap plus the legacy default-stream barrier."""
    gpu = GPU(get_device("TitanXP"), record_timeline=True)
    streams = [gpu.create_stream() for _ in range(3)]
    for i, s in enumerate(streams):
        gpu.memcpy(1 << (18 + i), kind="h2d", stream=s)
        spec = KernelSpec(
            name=f"c{i}",
            launch=LaunchConfig(grid=(12 + i, 1, 1), block=(256, 1, 1)),
            flops_per_thread=2e4,
            bytes_per_thread=32.0,
        )
        gpu.launch(spec, stream=s)
    # legacy default stream: barriers against every blocking stream
    gpu.launch(KernelSpec(
        name="default_barrier",
        launch=LaunchConfig(grid=(4, 1, 1), block=(128, 1, 1)),
        flops_per_thread=5e3, bytes_per_thread=8.0,
    ))
    for i, s in enumerate(streams):
        gpu.memcpy(1 << (17 + i), kind="d2h", stream=s)
    gpu.stream_synchronize(streams[1])
    gpu.synchronize()
    return _timeline_lines(gpu)


def _wl_cifar10_conv_fwd() -> List[str]:
    """CIFAR10 conv forward passes under the GLP4NN executor."""
    from repro.nn.zoo.table5 import CIFAR10_CONVS
    from repro.runtime.executor import GLP4NNExecutor
    from repro.runtime.lowering import conv_works

    gpu = GPU(get_device("P100"), record_timeline=True)
    ex = GLP4NNExecutor(gpu)
    works = conv_works(CIFAR10_CONVS, "forward")
    for _ in range(2):
        ex.run_pass(works)
    gpu.synchronize()
    return _timeline_lines(gpu)


def _wl_caffenet_glp4nn_fwd() -> List[str]:
    """CaffeNet batch-8 forward under GLP4NN on TitanXP: many-wave grids.

    relu1 alone launches 4,538 blocks, so the block dispatcher runs many
    waves per kernel while GLP4NN's multi-stream conv layers share SMs.
    """
    from repro.nn.zoo import NETWORKS
    from repro.runtime.executor import GLP4NNExecutor
    from repro.runtime.lowering import lower_net

    works = lower_net(NETWORKS["CaffeNet"].build(batch=8), "forward")
    gpu = GPU(get_device("TitanXP"), record_timeline=True)
    ex = GLP4NNExecutor(gpu)
    for _ in range(2):
        ex.run_pass(works)
    gpu.synchronize()
    return _timeline_lines(gpu)


def _wl_inception_5a_opara() -> List[str]:
    """Inception 5a under a certified opara plan, eager dispatch."""
    from repro.interop import build_plan, certify, inception_unit, run_plan

    wl = inception_unit("5a", batch=2)
    gpu = GPU(get_device("P100"), record_timeline=True)
    plan = build_plan(wl.graph, "opara", 4, device=gpu.props)
    cert = certify(wl.graph, plan, device=gpu.props)
    streams = [gpu.create_stream() for _ in range(4)]
    run = run_plan(gpu, wl.graph, cert.plan, streams)
    lines = _timeline_lines(gpu)
    lines.append(
        f"P|{run.policy}|{run.mode}|{_f(run.elapsed_us)}|{run.launches}"
        f"|{run.records}|{run.waits}|{_f(run.launch_overhead_us)}"
    )
    return lines


def _wl_inception_5b_graph() -> List[str]:
    """Inception 5b under chain-affine, replayed as one graph launch."""
    from repro.interop import build_plan, certify, inception_unit, replay_plan

    wl = inception_unit("5b", batch=2)
    gpu = GPU(get_device("P100"), record_timeline=True)
    plan = build_plan(wl.graph, "chain-affine", 4)
    cert = certify(wl.graph, plan)
    run = replay_plan(gpu, wl.graph, cert.plan)
    lines = _timeline_lines(gpu)
    lines.append(
        f"P|{run.policy}|{run.mode}|{_f(run.elapsed_us)}|{run.launches}"
        f"|{run.records}|{run.waits}|{_f(run.launch_overhead_us)}"
    )
    return lines


def _wl_fleet_slice() -> List[str]:
    """One fleet-sweep cell: lenet x2 on mixed devices, Poisson trace."""
    from repro.fleet import serve_fleet
    from repro.serve.request import poisson_trace

    trace = poisson_trace(rps=4000, duration_us=4000, slo_us=3000, seed=0)
    rep = serve_fleet("lenet", ("titanxp", "p100"), "fixed", 2, trace)
    lines = [
        f"F|requests={rep.requests}|ok={rep.ok}|late={rep.late}"
        f"|shed_q={rep.shed_queue}|shed_a={rep.shed_admission}"
        f"|failed={rep.failed}|expired={rep.expired}"
        f"|failfast={rep.failfast}",
        f"F|failovers={rep.failovers}|hedges={rep.hedges_issued}"
        f"|hedges_won={rep.hedges_won}|crashes={rep.crashes}"
        f"|link_drops={rep.link_drops}|heartbeats={rep.heartbeats}",
        f"F|makespan={_f(rep.makespan_us)}",
    ]
    for name in ("latency_mean_us", "latency_p50_us", "latency_p95_us",
                 "latency_p99_us", "latency_max_us"):
        v = getattr(rep, name)
        lines.append(f"F|{name}={'-' if v is None else _f(v)}")
    return lines


def _wl_faulted_run() -> List[str]:
    """Bounded fault-fuzz campaign: injected faults through the engine."""
    from repro.verify.fault_fuzz import fuzz_faults

    rep = fuzz_faults(network="cifar10", device="p100", seed=3,
                      rounds=3, batch=4, iterations=1)
    lines = [
        f"X|rounds={len(rep.rounds)}|fires={rep.total_fires}"
        f"|aborted={rep.aborted_rounds}|ok={rep.ok}"
    ]
    for r in rep.rounds:
        lines.append(
            f"X|round={r.round}|plan={r.plan_name}|fires={r.fires}"
            f"|iters={r.iterations_completed}|degraded={r.degraded_layers}"
            f"|retries={r.retries}|aborted={r.aborted}"
            f"|divergence={r.divergence}"
        )
    return lines


def _wl_suite_differential() -> List[str]:
    """PR-4 five-executor differential suite, engine-derived summary.

    Losses and tensor digests are deliberately excluded: they route
    through BLAS and are not bit-stable across machines.  The simulated
    times are pure engine outputs and must match to the last bit.
    """
    from repro.verify.differential import run_differential

    rep = run_differential(network="cifar10", device="p100", seed=0,
                           iterations=1, batch=4)
    lines = [f"D|{rep.network}|{rep.device}|seed={rep.seed}"
             f"|batch={rep.batch}|ok={rep.ok}"]
    for o in rep.outcomes:
        lines.append(
            f"D|{o.executor}|iters={o.iterations}"
            f"|sim={_f(o.sim_time_us)}|ok={o.ok}"
            f"|degraded={o.degraded_layers}|error={o.error}"
        )
    return lines


def _wl_suite_fuzzers() -> List[str]:
    """Schedule + fleet fuzzer summaries under a small fixed budget."""
    from repro.verify.fleet_chaos import fuzz_fleet
    from repro.verify.schedule import fuzz_schedules

    sched = fuzz_schedules(network="cifar10", device="p100", seed=0,
                           rounds=4, batch=4)
    lines = [
        f"Z|schedule|rounds={sched.rounds_run}/{sched.rounds_requested}"
        f"|kernels={sched.kernels_checked}|pool={sched.pool_size}"
        f"|ok={sched.ok}"
    ]
    fleet = fuzz_fleet(network="lenet", devices=("titanxp",),
                       executor="fixed", replicas=2, seed=0, rounds=2)
    lines.append(
        f"Z|fleet|rounds={len(fleet.rounds)}/{fleet.rounds_requested}"
        f"|fires={fleet.total_fires}|ok={fleet.ok}"
    )
    for r in fleet.rounds:
        lines.append(f"Z|fleet_round={r.round}|plan={r.plan_name}"
                     f"|fires={r.fires}|ok={r.ok}")
    return lines


#: Name -> workload callable.  Order is the order they are recorded,
#: checked and reported in.
ENGINE_WORKLOADS: Dict[str, Callable[[], List[str]]] = {
    "dag_events": _wl_dag_events,
    "memcpy_streams": _wl_memcpy_streams,
    "cifar10_conv_fwd": _wl_cifar10_conv_fwd,
    "inception_5a_opara": _wl_inception_5a_opara,
    "inception_5b_graph": _wl_inception_5b_graph,
    "fleet_slice": _wl_fleet_slice,
    "faulted_run": _wl_faulted_run,
    "suite_differential": _wl_suite_differential,
    "suite_fuzzers": _wl_suite_fuzzers,
    "caffenet_glp4nn_fwd": _wl_caffenet_glp4nn_fwd,
}


def run_workload(name: str) -> List[str]:
    """Run one registered workload hermetically; returns canonical lines."""
    try:
        fn = ENGINE_WORKLOADS[name]
    except KeyError:
        raise ReproError(
            f"unknown engine workload {name!r}; known: "
            f"{', '.join(ENGINE_WORKLOADS)}"
        ) from None
    _reset_globals()
    try:
        return fn()
    finally:
        _reset_globals()


# ----------------------------------------------------------------------
# recording and checking


def record_engine_goldens(out_dir=DEFAULT_GOLDEN_DIR,
                          workloads: Optional[Sequence[str]] = None
                          ) -> List[Path]:
    """Capture goldens for every (or the named) workloads into JSON files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in (workloads or list(ENGINE_WORKLOADS)):
        lines = run_workload(name)
        doc = {
            "workload": name,
            "fingerprint": fingerprint_lines(lines),
            "line_count": len(lines),
            "lines": lines,
        }
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        written.append(path)
    return written


def load_golden(golden_dir, name: str) -> dict:
    path = Path(golden_dir) / f"{name}.json"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as e:
        raise ReproError(f"missing engine golden {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ReproError(f"engine golden {path} is not valid JSON: {e}") from e
    if doc.get("workload") != name:
        raise ReproError(
            f"engine golden {path} records workload "
            f"{doc.get('workload')!r}, expected {name!r}"
        )
    return doc


@dataclass
class WorkloadVerdict:
    """One workload's replay compared against its recorded golden."""

    workload: str
    expected_fingerprint: str
    actual_fingerprint: str
    lines: int = 0
    first_diff: str = ""
    error: str = ""

    @property
    def ok(self) -> bool:
        return (not self.error
                and self.expected_fingerprint == self.actual_fingerprint)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "expected_fingerprint": self.expected_fingerprint,
            "actual_fingerprint": self.actual_fingerprint,
            "lines": self.lines,
            "ok": self.ok,
            "first_diff": self.first_diff,
            "error": self.error,
        }


@dataclass
class EngineEquivalenceReport:
    """Every workload's bit-identity verdict against the goldens."""

    golden_dir: str
    verdicts: List[WorkloadVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.verdicts) and all(v.ok for v in self.verdicts)

    def failures(self) -> List[WorkloadVerdict]:
        return [v for v in self.verdicts if not v.ok]

    def to_dict(self) -> dict:
        return {
            "golden_dir": self.golden_dir,
            "ok": self.ok,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }

    def render(self) -> str:
        lines = [f"engine-equivalence: {len(self.verdicts)} workload(s) "
                 f"vs goldens in {self.golden_dir} — "
                 f"{'OK' if self.ok else 'DIVERGED'}"]
        for v in self.verdicts:
            status = "OK" if v.ok else "DIVERGED"
            lines.append(f"  {v.workload:22s} {status:8s} "
                         f"{v.lines} line(s)")
            if v.error:
                lines.append(f"    error: {v.error}")
            elif v.first_diff:
                lines.append(f"    {v.first_diff}")
        return "\n".join(lines)


def _first_diff(expected: Sequence[str], actual: Sequence[str]) -> str:
    for i, (e, a) in enumerate(zip(expected, actual)):
        if e != a:
            return f"line {i}: expected {e!r}, got {a!r}"
    if len(expected) != len(actual):
        return (f"line count: expected {len(expected)} line(s), "
                f"got {len(actual)}")
    return ""


def run_engine_equivalence(golden_dir=DEFAULT_GOLDEN_DIR,
                           workloads: Optional[Sequence[str]] = None
                           ) -> EngineEquivalenceReport:
    """Replay workloads and diff them bit-for-bit against the goldens."""
    report = EngineEquivalenceReport(golden_dir=str(golden_dir))
    for name in (workloads or list(ENGINE_WORKLOADS)):
        golden = load_golden(golden_dir, name)
        try:
            lines = run_workload(name)
        except Exception as e:          # pragma: no cover - defensive
            report.verdicts.append(WorkloadVerdict(
                workload=name,
                expected_fingerprint=golden["fingerprint"],
                actual_fingerprint="",
                error=f"{type(e).__name__}: {e}",
            ))
            continue
        report.verdicts.append(WorkloadVerdict(
            workload=name,
            expected_fingerprint=golden["fingerprint"],
            actual_fingerprint=fingerprint_lines(lines),
            lines=len(lines),
            first_diff=_first_diff(golden["lines"], lines),
        ))
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.verify.engine_equiv [--record] [dir]``."""
    import argparse

    ap = argparse.ArgumentParser(
        description="record or check gpusim engine-equivalence goldens")
    ap.add_argument("--record", action="store_true",
                    help="re-capture goldens from the current engine")
    ap.add_argument("dir", nargs="?", default=str(DEFAULT_GOLDEN_DIR),
                    help="golden fixture directory")
    ns = ap.parse_args(argv)
    if ns.record:
        for path in record_engine_goldens(ns.dir):
            print(f"recorded {path}")
        return 0
    report = run_engine_equivalence(ns.dir)
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":              # pragma: no cover
    raise SystemExit(main())
