"""The serving engine: a simulated-clock inference-serving loop.

:class:`ServingEngine` wires the serving pieces (bounded queue, SLO-aware
admission, dynamic batcher, lowered-work cache) onto an existing
:class:`~repro.runtime.executor.Executor`, so every inference batch flows
through the same runtime scheduler the training path uses — GLP4NN's
profile-then-dispatch workflow, stream-pool sizing and graceful degradation
are exercised per batch shape, exactly as the paper's framework would see
them ("training or inference").

Time is *entirely* simulated: the engine advances the device's host clock
to idle between arrivals and lets executor runs advance it through compute,
so a serving run is a single-threaded discrete-event loop with no wall
clock and no unseeded randomness anywhere.  Engine bookkeeping (queueing,
deadlines, records) happens in trace-relative time; only the executor sees
the absolute host timeline.

Failure handling rides on the PR-1 fault subsystem: transient faults are
retried inside the runtime scheduler, layers that lose their concurrency
path degrade to serial dispatch (the batch completes, just slower), and a
batch whose retries exhaust (:class:`~repro.errors.DegradedError`) is
failed as a unit — its requests are accounted ``FAILED`` and the engine
keeps serving the rest of the trace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Callable, Optional, Sequence

from repro.core.analytical_model import AnalyticalModel, ConcurrencyDecision
from repro.core.framework import GLP4NN
from repro.core.runtime_scheduler import DispatchPolicy
from repro.errors import DegradedError, ReproError
from repro.gpusim.device import DEVICE_CATALOG, DeviceProperties, get_device
from repro.gpusim.engine import GPU
from repro.nn.net import Net
from repro.nn.zoo import (
    build_caffenet,
    build_cifar10,
    build_googlenet,
    build_lenet,
    build_siamese,
)
from repro.obs.metrics import counter_inc, gauge_max, gauge_set, observe
from repro.obs.spans import instant, span
from repro.runtime.executor import (
    Executor,
    FixedStreamExecutor,
    GLP4NNExecutor,
    NaiveExecutor,
)
from repro.serve.batcher import DynamicBatcher, LoweredNetCache, default_buckets
from repro.serve.queue import (
    AdmissionController,
    BoundedQueue,
    OverflowPolicy,
    QueueOrder,
)
from repro.serve.report import ServingReport
from repro.serve.request import ArrivalTrace
from repro.serve.slo import Outcome, SLOTracker

_EPS = 1e-9

#: Networks servable by name (lowercase) — the zoo builders all accept
#: ``batch`` and ``seed`` keywords, which is all the shape cache needs.
SERVE_NETS: dict[str, Callable[..., Net]] = {
    "cifar10": build_cifar10,
    "lenet": build_lenet,
    "siamese": build_siamese,
    "caffenet": build_caffenet,
    "googlenet": build_googlenet,
}

EXECUTOR_KINDS = ("naive", "fixed", "glp4nn")


def resolve_net(name: str) -> Callable[..., Net]:
    """Look up a servable network builder by case-insensitive name."""
    try:
        return SERVE_NETS[name.lower()]
    except KeyError:
        raise ReproError(
            f"unknown network {name!r}; servable: {', '.join(SERVE_NETS)}"
        ) from None


def resolve_device(name: str) -> DeviceProperties:
    """Catalog lookup tolerant of CLI spellings (``titan-xp``, ``p100``)."""
    wanted = name.lower().replace("-", "").replace("_", "")
    for key in DEVICE_CATALOG:
        if key.lower() == wanted:
            return get_device(key)
    return get_device(name)     # let the catalog raise its usual error


def deterministic_analyze_fn(gpu: GPU) -> Callable:
    """An analyzer whose ``T_a`` charge is explicitly nominal.

    Historically the stock analytical model stamped each decision with
    the *wall-clock* time the MILP solve took, and serving had to replace
    it with a nominal cost derived from the solver's deterministic work
    counters so runs were replayable.  The stock model now uses that same
    nominal formula itself (the ``wall-clock`` lint rule bans host-time
    reads in simulated paths); this wrapper remains as serving's explicit
    statement of the charge it simulates — and as the seam to restamp
    ``analysis_time_us`` if the stock formula ever changes.
    """
    model = AnalyticalModel(gpu.props)

    def analyze(layer_key, profiles) -> ConcurrencyDecision:
        decision = model.solve(layer_key, profiles)
        nominal_us = (
            20.0
            + 0.4 * decision.solver_iterations
            + 4.0 * decision.solver_nodes
        )
        return replace(decision, analysis_time_us=nominal_us)

    return analyze


def make_executor(kind: str, gpu: GPU, fixed_streams: int = 4) -> Executor:
    """Build one of the comparable executors by name.

    The GLP4NN executor gets the deterministic-``T_a`` analyzer (see
    :func:`deterministic_analyze_fn`) so serving runs are replayable.
    """
    if kind == "naive":
        return NaiveExecutor(gpu)
    if kind == "fixed":
        return FixedStreamExecutor(gpu, fixed_streams)
    if kind == "glp4nn":
        framework = GLP4NN([gpu], policy=DispatchPolicy.MODEL,
                           analyze_fn=deterministic_analyze_fn(gpu))
        return GLP4NNExecutor(gpu, framework=framework)
    raise ReproError(
        f"unknown executor {kind!r}; expected one of {EXECUTOR_KINDS}"
    )


class ServingEngine:
    """Serve an arrival trace through one executor on one device.

    Parameters
    ----------
    executor:
        Where batches run (naive / fixed / GLP4NN — the comparison axis).
    net_builder:
        Zoo-style network factory (``batch=``, ``seed=`` keywords).
    max_batch, max_wait_us:
        Dynamic-batching knobs (timeout-or-full).
    queue_capacity, overflow, order:
        Bounded-queue backpressure configuration.
    slo_admission:
        Enable the SLO-aware admission gate (reject predictably-late
        arrivals using the online service-time estimate).
    warmup:
        Pre-lower and pre-profile every batch bucket before the trace
        starts, so GLP4NN's one-time profiling cost is not charged to the
        first unlucky requests.  Warmup time is excluded from the report.
    """

    def __init__(
        self,
        executor: Executor,
        net_builder: Callable[..., Net],
        *,
        net_name: str = "",
        max_batch: int = 8,
        max_wait_us: float = 200.0,
        queue_capacity: int = 64,
        overflow: OverflowPolicy = OverflowPolicy.REJECT_NEWEST,
        order: QueueOrder = QueueOrder.FIFO,
        slo_admission: bool = True,
        buckets: Optional[Sequence[int]] = None,
        seed: int = 0,
        warmup: bool = True,
        ewma_alpha: float = 0.3,
    ) -> None:
        if not 0.0 < ewma_alpha <= 1.0:
            raise ReproError(f"EWMA alpha must be in (0, 1], got {ewma_alpha}")
        self.executor = executor
        self.gpu = executor.gpu
        self.net_name = net_name
        self.queue = BoundedQueue(queue_capacity, overflow=overflow,
                                  order=order)
        self.batcher = DynamicBatcher(max_batch, max_wait_us)
        self.cache = LoweredNetCache(
            net_builder, buckets or default_buckets(max_batch), seed=seed)
        self.admission = AdmissionController(enabled=slo_admission)
        self.slo = SLOTracker()
        self.warmup = warmup
        self.ewma_alpha = ewma_alpha
        #: Online per-request service-time estimate (EWMA, simulated µs).
        self.service_estimate_us: Optional[float] = None
        self.failed_batches = 0
        self._warmed = False
        self._base_us = 0.0

    # ------------------------------------------------------------------
    def warm_up(self) -> None:
        """Lower and execute every bucket once ahead of serving.

        For the GLP4NN executor this is the Fig. 6 profiling pass per batch
        shape; a second run of the largest bucket then seeds the admission
        controller's service-time estimate with a steady-state number.
        """
        if self._warmed:
            return
        with span("serve.warmup", cat="serve",
                  buckets=len(self.cache.buckets)):
            for bucket in self.cache.buckets:
                _, works = self.cache.works_for(bucket)
                for work in works:
                    self.executor.run(work)
            largest, works = self.cache.works_for(self.cache.buckets[-1])
            start = self.gpu.host_time
            for work in works:
                self.executor.run(work)
            self._update_estimate((self.gpu.host_time - start) / largest)
        self._warmed = True

    def _update_estimate(self, per_request_us: float) -> None:
        if self.service_estimate_us is None:
            self.service_estimate_us = per_request_us
        else:
            a = self.ewma_alpha
            self.service_estimate_us = (
                a * per_request_us + (1.0 - a) * self.service_estimate_us
            )

    # ------------------------------------------------------------------
    def serve(self, trace: ArrivalTrace) -> ServingReport:
        """Run the whole trace to completion and return the report.

        The report covers this call alone: request records, batch
        counts, failed batches, degraded layer runs (including those of
        a warmup this call triggers) and the queue high-water mark start
        from zero every time.  The lowering cache, the profiles and the
        service-time estimate carry over, as warm serving state should;
        the scheduler's layer runs do not, so a long-lived engine keeps
        only one call's runs.
        """
        self.executor.scheduler.reset_runs()
        if self.warmup:
            self.warm_up()
        self.slo = SLOTracker()
        self.batcher.batches_formed = self.batcher.requests_batched = 0
        self.queue.high_water = 0
        self.failed_batches = 0
        base = self._base_us = self.gpu.host_time
        pending = deque(trace.requests)
        while pending or len(self.queue):
            now = self.gpu.host_time - base
            while pending and pending[0].arrival_us <= now + _EPS:
                self._arrive(pending.popleft(), now)
            if not len(self.queue):
                if not pending:
                    break
                # Idle until the next arrival (simulated clock only).
                self.gpu.host_time = max(
                    self.gpu.host_time, base + pending[0].arrival_us)
                continue
            if self.batcher.ready(self.queue, now,
                                  more_arrivals=bool(pending)):
                self._run_batch()
                continue
            fire_at = self.batcher.fire_time_us(self.queue)
            assert fire_at is not None
            target = fire_at
            if pending:
                target = min(target, pending[0].arrival_us)
            self.gpu.host_time = max(self.gpu.host_time, base + target)
        return self.report(trace)

    # ------------------------------------------------------------------
    def _arrive(self, request, now: float) -> None:
        if not self.admission.admits(request, now, len(self.queue),
                                     self.service_estimate_us):
            self.slo.shed(request, Outcome.SHED_ADMISSION,
                          detail="projected finish past deadline")
            instant("serve.reject", cat="serve", rid=request.rid,
                    why="admission")
            return
        admitted = self.queue.offer(request, now)
        for victim in self.queue.drain_evicted():
            self.slo.shed(victim, Outcome.SHED_QUEUE, detail="evicted")
            instant("serve.reject", cat="serve", rid=victim.rid,
                    why="evicted")
        if not admitted:
            self.slo.shed(request, Outcome.SHED_QUEUE, detail="queue full")
            instant("serve.reject", cat="serve", rid=request.rid,
                    why="queue full")
        else:
            instant("serve.admit", cat="serve", rid=request.rid,
                    depth=len(self.queue))
        gauge_set("serve.queue.depth", len(self.queue))
        gauge_max("serve.queue.high_water", self.queue.high_water)

    def _run_batch(self) -> None:
        batch = self.batcher.form(self.queue)
        bucket, works = self.cache.works_for(len(batch))
        start = self.gpu.host_time
        failure = ""
        with span("serve.batch", cat="serve", size=len(batch),
                  bucket=bucket) as h:
            try:
                for work in works:
                    self.executor.run(work)
            except DegradedError as e:
                failure = str(e)
                self.failed_batches += 1
                h.set(failed=True)
                try:
                    # Best-effort drain so the next batch starts clean;
                    # under a persistent sync fault this may fail too — the
                    # retry backoffs already advanced the clock, so serving
                    # proceeds.
                    self.gpu.synchronize()
                except ReproError:
                    pass
        counter_inc("serve.batches")
        observe("serve.batch_size", len(batch))
        if failure:
            counter_inc("serve.failed_batches")
        finish = self.gpu.host_time - self._base_us
        for request in batch:
            if failure:
                self.slo.shed(request, Outcome.FAILED, detail=failure)
            else:
                rec = self.slo.complete(request, finish,
                                        batch_size=len(batch))
                if rec.latency_us is not None:
                    observe("serve.latency_us", rec.latency_us)
        if not failure:
            self._update_estimate((self.gpu.host_time - start) / len(batch))

    # ------------------------------------------------------------------
    def degraded_layer_runs(self) -> int:
        """Layer executions that fell back to serial dispatch (faults)."""
        return len(self.executor.scheduler.degraded_runs())

    def report(self, trace: ArrivalTrace) -> ServingReport:
        """Build the run's :class:`~repro.serve.report.ServingReport`."""
        summary = self.slo.summary()
        batches = self.batcher.batches_formed
        mean_batch = (self.batcher.requests_batched / batches
                      if batches else 0.0)
        return ServingReport(
            executor=type(self.executor).__name__,
            net=self.net_name or "?",
            device=self.gpu.props.name,
            trace_kind=trace.kind,
            rps=trace.rps,
            duration_us=trace.duration_us,
            slo_us=(trace.requests[0].slo_us if trace.requests else 0.0),
            seed=trace.seed,
            requests=summary["requests"],
            ok=summary["ok"],
            late=summary["late"],
            shed_queue=summary["shed_queue"],
            shed_admission=summary["shed_admission"],
            failed=summary["failed"],
            batches=batches,
            mean_batch=mean_batch,
            lowerings=self.cache.lowerings,
            degraded_layers=self.degraded_layer_runs(),
            makespan_us=self.gpu.host_time - self._base_us,
            latency_mean_us=summary.get("latency_mean_us"),
            latency_p50_us=summary.get("latency_p50_us"),
            latency_p95_us=summary.get("latency_p95_us"),
            latency_p99_us=summary.get("latency_p99_us"),
            latency_max_us=summary.get("latency_max_us"),
            extra={
                "failed_batches": self.failed_batches,
                "queue_high_water": self.queue.high_water,
                "service_estimate_us": self.service_estimate_us or 0.0,
            },
        )


def serve_trace(
    net: str,
    device: str,
    executor_kind: str,
    trace: ArrivalTrace,
    *,
    fixed_streams: int = 4,
    **engine_kwargs,
) -> ServingReport:
    """One-call serving run: fresh device, fresh executor, one trace.

    The convenience entry point the CLI and benchmarks use; everything is
    derived from the arguments, so same inputs give identical reports.
    """
    builder = resolve_net(net)
    gpu = GPU(resolve_device(device), record_timeline=False)
    executor = make_executor(executor_kind, gpu, fixed_streams=fixed_streams)
    engine = ServingEngine(executor, builder, net_name=net.lower(),
                           **engine_kwargs)
    report = engine.serve(trace)
    return replace(report, executor=executor_kind)
