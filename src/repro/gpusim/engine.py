"""The discrete-event GPU engine.

This module ties the pieces together into a runnable device:

* a **host timeline** — kernel launches are serialized on the calling
  (single) host thread, each costing ``launch_latency_us`` plus a
  work-queue-switch penalty when consecutive launches target different
  streams.  This is the ``T_launch`` pipeline that bounds Eq. 7;
* **stream ordering** — per-stream FIFO dependencies plus legacy
  default-stream barrier semantics;
* **hardware work queues** — at most ``C`` kernels (the architecture's
  concurrent-kernel degree, Table 1) may be resident at once; further ready
  kernels wait for a slot in FIFO order;
* a **grid/block dispatcher** with the *leftover policy* real GPUs use:
  blocks of the oldest resident kernel are dispatched first, and a younger
  kernel's blocks only start flowing once the older kernel has no more
  blocks waiting (or none of them fit anywhere);
* per-SM **processor-sharing execution** (see :mod:`repro.gpusim.sm`).

Everything is deterministic: same launches, same timings, every run.

The engine purposely executes lazily — launches enqueue work, and the event
loop only runs when the host observes the device (synchronize / event
queries), mirroring the asynchrony of the CUDA runtime.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.errors import DeviceError, SimulationError
from repro.faults.hooks import fault_check
from repro.gpusim.device import DeviceProperties
from repro.gpusim.kernel import KernelSpec, LaunchConfig
from repro.gpusim.memory import DeviceAllocator
from repro.gpusim.occupancy import validate_launch
from repro.gpusim.sm import SM, block_demand
from repro.gpusim.stream import DEFAULT_STREAM_ID, Event, Stream
from repro.gpusim.timeline import Timeline

#: Safety valve for the event loop.
MAX_EVENTS = 50_000_000

#: Interning table for per-block resource tuples (see :func:`intern_block_req`).
_block_req_intern: dict[tuple[int, int, int], tuple[int, int, int]] = {}


def intern_block_req(tpb: int, smem_pb: int,
                     regs_pb: int) -> tuple[int, int, int]:
    """Return a canonical shared tuple for one per-block resource footprint.

    Thousands of kernel executions share a handful of block shapes; interning
    the ``(threads, shared_mem, registers)`` tuple means each distinct shape
    is allocated once per process instead of once per launch.  Distinct
    shapes always map to distinct tuples — interning only aliases *equal*
    values (see ``tests/test_gpusim_properties.py``).
    """
    key = (tpb, smem_pb, regs_pb)
    got = _block_req_intern.get(key)
    if got is None:
        _block_req_intern[key] = key
        return key
    return got

# Operation lifecycle states.
_PENDING = "pending"      # created, waiting for host issue time and/or deps
_WAITING = "waiting"      # issued, waiting for a hardware kernel slot
_ACTIVE = "active"        # holds a slot; blocks being dispatched / running
_DONE = "done"


def default_block_work(spec: KernelSpec, device: DeviceProperties) -> float:
    """Roofline work of one thread block, in µs at full SM throughput.

    ``max(compute_time, memory_time)`` for the block's share of the kernel's
    flops and DRAM bytes, plus the fixed per-block scheduling overhead.  If
    the spec carries an explicit ``duration_us``, that is interpreted as the
    block's *solo* residence time and converted back to work units.
    """
    launch = spec.launch
    if spec.duration_us is not None:
        return spec.duration_us * block_demand(device, launch)
    threads = launch.threads_per_block
    compute = spec.flops_per_thread * threads / device.sm_flops_per_us
    memory = spec.bytes_per_thread * threads / device.sm_bytes_per_us
    return max(compute, memory) + device.block_overhead_us


class _Op:
    """Base class for device operations (kernels, event records)."""

    __slots__ = (
        "stream_id", "ready_time", "unresolved", "dependents", "state",
        "arrived", "complete_time", "seq",
    )

    _seq_counter = itertools.count()

    def __init__(self, stream_id: int, ready_time: float) -> None:
        self.stream_id = stream_id
        self.ready_time = ready_time
        self.unresolved = 0
        self.dependents: list[_Op] = []
        self.state = _PENDING
        self.arrived = False
        self.complete_time: Optional[float] = None
        self.seq = next(_Op._seq_counter)

    def depends_on(self, other: Optional["_Op"]) -> None:
        if other is None or other.state == _DONE or other is self:
            return
        other.dependents.append(self)
        self.unresolved += 1

    @property
    def is_complete(self) -> bool:
        return self.state == _DONE


class KernelExecution(_Op):
    """Runtime state of one launched kernel.

    Exposes the timestamps the resource tracker records: ``enqueue_time``
    (host-side launch), ``start_time`` (first block on an SM) and
    ``end_time`` (last block retired).
    """

    __slots__ = (
        "spec", "enqueue_time", "start_time", "end_time",
        "blocks_unscheduled", "blocks_inflight", "work_per_block",
        "block_req", "served_per_sm",
        "demand_per_block", "warps_per_block", "ideal_per_sm",
    )

    def __init__(self, spec: KernelSpec, stream_id: int, enqueue_time: float,
                 work_per_block: float,
                 block_req: Optional[tuple[int, int, int]] = None,
                 num_blocks: Optional[int] = None) -> None:
        super().__init__(stream_id, enqueue_time)
        self.spec = spec
        self.enqueue_time = enqueue_time
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.blocks_unscheduled = (
            spec.launch.num_blocks if num_blocks is None else num_blocks
        )
        self.blocks_inflight = 0
        self.work_per_block = work_per_block
        # Precomputed per-block resource footprint for the hot dispatch path.
        if block_req is None:
            block_req = (
                spec.launch.threads_per_block,
                spec.launch.shared_mem_per_block,
                spec.launch.registers_per_block,
            )
        self.block_req = block_req
        # Cumulative blocks dispatched per SM (fair-share dispatch).
        self.served_per_sm: dict[int, int] = {}
        # Device-dependent scheduling constants; the owning GPU fills
        # these from its per-spec cache right after construction.
        self.demand_per_block = 0.0
        self.warps_per_block = spec.launch.warps_per_block
        self.ideal_per_sm = 0

    @property
    def duration_us(self) -> float:
        """Wall-clock device time from first block start to last block end."""
        if self.start_time is None or self.end_time is None:
            raise SimulationError(f"kernel {self.spec.name} has not completed")
        return self.end_time - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<KernelExecution {self.spec.name} stream={self.stream_id} "
            f"state={self.state}>"
        )


class _EventRecord(_Op):
    """A ``cudaEventRecord`` marker inside a stream."""

    __slots__ = ("event",)

    def __init__(self, event: Event, stream_id: int, ready_time: float) -> None:
        super().__init__(stream_id, ready_time)
        self.event = event


class _EventWait(_Op):
    """A ``cudaStreamWaitEvent``: later ops in the stream wait for the event.

    Completes as soon as its dependencies (the previous op in the stream
    *and* the awaited event's record) are done — it performs no work.
    """

    __slots__ = ("event",)

    def __init__(self, event: Event, stream_id: int, ready_time: float) -> None:
        super().__init__(stream_id, ready_time)
        self.event = event


class MemcpyOp(_Op):
    """An async memcpy executing on one of the device's DMA engines.

    ``kind`` is ``"h2d"``, ``"d2h"`` (each direction has its own copy
    engine, as on real GPUs — transfers in opposite directions overlap) or
    ``"d2d"`` (runs at device-memory bandwidth, no PCIe involved).
    """

    __slots__ = ("kind", "nbytes", "start_time", "end_time")

    def __init__(self, kind: str, nbytes: int, stream_id: int,
                 ready_time: float) -> None:
        super().__init__(stream_id, ready_time)
        self.kind = kind
        self.nbytes = nbytes
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None

    @property
    def duration_us(self) -> float:
        if self.start_time is None or self.end_time is None:
            raise SimulationError("memcpy has not completed")
        return self.end_time - self.start_time


class GPU:
    """One simulated GPU device.

    Parameters
    ----------
    props:
        Static device description from the catalog.
    block_work_fn:
        Optional override of the per-block cost model (used by ablations).
    timeline:
        Set ``record_timeline=False`` to skip trace records on very large
        runs.
    """

    def __init__(
        self,
        props: DeviceProperties,
        block_work_fn: Callable[[KernelSpec, DeviceProperties], float] | None = None,
        record_timeline: bool = True,
    ) -> None:
        self.props = props
        self._block_work_fn = block_work_fn or default_block_work
        self.sms = [SM(props, i) for i in range(props.sm_count)]
        self.allocator = DeviceAllocator(props.memory_bytes)
        self.timeline = Timeline(device=props.name, enabled=record_timeline)

        self.host_time = 0.0      # host thread clock (µs)
        self.now = 0.0            # device clock: time of last processed event
        self._events: list = []   # heap of (time, seq, kind, payload)
        self._event_seq = itertools.count()

        self._stream_tails: dict[int, _Op] = {}
        self._last_barrier: Optional[_Op] = None
        self._pending_ops: int = 0
        self._pending_per_stream: dict[int, int] = {}

        self._slot_waiters: list[KernelExecution] = []
        self._active_kernels = 0
        self._dispatch_fifo: deque[KernelExecution] = deque()
        # Incremental dispatch: the FIFO head the scan set belongs to, and
        # the indices of the SMs that may still take that head's blocks
        # (see _try_dispatch).
        self._scan_head: Optional[KernelExecution] = None
        self._scan_set: set[int] = set()
        self._event_records: dict[int, _EventRecord] = {}
        # Per-spec launch constants, keyed by the spec's unique uid (uids
        # are allocated monotonically and never reused, so a cache entry
        # can never be observed through a different spec).
        self._spec_cache: dict[int, tuple] = {}
        # Per-direction DMA engines: time each becomes free.
        self._copy_engine_free = {"h2d": 0.0, "d2h": 0.0, "d2d": 0.0}
        self.bytes_copied = {"h2d": 0, "d2h": 0, "d2d": 0}

        self._last_launch_stream: Optional[int] = None
        self._streams_touched: set[int] = set()
        self._streams: dict[int, Stream] = {}
        self.default_stream = Stream(DEFAULT_STREAM_ID, device_name=props.name)
        self._streams[DEFAULT_STREAM_ID] = self.default_stream

        # counters exposed to tests / metrics
        self.kernels_launched = 0
        self.kernels_completed = 0
        self.graphs_launched = 0
        self.events_processed = 0
        self.launch_overhead_total = 0.0
        self.sync_overhead_total = 0.0

        # Driver hooks (used by the simulated CUPTI).  Launch hooks run on
        # the host thread at launch time and may charge host overhead by
        # advancing ``host_time``; completion hooks fire when the kernel's
        # last block retires on the device.
        self.launch_hooks: list[Callable[["GPU", KernelExecution], None]] = []
        self.completion_hooks: list[Callable[["GPU", KernelExecution], None]] = []

        # Order-permutation hook (the schedule fuzzer's device-side axis):
        # given the list of slot-waiting kernels, return the index to grant
        # next.  Every waiter is dependency-resolved by construction, so any
        # choice preserves program-order constraints — only interleaving
        # changes.  ``None`` keeps CUDA semantics (priority, then FIFO).
        self.grant_policy: Optional[
            Callable[[list[KernelExecution]], int]] = None

    # ------------------------------------------------------------------
    # Stream management
    # ------------------------------------------------------------------
    def create_stream(self, name: str = "", priority: int = 0) -> Stream:
        """Create a new non-default stream on this device.

        ``priority`` follows CUDA: lower value = higher priority; it breaks
        ties when kernels compete for hardware work-queue slots.
        """
        s = Stream.new(name=name, device_name=self.props.name,
                       priority=priority)
        self._streams[s.stream_id] = s
        return s

    def streams(self) -> list[Stream]:
        return list(self._streams.values())

    def _check_stream(self, stream: Optional[Stream]) -> Stream:
        if stream is None:
            return self.default_stream
        if stream.device_name and stream.device_name != self.props.name:
            raise DeviceError(
                f"stream {stream.name} belongs to device {stream.device_name}, "
                f"not {self.props.name}"
            )
        if stream.stream_id not in self._streams:
            self._streams[stream.stream_id] = stream
        return stream

    # ------------------------------------------------------------------
    # Launch & record
    # ------------------------------------------------------------------
    def _spec_info(self, spec: KernelSpec) -> tuple:
        """Validated, precomputed launch constants for one kernel spec.

        Keyed by ``spec.uid`` (monotonic, never reused — ``retagged()``
        copies get a fresh uid), so repeated launches of the same spec —
        the steady state of a training loop — skip re-validation and the
        per-launch geometry/demand arithmetic.  The per-block *work* is
        cached only under the default cost model; a custom
        ``block_work_fn`` may close over mutable state, so it is
        re-evaluated on every launch exactly as before.  Validation
        failures are never cached: an invalid spec raises afresh each
        launch, matching the uncached error surface.
        """
        info = self._spec_cache.get(spec.uid)
        if info is None:
            launch = spec.launch
            validate_launch(self.props, launch)
            work = (
                default_block_work(spec, self.props)
                if self._block_work_fn is default_block_work else None
            )
            info = (
                work,
                intern_block_req(
                    launch.threads_per_block,
                    launch.shared_mem_per_block,
                    launch.registers_per_block,
                ),
                block_demand(self.props, launch),
                launch.warps_per_block,
                -(-launch.num_blocks // self.props.sm_count),  # ceil
                launch.num_blocks,
            )
            self._spec_cache[spec.uid] = info
        return info

    def launch(self, spec: KernelSpec, stream: Optional[Stream] = None,
               enqueue_at: Optional[float] = None) -> KernelExecution:
        """Launch a kernel asynchronously onto ``stream``.

        Advances the host clock by the launch overhead and enqueues the
        kernel; no device work happens until the event loop runs.

        ``enqueue_at`` models *multi-threaded* host dispatch (the
        OpenMP-style alternative the paper argues against): the launch is
        stamped with an explicitly scheduled host time computed by the
        caller's per-thread clock instead of the single host thread's
        serialized pipeline.  It must not lie in the device's past.
        """
        # Fault-injection site: fires *before* any engine state changes, so
        # a rejected launch can be retried without corrupting the timeline.
        fault_check("launch", spec.name)
        stream = self._check_stream(stream)
        work, block_req, demand, warps, ideal, num_blocks = (
            self._spec_info(spec)
        )

        if enqueue_at is None:
            overhead = self.props.launch_latency_us
            if (
                self._last_launch_stream is not None
                and self._last_launch_stream != stream.stream_id
            ):
                overhead += self.props.stream_switch_us
            self._last_launch_stream = stream.stream_id
            self.host_time += overhead
            self.launch_overhead_total += overhead
        else:
            if enqueue_at < self.now - 1e-9:
                raise SimulationError(
                    f"enqueue_at {enqueue_at} lies in the device's past "
                    f"({self.now})"
                )
            self.host_time = max(self.host_time, enqueue_at)
            self._last_launch_stream = stream.stream_id

        if work is None:     # custom cost model: evaluate per launch
            work = self._block_work_fn(spec, self.props)
        ke = KernelExecution(spec, stream.stream_id, self.host_time, work,
                             block_req, num_blocks)
        ke.demand_per_block = demand
        ke.warps_per_block = warps
        ke.ideal_per_sm = ideal
        for hook in self.launch_hooks:
            hook(self, ke)
        ke.ready_time = ke.enqueue_time = (
            self.host_time if enqueue_at is None else enqueue_at
        )
        self._wire_dependencies(ke, stream)
        self._register_op(ke, stream)
        self.kernels_launched += 1
        return ke

    def record_event(self, event: Event, stream: Optional[Stream] = None
                     ) -> Event:
        """Record ``event`` into ``stream`` (completes after prior work)."""
        stream = self._check_stream(stream)
        # Event records are cheap but not free on the host.
        self.host_time += 0.2
        op = _EventRecord(event, stream.stream_id, self.host_time)
        self._wire_dependencies(op, stream)
        self._register_op(op, stream)
        self._event_records[event.event_id] = op
        return event

    def wait_event(self, event: Event, stream: Optional[Stream] = None
                   ) -> None:
        """``cudaStreamWaitEvent``: gate later ops in ``stream`` on ``event``.

        The cross-stream dependency primitive used by the DAG dispatcher
        (the paper's "complex kernel dependencies" future-work item).  An
        event that was never recorded gates nothing, as in CUDA.
        """
        stream = self._check_stream(stream)
        self.host_time += 0.2
        op = _EventWait(event, stream.stream_id, self.host_time)
        self._wire_dependencies(op, stream)
        record = self._event_records.get(event.event_id)
        if record is not None:
            op.depends_on(record)
        self._register_op(op, stream)

    def launch_graph(self, ops, name: str = "graph"):
        """Launch a whole dispatch program with one host-side operation.

        The CUDA-Graphs analogue (``cudaGraphLaunch``): the host pays a
        single ``launch_latency_us`` for the entire op list instead of one
        ``T_launch`` (plus stream-switch and event-primitive costs) per
        node — the amortization that removes the Eq. 7 launch-pipeline
        bound from sub-millisecond layers.  Device-side semantics are
        identical to eager dispatch: every node is enqueued at the same
        host timestamp with the standard dependency wiring (stream FIFO,
        default-stream barriers, event edges), so a graph admits exactly
        the interleavings its eager counterpart would.

        ``ops`` is a sequence of :class:`repro.gpusim.graph.GraphOp`; a
        ``barrier`` op reproduces a captured host ``synchronize`` as a
        zero-cost join on the legacy default stream.  Kernels inside a
        graph do not pass through the per-kernel ``launch`` fault site —
        the graph has its own site (``graph_launch``), which fires before
        any engine state changes so a rejected launch can fall back to
        eager dispatch cleanly.
        """
        from repro.gpusim.graph import GraphLaunchResult

        ops = list(ops)
        if not ops:
            raise SimulationError(f"graph {name!r} has no ops")
        # Fault-injection site + validation both run *before* any state
        # changes: a refused graph launch is retryable/fallback-safe.
        fault_check("graph_launch", name)
        for op in ops:
            if op.kind == "launch":
                validate_launch(self.props, op.spec.launch)
        overhead = self.props.launch_latency_us
        self.host_time += overhead
        self.launch_overhead_total += overhead
        self.graphs_launched += 1
        t = self.host_time
        kernels: list[KernelExecution] = []
        for op in ops:
            if op.kind == "launch":
                kernels.append(self._enqueue_graph_kernel(op.spec,
                                                          op.stream, t))
            elif op.kind == "barrier":
                marker = Event(name=f"{name}.barrier")
                bar = _EventRecord(marker, DEFAULT_STREAM_ID, t)
                self._wire_dependencies(bar, self.default_stream)
                self._register_op(bar, self.default_stream)
            elif op.kind == "record":
                stream = self._check_stream(op.stream)
                rec = _EventRecord(op.event, stream.stream_id, t)
                self._wire_dependencies(rec, stream)
                self._register_op(rec, stream)
                self._event_records[op.event.event_id] = rec
            elif op.kind == "wait":
                stream = self._check_stream(op.stream)
                wait = _EventWait(op.event, stream.stream_id, t)
                self._wire_dependencies(wait, stream)
                record = self._event_records.get(op.event.event_id)
                if record is not None:
                    wait.depends_on(record)
                self._register_op(wait, stream)
            else:  # pragma: no cover - GraphOp validates kinds
                raise SimulationError(f"unknown graph op kind {op.kind!r}")
        return GraphLaunchResult(name=name, launches=len(kernels),
                                 ops=len(ops), overhead_us=overhead,
                                 kernels=kernels)

    def _enqueue_graph_kernel(self, spec: KernelSpec,
                              stream: Optional[Stream],
                              t: float) -> KernelExecution:
        """Enqueue one replayed kernel at host time ``t``, free of charge.

        Mirrors :meth:`launch` minus the host-side costs and the
        per-kernel fault site — inside a graph those are paid once, by
        :meth:`launch_graph` itself.
        """
        stream = self._check_stream(stream)
        work, block_req, demand, warps, ideal, num_blocks = (
            self._spec_info(spec)
        )
        if work is None:     # custom cost model: evaluate per launch
            work = self._block_work_fn(spec, self.props)
        ke = KernelExecution(spec, stream.stream_id, t, work,
                             block_req, num_blocks)
        ke.demand_per_block = demand
        ke.warps_per_block = warps
        ke.ideal_per_sm = ideal
        for hook in self.launch_hooks:
            hook(self, ke)
        ke.ready_time = ke.enqueue_time = t
        self._wire_dependencies(ke, stream)
        self._register_op(ke, stream)
        self._last_launch_stream = stream.stream_id
        self.kernels_launched += 1
        return ke

    def memcpy(self, nbytes: int, kind: str = "h2d",
               stream: Optional[Stream] = None) -> MemcpyOp:
        """Enqueue an async memcpy onto ``stream`` (cudaMemcpyAsync).

        Copies obey stream order like kernels but execute on the DMA
        engines, so a transfer on one stream overlaps compute on another —
        the copy/compute overlap pattern CUDA streams were introduced for.
        """
        if kind not in self._copy_engine_free:
            raise DeviceError(f"unknown memcpy kind {kind!r}")
        if nbytes <= 0:
            raise DeviceError("memcpy size must be positive")
        stream = self._check_stream(stream)
        self.host_time += 1.0     # cudaMemcpyAsync driver overhead
        op = MemcpyOp(kind, int(nbytes), stream.stream_id, self.host_time)
        self._wire_dependencies(op, stream)
        self._register_op(op, stream)
        return op

    def _memcpy_duration(self, op: MemcpyOp) -> float:
        if op.kind == "d2d":
            # device-to-device runs at memory bandwidth (read + write)
            rate = self.props.mem_bandwidth_gbps * 1e3 / 2.0
        else:
            rate = self.props.pcie_bandwidth_gbps * 1e3
        return self.props.copy_latency_us + op.nbytes / rate

    def _wire_dependencies(self, op: _Op, stream: Stream) -> None:
        op.depends_on(self._stream_tails.get(stream.stream_id))
        if stream.is_default:
            # Legacy default stream: barrier against every other stream.
            for sid, tail in self._stream_tails.items():
                if sid != DEFAULT_STREAM_ID:
                    op.depends_on(tail)
            self._last_barrier = op
        else:
            op.depends_on(self._last_barrier)

    def _register_op(self, op: _Op, stream: Stream) -> None:
        self._stream_tails[stream.stream_id] = op
        self._pending_ops += 1
        self._pending_per_stream[stream.stream_id] = (
            self._pending_per_stream.get(stream.stream_id, 0) + 1
        )
        self._streams_touched.add(stream.stream_id)
        self._push_event(op.ready_time, "arrive", op)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def _push_event(self, time: float, kind: str, payload) -> None:
        heapq.heappush(self._events, (time, next(self._event_seq), kind, payload))

    def _push_sm_completion(self, sm: SM) -> None:
        t = sm.next_completion(self.now)
        if t is not None:
            self._push_event(t, "sm", (sm, sm.version))

    def _pop_event(self) -> tuple:
        """Pop the earliest heap event and advance the device clock to it.

        Guards the heap's time-ordering invariant: an event scheduled
        behind the device clock means the engine pushed into the past,
        and the error names the offending event so the bug is locatable
        from the message alone.
        """
        time, _, kind, payload = heapq.heappop(self._events)
        self.events_processed += 1
        if time < self.now - 1e-9:
            raise SimulationError(
                f"event heap produced out-of-order time: {kind!r} event at "
                f"t={time} behind device clock {self.now} "
                f"(payload: {payload!r})"
            )
        if time > self.now:
            self.now = time
        return kind, payload

    def _process_next_event(self) -> None:
        """Pop and handle the single earliest event on the heap."""
        kind, payload = self._pop_event()
        if kind == "arrive":
            op: _Op = payload
            op.arrived = True
            self._maybe_issue(op)
        elif kind == "sm":
            sm, version = payload
            if version != sm.version:
                return  # stale prediction; resident set changed since push
            finished = sm.pop_finished(self.now)
            if finished:
                # Added before completions run: _complete_kernel dispatches.
                self._scan_set.add(sm.index)
            for cohort in finished:
                ke: KernelExecution = cohort.kernel_handle
                ke.blocks_inflight -= cohort.n_blocks
                if ke.blocks_inflight == 0 and ke.blocks_unscheduled == 0:
                    self._complete_kernel(ke)
            self._push_sm_completion(sm)
            self._try_dispatch()
        elif kind == "copy":
            op: MemcpyOp = payload
            op.end_time = self.now
            tl = self.timeline
            if tl.enabled:
                tl.add_raw(
                    f"memcpy{op.kind.upper()}", "", op.stream_id,
                    op.ready_time,
                    op.start_time if op.start_time is not None else self.now,
                    self.now, (1, 1, 1), (1, 1, 1), 0, 0,
                )
            self._complete_op(op, self.now)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown event kind {kind!r}")

    def _run_until(self, predicate: Callable[[], bool]) -> None:
        """Process events in time order until ``predicate`` holds."""
        guard = 0
        while not predicate():
            if not self._events:
                raise SimulationError(
                    "device deadlock: pending work but no events "
                    f"({self._pending_ops} ops outstanding)"
                )
            self._process_next_event()
            guard += 1
            if guard > MAX_EVENTS:  # pragma: no cover - defensive
                raise SimulationError("event budget exhausted (runaway loop?)")

    def _maybe_issue(self, op: _Op) -> None:
        if op.state != _PENDING or not op.arrived or op.unresolved > 0:
            return
        if isinstance(op, KernelExecution):
            op.state = _WAITING
            self._slot_waiters.append(op)
            self._try_grant()
        elif isinstance(op, _EventRecord):
            t = max(self.now, op.ready_time)
            op.event.timestamp_us = t
            tl = self.timeline
            if tl.enabled:
                tl.add_sync_raw("record", op.event.event_id, op.event.name,
                                op.stream_id, op.ready_time, t)
            self._complete_op(op, t)
        elif isinstance(op, _EventWait):
            t = max(self.now, op.ready_time)
            tl = self.timeline
            if tl.enabled:
                tl.add_sync_raw("wait", op.event.event_id, op.event.name,
                                op.stream_id, op.ready_time, t)
            self._complete_op(op, t)
        elif isinstance(op, MemcpyOp):
            start = max(self.now, op.ready_time,
                        self._copy_engine_free[op.kind])
            end = start + self._memcpy_duration(op)
            op.start_time = start
            self._copy_engine_free[op.kind] = end
            self.bytes_copied[op.kind] += op.nbytes
            self._push_event(end, "copy", op)

    def _stream_priority(self, stream_id: int) -> int:
        stream = self._streams.get(stream_id)
        return stream.priority if stream is not None else 0

    def _try_grant(self) -> None:
        limit = self.props.max_concurrent_kernels
        while self._slot_waiters and self._active_kernels < limit:
            if self.grant_policy is not None:
                best = int(self.grant_policy(self._slot_waiters))
                if not 0 <= best < len(self._slot_waiters):
                    raise SimulationError(
                        f"grant_policy returned {best}, outside "
                        f"[0, {len(self._slot_waiters)})"
                    )
            else:
                # CUDA priority semantics: the highest-priority (lowest
                # value) waiting kernel takes the freed slot; FIFO within
                # a priority.  Manual scan (strict ``<`` keeps the lowest
                # index on ties, i.e. FIFO) — equivalent to ``min`` over
                # ``(priority, index)`` without the tuple/closure churn.
                waiters = self._slot_waiters
                best = 0
                if len(waiters) > 1:
                    streams = self._streams
                    s = streams.get(waiters[0].stream_id)
                    best_pr = s.priority if s is not None else 0
                    for i in range(1, len(waiters)):
                        s = streams.get(waiters[i].stream_id)
                        pr = s.priority if s is not None else 0
                        if pr < best_pr:
                            best = i
                            best_pr = pr
            ke = self._slot_waiters.pop(best)
            ke.state = _ACTIVE
            self._active_kernels += 1
            self._dispatch_fifo.append(ke)
        self._try_dispatch()

    def _try_dispatch(self) -> None:
        """Leftover-policy block dispatcher: fill SMs from the oldest kernel.

        Incremental: a new head gets a full scan of the SMs, later rounds
        for the same head scan only the scan set.  An SM leaves the
        candidates of a head only by being filled to its capped fit, and
        nothing but a cohort release (``pop_finished``, which re-adds the
        SM) can make it a candidate again: free resources fall only when
        the head places blocks, ``served_per_sm`` only grows, and the head
        changes only by ``popleft``.  So scanning the set in SM-index order
        builds exactly the candidate list a full scan would.
        """
        fifo = self._dispatch_fifo
        scan_set = self._scan_set
        while fifo:
            head = fifo[0]
            if head.blocks_unscheduled == 0:
                fifo.popleft()
                continue
            if head is self._scan_head:
                if not scan_set:
                    return  # nothing freed since the head last stalled
                sms = self.sms
                scan = [sms[i] for i in sorted(scan_set)]
            else:
                self._scan_head = head
                scan = self.sms
            scan_set.clear()
            placed = self._place_blocks(head, scan)
            if not placed:
                return  # head stalls; younger kernels wait (leftover policy)

    def _place_blocks(self, ke: KernelExecution, sms: list[SM]) -> bool:
        """Spread as many of ``ke``'s waiting blocks as fit across ``sms``.

        Fair-share dispatch: over the kernel's lifetime, each SM serves at
        most ``ceil(grid / #SM)`` of its blocks.  This models the real
        hardware scheduler's fine-grained balancing — without it, the tail
        of a grid would pile onto whichever SM happens to free first, which
        never happens on silicon where blocks retire one at a time.  An SM
        that gets fewer blocks than its capped fit goes back into the scan
        set.
        """
        tpb, smem_pb, regs_pb = ke.block_req
        ideal = ke.ideal_per_sm
        served = ke.served_per_sm
        served_get = served.get
        candidates: list[tuple[int, SM, int]] = []
        for sm in sms:
            allowance = ideal - served_get(sm.index, 0)
            if allowance <= 0:
                continue
            # Inlined SM.fit_count_fast: this scan is the dispatcher's
            # inner loop, and the call overhead alone was visible in the
            # hot-loop profile.  Same integer arithmetic, same result.
            free_threads = sm.free_threads
            fit = free_threads // tpb
            if fit > sm.free_block_slots:
                fit = sm.free_block_slots
            if smem_pb:
                m = sm.free_smem // smem_pb
                if m < fit:
                    fit = m
            m = sm.free_regs // regs_pb
            if m < fit:
                fit = m
            if fit > 0:
                candidates.append((
                    free_threads, sm,
                    fit if fit < allowance else allowance,
                ))
        if not candidates:
            return False
        remaining = ke.blocks_unscheduled
        # Even spread (the model's Eq. 8 assumption): split the batch across
        # all SMs with space, biggest-free first.  The sort key is the
        # pre-captured free_threads; stable sort keeps SM-index order on
        # ties, exactly as the previous key-function sort did.
        candidates.sort(key=operator.itemgetter(0), reverse=True)
        share = max(1, math.ceil(remaining / len(candidates)))
        now = self.now
        work = ke.work_per_block
        demand = ke.demand_per_block
        warps = ke.warps_per_block
        scan_set = self._scan_set
        placed_any = False
        for _, sm, fit in candidates:
            if ke.blocks_unscheduled == 0:
                break
            n = min(fit, share, ke.blocks_unscheduled)
            if n <= 0:
                continue
            if n < fit:
                scan_set.add(sm.index)
            sm.place_fast(now, ke, n, work, tpb, smem_pb, regs_pb,
                          demand, warps)
            served[sm.index] = served.get(sm.index, 0) + n
            ke.blocks_unscheduled -= n
            ke.blocks_inflight += n
            if ke.start_time is None:
                ke.start_time = now
            self._push_sm_completion(sm)
            placed_any = True
        return placed_any

    def _complete_kernel(self, ke: KernelExecution) -> None:
        ke.end_time = self.now
        self._active_kernels -= 1
        self.kernels_completed += 1
        tl = self.timeline
        if tl.enabled:
            spec = ke.spec
            launch = spec.launch
            tl.add_raw(
                spec.name, spec.tag, ke.stream_id, ke.enqueue_time,
                ke.start_time if ke.start_time is not None else ke.end_time,
                ke.end_time, launch.grid, launch.block,
                launch.registers_per_thread, launch.shared_mem_per_block,
            )
        for hook in self.completion_hooks:
            hook(self, ke)
        self._complete_op(ke, self.now)
        self._try_grant()

    def _complete_op(self, op: _Op, time: float) -> None:
        op.state = _DONE
        op.complete_time = time
        self._pending_ops -= 1
        self._pending_per_stream[op.stream_id] -= 1
        for dep in op.dependents:
            dep.unresolved -= 1
            self._maybe_issue(dep)
        op.dependents = []

    # ------------------------------------------------------------------
    # Host-side synchronization
    # ------------------------------------------------------------------
    def synchronize(self) -> float:
        """Block the host until all device work completes; return device time.

        Adds the host-side synchronization overhead (grows with the number
        of distinct streams touched since the previous synchronization).
        """
        # Fault-injection site: fires before event processing, so a failed
        # synchronize leaves all pending work intact for the retry.
        fault_check("sync", self.props.name)
        self._run_until(lambda: self._pending_ops == 0)
        cost = (
            self.props.sync_base_us
            + self.props.sync_per_stream_us * max(0, len(self._streams_touched) - 1)
        )
        self.sync_overhead_total += cost
        self._streams_touched.clear()
        self.host_time = max(self.host_time, self.now) + cost
        return self.now

    def stream_synchronize(self, stream: Stream) -> float:
        """Block until all work previously issued to ``stream`` completes."""
        stream = self._check_stream(stream)
        sid = stream.stream_id
        self._run_until(lambda: self._pending_per_stream.get(sid, 0) == 0)
        self.host_time = max(self.host_time, self.now) + self.props.sync_base_us
        self.sync_overhead_total += self.props.sync_base_us
        return self.now

    def event_synchronize(self, event: Event) -> float:
        """Block until ``event`` completes; return its timestamp."""
        self._run_until(lambda: event.is_complete)
        assert event.timestamp_us is not None
        self.host_time = max(self.host_time, event.timestamp_us)
        return event.timestamp_us

    def query_complete(self, ke: KernelExecution) -> bool:
        """Non-blocking completion test (processes due events first)."""
        self._drain_due()
        return ke.is_complete

    def _drain_due(self) -> None:
        """Process all events at or before the host clock."""
        while self._events and self._events[0][0] <= self.host_time:
            self._process_next_event()

    # ------------------------------------------------------------------
    # Metrics & lifecycle
    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        """Current host wall-clock, µs (device included up to last sync)."""
        return self.host_time

    def utilization(self) -> float:
        """Time-averaged warp occupancy across all SMs since reset."""
        if self.now <= 0:
            return 0.0
        total = sum(sm.warp_integral for sm in self.sms)
        return total / (self.now * self.props.sm_count * self.props.max_warps_per_sm)

    def reset(self) -> None:
        """Clear all device state and rewind clocks (new measurement run)."""
        if self._pending_ops:
            raise SimulationError("cannot reset a device with pending work")
        self.__init__(
            self.props,
            block_work_fn=self._block_work_fn,
            record_timeline=self.timeline.enabled,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GPU({self.props.name}, t={self.now:.1f}us)"
