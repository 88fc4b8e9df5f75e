"""Property-based tests of the discrete-event engine's invariants.

Random workloads (kernel shapes, stream assignments, interleavings) must
always satisfy:

* every launched kernel completes, with ``enqueue <= start < end``;
* kernels on one stream never overlap and retire in issue order;
* the device-wide concurrency never exceeds the architecture degree;
* simulation is deterministic;
* time-averaged utilization stays in ``[0, 1]``;
* incremental block dispatch matches a full scan of every SM.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.gpusim import GPU, KernelSpec, LaunchConfig, get_device

_kernel = st.tuples(
    st.integers(1, 40),            # blocks
    st.sampled_from([32, 64, 128, 256, 512]),   # threads
    st.floats(10.0, 5e5),          # flops per thread
    st.sampled_from([0, 2048, 8192]),           # smem
    st.integers(0, 7),             # stream slot
)

_workload = st.lists(_kernel, min_size=1, max_size=25)


def _run(workload, device="P100", num_streams=4):
    gpu = GPU(get_device(device))
    streams = [gpu.create_stream() for _ in range(num_streams)]
    kes = []
    for i, (blocks, threads, flops, smem, slot) in enumerate(workload):
        spec = KernelSpec(
            name=f"k{i % 5}",
            launch=LaunchConfig(grid=(blocks, 1, 1), block=(threads, 1, 1),
                                shared_mem_dynamic=smem),
            flops_per_thread=flops,
            bytes_per_thread=16.0,
            tag=str(i),
        )
        stream = None if slot == 0 else streams[slot % num_streams]
        kes.append((gpu.launch(spec, stream=stream), stream))
    gpu.synchronize()
    return gpu, kes


@settings(max_examples=40, deadline=None)
@given(_workload)
def test_all_kernels_complete_with_sane_timestamps(workload):
    gpu, kes = _run(workload)
    assert gpu.kernels_completed == len(workload)
    for ke, _ in kes:
        assert ke.is_complete
        assert ke.enqueue_time <= ke.start_time < ke.end_time


@settings(max_examples=40, deadline=None)
@given(_workload)
def test_streams_are_fifo_and_non_overlapping(workload):
    gpu, kes = _run(workload)
    by_stream: dict[int, list] = {}
    for ke, _ in kes:
        by_stream.setdefault(ke.stream_id, []).append(ke)
    for stream_kes in by_stream.values():
        for a, b in zip(stream_kes, stream_kes[1:]):
            assert b.start_time >= a.end_time - 1e-6


@settings(max_examples=30, deadline=None)
@given(_workload)
def test_concurrency_within_device_degree(workload):
    gpu, _ = _run(workload, device="GTX980")   # C = 16, easiest to violate
    assert gpu.timeline.max_concurrency() <= 16


@settings(max_examples=20, deadline=None)
@given(_workload)
def test_determinism(workload):
    g1, _ = _run(workload)
    g2, _ = _run(workload)
    assert g1.now == g2.now
    t1 = [(r.name, r.start_us, r.end_us) for r in g1.timeline.records]
    t2 = [(r.name, r.start_us, r.end_us) for r in g2.timeline.records]
    assert t1 == t2


@settings(max_examples=25, deadline=None)
@given(_workload)
def test_utilization_bounded(workload):
    gpu, _ = _run(workload)
    assert 0.0 <= gpu.utilization() <= 1.0 + 1e-9


@settings(max_examples=25, deadline=None)
@given(_workload)
def test_default_stream_barrier_semantics(workload):
    """Inject a default-stream kernel mid-workload: everything launched
    before it must finish first; everything after starts after it."""
    gpu = GPU(get_device("P100"))
    streams = [gpu.create_stream() for _ in range(3)]
    first, second = [], []
    half = len(workload) // 2
    bar = None
    for i, (blocks, threads, flops, smem, slot) in enumerate(workload):
        if i == half:
            bar = gpu.launch(KernelSpec(
                name="barrier",
                launch=LaunchConfig(grid=(1, 1, 1), block=(32, 1, 1)),
            ))
        spec = KernelSpec(
            name="w",
            launch=LaunchConfig(grid=(blocks, 1, 1), block=(threads, 1, 1),
                                shared_mem_dynamic=smem),
            flops_per_thread=flops, tag=str(i),
        )
        (first if i < half else second).append(
            gpu.launch(spec, stream=streams[slot % 3]))
    if bar is None:
        bar = gpu.launch(KernelSpec(
            name="barrier",
            launch=LaunchConfig(grid=(1, 1, 1), block=(32, 1, 1)),
        ))
    gpu.synchronize()
    for ke in first:
        assert ke.end_time <= bar.start_time + 1e-6
    for ke in second:
        assert ke.start_time >= bar.end_time - 1e-6


# ----------------------------------------------------------------------
# Memoized occupancy == uncached recomputation (the lru_cache layers on
# repro.gpusim.occupancy must be observationally invisible), and record
# interning must never alias distinct shapes.

import pytest

from repro.errors import LaunchError
from repro.gpusim.engine import intern_block_req
from repro.gpusim.occupancy import (
    _max_active_blocks_cached,
    _validate_launch_cached,
    max_active_blocks_per_sm,
    occupancy,
    validate_launch,
)

_shape = st.tuples(
    st.integers(1, 4096),                                # blocks
    st.sampled_from([32, 64, 96, 128, 256, 512, 1024, 2048]),  # threads
    st.sampled_from([0, 1024, 4096, 16384, 1 << 20]),    # smem (incl. invalid)
    st.integers(16, 80),                                 # regs per thread
)


def _launch(blocks, threads, smem, regs):
    return LaunchConfig(grid=(blocks, 1, 1), block=(threads, 1, 1),
                        shared_mem_dynamic=smem, registers_per_thread=regs)


@settings(max_examples=60, deadline=None)
@given(st.lists(_shape, min_size=1, max_size=10),
       st.sampled_from(["P100", "GTX980", "K40C"]))
def test_memoized_occupancy_matches_uncached(shapes, device_name):
    device = get_device(device_name)
    for blocks, threads, smem, regs in shapes:
        launch = _launch(blocks, threads, smem, regs)
        try:
            _validate_launch_cached.__wrapped__(device, launch)
        except LaunchError:
            # Invalid shapes must keep raising through the cached wrapper
            # every single time (lru_cache does not cache exceptions).
            with pytest.raises(LaunchError):
                validate_launch(device, launch)
            with pytest.raises(LaunchError):
                validate_launch(device, launch)
            continue
        cached = max_active_blocks_per_sm(device, launch)
        uncached = _max_active_blocks_cached.__wrapped__(device, launch)
        assert cached == uncached
        assert occupancy(device, launch) == occupancy.__wrapped__(
            device, launch)


@settings(max_examples=40, deadline=None)
@given(_shape, st.sampled_from(["P100", "GTX980"]))
def test_memo_hit_is_same_result_for_equal_shapes(shape, device_name):
    """Two distinct-but-equal LaunchConfigs hit one cache entry."""
    device = get_device(device_name)
    a, b = _launch(*shape), _launch(*shape)
    assert a is not b and a == b
    try:
        first = max_active_blocks_per_sm(device, a)
    except LaunchError:
        with pytest.raises(LaunchError):
            max_active_blocks_per_sm(device, b)
        return
    second = max_active_blocks_per_sm(device, b)
    assert first is second          # cache hit, not a recomputation
    assert occupancy(device, a) == occupancy(device, b)


_req = st.tuples(
    st.integers(1, 2048),           # threads per block
    st.integers(0, 1 << 16),        # shared mem per block
    st.integers(32, 1 << 16),       # registers per block
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_req, min_size=1, max_size=30))
def test_interning_never_aliases_distinct_records(reqs):
    interned = [intern_block_req(*r) for r in reqs]
    for req, tup in zip(reqs, interned):
        assert tup == req           # interning preserves the value exactly
    for r1, t1 in zip(reqs, interned):
        for r2, t2 in zip(reqs, interned):
            if r1 == r2:
                assert t1 is t2     # equal shapes share one canonical tuple
            else:
                assert t1 != t2     # distinct shapes never alias


# ----------------------------------------------------------------------
# Incremental block dispatch == full-scan dispatch.  The engine rescans
# only the SMs that may still take the dispatch-FIFO head's blocks; the
# reference below is the full scan of every SM per placement round that
# it replaced, kept here as an oracle.  Both must produce bit-identical
# timelines, event counts and per-SM utilization integrals.

import math
import operator
import random

from hypothesis import example

from repro.gpusim.graph import GraphOp
from repro.gpusim.stream import Event, reset_handle_ids


class _FullScanGPU(GPU):
    """Reference dispatcher: every placement round scans every SM."""

    def _try_dispatch(self) -> None:
        while self._dispatch_fifo:
            head = self._dispatch_fifo[0]
            if head.blocks_unscheduled == 0:
                self._dispatch_fifo.popleft()
                continue
            if not self._full_scan_place(head):
                return

    def _full_scan_place(self, ke) -> bool:
        tpb, smem_pb, regs_pb = ke.block_req
        served = ke.served_per_sm
        candidates = []
        for sm in self.sms:
            allowance = ke.ideal_per_sm - served.get(sm.index, 0)
            if allowance <= 0:
                continue
            fit = sm.fit_count_fast(tpb, smem_pb, regs_pb)
            if fit > 0:
                candidates.append((sm.free_threads, sm,
                                   min(fit, allowance)))
        if not candidates:
            return False
        candidates.sort(key=operator.itemgetter(0), reverse=True)
        share = max(1, math.ceil(ke.blocks_unscheduled / len(candidates)))
        placed_any = False
        for _, sm, fit in candidates:
            if ke.blocks_unscheduled == 0:
                break
            n = min(fit, share, ke.blocks_unscheduled)
            sm.place_fast(self.now, ke, n, ke.work_per_block, tpb, smem_pb,
                          regs_pb, ke.demand_per_block, ke.warps_per_block)
            served[sm.index] = served.get(sm.index, 0) + n
            ke.blocks_unscheduled -= n
            ke.blocks_inflight += n
            if ke.start_time is None:
                ke.start_time = self.now
            self._push_sm_completion(sm)
            placed_any = True
        return placed_any


_dispatch_kernel = st.tuples(
    st.one_of(st.integers(1, 64), st.integers(65, 1500)),      # blocks
    st.sampled_from([32, 64, 128, 256, 512, 1024]),            # threads
    st.sampled_from([0, 0, 4096, 12288, 24576, 49152]),        # smem
    st.sampled_from([16, 32, 64, 128, 255]),                   # regs/thread
    st.floats(50.0, 2e5),                                      # flops/thread
    st.integers(0, 4),                                         # stream slot
)

_dispatch_op = st.one_of(
    _dispatch_kernel.map(lambda k: ("launch", k)),
    st.lists(_dispatch_kernel, min_size=1, max_size=3).map(
        lambda ks: ("graph", ks)),
    st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
        lambda rw: ("record_wait", rw)),
    st.just(("sync", None)),
)

_dispatch_program = st.fixed_dictionaries({
    "device": st.sampled_from(["K40C", "P100"]),
    "priorities": st.lists(st.integers(-2, 0), min_size=1, max_size=4),
    "grant_seed": st.one_of(st.none(), st.integers(0, 2**16)),
    "ops": st.lists(_dispatch_op, min_size=1, max_size=8),
})


def _dispatch_spec(i, blocks, threads, smem, regs, flops):
    return KernelSpec(
        name=f"d{i}",
        launch=LaunchConfig(grid=(blocks, 1, 1), block=(threads, 1, 1),
                            shared_mem_dynamic=smem,
                            registers_per_thread=regs),
        flops_per_thread=flops, bytes_per_thread=24.0, tag=str(i),
    )


def _run_dispatch_program(gpu_cls, program):
    """Run ``program`` on a fresh ``gpu_cls`` device; return what it showed."""
    reset_handle_ids()
    props = get_device(program["device"])
    gpu = gpu_cls(props)
    streams = [gpu.create_stream(name=f"s{i}", priority=p)
               for i, p in enumerate(program["priorities"])]
    if program["grant_seed"] is not None:
        rng = random.Random(program["grant_seed"])
        gpu.grant_policy = lambda waiters: rng.randrange(len(waiters))

    def stream_of(slot):
        return None if slot == 0 else streams[slot % len(streams)]

    def spec_of(i, kernel):
        spec = _dispatch_spec(i, *kernel[:5])
        try:
            validate_launch(props, spec.launch)
        except LaunchError:
            return None
        return spec

    i = 0
    for kind, arg in program["ops"]:
        if kind == "launch":
            spec = spec_of(i, arg)
            if spec is not None:
                gpu.launch(spec, stream=stream_of(arg[5]))
            i += 1
        elif kind == "graph":
            ops = []
            for kernel in arg:
                spec = spec_of(i, kernel)
                if spec is not None:
                    ops.append(GraphOp("launch", spec=spec,
                                       stream=stream_of(kernel[5])))
                i += 1
            if ops:
                gpu.launch_graph(ops, name=f"g{i}")
        elif kind == "record_wait":
            event = Event(name=f"e{i}")
            gpu.record_event(event, stream=stream_of(arg[0]))
            gpu.wait_event(event, stream=stream_of(arg[1]))
        else:
            gpu.synchronize()
    gpu.synchronize()
    tl = gpu.timeline
    return {
        "rows": [(r.name, r.tag, r.stream_id, r.enqueue_us, r.start_us,
                  r.end_us) for r in tl.records],
        "syncs": [(s.kind, s.event_id, s.stream_id, s.enqueue_us,
                   s.complete_us) for s in tl.syncs],
        "events_processed": gpu.events_processed,
        "now": gpu.now,
        "host_time": gpu.host_time,
        "sms": [(sm.busy_integral_us, sm.warp_integral) for sm in gpu.sms],
    }


# Pinned: on K40C a 727-block head fills every SM's block slots and
# stalls, while a younger kernel from another stream waits behind it.
_STALLED_HEAD = {
    "device": "K40C",
    "priorities": [0, -1],
    "grant_seed": None,
    "ops": [("launch", (727, 128, 0, 32, 4e4, 1)),
            ("launch", (40, 256, 8192, 64, 2e4, 2))],
}


@settings(max_examples=60, deadline=None)
@given(_dispatch_program)
@example(_STALLED_HEAD)
def test_incremental_dispatch_matches_full_scan(program):
    assert (_run_dispatch_program(GPU, program)
            == _run_dispatch_program(_FullScanGPU, program))


def test_stalled_head_with_younger_kernel_waiting_matches_full_scan():
    got = _run_dispatch_program(GPU, _STALLED_HEAD)
    assert got == _run_dispatch_program(_FullScanGPU, _STALLED_HEAD)
    rows = {row[0]: row for row in got["rows"]}   # completion order
    head_start, head_end = rows["d0"][4:6]
    young_start = rows["d1"][4]
    # The younger kernel could not start with the head (every SM was
    # full) and flowed into the head's last wave (leftover policy).
    assert head_start < young_start < head_end
