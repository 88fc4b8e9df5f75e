"""Each benchmark check passes on a good input and fails on a corrupted one.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import math
from pathlib import Path

import pytest

import checks
import tracing
from repro.analyze.program import DispatchProgram
from repro.gpusim.device import get_device
from repro.kernels.ir import KernelChain, LayerWork
from repro.gpusim.kernel import KernelSpec, LaunchConfig
from workloads import _certifies, _limits

P100 = _limits(get_device("P100"))


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------

def test_losses_bit_identical():
    losses = [2.302585, 2.29, 2.1]
    assert checks.check_losses(losses, list(losses)) == []


def test_loss_one_ulp_off_fails():
    losses = [2.302585, 2.29, 2.1]
    corrupted = list(losses)
    corrupted[1] = math.nextafter(corrupted[1], math.inf)
    assert checks.check_losses(corrupted, losses)


def test_loss_sequence_length_mismatch_fails():
    assert checks.check_losses([2.3, 2.2], [2.3])


def test_first_loss_near_ln10():
    assert checks.check_first_loss(math.log(10) + 0.005) == []
    assert checks.check_first_loss(math.log(10) + 0.02)
    assert checks.check_first_loss(float("nan"))


# ----------------------------------------------------------------------
# Launch bound
# ----------------------------------------------------------------------

def _spec(name="k"):
    return KernelSpec(name=name, launch=LaunchConfig(grid=(4, 1, 1),
                                                     block=(128, 1, 1)))


def test_count_kernels_counts_chains_and_serial():
    work = LayerWork("conv", "forward",
                     parallel_chains=(KernelChain((_spec(), _spec())),
                                      KernelChain((_spec(),))),
                     serial_kernels=(_spec(),))
    assert checks.count_kernels([work, work]) == 8


def test_launch_bound():
    assert checks.check_launch_bound("pass", 50.0, 10, 5.0) == []
    assert checks.check_launch_bound("pass", 49.9, 10, 5.0)


# ----------------------------------------------------------------------
# Analyzer decisions
# ----------------------------------------------------------------------

# 56 blocks of 256 threads with 16 KiB shared memory each: the shared-
# memory bound of Eq. 7 allows four concurrent instances on a P100.
SMEM_KERNEL = ("gemm", 56, 256, 16384, 100.0)
SMALL_KERNEL = ("bias", 1, 64, 0, 12.0)


def test_optimal_decision_passes():
    kernels = [SMEM_KERNEL, SMALL_KERNEL]
    assert checks.kernel_bounds(P100, SMEM_KERNEL)[3] == 4
    assert checks.kernel_bounds(P100, SMALL_KERNEL)[3] == 3
    assert checks.check_decision("ok", P100, kernels,
                                 {"gemm": 4, "bias": 3}, 7) == []


def test_decision_over_shared_memory_limit_fails():
    msgs = checks.check_decision("smem", P100, [SMEM_KERNEL, SMALL_KERNEL],
                                 {"gemm": 5, "bias": 3}, 8)
    assert msgs and "violate" in msgs[0]


def test_suboptimal_decision_fails():
    msgs = checks.check_decision("sub", P100, [SMEM_KERNEL, SMALL_KERNEL],
                                 {"gemm": 2, "bias": 3}, 5)
    assert msgs and "exact solve" in msgs[0]


def test_decision_c_out_must_be_eq9_sum():
    assert checks.check_decision("eq9", P100, [SMEM_KERNEL, SMALL_KERNEL],
                                 {"gemm": 4, "bias": 3}, 6)


def test_decision_names_must_match_profile():
    assert checks.check_decision("names", P100, [SMEM_KERNEL],
                                 {"gemm": 4, "bias": 1}, 5)


def test_decision_with_repeated_kernel_name():
    # Two profiled kernels share a name; the decision only gives their sum.
    kernels = [SMEM_KERNEL, ("gemm", 56, 128, 0, 9.0)]
    best = checks._exact_optimum(P100, kernels)
    assert checks.check_decision("dup", P100, kernels, {"gemm": 6}, 6) == []
    assert checks._exact_optimum(P100, kernels, fixed={"gemm": 6}) == best
    assert checks.check_decision("dup", P100, kernels, {"gemm": 2}, 2)


def test_infeasible_layer_must_fall_back_to_serial():
    # 64 KiB + 1 B of shared memory per block cannot fit one SM.
    huge = ("huge", 56, 256, 65537, 100.0)
    assert checks.check_decision("inf", P100, [huge], {"huge": 1}, 1) == []
    assert checks.check_decision("inf", P100, [huge], {"huge": 2}, 2)


# ----------------------------------------------------------------------
# Certified plans
# ----------------------------------------------------------------------

DEPS = {0: (), 1: (0,), 2: (0,), 3: (1, 2)}
TIMES = {0: (0.0, 10.0), 1: (10.0, 25.0), 2: (12.0, 20.0), 3: (25.0, 30.0)}


def test_precedence_holds():
    assert checks.check_precedence("plan", DEPS, TIMES) == []


def test_kernel_moved_before_predecessor_fails():
    moved = dict(TIMES)
    moved[3] = (22.0, 27.0)     # starts before kernel 1 ends
    assert checks.check_precedence("plan", DEPS, moved)


def test_missing_kernel_in_timeline_fails():
    partial = {k: v for k, v in TIMES.items() if k != 2}
    assert checks.check_precedence("plan", DEPS, partial)


def test_critical_path():
    durations = {0: 10.0, 1: 15.0, 2: 8.0, 3: 5.0}
    path = checks.critical_path(DEPS, durations)
    assert path == 30.0
    assert checks.check_critical_path("plan", 30.0, path) == []
    assert checks.check_critical_path("plan", 29.0, path)


def _two_stream_program(wait_redundant: bool) -> list:
    """Producer on stream 1, consumer on stream 2, one event between.

    With ``wait_redundant`` the consumer also sits on stream 1, so stream
    order alone orders the pair and the wait protects nothing.
    """
    consumer = 1 if wait_redundant else 2
    prog = DispatchProgram("p")
    prog.launch("producer", stream=1, writes={"r"})
    prog.record(event=0, stream=1)
    prog.wait(event=0, stream=consumer)
    prog.launch("consumer", stream=consumer, reads={"r"})
    prog.sync()
    return list(prog.ops)


def test_removed_necessary_wait_is_rejected():
    ops = _two_stream_program(wait_redundant=False)
    assert _certifies(ops)
    assert checks.check_wait_removal("plan", ops, 2, _certifies) == []


def test_removed_wait_that_still_certifies_fails():
    ops = _two_stream_program(wait_redundant=True)
    assert checks.check_wait_removal("plan", ops, 2, _certifies)


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------

def _records():
    return [(rid, "ok", 100.0 * rid, 100.0 * rid + 300.0 + rid, 1 + rid % 3)
            for rid in range(200)]


def _report(records):
    latencies = [f - a for _, _, a, f, _ in records]
    return checks.percentile(latencies, 50), checks.percentile(latencies, 99)


def test_serving_passes():
    recs = _records()
    p50, p99 = _report(recs)
    assert checks.check_serving("t", 200, recs, p50, p99, lambda b: 250.0) == []


def test_request_dropped_from_tally_fails():
    recs = _records()
    p50, p99 = _report(recs)
    assert checks.check_serving("t", 200, recs[:-1], p50, p99,
                                lambda b: 250.0)


def test_latency_below_launch_bound_fails():
    recs = _records()
    p50, p99 = _report(recs)
    assert checks.check_serving("t", 200, recs, p50, p99, lambda b: 310.0)


def test_report_percentile_mismatch_fails():
    recs = _records()
    p50, p99 = _report(recs)
    assert checks.check_serving("t", 200, recs, p50 + 1e-3, p99,
                                lambda b: 250.0)
    assert checks.check_serving("t", 200, recs, p50, None, lambda b: 250.0)


def test_percentile_matches_numpy_default():
    np = pytest.importorskip("numpy")
    values = [5.0, 1.0, 9.0, 3.0, 7.5, 2.25]
    for q in (0, 37, 50, 99, 100):
        assert math.isclose(checks.percentile(values, q),
                            float(np.percentile(values, q)))


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with what the traced run reports
# ----------------------------------------------------------------------

def test_per_layer_metrics_match_benchmark_json():
    doc = json.loads((Path(__file__).resolve().parents[2]
                      / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    assert listed == tracing.PER_LAYER
