"""Comparison: GLP4NN's single-thread stream pool vs multi-threaded dispatch.

The paper's design argument (Section 1, challenge 2; Section 5): Hyper-Q /
MPS / OpenMP approaches achieve concurrency by spending CPU threads or
processes, while GLP4NN reaches it from one host thread with a stream pool.
This experiment measures both sides of that trade: layer time *and* the
number of CPU threads consumed.
"""

from __future__ import annotations

from repro.bench.harness import (
    ExperimentResult,
    cached,
    conv_forward_work,
    fresh_gpu,
    time_glp4nn,
    time_naive,
)
from repro.nn.zoo.table5 import CAFFENET_CONVS, CIFAR10_CONVS, SIAMESE_CONVS
from repro.runtime.multithread import MultiThreadDispatcher

DEVICE = "P100"
LAYERS = (SIAMESE_CONVS[0], CIFAR10_CONVS[2], CAFFENET_CONVS[4])
THREAD_COUNTS = (2, 4, 8)


def _steady_mt(work, threads: int) -> float:
    dispatcher = MultiThreadDispatcher(fresh_gpu(DEVICE), threads)
    dispatcher.run(work)
    return dispatcher.run(work).elapsed_us


@cached("mps_comparison")
def run_mps_comparison() -> ExperimentResult:
    """Single-thread stream pool versus multi-threaded dispatch."""
    rows = []
    for cfg in LAYERS:
        work = conv_forward_work(cfg)
        base = time_naive(DEVICE, work)
        t_glp, decision = time_glp4nn(DEVICE, work)
        row = [f"{cfg.net}/{cfg.name}", round(base / t_glp, 3), 1]
        for threads in THREAD_COUNTS:
            t_mt = _steady_mt(work, threads)
            row.extend([round(base / t_mt, 3), threads])
        rows.append(row)
    headers = ["layer", "GLP4NN", "cpu thr"]
    for t in THREAD_COUNTS:
        headers.extend([f"{t}-thread", "cpu thr"])
    return ExperimentResult(
        experiment="mps_comparison",
        title=f"Stream pool (1 host thread) vs multi-threaded dispatch on "
              f"{DEVICE} (speedups over naive)",
        headers=headers,
        rows=rows,
        notes="the paper's trade-off: thread-based dispatch buys similar "
              "GPU-side concurrency only by consuming CPU threads (plus "
              "driver-lock contention), while GLP4NN needs one",
    )
