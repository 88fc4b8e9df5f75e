"""Ablations of GLP4NN's design choices (DESIGN.md section 5).

1. **Launch-pipeline bound** (Eq. 7's ``ceil(T/T_launch)`` term): without
   it, the model over-parallelizes short-kernel layers and pays stream
   overheads for overlap that cannot physically happen.
2. **MILP vs greedy analyzer**: a greedy occupancy-packing heuristic versus
   the exact branch-and-bound solve.
3. **Dispatch policy**: model-sized pool vs the device's maximum
   concurrency degree (just throwing streams at the problem).
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.harness import (
    ExperimentResult,
    cached,
    conv_forward_work,
    fresh_gpu,
    time_naive,
)
from repro.core.analytical_model import AnalyticalModel, ConcurrencyDecision
from repro.core.resource_tracker import KernelProfile
from repro.gpusim.device import get_device
from repro.nn.zoo.table5 import CAFFENET_CONVS, CIFAR10_CONVS, SIAMESE_CONVS
from repro.runtime.executor import FixedStreamExecutor, GLP4NNExecutor

DEVICE = "P100"

#: Layers chosen to span the regimes: sub-ms kernels (the degradation
#: cases), mid-size, and SM-saturating.
ABLATION_LAYERS = (
    SIAMESE_CONVS[0],    # tiny: conv1 on MNIST
    CIFAR10_CONVS[2],    # mid: conv3
    CAFFENET_CONVS[4],   # large: conv5
)


def greedy_analyze(device_name: str):
    """Greedy substitute for the MILP: pack kernels by occupancy density.

    Sorts kernels by per-instance thread footprint (descending) and adds
    instances while the Eq. 4/5 budgets and Eq. 7 bounds allow.
    """
    device = get_device(device_name)
    model = AnalyticalModel(device)

    def analyze(layer_key: str, profiles: Sequence[KernelProfile]
                ) -> ConcurrencyDecision:
        bounds = [model.kernel_bound(p) for p in profiles]
        order = sorted(range(len(bounds)),
                       key=lambda i: bounds[i].tau * bounds[i].beta,
                       reverse=True)
        counts = [0] * len(bounds)
        threads = smem = blocks = total = 0
        progress = True
        while progress and total < device.max_concurrent_kernels:
            progress = False
            for i in order:
                b = bounds[i]
                if counts[i] >= b.upper:
                    continue
                if threads + b.tau * b.beta > device.max_threads_per_sm:
                    continue
                if smem + b.smem * b.beta > device.shared_mem_per_sm:
                    continue
                if blocks + b.beta > device.max_blocks_per_sm:
                    continue
                if total + 1 > device.max_concurrent_kernels:
                    continue
                counts[i] += 1
                threads += b.tau * b.beta
                smem += b.smem * b.beta
                blocks += b.beta
                total += 1
                progress = True
        c_out = max(1, total)
        return ConcurrencyDecision(
            layer_key=layer_key,
            device=device.name,
            counts={b.name: c for b, c in zip(bounds, counts)},
            c_out=c_out,
            occupancy_ratio=min(1.0, threads / device.max_threads_per_sm),
            bounds=bounds,
        )

    return analyze


def _steady(ex, work) -> float:
    ex.run(work)
    return ex.run(work).elapsed_us


@cached("ablations")
def run_ablations() -> ExperimentResult:
    """Ablate the launch bound, the MILP analyzer and the policy."""
    rows = []
    for cfg in ABLATION_LAYERS:
        work = conv_forward_work(cfg)
        base = time_naive(DEVICE, work)

        glp = GLP4NNExecutor(fresh_gpu(DEVICE))
        t_model = _steady(glp, work)
        c_model = glp.runs[-1].decision.c_out

        nolaunch = GLP4NNExecutor(fresh_gpu(DEVICE), use_launch_bound=False)
        t_nolaunch = _steady(nolaunch, work)
        c_nolaunch = nolaunch.runs[-1].decision.c_out

        from repro.core.framework import GLP4NN
        gpu = fresh_gpu(DEVICE)
        greedy_fw = GLP4NN([gpu], analyze_fn=greedy_analyze(DEVICE))
        greedy = GLP4NNExecutor(gpu, framework=greedy_fw)
        t_greedy = _steady(greedy, work)
        c_greedy = greedy.runs[-1].decision.c_out

        maxstreams = FixedStreamExecutor(
            fresh_gpu(DEVICE), get_device(DEVICE).max_concurrent_kernels
        )
        t_max = _steady(maxstreams, work)

        rows.append([
            f"{cfg.net}/{cfg.name}",
            round(base / t_model, 3), c_model,
            round(base / t_nolaunch, 3), c_nolaunch,
            round(base / t_greedy, 3), c_greedy,
            round(base / t_max, 3),
        ])
    return ExperimentResult(
        experiment="ablations",
        title=f"Design-choice ablations on {DEVICE} (speedup over naive)",
        headers=["layer", "model", "C", "no-launch-bound", "C",
                 "greedy", "C", "max-streams"],
        rows=rows,
        notes="the launch bound protects short-kernel layers; the exact "
              "MILP matches or beats greedy packing; max-streams shows "
              "diminishing or negative returns",
    )
