"""Fig. 7: speedup of GLP4NN-Caffe over naive Caffe per training iteration.

The headline experiment: full forward + backward iterations of the four
networks on the three GPUs, naive (single-stream Caffe) vs GLP4NN.  The
measured iteration excludes the one-time profiling/analysis pass, as the
paper does (Table 6 reports that cost separately).

Expected shape: GLP4NN wins on every network (per-iteration), with
magnitude depending on the device and the network's kernel sizes; the
per-layer "up to 4X" of the abstract shows up in the conv-only columns.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, cached, fresh_gpu
from repro.gpusim.device import PAPER_DEVICES
from repro.kernels.ir import LayerWork
from repro.nn.net import Net
from repro.nn.zoo import NETWORKS, NETWORK_ORDER
from repro.runtime.executor import Executor, GLP4NNExecutor, NaiveExecutor
from repro.runtime.lowering import lower_net

#: Construction arguments for the evaluation-scale networks.
_BUILD_ARGS: dict[str, dict] = {
    "CIFAR10": {"batch": 100},
    "Siamese": {"batch": 64},
    "CaffeNet": {"batch": 256},
    "GoogLeNet": {"batch": 32},
}

_WORK_CACHE: dict[str, tuple[list[LayerWork], list[LayerWork]]] = {}


def network_works(name: str) -> tuple[list[LayerWork], list[LayerWork]]:
    """Lowered (forward, backward) works of one evaluation network."""
    if name not in _WORK_CACHE:
        net: Net = NETWORKS[name].build(**_BUILD_ARGS[name])
        _WORK_CACHE[name] = (lower_net(net, "forward"),
                             lower_net(net, "backward"))
    return _WORK_CACHE[name]


def iteration_time(ex: Executor, fwd: list[LayerWork],
                   bwd: list[LayerWork]) -> float:
    """One full training iteration on an already warmed-up executor, µs."""
    return ex.run_pass(fwd) + ex.run_pass(bwd)


@cached("fig7")
def run_fig7() -> ExperimentResult:
    """Per-iteration speedup of GLP4NN over Caffe on four nets, three GPUs."""
    rows = []
    details: dict[str, dict[str, float]] = {}
    for name in NETWORK_ORDER:
        fwd, bwd = network_works(name)
        row = [name]
        for device in PAPER_DEVICES:
            naive = NaiveExecutor(fresh_gpu(device))
            iteration_time(naive, fwd, bwd)               # warm-up
            t_naive = iteration_time(naive, fwd, bwd)

            glp = GLP4NNExecutor(fresh_gpu(device))
            iteration_time(glp, fwd, bwd)                  # profile pass
            t_glp = iteration_time(glp, fwd, bwd)

            s = t_naive / t_glp
            row.append(round(s, 3))
            details[f"{name}/{device}"] = {
                "naive_us": t_naive,
                "glp4nn_us": t_glp,
                "speedup": s,
            }
        rows.append(row)
    return ExperimentResult(
        experiment="fig7",
        title="Per-iteration speedup of GLP4NN-Caffe over Caffe "
              "(paper Fig. 7)",
        headers=["network"] + list(PAPER_DEVICES),
        rows=rows,
        notes="steady-state iterations (one-time profiling excluded, as in "
              "the paper); conv layers parallelized, others unchanged",
        extra={"details": details},
    )
