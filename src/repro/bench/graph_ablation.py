"""Ablation: DAG dispatch of an inception module (future work #1).

GLP4NN's layer-wise scheduler synchronizes the device between convolution
units; GoogLeNet's inception modules contain four *independent* branches,
so those barriers cost real time.  This experiment builds inception-5b's
convolution units (Table 5's conv_3..conv_6 plus the 3x3/5x5 bodies) as one
kernel graph per batch and compares:

* layer-wise GLP4NN (device barrier after every unit), vs
* DAG dispatch (event-based dependencies only, one final barrier).
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, cached, fresh_gpu
from repro.core import GLP4NN
from repro.nn.config import ConvConfig
from repro.runtime.executor import GLP4NNExecutor
from repro.runtime.graph import GraphScheduler, KernelGraph
from repro.runtime.lowering import lower_conv_forward

DEVICE = "P100"
BATCH = 32

#: Inception-5b branch convolutions on the 7x7x832 map (Table 5 units
#: conv_3 (1x1 branch), conv_5 -> conv_4 (3x3 branch), conv_6 -> 5x5.
UNITS = {
    "1x1": (ConvConfig("conv_3", BATCH, 832, 7, 384, 1, 1, 0, "GoogLeNet"),),
    "3x3": (ConvConfig("conv_5", BATCH, 832, 7, 192, 1, 1, 0, "GoogLeNet"),
            ConvConfig("conv_4", BATCH, 192, 7, 384, 3, 1, 1, "GoogLeNet")),
    "5x5": (ConvConfig("conv_6", BATCH, 832, 7, 48, 1, 1, 0, "GoogLeNet"),
            ConvConfig("5x5", BATCH, 48, 7, 128, 5, 1, 2, "GoogLeNet")),
}


def inception_graph() -> KernelGraph:
    """Per-sample branch pipelines with branch-level independence."""
    g = KernelGraph("inception5b")
    for branch, convs in UNITS.items():
        for n in range(BATCH):
            prev: list[int] = []
            for cfg in convs:
                chain = lower_conv_forward(cfg).parallel_chains[n]
                ids = g.add_chain(list(chain), deps=prev)
                prev = [ids[-1]]
    return g


@cached("graph_ablation")
def run_graph_ablation() -> ExperimentResult:
    """Layer-wise barriers versus DAG dispatch on inception-5b."""
    # layer-wise GLP4NN: one barrier per unit
    ex = GLP4NNExecutor(fresh_gpu(DEVICE))
    works = [lower_conv_forward(cfg)
             for convs in UNITS.values() for cfg in convs]
    for w in works:
        ex.run(w)                       # profiling pass
    t_layerwise = sum(ex.run(w).elapsed_us for w in works)

    # DAG dispatch: one graph, one final synchronization
    gpu = fresh_gpu(DEVICE)
    glp = GLP4NN([gpu])
    sched = GraphScheduler(glp, gpu)
    g = inception_graph()
    sched.run(g)                        # profiling pass
    t_graph = sched.run(g)

    rows = [
        ["layer-wise GLP4NN", round(t_layerwise / 1000.0, 3), 1.0],
        ["DAG dispatch", round(t_graph / 1000.0, 3),
         round(t_layerwise / t_graph, 3)],
    ]
    return ExperimentResult(
        experiment="graph_ablation",
        title=f"Inception-5b branches on {DEVICE}: layer barriers vs "
              "dataflow dependencies",
        headers=["dispatch", "time ms", "speedup"],
        rows=rows,
        notes="the paper's future-work hypothesis: supporting complex "
              "kernel dependencies exposes extra concurrency",
        extra={"kernels": len(g)},
    )
