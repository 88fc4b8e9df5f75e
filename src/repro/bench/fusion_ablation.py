"""Ablation: kernel fusion on launch-bound layers (future work #2).

The paper conjectures fusion helps "especially for small kernels".  This
experiment quantifies it on the three Fig. 9 degradation layers (CIFAR10
conv1, Siamese conv1/conv1_p — kernels shorter than the launch pipeline)
and on one compute-heavy layer where fusion should be neutral.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, cached, fresh_gpu
from repro.core import GLP4NN
from repro.gpusim.device import get_device
from repro.nn.zoo.table5 import CAFFENET_CONVS, CIFAR10_CONVS, SIAMESE_CONVS
from repro.runtime.executor import GLP4NNExecutor, NaiveExecutor
from repro.runtime.fusion import fuse_work, make_fusion_transform
from repro.runtime.lowering import lower_conv_forward

DEVICE = "P100"
LAYERS = (CIFAR10_CONVS[0], SIAMESE_CONVS[0], SIAMESE_CONVS[1],
          CAFFENET_CONVS[4])


@cached("fusion_ablation")
def run_fusion_ablation() -> ExperimentResult:
    """Kernel fusion on launch-bound and compute-heavy layers."""
    dev = get_device(DEVICE)
    rows = []
    for cfg in LAYERS:
        work = lower_conv_forward(cfg)
        _, report = fuse_work(work, dev)

        naive = NaiveExecutor(fresh_gpu(DEVICE))
        naive.run(work)
        t_naive = naive.run(work).elapsed_us

        plain = GLP4NNExecutor(fresh_gpu(DEVICE))
        plain.run(work)
        t_plain = plain.run(work).elapsed_us

        gpu = fresh_gpu(DEVICE)
        glp = GLP4NN([gpu], work_transform=make_fusion_transform(dev))
        glp.run_layer(gpu, work)
        t_fused = glp.run_layer(gpu, work).elapsed_us

        rows.append([
            f"{cfg.net}/{cfg.name}",
            report.kernels_before,
            report.kernels_after,
            round(t_naive / t_plain, 3),
            round(t_naive / t_fused, 3),
        ])
    return ExperimentResult(
        experiment="fusion_ablation",
        title=f"Kernel fusion on {DEVICE} (speedups over naive Caffe)",
        headers=["layer", "kernels", "after fusion", "GLP4NN",
                 "GLP4NN+fusion"],
        rows=rows,
        notes="expected: fusion turns the Fig. 9 degradation layers into "
              "wins and is roughly neutral on compute-heavy layers",
    )
