"""Fig. 9: per-layer elapsed time — where GLP4NN loses.

The paper's degradation analysis: CIFAR10 on Titan XP and Siamese on P100,
per-convolution-layer elapsed time under Caffe vs GLP4NN-Caffe.  Expected
shape: layers finishing in about 2 ms (CIFAR10 conv1, Siamese conv1 and
conv1_p) are *slower* under GLP4NN — "the prior kernel has finished before
the next kernel can execute" — while the deeper layers win, and the
networks win overall.
"""

from __future__ import annotations

from repro.bench.harness import (
    ExperimentResult,
    cached,
    conv_forward_work,
    time_glp4nn,
    time_naive,
)
from repro.nn.zoo.table5 import CIFAR10_CONVS, SIAMESE_CONVS

CASES = (
    ("CIFAR10", "TitanXP", CIFAR10_CONVS),
    ("Siamese", "P100", SIAMESE_CONVS),
)


@cached("fig9")
def run_fig9() -> ExperimentResult:
    """Per-layer time under Caffe and GLP4NN, loss cases included."""
    rows = []
    for net, device, convs in CASES:
        net_naive = 0.0
        net_glp = 0.0
        for cfg in convs:
            work = conv_forward_work(cfg)
            t_naive = time_naive(device, work)
            t_glp, _ = time_glp4nn(device, work)
            net_naive += t_naive
            net_glp += t_glp
            rows.append([
                f"{net[0]}-{cfg.name}", device,
                round(t_naive / 1000.0, 3),
                round(t_glp / 1000.0, 3),
                round(t_naive / t_glp, 3),
            ])
        rows.append([
            f"{net[0]}-total", device,
            round(net_naive / 1000.0, 3),
            round(net_glp / 1000.0, 3),
            round(net_naive / net_glp, 3),
        ])
    return ExperimentResult(
        experiment="fig9",
        title="Layer elapsed time, Caffe vs GLP4NN-Caffe: CIFAR10 on "
              "TitanXP, Siamese on P100 (paper Fig. 9)",
        headers=["layer", "device", "caffe ms", "glp4nn ms", "speedup"],
        rows=rows,
        notes="paper shape: ~2 ms layers (conv1 / conv1_p) degrade "
              "slightly; the network totals still improve",
    )
