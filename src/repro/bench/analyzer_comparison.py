"""Ablation: occupancy-MILP analyzer vs time-predictive analyzer.

The paper's kernel analyzer is explicitly pluggable.  This experiment
compares the default occupancy-maximizing MILP (Eqs. 1-9) against the
:mod:`repro.core.predictive_model` alternative, which minimizes a
closed-form layer-time prediction, on layers spanning the launch-bound,
medium and saturated regimes.
"""

from __future__ import annotations

from repro.bench.harness import (
    ExperimentResult,
    cached,
    conv_forward_work,
    fresh_gpu,
    time_naive,
)
from repro.core import GLP4NN, predictive_analyze_fn
from repro.nn.zoo.table5 import CAFFENET_CONVS, CIFAR10_CONVS, SIAMESE_CONVS
from repro.runtime.executor import GLP4NNExecutor

DEVICE = "P100"
LAYERS = (SIAMESE_CONVS[0], SIAMESE_CONVS[1], CIFAR10_CONVS[2],
          CAFFENET_CONVS[4])


def _steady(ex, work):
    ex.run(work)
    run = ex.run(work)
    return run.elapsed_us, run.decision.c_out


@cached("analyzer_comparison")
def run_analyzer_comparison() -> ExperimentResult:
    """Occupancy MILP versus the time-predictive analyzer."""
    rows = []
    for cfg in LAYERS:
        work = conv_forward_work(cfg)
        base = time_naive(DEVICE, work)

        occ = GLP4NNExecutor(fresh_gpu(DEVICE))
        t_occ, c_occ = _steady(occ, work)

        gpu = fresh_gpu(DEVICE)
        glp = GLP4NN([gpu], analyze_fn=predictive_analyze_fn(gpu.props))
        pred = GLP4NNExecutor(gpu, framework=glp)
        t_pred, c_pred = _steady(pred, work)

        rows.append([
            f"{cfg.net}/{cfg.name}",
            round(base / t_occ, 3), c_occ,
            round(base / t_pred, 3), c_pred,
        ])
    return ExperimentResult(
        experiment="analyzer_comparison",
        title=f"Occupancy MILP vs time-predictive analyzer on {DEVICE} "
              "(speedups over naive)",
        headers=["layer", "occupancy", "C", "predictive", "C"],
        rows=rows,
        notes="both analyzers should land near the per-layer optimum; the "
              "predictive one prefers leaner pools on launch-bound layers",
    )
