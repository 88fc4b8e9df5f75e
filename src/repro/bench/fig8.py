"""Fig. 8: number of streams chosen by the analytical model, per layer.

For each network's convolution layers on each GPU, run the
profile-and-analyze pass and report the model's ``C_out`` (Eq. 9).
Expected shape: device-dependent values, small for short-kernel layers
(the launch-pipeline bound) and larger for compute-heavy layers.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, cached, fresh_gpu
from repro.gpusim.device import PAPER_DEVICES
from repro.nn.zoo.table5 import TABLE5, NETWORK_ORDER
from repro.runtime.executor import GLP4NNExecutor
from repro.runtime.lowering import lower_conv_forward


@cached("fig8")
def run_fig8() -> ExperimentResult:
    """Stream counts the analytical model chooses for every conv layer."""
    rows = []
    for net in NETWORK_ORDER:
        for cfg in TABLE5[net]:
            row = [net, cfg.name]
            for device in PAPER_DEVICES:
                gpu = fresh_gpu(device)
                ex = GLP4NNExecutor(gpu)
                work = lower_conv_forward(cfg)
                ex.run(work)                      # profile + analyze
                decision = ex.run(work).decision  # cached decision
                assert decision is not None
                row.append(decision.c_out)
            rows.append(row)
    return ExperimentResult(
        experiment="fig8",
        title="Stream-pool size C_out chosen by the analytical model "
              "(paper Fig. 8)",
        headers=["net", "layer"] + list(PAPER_DEVICES),
        rows=rows,
        notes="paper shape: per-layer, per-device configuration; bounded by "
              "Eq. 7's launch-pipeline term for sub-millisecond layers",
    )
