"""Fig. 4: best observed number of concurrent streams per CaffeNet layer.

Sweeps stream counts per layer per GPU and reports the count minimizing the
forward time.  Expected shape: the optimum differs across layers *and*
across GPUs — the paper's argument for choosing the number automatically.
"""

from __future__ import annotations

from repro.bench.harness import (
    ExperimentResult,
    cached,
    conv_forward_work,
    time_fixed,
    time_naive,
)
from repro.gpusim.device import PAPER_DEVICES
from repro.nn.zoo.table5 import CAFFENET_CONVS

SWEEP = (1, 2, 4, 8, 16, 32)


@cached("fig4")
def run_fig4() -> ExperimentResult:
    """Best observed stream count per CaffeNet conv layer on each GPU."""
    rows = []
    best_by_device: dict[str, list[int]] = {}
    for cfg in CAFFENET_CONVS:
        work = conv_forward_work(cfg)
        row = [cfg.name]
        for device in PAPER_DEVICES:
            best_s, best_t = 1, time_naive(device, work)
            for s in SWEEP[1:]:
                t = time_fixed(device, work, s)
                if t < best_t:
                    best_s, best_t = s, t
            row.append(best_s)
            best_by_device.setdefault(device, []).append(best_s)
        rows.append(row)
    return ExperimentResult(
        experiment="fig4",
        title="Best observed #streams for CaffeNet's layers (paper Fig. 4)",
        headers=["layer"] + list(PAPER_DEVICES),
        rows=rows,
        notes="paper shape: the optimal stream count varies from GPU to GPU "
              "and layer to layer",
        extra={"sweep": list(SWEEP), "best_by_device": best_by_device},
    )
