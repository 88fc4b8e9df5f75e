"""Fig. 2: speedup of CaffeNet's convolution layers on P100 vs stream count.

The paper's motivation experiment: run each CaffeNet conv layer's forward
pass (batch-level parallelism, manual stream counts) and report the speedup
over the single-stream execution.  Expected shape: speedup grows with the
stream count and then plateaus (or dips) once the device saturates; the
magnitude differs per layer.
"""

from __future__ import annotations

from repro.bench.harness import (
    ExperimentResult,
    cached,
    conv_forward_work,
    time_fixed,
    time_naive,
)
from repro.nn.zoo.table5 import CAFFENET_CONVS

STREAM_COUNTS = (1, 2, 4, 8, 16, 32)
DEVICE = "P100"


@cached("fig2")
def run_fig2() -> ExperimentResult:
    """Speedup of CaffeNet's conv layers on P100 versus the stream count."""
    rows = []
    for cfg in CAFFENET_CONVS:
        work = conv_forward_work(cfg)
        base = time_naive(DEVICE, work)
        row = [cfg.name, round(base / 1000.0, 3)]
        for s in STREAM_COUNTS:
            if s == 1:
                row.append(1.0)
            else:
                t = time_fixed(DEVICE, work, s)
                row.append(round(base / t, 3))
        rows.append(row)
    return ExperimentResult(
        experiment="fig2",
        title=f"CaffeNet conv-layer speedup vs #streams on {DEVICE} "
              "(paper Fig. 2)",
        headers=["layer", "1-stream ms"] + [f"x{s}" for s in STREAM_COUNTS],
        rows=rows,
        notes="paper shape: multi-stream execution accelerates most conv "
              "layers, flattening as SMs saturate",
        extra={"stream_counts": list(STREAM_COUNTS), "device": DEVICE},
    )
