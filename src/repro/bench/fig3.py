"""Fig. 3: timeline of MNIST conv kernels under multiple CUDA streams.

Reproduces the paper's Visual-Profiler-style timeline showing kernels from
different streams overlapping.  The paper captions the figure "conv1"; in
our simulation the conv1 (MNIST) kernels are shorter than the host launch
pipeline and never overlap — the exact property that makes conv1 *degrade*
in the paper's own Fig. 9 — so the timeline illustration uses the MNIST
network's conv2 layer, where cross-stream overlap genuinely occurs.  The
conv1 no-overlap behaviour is asserted separately (``extra["conv1"]``).
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, cached
from repro.gpusim.device import get_device
from repro.gpusim.engine import GPU
from repro.gpusim.timeline import ascii_timeline
from repro.nn.zoo.table5 import SIAMESE_CONVS
from repro.runtime.executor import FixedStreamExecutor
from repro.runtime.lowering import lower_conv_forward

DEVICE = "P100"
STREAMS = 4


def _conv1_concurrency() -> int:
    gpu = GPU(get_device(DEVICE), record_timeline=True)
    FixedStreamExecutor(gpu, STREAMS).run(lower_conv_forward(SIAMESE_CONVS[0]))
    return gpu.timeline.max_concurrency()


@cached("fig3")
def run_fig3() -> ExperimentResult:
    """Multi-stream kernel timeline of the MNIST network's conv2 layer."""
    cfg = SIAMESE_CONVS[1]  # conv2 on MNIST-shaped input (see module doc)
    work = lower_conv_forward(cfg)
    gpu = GPU(get_device(DEVICE), record_timeline=True)
    ex = FixedStreamExecutor(gpu, STREAMS)
    ex.run(work)
    timeline = gpu.timeline
    lanes = ascii_timeline(timeline, width=72)
    by_stream = timeline.by_stream()
    rows = []
    for sid, recs in sorted(by_stream.items()):
        rows.append([
            "default" if sid == 0 else f"stream{sid}",
            len(recs),
            round(sum(r.duration_us for r in recs), 2),
            round(min(r.start_us for r in recs), 2),
            round(max(r.end_us for r in recs), 2),
        ])
    return ExperimentResult(
        experiment="fig3",
        title=f"Kernel timeline, MNIST conv layer with {STREAMS} streams on "
              f"{DEVICE} (paper Fig. 3)",
        headers=["lane", "kernels", "busy us", "first start", "last end"],
        rows=rows,
        notes="lanes rendered below; overlap across lanes is the "
              "concurrent execution the paper visualizes\n" + lanes,
        extra={
            "max_concurrency": timeline.max_concurrency(),
            "span_us": timeline.span_us(),
            "ascii": lanes,
            "conv1_concurrency": _conv1_concurrency(),
        },
    )
