"""Fig. 10: memory consumption of GLP4NN.

Per network and device: ``mem_tt`` (timestamps), ``mem_K`` (kernel
configurations) and ``mem_cupti`` (profiler runtime) after a full
profiling pass over the network's convolution layers.

Expected shape: ``mem_tt``/``mem_K`` scale with the number of kernels
recorded and are device-independent; ``mem_cupti`` is fixed by the CUPTI
runtime and dominates by orders of magnitude.  All host memory, released
after analysis.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, cached, fresh_gpu
from repro.core.cost import OverheadModel
from repro.gpusim.device import PAPER_DEVICES
from repro.nn.zoo.table5 import NETWORK_ORDER, TABLE5
from repro.runtime.executor import GLP4NNExecutor
from repro.runtime.lowering import lower_conv_forward


@cached("fig10")
def run_fig10() -> ExperimentResult:
    """Memory GLP4NN's profiler uses per network and device."""
    rows = []
    for net in NETWORK_ORDER:
        for device in PAPER_DEVICES:
            gpu = fresh_gpu(device)
            ex = GLP4NNExecutor(gpu)
            for cfg in TABLE5[net]:
                ex.run(lower_conv_forward(cfg))   # profiling pass
            report = OverheadModel(ex.framework).report(gpu, network=net)
            rows.append([
                net, device,
                report.kernels_profiled,
                report.mem_tt,
                report.mem_k,
                report.mem_cupti,
                report.mem_total,
            ])
    return ExperimentResult(
        experiment="fig10",
        title="Memory consumption of GLP4NN (paper Fig. 10)",
        headers=["network", "device", "kernels", "mem_tt B", "mem_K B",
                 "mem_cupti B", "total B"],
        rows=rows,
        notes="paper shape: mem_tt and mem_K depend only on the kernel "
              "count; mem_cupti is decided by the CUPTI runtime and is "
              "much larger than the other two",
    )
