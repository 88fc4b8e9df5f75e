"""Fig. 11: convergence invariance — training CIFAR10 on P100.

Trains the CIFAR10-quick network twice on synthetic CIFAR-10: once under
naive Caffe, once under GLP4NN-Caffe.  With the *same* shuffle seed the two
loss curves are bit-identical (scheduling never touches the math); with a
*different* shuffle seed they diverge slightly — exactly the residual
difference the paper attributes to "the shuffle process while fetching
training batch samples".  Both runs reach the same loss plateau.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import ExperimentResult, cached, fresh_gpu
from repro.data import BatchLoader, make_dataset
from repro.nn.solver import SolverConfig
from repro.nn.zoo import build_cifar10
from repro.runtime.executor import GLP4NNExecutor, NaiveExecutor
from repro.runtime.session import TrainingSession

DEVICE = "P100"
ITERATIONS = 120
BATCH = 100
SAMPLES = 2000
REPORT_EVERY = 10


def _train(executor_cls, shuffle_seed: int) -> list[float]:
    net = build_cifar10(batch=BATCH, seed=11, with_accuracy=False)
    dataset = make_dataset("cifar10", num_samples=SAMPLES, seed=29)
    loader = BatchLoader(dataset, BATCH, seed=shuffle_seed)
    executor = executor_cls(fresh_gpu(DEVICE))
    session = TrainingSession(
        net, executor,
        solver_config=SolverConfig(base_lr=0.01, momentum=0.9,
                                   weight_decay=0.004),
    )
    for _ in range(ITERATIONS):
        session.run_iteration(loader.next_batch())
    return session.losses


@cached("fig11")
def run_fig11() -> ExperimentResult:
    """Convergence invariance: CIFAR10 losses under Caffe and GLP4NN."""
    caffe = _train(NaiveExecutor, shuffle_seed=5)
    glp_same = _train(GLP4NNExecutor, shuffle_seed=5)
    glp_other = _train(GLP4NNExecutor, shuffle_seed=17)

    rows = []
    for i in range(0, ITERATIONS, REPORT_EVERY):
        rows.append([
            i,
            round(caffe[i], 5),
            round(glp_same[i], 5),
            round(glp_other[i], 5),
        ])
    rows.append([
        "final",
        round(caffe[-1], 5),
        round(glp_same[-1], 5),
        round(glp_other[-1], 5),
    ])
    max_same_gap = max(abs(a - b) for a, b in zip(caffe, glp_same))
    return ExperimentResult(
        experiment="fig11",
        title=f"CIFAR10 training convergence on {DEVICE} (paper Fig. 11)",
        headers=["iteration", "Caffe", "GLP4NN (same shuffle)",
                 "GLP4NN (different shuffle)"],
        rows=rows,
        notes="paper shape: identical convergence; residual difference only "
              "from batch shuffling",
        extra={
            "caffe": caffe,
            "glp4nn_same_shuffle": glp_same,
            "glp4nn_other_shuffle": glp_other,
            "max_same_shuffle_gap": max_same_gap,
        },
    )
