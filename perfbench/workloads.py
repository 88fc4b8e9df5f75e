"""The benchmark's four workloads, driven through ``repro``'s public API.

Each workload builds its inputs from the run's seed in :meth:`setup`,
then repeats whole rounds of the same operations while the run lasts.
:meth:`run_round` times each of its slots (an iteration, a sweep cell, a
plan or a whole served trace) and returns ``(seconds, operations)`` per
slot, always in the same slot order.
:meth:`check` verifies the outputs with :mod:`checks`; workloads whose
rounds leave bulky records check them as each round ends and keep only
the failures.  :meth:`digest` collects every simulated statistic of the
first round, which every run completes, so two runs of one seed can be
compared number for number.

None of them calls the ``repro.bench`` experiment runners: those write
``results/*.json`` when started from the repository root.
"""

from __future__ import annotations

import math
import random
import time

from repro.analyze.deadlock import deadlock_verdict_for
from repro.analyze.hazards import verdict_for
from repro.analyze.program import DispatchProgram, WaitEvent
from repro.data import BatchLoader, make_dataset
from repro.gpusim.device import get_device
from repro.gpusim.engine import GPU
from repro.graphs.admission import admit
from repro.graphs.replay import instantiate
from repro.interop import (
    PLAN_POLICIES,
    build_plan,
    certify,
    compile_plan,
    estimate_graph,
    inception_unit,
    replay_plan,
    run_plan,
    structural_effects,
    suggest_pool_size,
)
from repro.nn.solver import Solver, SolverConfig
from repro.nn.zoo import NETWORKS, build_cifar10
from repro.runtime.executor import GLP4NNExecutor, NaiveExecutor
from repro.runtime.lowering import lower_net
from repro.runtime.session import TrainingSession
from repro.serve import (
    ArrivalTrace,
    InferenceRequest,
    Outcome,
    ServingEngine,
    SLOTracker,
    make_executor,
    resolve_device,
    resolve_net,
)

import checks


class Workload:
    """Base class: seeded inputs, whole rounds, checks, digest."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rounds = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> list[tuple[float, int]]:
        raise NotImplementedError

    def failed_ops(self) -> int:
        return 0

    def check(self) -> list[str]:
        raise NotImplementedError

    def digest(self) -> dict:
        raise NotImplementedError


def _limits(props) -> dict:
    """The device-table entries Eqs. 4-8 read."""
    return {
        "sm_count": props.sm_count,
        "shared_mem_per_sm": props.shared_mem_per_sm,
        "max_threads_per_sm": props.max_threads_per_sm,
        "max_blocks_per_sm": props.max_blocks_per_sm,
        "max_concurrent_kernels": props.max_concurrent_kernels,
        "launch_latency_us": props.launch_latency_us,
    }


def check_decisions(framework, gpu, memo: dict) -> list[str]:
    """Check every decision ``framework`` made for ``gpu``.

    Identical (device, profile, decision) triples are checked once.
    """
    out: list[str] = []
    limits = _limits(gpu.props)
    for key, decision in framework.decisions(gpu).items():
        profile = framework.tracker.get(gpu, key)
        kernels = tuple((k.name, k.num_blocks, k.threads_per_block,
                         k.shared_mem_per_block, k.duration_us)
                        for k in profile.kernels)
        memo_key = (gpu.props.name, kernels,
                    tuple(sorted(decision.counts.items())), decision.c_out)
        if memo_key not in memo:
            memo[memo_key] = checks.check_decision(
                f"{gpu.props.name} {key}", limits, kernels,
                decision.counts, decision.c_out)
        out += memo[memo_key]
    return out


def _pass_digest(executor) -> dict:
    """Per-layer simulated times and pool sizes of one executor."""
    decisions = executor.framework.decisions(executor.gpu)
    return {
        "layer_us": executor.layer_times(),
        "c_out": {k: d.c_out for k, d in sorted(decisions.items())},
    }


# ----------------------------------------------------------------------
# train-cifar10
# ----------------------------------------------------------------------

class TrainCifar10(Workload):
    """Numeric CIFAR10-quick training under GLP4NN on P100 (Fig. 11).

    One operation is one steady training iteration at batch 100; the
    profiling iteration runs during set-up.
    """

    name = "train-cifar10"
    DEVICE = "P100"
    BATCH = 100
    SAMPLES = 2000
    SOLVER = SolverConfig(base_lr=0.01, momentum=0.9, weight_decay=0.004)

    def _net(self):
        return build_cifar10(batch=self.BATCH, seed=self.seed,
                             with_accuracy=False)

    def setup(self) -> None:
        self.dataset = make_dataset("cifar10", num_samples=self.SAMPLES,
                                    seed=self.seed)
        self.loader = BatchLoader(self.dataset, self.BATCH, seed=self.seed)
        self.gpu = GPU(get_device(self.DEVICE), record_timeline=False)
        self.executor = GLP4NNExecutor(self.gpu)
        self.session = TrainingSession(self._net(), self.executor,
                                       solver_config=self.SOLVER)
        self.session.run_iteration(self.loader.next_batch())

    def run_round(self) -> list[tuple[float, int]]:
        start = time.perf_counter()
        self.session.run_iteration(self.loader.next_batch())
        self.rounds += 1
        return [(time.perf_counter() - start, 1)]

    def check(self) -> list[str]:
        losses = self.session.losses
        solver = Solver(self._net(), self.SOLVER)
        loader = BatchLoader(self.dataset, self.BATCH, seed=self.seed)
        reference = [solver.step(loader.next_batch()) for _ in losses]
        out = checks.check_losses(losses, reference)
        out += checks.check_first_loss(losses[0])
        kernels = (checks.count_kernels(self.session.forward_works)
                   + checks.count_kernels(self.session.backward_works))
        t_launch = self.gpu.props.launch_latency_us
        for t in self.session.timings:
            out += checks.check_launch_bound(
                f"iteration {t.iteration}", t.sim_time_us, kernels, t_launch)
        out += check_decisions(self.executor.framework, self.gpu, {})
        return out

    def digest(self) -> dict:
        t = self.session.timings
        framework = self.executor.framework
        return {
            "iterations_us": [[x.sim_time_us, x.forward_us, x.backward_us]
                              for x in t[:2]],
            "T_p_us": framework.tracker.total_profiling_time_us,
            "T_a_us": framework.analyzer_for(self.gpu)
                               .maintainer.total_analysis_time_us,
            **_pass_digest(self.executor),
        }


# ----------------------------------------------------------------------
# zoo-sweep
# ----------------------------------------------------------------------

class ZooSweep(Workload):
    """Timing-only iterations of the paper's four networks (Figs. 7-8,
    Table 6) on K40C, P100 and TitanXP, naive and GLP4NN.

    One operation is one (network, device) cell: a naive iteration, then
    a fresh GLP4NN framework's profiling iteration and a steady one.
    CaffeNet runs at batch 8 instead of 256 (its large-grid layers stay).
    """

    name = "zoo-sweep"
    DEVICES = ("K40C", "P100", "TitanXP")
    BATCHES = {"CIFAR10": 100, "Siamese": 64, "GoogLeNet": 32, "CaffeNet": 8}

    def setup(self) -> None:
        self.works = {}
        for net_name, batch in self.BATCHES.items():
            net = NETWORKS[net_name].build(batch=batch)
            fwd, bwd = lower_net(net, "forward"), lower_net(net, "backward")
            self.works[net_name] = (fwd, bwd, checks.count_kernels(fwd),
                                    checks.count_kernels(bwd))
        self.cells = [(n, d) for n in self.BATCHES for d in self.DEVICES]
        random.Random(self.seed).shuffle(self.cells)
        self.results: list[dict] = []
        self.first_round: list[tuple] = []

    def run_round(self) -> list[tuple[float, int]]:
        slots = []
        for net_name, device in self.cells:
            start = time.perf_counter()
            fwd, bwd, _, _ = self.works[net_name]
            props = get_device(device)
            naive = NaiveExecutor(GPU(props, record_timeline=False))
            naive_us = (naive.run_pass(fwd), naive.run_pass(bwd))
            glp = GLP4NNExecutor(GPU(props, record_timeline=False))
            profile_us = (glp.run_pass(fwd), glp.run_pass(bwd))
            steady_us = (glp.run_pass(fwd), glp.run_pass(bwd))
            framework = glp.framework
            self.results.append({
                "cell": f"{net_name}/{device}",
                "naive_us": naive_us,
                "profile_us": profile_us,
                "steady_us": steady_us,
                "T_p_us": framework.tracker.total_profiling_time_us,
                "T_a_us": framework.analyzer_for(glp.gpu)
                                   .maintainer.total_analysis_time_us,
            })
            slots.append((time.perf_counter() - start, 1))
            if not self.rounds:
                self.first_round.append((self.results[-1], glp))
        self.rounds += 1
        return slots

    def check(self) -> list[str]:
        out: list[str] = []
        for r in self.results:
            net_name, device = r["cell"].split("/")
            _, _, k_fwd, k_bwd = self.works[net_name]
            t_launch = get_device(device).launch_latency_us
            for what in ("naive_us", "profile_us", "steady_us"):
                for phase, us, k in zip(("forward", "backward"), r[what],
                                        (k_fwd, k_bwd)):
                    out += checks.check_launch_bound(
                        f"{r['cell']} {what[:-3]} {phase}", us, k, t_launch)
        memo: dict = {}
        for _, glp in self.first_round:
            out += check_decisions(glp.framework, glp.gpu, memo)
        return out

    def digest(self) -> dict:
        cells = {}
        for r, glp in sorted(self.first_round, key=lambda x: x[0]["cell"]):
            cells[r["cell"]] = {**{k: v for k, v in r.items() if k != "cell"},
                                **_pass_digest(glp)}
        speedups = [sum(c["naive_us"]) / sum(c["steady_us"])
                    for c in cells.values()]
        return {
            "sim_speedup": math.exp(sum(map(math.log, speedups))
                                    / len(speedups)),
            "sim_overhead_us": sum(c["T_p_us"] + c["T_a_us"]
                                   for c in cells.values()),
            "cells": cells,
        }


# ----------------------------------------------------------------------
# interop-certify
# ----------------------------------------------------------------------

def _collect(obj, method: str, sink: list, kernels=lambda r: [r]) -> None:
    """Wrap ``obj.method`` on this instance only, appending the kernel
    executions each call returns to ``sink`` in launch order."""
    call = getattr(obj, method)

    def collecting(*args, **kwargs):
        result = call(*args, **kwargs)
        sink.extend(kernels(result))
        return result

    setattr(obj, method, collecting)


class InteropCertify(Workload):
    """Inception 5a/5b plans under all four policies on P100: build,
    certify (with sync-elision), run eagerly and replay as a graph.

    One operation is one plan; a round covers batches 1 to 16 of both
    units under every policy, in an order drawn from the seed.
    """

    name = "interop-certify"
    DEVICE = "p100"
    UNITS = ("5a", "5b")
    BATCHES = (1, 2, 4, 8, 16)

    def setup(self) -> None:
        self.props = resolve_device(self.DEVICE)
        self.units = {}
        for unit in self.UNITS:
            for batch in self.BATCHES:
                wl = inception_unit(unit, batch)
                g = wl.graph
                self.units[(unit, batch)] = (
                    g, estimate_graph(g, self.props),
                    suggest_pool_size(g, self.props),
                    structural_effects(g, in_place=wl.in_place),
                    {n.node_id: n.deps for n in g.nodes})
        self.items = [(u, b, p) for (u, b) in self.units for p in PLAN_POLICIES]
        random.Random(self.seed).shuffle(self.items)
        self.first_round: list[dict] = []
        self.certs: dict = {}
        self.failures: list[str] = []

    def run_round(self) -> list[tuple[float, int]]:
        props = self.props
        results, slots = [], []
        for unit, batch, policy in self.items:
            start = time.perf_counter()
            g, est, streams, effects, _ = self.units[(unit, batch)]
            plan = build_plan(g, policy, streams, device=props,
                              estimates=est)
            cert = certify(g, plan, effects=effects, device=props,
                           estimates=est)
            gpu = GPU(props, record_timeline=False)
            pool = [gpu.create_stream(name=f"{policy}.s{i}")
                    for i in range(streams)]
            eager_kes: list = []
            _collect(gpu, "launch", eager_kes)
            eager = run_plan(gpu, g, cert.plan, pool)
            compiled = compile_plan(g, cert.plan, effects=effects,
                                    device=props.name)
            admit(compiled)
            exec_ = instantiate(compiled, GPU(props, record_timeline=False))
            graph_kes: list = []
            _collect(exec_, "launch", graph_kes, lambda r: r.kernels)
            graph = replay_plan(exec_.gpu, g, cert.plan, exec_=exec_)
            slots.append((time.perf_counter() - start, 1))
            order = cert.plan.order
            results.append({
                "item": (unit, batch, policy),
                "eager_us": eager.elapsed_us,
                "graph_us": graph.elapsed_us,
                "eager_times": _times(order, eager_kes),
                "graph_times": _times(order, graph_kes),
                "fell_back": cert.fell_back,
                "streams": cert.plan.streams_used(),
                "waits_removed": cert.waits_removed,
            })
            if not self.rounds:
                self.certs[(unit, batch, policy)] = cert
        # Checked as each round ends, so memory does not grow with rounds.
        self.failures += self._check_round(results)
        if not self.rounds:
            self.first_round = results
        self.rounds += 1
        return slots

    def _check_round(self, results: list[dict]) -> list[str]:
        out: list[str] = []
        t_launch = self.props.launch_latency_us
        serial = {}
        for r in results:
            unit, batch, policy = r["item"]
            if policy == "layer-serial":
                serial[(unit, batch)] = checks.critical_path(
                    self.units[(unit, batch)][4],
                    {n: e - s for n, (s, e) in r["eager_times"].items()})
        for r in results:
            unit, batch, policy = r["item"]
            g, _, _, _, deps = self.units[(unit, batch)]
            label = f"inception-{unit} x{batch} {policy}"
            for mode in ("eager", "graph"):
                out += checks.check_precedence(f"{label} {mode}", deps,
                                               r[f"{mode}_times"])
                out += checks.check_critical_path(
                    f"{label} {mode}", r[f"{mode}_us"], serial[(unit, batch)])
            out += checks.check_launch_bound(f"{label} eager", r["eager_us"],
                                             len(g), t_launch)
        return out

    def check(self) -> list[str]:
        out = list(self.failures)
        rng = random.Random(self.seed)
        for item, cert in sorted(self.certs.items()):
            ops = list(cert.minimized.ops)
            waits = [i for i, op in enumerate(ops) if isinstance(op, WaitEvent)]
            if waits:
                out += checks.check_wait_removal(
                    f"inception-{item[0]} x{item[1]} {item[2]}", ops,
                    rng.choice(waits), _certifies)
        return out

    def digest(self) -> dict:
        plans = {}
        for r in self.first_round:
            unit, batch, policy = r["item"]
            plans[f"{unit}/b{batch}/{policy}"] = {
                k: r[k] for k in ("eager_us", "graph_us", "fell_back",
                                  "streams", "waits_removed")}
        opara = [v for k, v in plans.items() if k.endswith("/opara")]
        return {
            "sim_plan_us": sum(v["eager_us"] for v in opara),
            "sim_replay_us": sum(v["graph_us"] for v in opara),
            "plans": dict(sorted(plans.items())),
        }


def _times(order, kernel_execs) -> dict:
    return {nid: (ke.start_time, ke.end_time)
            for nid, ke in zip(order, kernel_execs)}


def _certifies(ops: list) -> bool:
    """Would certification sign this op list?  (hazards and deadlocks)"""
    program = DispatchProgram("perfbench-mutant", ops=list(ops))
    return verdict_for(program).ok and deadlock_verdict_for(program).ok


# ----------------------------------------------------------------------
# serve-cifar10
# ----------------------------------------------------------------------

class ServeCifar10(Workload):
    """Open-loop Poisson traffic served by GLP4NN on P100.

    One operation is one request.  A round is one trace of 1000 requests
    at 6000 requests per simulated second, below saturation, with
    arrivals drawn from the seed and the round number.
    """

    name = "serve-cifar10"
    DEVICE = "P100"
    RPS = 6000.0
    REQUESTS = 1000
    SLO_US = 50_000.0
    MAX_BATCH = 8

    def setup(self) -> None:
        self.gpu = GPU(resolve_device(self.DEVICE), record_timeline=False)
        self.engine = ServingEngine(
            make_executor("glp4nn", self.gpu), resolve_net("cifar10"),
            net_name="cifar10", max_batch=self.MAX_BATCH, max_wait_us=200.0,
            queue_capacity=self.REQUESTS, seed=self.seed)
        self.engine.warm_up()
        t_launch = self.gpu.props.launch_latency_us
        self.bounds = {
            b: checks.count_kernels(self.engine.cache.works_for(b)[1])
            * t_launch for b in self.engine.cache.buckets}
        self.first_round: dict = {}
        self.failures: list[str] = []
        self.failed = 0

    def _trace(self, index: int) -> ArrivalTrace:
        rng = random.Random(self.seed * 1_000_003 + index)
        t, requests = 0.0, []
        for rid in range(self.REQUESTS):
            t += rng.expovariate(self.RPS) * 1e6
            requests.append(InferenceRequest(rid=rid, arrival_us=t,
                                             deadline_us=t + self.SLO_US))
        return ArrivalTrace(tuple(requests), kind="poisson", rps=self.RPS,
                            duration_us=t, seed=self.seed)

    def run_round(self) -> list[tuple[float, int]]:
        trace = self._trace(self.rounds)
        self.engine.slo = SLOTracker()
        start = time.perf_counter()
        report = self.engine.serve(trace)
        elapsed = time.perf_counter() - start
        records = [(r.rid, r.outcome, r.arrival_us, r.finish_us, r.batch_size)
                   for r in self.engine.slo.records]
        self.failed += sum(1 for r in records if r[1] is not Outcome.OK)
        # Checked as each round ends, so memory does not grow with rounds.
        self.failures += checks.check_serving(
            f"trace {self.rounds}", len(trace), records,
            report.latency_p50_us, report.latency_p99_us, self._bound)
        if not self.rounds:
            self.first_round = {"records": records,
                                "p50": report.latency_p50_us,
                                "p99": report.latency_p99_us,
                                "batches": report.batches}
        self.rounds += 1
        return [(elapsed, len(trace))]

    def failed_ops(self) -> int:
        return self.failed

    def _bound(self, batch: int) -> float:
        return self.bounds[self.engine.cache.bucket_for(batch)]

    def check(self) -> list[str]:
        return self.failures

    def digest(self) -> dict:
        first = self.first_round
        return {
            "sim_p50_us": first["p50"],
            "sim_p99_us": first["p99"],
            "batches": first["batches"],
            "latency_us": [None if f is None else f - a
                           for _, _, a, f, _ in first["records"]],
        }


WORKLOADS = {w.name: w for w in (TrainCifar10, ZooSweep, InteropCertify,
                                 ServeCifar10)}
