"""End-to-end tests for the serving engine and its CLI-facing helpers."""

import pytest

from repro.errors import ReproError
from repro.faults import FaultPlan, FaultSpec, chaos_session
from repro.gpusim import GPU
from repro.runtime.executor import GLP4NNExecutor, NaiveExecutor
from repro.serve import (
    ArrivalTrace,
    ServingEngine,
    make_executor,
    poisson_trace,
    resolve_device,
    resolve_net,
    serve_trace,
)
from repro.serve.engine import SERVE_NETS


DEVICE = "p100"


def small_trace(rps=5_000.0, duration_us=4_000.0, slo_us=3_000.0, seed=3):
    return poisson_trace(rps=rps, duration_us=duration_us, slo_us=slo_us,
                         seed=seed)


def lenet_engine(executor_kind="naive", **kwargs):
    gpu = GPU(resolve_device(DEVICE), record_timeline=False)
    executor = make_executor(executor_kind, gpu)
    kwargs.setdefault("max_batch", 4)
    kwargs.setdefault("max_wait_us", 150.0)
    return ServingEngine(executor, resolve_net("lenet"), net_name="lenet",
                         **kwargs)


class TestResolvers:
    def test_resolve_net_case_insensitive(self):
        assert resolve_net("LeNet") is SERVE_NETS["lenet"]
        assert resolve_net("CIFAR10") is SERVE_NETS["cifar10"]

    def test_resolve_net_unknown(self):
        with pytest.raises(ReproError, match="unknown network"):
            resolve_net("resnet152")

    def test_resolve_device_cli_spellings(self):
        assert resolve_device("titan-xp").name == "TitanXP"
        assert resolve_device("p100").name == "P100"
        assert resolve_device("TitanXP").name == "TitanXP"

    def test_make_executor_kinds(self):
        gpu = GPU(resolve_device(DEVICE), record_timeline=False)
        assert isinstance(make_executor("naive", gpu), NaiveExecutor)
        assert isinstance(make_executor("glp4nn", gpu), GLP4NNExecutor)
        with pytest.raises(ReproError, match="unknown executor"):
            make_executor("cudnn", gpu)


class TestServingEngine:
    def test_every_request_accounted_exactly_once(self):
        trace = small_trace()
        engine = lenet_engine()
        report = engine.serve(trace)
        assert report.requests == len(trace)
        assert report.requests == (report.ok + report.late
                                   + report.shed_queue
                                   + report.shed_admission + report.failed)
        rids = sorted(r.rid for r in engine.slo.records)
        assert rids == [r.rid for r in trace]

    def test_each_serve_call_reports_only_its_own_trace(self):
        engine = lenet_engine(queue_capacity=256)
        reports = []
        for n, seed in ((98, 1), (80, 2)):
            trace = small_trace(rps=20_000.0, duration_us=20_000.0,
                                slo_us=50_000.0, seed=seed)
            trace = ArrivalTrace(trace.requests[:n], kind=trace.kind,
                                 rps=trace.rps,
                                 duration_us=trace.duration_us,
                                 seed=trace.seed)
            assert len(trace) == n
            reports.append(engine.serve(trace))
            assert sorted(r.rid for r in engine.slo.records) == \
                [r.rid for r in trace]
        assert [r.requests for r in reports] == [98, 80]
        for report in reports:
            assert report.requests == (report.ok + report.late
                                       + report.shed_queue
                                       + report.shed_admission
                                       + report.failed)
            assert report.batches <= report.requests
            assert report.extra["queue_high_water"] <= report.requests
        assert reports[1].mean_batch * reports[1].batches == \
            pytest.approx(80 - reports[1].shed_queue
                          - reports[1].shed_admission)

    def test_scheduler_keeps_only_one_calls_layer_runs(self):
        # A long-lived engine must not accumulate every LayerRun it ever
        # made: after each serve() the scheduler holds exactly the runs of
        # that call (the first call's warmup included).
        engine = lenet_engine("glp4nn")
        executor = engine.executor
        calls = {"n": 0}
        run = executor.run

        def counting(work):
            calls["n"] += 1
            return run(work)

        executor.run = counting
        for seed in (3, 4, 5):
            calls["n"] = 0
            engine.serve(small_trace(seed=seed))
            assert len(executor.scheduler.runs) == calls["n"] > 0

    def test_no_wall_clock_no_failures_on_clean_run(self):
        report = lenet_engine().serve(small_trace())
        assert report.failed == 0
        assert report.extra["failed_batches"] == 0
        assert report.makespan_us > 0
        assert report.batches > 0
        assert 1.0 <= report.mean_batch <= 4.0

    def test_warmup_excluded_and_estimate_seeded(self):
        engine = lenet_engine()
        engine.warm_up()
        assert engine.service_estimate_us is not None
        assert engine.service_estimate_us > 0
        before = engine.gpu.host_time
        engine.serve(small_trace())
        # warm_up() is idempotent: serving did not re-profile the buckets.
        assert engine.cache.lowerings == len(engine.cache.buckets)
        assert engine.gpu.host_time > before

    def test_no_warmup_still_serves(self):
        report = lenet_engine(warmup=False, slo_admission=False).serve(
            small_trace())
        assert report.requests > 0
        assert report.failed == 0
        # Lowering happened lazily, only for the shapes actually served.
        assert 1 <= report.lowerings <= 3

    def test_same_seed_identical_reports(self):
        runs = [serve_trace("lenet", DEVICE, "glp4nn", small_trace(),
                            max_batch=4, seed=5) for _ in range(2)]
        assert runs[0].render() == runs[1].render()
        assert runs[0].to_json() == runs[1].to_json()

    def test_overload_sheds_instead_of_collapsing(self):
        # A tiny queue under heavy load: requests are shed, never lost.
        trace = small_trace(rps=50_000.0, duration_us=3_000.0, slo_us=500.0)
        report = lenet_engine(queue_capacity=4).serve(trace)
        assert report.shed_queue + report.shed_admission > 0
        assert report.requests == len(trace)

    def test_rejects_bad_ewma_alpha(self):
        with pytest.raises(ReproError, match="alpha"):
            lenet_engine(ewma_alpha=0.0)


class TestServingUnderFaults:
    def test_unrecoverable_fault_fails_batches_not_the_engine(self):
        engine = lenet_engine(slo_admission=False, queue_capacity=256)
        engine.warm_up()
        trace = small_trace(rps=3_000.0, duration_us=3_000.0)
        # Every launch fails transiently from here on: retries exhaust,
        # each batch degrades past recovery and is failed as a unit.
        plan = FaultPlan((FaultSpec(site="launch", kind="transient"),),
                         seed=0)
        with chaos_session(plan):
            report = engine.serve(trace)
        assert report.failed == report.requests > 0
        assert report.extra["failed_batches"] == report.batches > 0

    def test_stream_pool_fault_degrades_to_serial_but_completes(self):
        engine = lenet_engine("glp4nn", slo_admission=False)
        trace = small_trace(rps=2_000.0, duration_us=3_000.0,
                            slo_us=50_000.0)
        plan = FaultPlan((FaultSpec(site="stream_create",
                                    kind="persistent"),), seed=0)
        with chaos_session(plan):
            report = engine.serve(trace)
        # Pool creation fails, dispatch falls back to serial: slower,
        # degraded, but every request still completes.
        assert report.failed == 0
        assert report.ok + report.late == report.requests > 0
        assert report.degraded_layers > 0
        # A clean trace afterwards does not inherit the degraded runs.
        assert engine.serve(trace).degraded_layers == 0
