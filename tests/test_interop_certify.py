"""Hazard certification: clean plans sign, poisoned plans fall back."""

import pytest

from repro.analyze.program import Launch, RecordEvent, SyncAll, WaitEvent
from repro.interop.certify import (
    certify,
    plan_program,
    structural_effects,
)
from repro.interop.planner import PLAN_POLICIES, build_plan
from repro.interop.report import run_interop_session
from repro.interop.workloads import inception_unit, single_branch
from repro.serve.engine import resolve_device

P100 = resolve_device("p100")


@pytest.fixture(scope="module")
def unit():
    return inception_unit("5a", batch=2)


@pytest.fixture(scope="module")
def effects(unit):
    return structural_effects(unit.graph, in_place=unit.in_place)


class TestStructuralEffects:
    def test_node_writes_own_region_reads_deps(self, unit, effects):
        node = next(n for n in unit.graph.nodes if n.deps)
        reads, writes = effects[node.node_id]
        assert reads == frozenset(f"n{d}" for d in node.deps)
        if node.node_id not in unit.in_place:
            assert writes == frozenset({f"n{node.node_id}"})

    def test_in_place_join_also_writes_dep_regions(self, unit, effects):
        join = next(iter(unit.in_place))
        reads, writes = effects[join]
        assert reads <= writes          # concat assembles in the branches
        assert f"n{join}" in writes


class TestPlanProgram:
    def test_streams_are_slot_plus_one(self, unit, effects):
        plan = build_plan(unit.graph, "round-robin", 3)
        prog = plan_program(unit.graph, plan, effects)
        launch_streams = {op.stream for op in prog.ops
                          if isinstance(op, Launch)}
        assert launch_streams == {1, 2, 3}    # 0 = default stream, unused

    def test_ends_in_synchronize(self, unit, effects):
        plan = build_plan(unit.graph, "layer-serial", 1)
        prog = plan_program(unit.graph, plan, effects)
        assert isinstance(prog.ops[-1], SyncAll)

    def test_cross_edges_get_record_wait_pairs(self, unit, effects):
        plan = build_plan(unit.graph, "round-robin", 3)
        prog = plan_program(unit.graph, plan, effects)
        assert any(isinstance(op, RecordEvent) for op in prog.ops)
        assert any(isinstance(op, WaitEvent) for op in prog.ops)

    def test_drop_waits_removes_every_wait(self, unit, effects):
        plan = build_plan(unit.graph, "round-robin", 3)
        prog = plan_program(unit.graph, plan, effects, drop_waits=True)
        assert not any(isinstance(op, WaitEvent) for op in prog.ops)


class TestCertifyClean:
    @pytest.mark.parametrize("policy", PLAN_POLICIES)
    def test_every_policy_certifies(self, unit, effects, policy):
        plan = build_plan(unit.graph, policy, 4, device=P100)
        cert = certify(unit.graph, plan, effects=effects, device=P100)
        assert cert.plan.certified
        assert not cert.fell_back
        assert cert.plan.policy == policy
        assert len(cert.verdicts) == 1       # first attempt passed

    def test_single_branch_certifies_without_in_place(self):
        wl = single_branch(batch=2)
        plan = build_plan(wl.graph, "opara", 2, device=P100)
        cert = certify(wl.graph, plan,
                       effects=structural_effects(wl.graph), device=P100)
        assert cert.plan.certified and not cert.fell_back


class TestSharedAnalysis:
    def test_deadlock_check_runs_once_per_candidate(self, unit, effects,
                                                    monkeypatch):
        import repro.analyze.deadlock as deadlock
        calls = []
        real = deadlock.detect_deadlocks

        def counting(program):
            calls.append(program.name)
            return real(program)

        monkeypatch.setattr(deadlock, "detect_deadlocks", counting)
        plan = build_plan(unit.graph, "round-robin", 4, device=P100)
        cert = certify(unit.graph, plan, effects=effects, device=P100)
        assert cert.waits_removed > 0           # elision really ran
        assert calls == [cert.program.name]     # the verdict was reused

    def test_shared_index_gives_the_standalone_verdicts(self):
        from repro.analyze.capacity import check_capacity
        from repro.analyze.elide import certified_minimize
        from repro.interop.resources import estimate_graph, suggest_pool_size
        wl = inception_unit("5b", batch=8)
        estimates = estimate_graph(wl.graph, P100)
        fills = {nid: e.fill for nid, e in estimates.items()}
        streams = suggest_pool_size(wl.graph, P100)
        removed = findings = 0
        for policy in ("round-robin", "opara"):
            plan = build_plan(wl.graph, policy, streams, device=P100,
                              estimates=estimates)
            cert = certify(wl.graph, plan, device=P100,
                           effects=structural_effects(
                               wl.graph, in_place=wl.in_place),
                           estimates=estimates)
            alone = certified_minimize(cert.program)
            assert cert.elision.removed == alone.removed
            assert cert.elision.minimized.ops == alone.minimized.ops
            assert cert.capacity == check_capacity(
                cert.program, fills=fills, device=P100)
            removed += len(alone.removed)
            findings += len(cert.capacity)
        assert removed and findings      # both passes had work to do


class TestFallbackLadder:
    def test_poisoned_plan_falls_back_to_chain_affine(self, unit, effects):
        plan = build_plan(unit.graph, "opara", 4, device=P100)
        assert plan.cross_edges(unit.graph) > 0    # poison has teeth
        cert = certify(unit.graph, plan, effects=effects,
                       drop_waits=True, device=P100)
        assert cert.fell_back
        assert cert.plan.policy == "chain-affine"
        assert cert.plan.fallback_from == "opara"
        assert cert.plan.hazards > 0
        assert cert.plan.certified
        # both the rejection and the acceptance are on record
        assert [v.ok for v in cert.verdicts] == [False, True]

    def test_poisoned_chain_affine_falls_back_to_layer_serial(
            self, unit, effects):
        plan = build_plan(unit.graph, "chain-affine", 4)
        cert = certify(unit.graph, plan, effects=effects,
                       drop_waits=True, device=P100)
        assert cert.plan.policy == "layer-serial"
        assert cert.plan.fallback_from == "chain-affine"

    def test_poison_is_harmless_without_cross_edges(self, unit, effects):
        # layer-serial has no cross-stream edges, so dropping waits
        # changes nothing and the plan certifies as itself.
        plan = build_plan(unit.graph, "layer-serial", 1)
        cert = certify(unit.graph, plan, effects=effects,
                       drop_waits=True, device=P100)
        assert cert.plan.policy == "layer-serial"
        assert not cert.fell_back


class TestSessionHazardInjection:
    def test_injected_session_reports_ok_only_via_fallback(self):
        report = run_interop_session(action="plan", unit="5a", batch=2,
                                     streams=4, inject_hazard=True)
        assert report.ok
        poisoned = [e for e in report.entries if e.cross_edges > 0]
        assert poisoned
        assert all(e.fell_back for e in poisoned)

    def test_clean_session_has_no_fallbacks(self):
        report = run_interop_session(action="plan", unit="5a", batch=2,
                                     streams=4)
        assert report.ok
        assert not any(e.fell_back for e in report.entries)
        assert all(e.plan.certified for e in report.entries)
