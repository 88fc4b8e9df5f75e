"""Certified sync-elision: what the pass removes, keeps, and refuses.

The certificate is the launch closure — per-stream launch sequences plus
the happens-before relation projected onto launch ordinals.  A wait is
removable iff deleting it leaves that closure bit-identical; these tests
pin the removable shapes (duplicates, barrier-implied edges, orphaned
records), the non-removable one (the only edge ordering two kernels),
and the refusal on deadlocked input.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyze.elide import (certified_minimize, launch_closure,
                                 minimize)
from repro.analyze.program import (DispatchProgram, Launch, RecordEvent,
                                   WaitEvent, happens_before)
from repro.errors import AnalyzeError


def _producer_consumer() -> DispatchProgram:
    """One live cross-stream edge: the wait is load-bearing."""
    prog = DispatchProgram("pc")
    prog.launch("a", stream=1, writes={"a"}, chain=0)
    prog.record(event=1, stream=1)
    prog.wait(event=1, stream=2)
    prog.launch("b", stream=2, reads={"a"}, writes={"b"}, chain=1)
    prog.sync()
    return prog


def test_necessary_wait_is_kept():
    result = certified_minimize(_producer_consumer())
    assert result.equivalent
    assert result.waits_removed == 0 and result.records_removed == 0
    assert result.waits_checked == 1
    assert result.minimized.name == "pc+min"
    assert len(result.minimized) == len(result.original)


def test_duplicate_wait_is_removed():
    prog = _producer_consumer()
    # re-issue the same wait right before the consumer launch (op 3)
    prog.ops.insert(3, WaitEvent(event=1, stream=2))
    result = certified_minimize(prog)
    assert result.waits_removed == 1 and result.records_removed == 0
    assert result.removed[0].reason == "implied-by-happens-before"
    assert sum(1 for op in result.minimized.ops
               if isinstance(op, WaitEvent)) == 1


def test_barrier_implied_wait_and_orphaned_record_are_removed():
    prog = DispatchProgram("barrier-implied")
    prog.launch("a", stream=1, writes={"a"}, chain=0)
    prog.record(event=1, stream=1)
    prog.sync()                        # the barrier already orders a < b
    prog.wait(event=1, stream=2)
    prog.launch("b", stream=2, reads={"a"}, writes={"b"}, chain=1)
    prog.sync()
    result = certified_minimize(prog)
    assert result.waits_removed == 1
    assert result.records_removed == 1  # record orphaned by the elision
    reasons = {r.reason for r in result.removed}
    assert reasons == {"implied-by-happens-before", "orphaned-record"}
    assert not any(isinstance(op, (WaitEvent, RecordEvent))
                   for op in result.minimized.ops)


def test_closure_certificate_is_invariant_under_elision():
    prog = _producer_consumer()
    prog.ops.insert(3, WaitEvent(event=1, stream=2))
    result = certified_minimize(prog)
    assert launch_closure(result.minimized.ops) == \
        launch_closure(result.original.ops)
    # and the per-stream launch sequences were never touched
    seqs_o, _ = launch_closure(result.original.ops)
    seqs_m, _ = launch_closure(result.minimized.ops)
    assert seqs_o == seqs_m


def test_launch_closure_shape():
    seqs, closure = launch_closure(_producer_consumer().ops)
    assert seqs == ((1, (("a", 0),)), (2, (("b", 1),)))
    assert closure == (frozenset(), frozenset({0}))  # a happens before b


def test_refuses_deadlocked_input():
    prog = DispatchProgram("dirty")
    prog.launch("a", stream=1, writes={"a"}, chain=0)
    prog.wait(event=7, stream=1)
    prog.record(event=7, stream=1)
    with pytest.raises(AnalyzeError, match="refusing to minimize"):
        minimize(prog)


def test_unclean_deadlock_verdict_does_not_bypass_the_refusal():
    from repro.analyze.deadlock import deadlock_verdict_for
    prog = DispatchProgram("dirty")
    prog.launch("a", stream=1, writes={"a"}, chain=0)
    prog.wait(event=7, stream=1)
    prog.record(event=7, stream=1)
    with pytest.raises(AnalyzeError, match="refusing to minimize"):
        minimize(prog, deadlocks=deadlock_verdict_for(prog))
    prog.allow("*")                     # suppressed is still deadlocked
    verdict = deadlock_verdict_for(prog)
    assert verdict.ok and verdict.suppressed
    with pytest.raises(AnalyzeError, match="refusing to minimize"):
        minimize(prog, deadlocks=verdict)


def test_suppression_set_carries_over_to_minimized_program():
    prog = _producer_consumer()
    prog.allow("hazard/WAW")
    result = certified_minimize(prog)
    assert result.minimized.is_allowed("hazard/WAW")


def test_elision_result_counts_round_trip():
    prog = DispatchProgram("counts")
    prog.launch("a", stream=1, writes={"a"}, chain=0)
    prog.record(event=1, stream=1)
    prog.wait(event=1, stream=2)
    prog.wait(event=1, stream=2)       # duplicate
    prog.launch("b", stream=2, reads={"a"}, writes={"b"}, chain=1)
    prog.sync()
    d = certified_minimize(prog).to_dict()
    assert d["waits_removed"] == 1 and d["records_removed"] == 0
    assert d["ops_before"] == d["ops_after"] + 1
    assert d["equivalent"] is True
    assert d["removed"][0]["kind"] == "wait"


# ----------------------------------------------------------------------
# Differential: the incremental elider against the closure-recompute
# greedy loop it replaced, kept here as the reference oracle.
# ----------------------------------------------------------------------

def _oracle_closure(ops) -> tuple:
    """Launch sequences + full happens-before projected onto ordinals."""
    hb = happens_before(list(ops))
    launch_idx = [i for i, op in enumerate(ops) if isinstance(op, Launch)]
    ordinal = {i: j for j, i in enumerate(launch_idx)}
    closure = tuple(
        frozenset(ordinal[p] for p in launch_idx if (hb[i] >> p) & 1)
        for i in launch_idx)
    by_stream: dict = {}
    for i in launch_idx:
        op = ops[i]
        by_stream.setdefault(op.stream, []).append((op.kernel, op.chain))
    return tuple((s, tuple(by_stream[s])) for s in sorted(by_stream)), closure


def _oracle_minimize(program: DispatchProgram):
    """Greedy elision recomputing the whole closure per candidate.

    Returns ``(removed, kept_ops)`` with ``removed`` as sorted
    ``(op_index, kind)`` pairs.
    """
    base = _oracle_closure(program.ops)
    kept = list(enumerate(program.ops))
    removed = []

    def without(idx):
        return [(i, o) for i, o in kept if i != idx]

    for idx, op in list(kept):
        if isinstance(op, WaitEvent):
            candidate = without(idx)
            if _oracle_closure([o for _, o in candidate]) == base:
                kept = candidate
                removed.append((idx, "wait"))
    bound, latest = set(), {}
    for idx, op in kept:
        if isinstance(op, RecordEvent):
            latest[op.event] = idx
        elif isinstance(op, WaitEvent) and op.event in latest:
            bound.add(latest[op.event])
    for idx, op in list(kept):
        if isinstance(op, RecordEvent) and idx not in bound:
            candidate = without(idx)
            if _oracle_closure([o for _, o in candidate]) == base:
                kept = candidate
                removed.append((idx, "record"))
    return sorted(removed), [o for _, o in kept]


def _assert_matches_oracle(program: DispatchProgram) -> int:
    result = minimize(program)
    removed, kept = _oracle_minimize(program)
    assert [(r.op_index, r.kind) for r in result.removed] == removed
    assert result.minimized.ops == kept
    assert result.waits_checked == sum(isinstance(op, WaitEvent)
                                       for op in program.ops)
    assert result.equivalent
    return len(removed)


@st.composite
def _programs(draw):
    """Well-formed programs: every non-default-stream wait binds to an
    earlier record.  Events are re-recorded, the default stream mixes
    barrier launches, records and waits in (a default-stream wait on a
    never-recorded event gates nothing but is legal), and host
    synchronizes join everything."""
    prog = DispatchProgram("random")
    recorded: list[int] = []
    streams = st.sampled_from((0,) + (1, 2, 3) * 6)
    kinds = st.sampled_from(
        ("launch",) * 12 + ("record",) * 6 + ("wait",) * 8 + ("sync",))
    for k in range(draw(st.integers(1, 64))):
        kind, stream = draw(kinds), draw(streams)
        if kind == "launch":
            prog.launch(f"k{k}", stream=stream, chain=k)
        elif kind == "record":
            event = draw(st.integers(0, 7))
            prog.record(event=event, stream=stream)
            recorded.append(event)
        elif kind == "wait" and stream == 0:
            prog.wait(event=draw(st.integers(0, 9)), stream=0)
        elif kind == "wait" and recorded:
            prog.wait(event=draw(st.sampled_from(recorded)), stream=stream)
        else:
            prog.sync()
    return prog


def _from_shorthand(text: str) -> DispatchProgram:
    """``L<s>`` launch, ``R<e>@<s>`` record, ``W<e>@<s>`` wait, ``S`` sync."""
    prog = DispatchProgram(text)
    for k, tok in enumerate(text.split()):
        if tok == "S":
            prog.sync()
        elif tok[0] == "L":
            prog.launch(f"k{k}", stream=int(tok[1:]), chain=k)
        else:
            event, stream = map(int, tok[1:].split("@"))
            (prog.record if tok[0] == "R" else prog.wait)(event, stream)
    return prog


@pytest.mark.parametrize("text, removed", [
    # An accepted removal changes the masks of later non-launch ops; a
    # later candidate must see the updated masks, or the second barrier
    # looks redundant too.
    ("L2 W0@0 R0@1 W0@0 L1", [(1, "wait")]),
    # A rejected candidate must leave the masks it re-swept untouched.
    ("L1 R0@1 R0@1 L1 L1 L1 L1 W0@2 R0@2 W0@1 L2",
     [(1, "record"), (8, "record"), (9, "wait")]),
])
def test_elider_matches_oracle_on_known_shapes(text, removed):
    program = _from_shorthand(text)
    assert _oracle_minimize(program)[0] == removed
    _assert_matches_oracle(program)


@settings(max_examples=300, deadline=None)
@given(_programs())
def test_incremental_elider_matches_closure_recompute_oracle(program):
    _assert_matches_oracle(program)


def test_elider_matches_oracle_on_every_inception_plan():
    from repro.interop.certify import plan_program, structural_effects
    from repro.interop.planner import PLAN_POLICIES, build_plan
    from repro.interop.resources import estimate_graph, suggest_pool_size
    from repro.interop.workloads import inception_unit
    from repro.serve.engine import resolve_device

    props = resolve_device("p100")
    plans = removed = 0
    for unit in ("5a", "5b"):
        for batch in (1, 2, 4, 8, 16):
            workload = inception_unit(unit, batch)
            graph = workload.graph
            estimates = estimate_graph(graph, props)
            effects = structural_effects(graph, in_place=workload.in_place)
            streams = suggest_pool_size(graph, props)
            for policy in PLAN_POLICIES:
                plan = build_plan(graph, policy, streams, device=props,
                                  estimates=estimates)
                removed += _assert_matches_oracle(
                    plan_program(graph, plan, effects))
                plans += 1
    assert plans == 40
    assert removed > 0   # the comparison exercised real removals
