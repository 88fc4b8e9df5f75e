"""Hazard certification of stream plans (no plan executes unsigned).

An inter-operator plan moves kernels onto streams the chain-affine
dispatcher never used, so the convergence-invariance guarantee rests
entirely on the plan's event structure.  This module closes that loop
with the PR-5 machinery, exactly as graph admission
(:mod:`repro.graphs.admission`) does for captured graphs: every
:class:`~repro.interop.planner.StreamPlan` lowers to a
:class:`repro.analyze.program.DispatchProgram` and the stream-hazard
race detector (:func:`repro.analyze.hazards.detect`) must certify that
every conflicting kernel pair is ordered by happens-before — under all
interleavings the engine could produce, not just the one the planner
imagined.

Rejection is not fatal: :func:`certify` walks a fallback ladder.  The
requested policy is lowered and checked first; if the detector finds
hazards the plan is discarded and the chain-affine baseline is certified
instead; should *that* somehow fail, layer-serial closes the ladder —
a single stream ending in a ``synchronize`` is a total order and always
certifies.  The plan that comes back therefore always carries
``certified=True``, with ``fallback_from``/``hazards`` recording what
was rejected on the way.

Memory effects are structural, as in
:func:`repro.analyze.plans.program_from_graph`: node ``i`` writes
``n{i}`` and reads its dependencies' regions.  Nodes named in
``in_place`` (Concat/Eltwise joins that write into a shared output the
branches also populate) additionally *write* their dependencies'
regions, which is what makes an unsynchronized join a WAR/WAW hazard
rather than a silent corruption.

``drop_waits`` poisons the requested policy's lowering by omitting its
cross-stream ``wait`` ops — the same mutation axis as the PR-5
sync-deletion mutants — so tests and the CLI's ``--inject-hazard`` flag
can prove the fallback path is live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.analyze.capacity import CapacityFinding, check_capacity
from repro.analyze.deadlock import DeadlockVerdict, deadlock_verdict_for
from repro.analyze.elide import ElisionResult, certified_minimize
from repro.analyze.hazards import ProgramVerdict, verdict_for
from repro.analyze.program import DispatchProgram, HBIndex
from repro.errors import AnalyzeError
from repro.interop.planner import StreamPlan, build_plan
from repro.runtime.graph import KernelGraph

#: Effects: node id -> (reads, writes) region sets.
Effects = dict[int, tuple[frozenset, frozenset]]


def structural_effects(graph: KernelGraph,
                       in_place: Iterable[int] = ()) -> Effects:
    """Memory effects the DAG itself encodes, node by node.

    Node ``i`` writes ``n{i}`` and reads ``n{d}`` for each dependency
    ``d``.  An ``in_place`` node also writes its dependencies' regions —
    the model of a Concat/Eltwise join assembling its output inside the
    branch buffers.
    """
    in_place = set(in_place)
    effects: Effects = {}
    for node in graph.nodes:
        reads = frozenset(f"n{d}" for d in node.deps)
        writes = {f"n{node.node_id}"}
        if node.node_id in in_place:
            writes.update(reads)
        effects[node.node_id] = (reads, frozenset(writes))
    return effects


def plan_program(graph: KernelGraph, plan: StreamPlan,
                 effects: Optional[Effects] = None,
                 drop_waits: bool = False) -> DispatchProgram:
    """Lower ``plan`` to the PR-5 hazard IR.

    Generalizes :func:`repro.analyze.plans.program_from_graph` to an
    explicit assignment and launch order: plan slot ``s`` becomes program
    stream ``s + 1`` (0 stays the legacy default stream), cross-stream
    dependency edges become event record/wait pairs, and the program ends
    in the ``synchronize`` the caller issues anyway.  ``drop_waits``
    omits the wait ops — a poisoned lowering for fallback testing.
    """
    effects = effects or structural_effects(graph)
    dependents = graph.dependents()
    prog = DispatchProgram(f"interop:{graph.name}/{plan.policy}")
    recorded: set[int] = set()
    for nid in plan.order:
        node = graph._nodes[nid]
        slot = plan.assignment[nid]
        if not drop_waits:
            for d in node.deps:
                if plan.assignment[d] != slot and d in recorded:
                    prog.wait(event=d, stream=slot + 1)
        reads, writes = effects[nid]
        prog.launch(node.spec.name or f"n{nid}", stream=slot + 1,
                    reads=reads, writes=writes,
                    layer=graph.name, chain=nid)
        if any(plan.assignment[c] != slot for c in dependents[nid]):
            prog.record(event=nid, stream=slot + 1)
            recorded.add(nid)
    prog.sync(label=graph.name)
    return prog


@dataclass
class Certification:
    """Outcome of the certification ladder for one requested plan."""

    plan: StreamPlan                   # the certified plan (always ok)
    program: DispatchProgram           # its certified lowering
    verdicts: list[ProgramVerdict] = field(default_factory=list)
    deadlocks: list[DeadlockVerdict] = field(default_factory=list)
    elision: Optional[ElisionResult] = None
    capacity: list[CapacityFinding] = field(default_factory=list)

    @property
    def fell_back(self) -> bool:
        return bool(self.plan.fallback_from)

    @property
    def minimized(self) -> DispatchProgram:
        """The elided lowering (the original when elision is off/failed)."""
        return self.elision.minimized if self.elision else self.program

    @property
    def waits_removed(self) -> int:
        return self.elision.waits_removed if self.elision else 0

    def to_dict(self) -> dict:
        return {
            "plan": self.plan.to_dict(),
            "attempts": [v.to_dict() for v in self.verdicts],
            "deadlocks": [v.to_dict() for v in self.deadlocks],
            "elision": self.elision.to_dict() if self.elision else None,
            "capacity": [f.to_dict() for f in self.capacity],
        }


def certify(graph: KernelGraph, plan: StreamPlan,
            effects: Optional[Effects] = None,
            drop_waits: bool = False,
            device=None,
            minimize: bool = True,
            estimates=None) -> Certification:
    """Certify ``plan``, falling back down the ladder on rejection.

    The ladder is requested policy → chain-affine → layer-serial; the
    ``drop_waits`` poison applies only to the requested policy's
    lowering, so a poisoned opara plan honestly falls back to a *clean*
    chain-affine lowering.  ``device`` is only needed if the requested
    policy is ``opara`` and the plan must be rebuilt (it never is — the
    plan is passed in — but fallback plans are built here).

    Each candidate must pass **both** PR-5 race detection and the
    strict-semantics deadlock check (:mod:`repro.analyze.deadlock`)
    before it certifies.  The winning lowering then runs through
    certified sync-elision (``minimize``, on by default) — the
    transitive-reduction pass whose certificate guarantees an identical
    launch closure — and, when per-kernel ``estimates``
    (:func:`repro.interop.resources.estimate_graph`) are supplied,
    through the static over-subscription check, whose warnings land in
    ``Certification.capacity`` without blocking the plan.

    Each candidate's happens-before index
    (:class:`~repro.analyze.program.HBIndex`) is built once and read by
    the race detector, sync-elision and the capacity check; elision
    reuses the clean deadlock verdict instead of re-running the check.
    """
    effects = effects or structural_effects(graph)
    verdicts: list[ProgramVerdict] = []
    deadlocks: list[DeadlockVerdict] = []
    candidates: list[tuple[StreamPlan, bool]] = [(plan, drop_waits)]
    for policy in ("chain-affine", "layer-serial"):
        if policy != plan.policy:
            candidates.append(
                (build_plan(graph, policy, plan.num_streams, device=device),
                 False))
    rejected_policy = ""
    rejected_hazards = 0
    for cand, poisoned in candidates:
        prog = plan_program(graph, cand, effects, drop_waits=poisoned)
        index = HBIndex.build(prog.ops)
        verdict = verdict_for(prog, network=graph.name, plan=cand.policy,
                              index=index)
        verdicts.append(verdict)
        dl = deadlock_verdict_for(prog, network=graph.name,
                                  plan=cand.policy)
        deadlocks.append(dl)
        if verdict.ok and dl.ok:
            cand.certified = True
            cand.fallback_from = rejected_policy
            cand.hazards = rejected_hazards
            elision: Optional[ElisionResult] = None
            if minimize:
                try:
                    elision = certified_minimize(prog, index=index,
                                                 deadlocks=dl)
                except AnalyzeError:
                    elision = None   # optimization only, never a gate
            fills = ({nid: e.fill for nid, e in estimates.items()}
                     if estimates else None)
            capacity = check_capacity(prog, fills=fills, device=device,
                                      index=index)
            return Certification(plan=cand, program=prog,
                                 verdicts=verdicts, deadlocks=deadlocks,
                                 elision=elision, capacity=capacity)
        if not rejected_policy:
            rejected_policy = cand.policy
            rejected_hazards = len(verdict.hazards) + len(dl.findings)
    # Unreachable in practice: layer-serial is a total order.
    raise AssertionError(
        f"graph {graph.name!r}: even the layer-serial plan failed "
        "certification — the effects model is inconsistent")
