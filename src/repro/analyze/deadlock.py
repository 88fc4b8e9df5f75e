"""Static deadlock detection over dispatch programs.

The happens-before fold in :mod:`repro.analyze.program` deliberately
mirrors the engine's *permissive* CUDA semantics: a wait on an event
with no prior record gates nothing, so a mis-ordered record/wait pair
silently loses its edge instead of hanging.  That permissiveness is
exactly what makes such bugs invisible to the race detector — the plan
"runs", just without the synchronization its author intended.

This module checks the *strict* semantics the plan author meant: every
``WaitEvent`` must be satisfiable by a record, and satisfying all waits
must not require a cyclic schedule.  Each wait is classified by its
binding:

* a record of the same event issued **before** the wait → a normal
  backward edge (the engine wires this one too);
* no prior record but a record issued **later** → the wait can only be
  satisfied by a record that the dispatch order places after it — a
  ``deadlock/record-after-wait`` ordering bug.  The forward edge
  (wait depends on the later record) joins cycle detection, because on
  a driver with strict stream-wait semantics it *is* a dependency;
* no record at all → ``deadlock/never-recorded``: the wait is dead
  (permissive) or hangs forever (strict).

Cycle detection runs over the direct-dependency graph (stream FIFO,
default-stream barriers, ``synchronize`` joins, backward bindings) plus
the forward edges.  Every cycle is reported with a minimal witness — the
shortest op cycle through the offending wait, in the same
kernel/stream/op-index shape as the PR5 hazard witnesses — under
``deadlock/self-wait`` when the cycle never leaves one stream (the
pool-of-1 degeneration) or ``deadlock/cycle`` otherwise.

A program with **no findings** is certified deadlock-free for strict
semantics, which implies the permissive engine executes every intended
edge; :mod:`repro.graphs.admission` and :mod:`repro.interop.certify`
require that certificate before replay.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.analyze.plans import ZOO_NETWORKS, build_programs
from repro.analyze.program import (DEFAULT_STREAM, DispatchOp,
                                   DispatchProgram, HBState, Launch,
                                   RecordEvent, SyncAll, WaitEvent)

#: Rule ids emitted by this detector (also SARIF rule ids).
DEADLOCK_RULES = ("deadlock/cycle", "deadlock/self-wait",
                  "deadlock/record-after-wait", "deadlock/never-recorded")


@dataclass(frozen=True)
class CycleOp:
    """One op on a deadlock cycle witness."""

    op_index: int
    kind: str       # "launch" | "sync" | "record" | "wait"
    stream: int
    event: int = -1
    kernel: str = ""
    layer: str = ""

    def describe(self) -> str:
        if self.kind == "launch":
            where = self.layer or self.kernel
            return f"op {self.op_index}: launch {self.kernel} ({where}) on stream {self.stream}"
        if self.kind == "sync":
            return f"op {self.op_index}: synchronize"
        return (f"op {self.op_index}: {self.kind} event {self.event} "
                f"on stream {self.stream}")

    def to_dict(self) -> dict:
        d = {"op_index": self.op_index, "kind": self.kind,
             "stream": self.stream}
        if self.event >= 0:
            d["event"] = self.event
        if self.kernel:
            d["kernel"] = self.kernel
        if self.layer:
            d["layer"] = self.layer
        return d


@dataclass(frozen=True)
class DeadlockFinding:
    """One unsatisfiable or mis-ordered wait: the minimal cycle witness."""

    rule: str                  # one of DEADLOCK_RULES
    wait_index: int            # op index of the offending WaitEvent
    event: int
    stream: int
    cycle: tuple[CycleOp, ...]  # minimal op cycle; empty when acyclic
    missing: str               # the fix, human-readable

    def describe(self) -> str:
        head = (f"[{self.rule}] wait on event {self.event} "
                f"(stream {self.stream}, op {self.wait_index})")
        if self.cycle:
            loop = " -> ".join(c.describe() for c in self.cycle)
            return f"{head}: cycle {loop} -> (back to start); {self.missing}"
        return f"{head}: {self.missing}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule, "wait_index": self.wait_index,
            "event": self.event, "stream": self.stream,
            "cycle": [c.to_dict() for c in self.cycle],
            "missing": self.missing,
        }


def _cycle_op(ops: Sequence[DispatchOp], i: int) -> CycleOp:
    op = ops[i]
    if isinstance(op, Launch):
        return CycleOp(op_index=i, kind="launch", stream=op.stream,
                       kernel=op.kernel, layer=op.layer)
    if isinstance(op, SyncAll):
        return CycleOp(op_index=i, kind="sync", stream=DEFAULT_STREAM)
    kind = "record" if isinstance(op, RecordEvent) else "wait"
    return CycleOp(op_index=i, kind=kind, stream=op.stream, event=op.event)


def direct_dependencies(
        ops: Sequence[DispatchOp],
) -> tuple[list[set[int]], dict[int, Optional[int]]]:
    """Strict-semantics direct dependency edges, plus wait bindings.

    Returns ``(deps, bindings)`` where ``deps[i]`` is the set of op
    indices op ``i`` directly depends on, and ``bindings`` maps each
    ``WaitEvent`` index to the record index it binds to (the latest
    prior record, else the earliest later record, else ``None``).
    Forward bindings contribute the edge that makes mis-ordered
    record/wait pairs cyclic under strict semantics; every other edge is
    the happens-before fold's own (:class:`HBState`).
    """
    record_sites: dict[int, list[int]] = {}
    for i, op in enumerate(ops):
        if isinstance(op, RecordEvent):
            record_sites.setdefault(op.event, []).append(i)

    deps: list[set[int]] = []
    bindings: dict[int, Optional[int]] = {}
    state = HBState()
    for i, op in enumerate(ops):
        bind: Optional[int] = None
        if isinstance(op, WaitEvent) and op.stream != DEFAULT_STREAM:
            bind = state.records.get(op.event)
            if bind is None:
                later = [r for r in record_sites.get(op.event, ()) if r > i]
                bind = later[0] if later else None
            bindings[i] = bind
        preds = set(state.step(i, op))
        if bind is not None:
            preds.add(bind)
        preds.discard(i)
        deps.append(preds)
    return deps, bindings


def _shortest_cycle(deps: list[set[int]], wait: int,
                    bind: int) -> list[int]:
    """Shortest dependency cycle through the edge ``wait -> bind``.

    BFS from ``bind`` along dependency edges back to ``wait``; the
    returned index list starts at the wait and follows "depends-on"
    direction.  Empty when the forward edge closes no cycle.
    """
    parent: dict[int, int] = {bind: -1}
    queue = deque([bind])
    while queue:
        cur = queue.popleft()
        if cur == wait:
            path = [cur]
            while parent[path[-1]] != -1:
                path.append(parent[path[-1]])
            path.reverse()          # bind ... wait in depends-on order
            return [wait] + path[:-1]
        for nxt in sorted(deps[cur]):
            if nxt not in parent:
                parent[nxt] = cur
                queue.append(nxt)
    return []


def detect_deadlocks(program: DispatchProgram) -> list[DeadlockFinding]:
    """All deadlock findings for ``program`` under strict wait semantics.

    Findings suppressed by the program's ``allow`` set are *not*
    filtered here — use :func:`deadlock_verdict_for` for the counted
    variant (mirrors ``hazards.detect`` vs ``verdict_for``).
    """
    ops = program.ops
    deps, bindings = direct_dependencies(ops)
    findings: list[DeadlockFinding] = []
    for i, op in enumerate(ops):
        if not isinstance(op, WaitEvent) or op.stream == DEFAULT_STREAM:
            continue
        bind = bindings.get(i)
        if bind is None:
            findings.append(DeadlockFinding(
                rule="deadlock/never-recorded", wait_index=i,
                event=op.event, stream=op.stream, cycle=(),
                missing=(f"event {op.event} is never recorded; the wait "
                         f"gates nothing under permissive CUDA semantics "
                         f"and hangs forever under strict semantics — "
                         f"record the event or drop the wait"),
            ))
            continue
        if bind < i:
            continue  # normal backward binding: satisfiable, acyclic
        cycle_idx = _shortest_cycle(deps, i, bind)
        if cycle_idx:
            streams = {c.stream for c in
                       (_cycle_op(ops, j) for j in cycle_idx)}
            rule = ("deadlock/self-wait" if len(streams) == 1
                    else "deadlock/cycle")
            missing = (
                f"satisfying the wait requires the record at op {bind}, "
                f"which transitively waits on the wait itself; break the "
                f"cycle by recording event {op.event} before op {i} or "
                f"removing one edge of the loop"
            )
            findings.append(DeadlockFinding(
                rule=rule, wait_index=i, event=op.event, stream=op.stream,
                cycle=tuple(_cycle_op(ops, j) for j in cycle_idx),
                missing=missing,
            ))
        else:
            findings.append(DeadlockFinding(
                rule="deadlock/record-after-wait", wait_index=i,
                event=op.event, stream=op.stream,
                cycle=(_cycle_op(ops, i), _cycle_op(ops, bind)),
                missing=(f"the only record of event {op.event} (op {bind}) "
                         f"is issued after the wait; the engine silently "
                         f"drops the edge — move the record before the "
                         f"wait to get the intended ordering"),
            ))
    findings.sort(key=lambda f: (f.wait_index, f.rule))
    return findings


@dataclass
class DeadlockVerdict:
    """Deadlock verdict for one program (one network × plan × context)."""

    program: str
    network: str
    plan: str
    ops: int
    waits: int
    findings: list[DeadlockFinding] = field(default_factory=list)
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "program": self.program, "network": self.network,
            "plan": self.plan, "ops": self.ops, "waits": self.waits,
            "ok": self.ok, "suppressed": self.suppressed,
            "findings": [f.to_dict() for f in self.findings],
        }


@dataclass
class DeadlockReport:
    """Outcome of one ``repro analyze deadlock`` pass."""

    device: str
    pool_size: int
    batch: int
    seed: int
    entries: list[DeadlockVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def finding_count(self) -> int:
        return sum(len(e.findings) for e in self.entries)

    @property
    def suppressed(self) -> int:
        return sum(e.suppressed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "kind": "deadlock-report",
            "device": self.device, "pool_size": self.pool_size,
            "batch": self.batch, "seed": self.seed, "ok": self.ok,
            "findings": self.finding_count, "suppressed": self.suppressed,
            "entries": [e.to_dict() for e in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)

    def save(self, path: Union[str, Path]) -> str:
        p = Path(path)
        p.write_text(self.to_json() + "\n", encoding="utf-8")
        return str(p)

    def render(self) -> str:
        lines = []
        for e in self.entries:
            status = "OK" if e.ok else f"{len(e.findings)} finding(s)"
            lines.append(f"  {e.program}: {e.waits} wait(s) over "
                         f"{e.ops} op(s) — {status}")
            for f in e.findings[:10]:
                lines.append(f"    {f.describe()}")
            if len(e.findings) > 10:
                lines.append(f"    ... and {len(e.findings) - 10} more")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"analyze deadlock: {verdict} ({len(self.entries)} program(s), "
            f"{self.finding_count} finding(s), {self.suppressed} "
            f"suppressed; device {self.device}, pool {self.pool_size}, "
            f"batch {self.batch}, seed {self.seed})")
        return "\n".join(lines)


def deadlock_verdict_for(program: DispatchProgram, network: str = "",
                         plan: str = "") -> DeadlockVerdict:
    """Run the detector over one program, applying the suppression set."""
    kept: list[DeadlockFinding] = []
    suppressed = 0
    for f in detect_deadlocks(program):
        if program.is_allowed(f.rule):
            suppressed += 1
        else:
            kept.append(f)
    waits = sum(1 for op in program.ops if isinstance(op, WaitEvent))
    return DeadlockVerdict(
        program=program.name, network=network, plan=plan,
        ops=len(program), waits=waits, findings=kept,
        suppressed=suppressed)


def analyze_deadlocks(networks: Sequence[str] = ZOO_NETWORKS,
                      plans: Sequence[str] = ("round-robin",),
                      device: str = "p100",
                      pool_size: int = 4,
                      batch: int = 4,
                      seed: int = 0,
                      include_interop: bool = True) -> DeadlockReport:
    """Certify every plan producer; the ``analyze deadlock`` driver.

    Covers the zoo network × plan programs (same producers the hazard
    pass certifies) and, when ``include_interop`` is set, the lowered
    stream plans of every interop policy over the inception units — the
    producers that actually emit event record/wait pairs.
    """
    report = DeadlockReport(device=device, pool_size=pool_size,
                            batch=batch, seed=seed)
    for network in networks:
        for plan in plans:
            for program in build_programs(network, plan=plan,
                                          pool_size=pool_size, batch=batch,
                                          seed=seed, device=device):
                report.entries.append(
                    deadlock_verdict_for(program, network=network,
                                         plan=plan))
    if include_interop:
        for network, plan, program in interop_programs(
                batch=min(batch, 2), device=device, streams=pool_size):
            report.entries.append(
                deadlock_verdict_for(program, network=network, plan=plan))
    return report


def interop_programs(batch: int = 2, device: str = "p100",
                     streams: int = 4) -> list[tuple[str, str,
                                                     DispatchProgram]]:
    """Lower every interop (unit, policy) pair to its dispatch program.

    Imported lazily so :mod:`repro.analyze` stays importable without the
    interop subsystem (which itself imports the analyzer).
    """
    from repro.interop.certify import plan_program, structural_effects
    from repro.interop.planner import PLAN_POLICIES, build_plan
    from repro.interop.resources import estimate_graph
    from repro.interop.workloads import INCEPTION_UNITS, inception_unit
    from repro.serve.engine import resolve_device
    props = resolve_device(device)
    out: list[tuple[str, str, DispatchProgram]] = []
    for unit in sorted(INCEPTION_UNITS):
        workload = inception_unit(unit, batch)
        graph = workload.graph
        effects = structural_effects(graph, in_place=workload.in_place)
        estimates = estimate_graph(graph, props)
        for policy in PLAN_POLICIES:
            plan = build_plan(graph, policy, streams, device=props,
                              estimates=estimates)
            out.append((unit, policy,
                        plan_program(graph, plan, effects)))
    return out
