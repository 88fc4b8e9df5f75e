"""Certified sync-elision: remove event waits happens-before implies.

Opara's observation (PAPERS.md) is that synchronization is itself a
first-order cost: every cross-stream dependency edge a planner emits
costs an event record plus a wait of host time, and many of those edges
are *redundant* — already implied by stream FIFO order, a barrier, or
another event edge.  This pass computes which waits the happens-before
relation proves removable and emits a minimized program.

The certificate is the **launch closure**: the happens-before relation
projected onto the program's launches (which elision never removes, so
launch ordinals are stable), together with the per-stream launch
sequences.  A wait is *redundant* iff deleting it leaves the launch
closure bit-for-bit identical — every ordering the original program
guaranteed between two kernels is still guaranteed, and no new ordering
appears.  Since the race detector's verdict and the engine's observable
execution order both depend on the program only through that closure,
equality is exactly the "replays identically" guarantee
(:mod:`repro.verify.elision_equiv` re-checks it dynamically).

The pass is greedy in issue order over the transitive reduction: each
wait is tentatively deleted and kept out only if the closure is
unchanged; records whose every bound wait was elided are then dropped as
orphans (a record with no wait is pure host overhead), again under the
same closure check.  The check is incremental (:class:`_Elider`): it
reads the program's launch-projected happens-before index and re-sweeps
only from the candidate onward, never rebuilding the whole relation.
:func:`certified_minimize` wraps the pass with the full certificate,
computed from scratch: deadlock-freedom of the input, closure equality,
identical launch sequences, and a hazard-verdict match from the race
detector on the minimized program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, Union

from repro.analyze.deadlock import DeadlockVerdict, detect_deadlocks
from repro.analyze.hazards import detect
from repro.analyze.program import (DispatchOp, DispatchProgram, HBIndex,
                                   HBState, Launch, RecordEvent, WaitEvent)
from repro.errors import AnalyzeError

#: SARIF rule id for an elided (provably redundant) synchronization op.
ELIDE_RULE = "elide/redundant-sync"


@dataclass(frozen=True)
class ElidedOp:
    """One removed synchronization op, with its justification."""

    op_index: int       # index in the *original* program
    kind: str           # "wait" | "record"
    stream: int
    event: int
    reason: str         # "implied-by-happens-before" | "orphaned-record"

    def describe(self) -> str:
        return (f"op {self.op_index}: {self.kind} event {self.event} "
                f"on stream {self.stream} — {self.reason}")

    def to_dict(self) -> dict:
        return {"op_index": self.op_index, "kind": self.kind,
                "stream": self.stream, "event": self.event,
                "reason": self.reason}


def launch_certificate(ops: Sequence[DispatchOp],
                       index: Optional[HBIndex] = None) -> tuple:
    """The elision certificate: launch order plus launch-projected hb.

    Returns ``(sequences, masks)`` where ``sequences`` is the tuple of
    per-stream ``(kernel, chain)`` launch sequences (sorted by stream id)
    and bit ``k`` of ``masks[j]`` is set iff launch ordinal ``k`` happens
    before launch ordinal ``j`` (:class:`HBIndex`).  Ordinals index
    launches in issue order, so the certificate is invariant under
    inserting/removing non-launch ops — exactly the moves elision makes.
    Read off ``index`` when given, else folded from scratch.
    """
    index = index or HBIndex.build(ops)
    by_stream: dict[int, list[tuple[str, int]]] = {}
    for op in ops:
        if isinstance(op, Launch):
            by_stream.setdefault(op.stream, []).append((op.kernel, op.chain))
    sequences = tuple((s, tuple(by_stream[s])) for s in sorted(by_stream))
    return sequences, tuple(m for m, b in zip(index.masks, index.bits) if b)


def launch_closure(ops: Sequence[DispatchOp]) -> tuple:
    """:func:`launch_certificate` with each mask spelled as a set.

    ``closure[j]`` is the frozenset of launch ordinals that happen before
    launch ordinal ``j``.
    """
    sequences, masks = launch_certificate(ops)
    return sequences, tuple(frozenset(_ordinals(m)) for m in masks)


def _ordinals(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class ElisionResult:
    """Outcome of minimizing one program."""

    original: DispatchProgram
    minimized: DispatchProgram
    removed: list[ElidedOp] = field(default_factory=list)
    waits_checked: int = 0
    equivalent: bool = False   # set by the certified closure re-check

    @property
    def waits_removed(self) -> int:
        return sum(1 for r in self.removed if r.kind == "wait")

    @property
    def records_removed(self) -> int:
        return sum(1 for r in self.removed if r.kind == "record")

    def to_dict(self) -> dict:
        return {
            "program": self.original.name,
            "ops_before": len(self.original),
            "ops_after": len(self.minimized),
            "waits_checked": self.waits_checked,
            "waits_removed": self.waits_removed,
            "records_removed": self.records_removed,
            "equivalent": self.equivalent,
            "removed": [r.to_dict() for r in self.removed],
        }


class _Elider:
    """Greedy elision over one program's launch-projected hb masks.

    ``masks`` holds :attr:`HBIndex.masks` of the current (partly elided)
    program at each op's *original* index; ``order`` lists the surviving
    ops.  Deleting op ``order[k]`` can only change ops issued after it,
    so a candidate is checked by re-sweeping from there with the
    stream-tail, barrier and record state saved just before it, and
    rejected at the first launch whose mask differs.  An accepted
    removal commits the re-swept masks, so every launch keeps its
    original mask throughout.
    """

    def __init__(self, ops: Sequence[DispatchOp], index: HBIndex) -> None:
        self.ops = ops
        self.masks = list(index.masks)
        self.bits = index.bits
        self.order = list(range(len(ops)))

    def sweep(self, candidate: Callable[[int, DispatchOp], bool]
              ) -> list[int]:
        """Remove, in issue order, each candidate the closure allows."""
        ops, order = self.ops, self.order
        state = HBState()
        removed: list[int] = []
        k = 0
        while k < len(order):
            i = order[k]
            if candidate(i, ops[i]):
                trial = self._without(k, state)
                if trial is not None:
                    self.masks = trial
                    del order[k]
                    removed.append(i)
                    continue
            state.step(i, ops[i])
            k += 1
        return removed

    def _without(self, k: int, state: HBState) -> Optional[list[int]]:
        """Masks with ``order[k]`` deleted, or None if a launch changes."""
        ops, bits, masks = self.ops, self.bits, self.masks
        trial = masks[:]
        state = state.copy()
        for i in self.order[k + 1:]:
            mask = 0
            for p in state.step(i, ops[i]):
                mask |= trial[p] | bits[p]
            if bits[i] and mask != masks[i]:
                return None
            trial[i] = mask
        return trial


def minimize(program: DispatchProgram,
             index: Optional[HBIndex] = None,
             deadlocks: Optional[DeadlockVerdict] = None) -> ElisionResult:
    """Transitive-reduction sync elision over one program.

    Greedily deletes each event wait whose removal provably leaves the
    launch closure unchanged, then drops records no remaining wait binds
    to.  Refuses deadlocked inputs: a mis-ordered record/wait pair has no
    well-defined intended closure to preserve.

    ``index`` is the program's happens-before index and ``deadlocks`` its
    deadlock verdict when the caller already has them; a verdict with no
    findings, suppressed or not, stands in for re-running the detector.
    """
    if deadlocks is None or deadlocks.findings or deadlocks.suppressed:
        blockers = detect_deadlocks(program)
        if blockers:
            raise AnalyzeError(
                f"refusing to minimize {program.name!r}: "
                f"{len(blockers)} deadlock finding(s) — fix "
                f"{blockers[0].rule} at op {blockers[0].wait_index} first")

    ops = program.ops
    index = index or HBIndex.build(ops)
    elider = _Elider(ops, index)
    waits = elider.sweep(lambda i, op: isinstance(op, WaitEvent))
    removed = [ElidedOp(op_index=i, kind="wait", stream=ops[i].stream,
                        event=ops[i].event,
                        reason="implied-by-happens-before")
               for i in waits]

    # Orphaned records: no surviving wait binds to them.  Binding is
    # latest-record-before-wait, so walk the surviving ops in order.
    bound: set[int] = set()
    latest: dict[int, int] = {}
    for i in elider.order:
        op = ops[i]
        if isinstance(op, RecordEvent):
            latest[op.event] = i
        elif isinstance(op, WaitEvent) and op.event in latest:
            bound.add(latest[op.event])
    records = elider.sweep(
        lambda i, op: isinstance(op, RecordEvent) and i not in bound)
    removed += [ElidedOp(op_index=i, kind="record", stream=ops[i].stream,
                         event=ops[i].event, reason="orphaned-record")
                for i in records]

    minimized = DispatchProgram(
        name=f"{program.name}+min",
        ops=[ops[i] for i in elider.order],
        allowed=set(program.allowed))
    removed.sort(key=lambda r: r.op_index)
    result = ElisionResult(original=program, minimized=minimized,
                           removed=removed,
                           waits_checked=sum(isinstance(op, WaitEvent)
                                             for op in ops))
    # The minimized program is folded afresh, not read off the elider.
    result.equivalent = (launch_certificate(minimized.ops)
                         == launch_certificate(ops, index))
    return result


def assert_equivalent(result: ElisionResult) -> None:
    """The full certificate; raises :class:`AnalyzeError` on any breach.

    Checks (1) launch sequences and happens-before closure are
    bit-identical, (2) no launch was touched, and (3) the race detector
    returns the same hazard set on the minimized program — a minimized
    program of a certified plan stays certified.  Both programs are
    folded afresh here; nothing is read off the search's index.
    """
    orig, mini = result.original, result.minimized
    index_o, index_m = HBIndex.build(orig.ops), HBIndex.build(mini.ops)
    if (launch_certificate(orig.ops, index_o)
            != launch_certificate(mini.ops, index_m)):
        raise AnalyzeError(
            f"elision broke the launch closure of {orig.name!r}")
    launches_o = [(op.kernel, op.stream, op.chain)
                  for _, op in orig.launches()]
    launches_m = [(op.kernel, op.stream, op.chain)
                  for _, op in mini.launches()]
    if launches_o != launches_m:
        raise AnalyzeError(
            f"elision touched a launch of {orig.name!r}")
    haz_o, haz_m = len(detect(orig, index_o)), len(detect(mini, index_m))
    if haz_o != haz_m:
        raise AnalyzeError(
            f"elision changed the hazard verdict of {orig.name!r}: "
            f"{haz_o} -> {haz_m} hazard(s)")


def certified_minimize(program: DispatchProgram,
                       index: Optional[HBIndex] = None,
                       deadlocks: Optional[DeadlockVerdict] = None
                       ) -> ElisionResult:
    """Minimize and certify; the only entry point producers should use.

    ``index`` and ``deadlocks`` only speed up the search
    (:func:`minimize`); the certificate is always computed from scratch.
    """
    result = minimize(program, index, deadlocks)
    assert_equivalent(result)
    return result


@dataclass
class ElisionEntry:
    """Per-program row of an ``analyze minimize`` pass."""

    program: str
    network: str
    plan: str
    ops_before: int
    ops_after: int
    waits_before: int
    waits_removed: int
    records_removed: int
    equivalent: bool
    removed: list[ElidedOp] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.equivalent

    def to_dict(self) -> dict:
        return {
            "program": self.program, "network": self.network,
            "plan": self.plan, "ops_before": self.ops_before,
            "ops_after": self.ops_after,
            "waits_before": self.waits_before,
            "waits_removed": self.waits_removed,
            "records_removed": self.records_removed,
            "equivalent": self.equivalent,
            "removed": [r.to_dict() for r in self.removed],
        }


@dataclass
class ElisionReport:
    """Outcome of one ``repro analyze minimize`` pass."""

    device: str
    pool_size: int
    batch: int
    seed: int
    entries: list[ElisionEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def waits_removed(self) -> int:
        return sum(e.waits_removed for e in self.entries)

    @property
    def records_removed(self) -> int:
        return sum(e.records_removed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "kind": "elision-report",
            "device": self.device, "pool_size": self.pool_size,
            "batch": self.batch, "seed": self.seed, "ok": self.ok,
            "waits_removed": self.waits_removed,
            "records_removed": self.records_removed,
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
            status = "certified" if e.equivalent else "NOT EQUIVALENT"
            lines.append(
                f"  {e.program}: {e.waits_removed}/{e.waits_before} "
                f"wait(s) + {e.records_removed} record(s) elided, "
                f"{e.ops_before} -> {e.ops_after} op(s) — {status}")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"analyze minimize: {verdict} ({len(self.entries)} "
            f"program(s), {self.waits_removed} wait(s) + "
            f"{self.records_removed} record(s) removed; device "
            f"{self.device}, pool {self.pool_size}, batch {self.batch}, "
            f"seed {self.seed})")
        return "\n".join(lines)


def _entry(result: ElisionResult, network: str, plan: str) -> ElisionEntry:
    waits_before = sum(1 for op in result.original.ops
                       if isinstance(op, WaitEvent))
    return ElisionEntry(
        program=result.original.name, network=network, plan=plan,
        ops_before=len(result.original), ops_after=len(result.minimized),
        waits_before=waits_before, waits_removed=result.waits_removed,
        records_removed=result.records_removed,
        equivalent=result.equivalent, removed=list(result.removed))


def minimize_networks(networks: Sequence[str] = (),
                      plans: Sequence[str] = ("round-robin",),
                      device: str = "p100",
                      pool_size: int = 4,
                      batch: int = 4,
                      seed: int = 0,
                      include_interop: bool = True) -> ElisionReport:
    """Minimize every plan producer; the ``analyze minimize`` driver.

    Zoo programs synchronize with barriers, not events, so elision is a
    certified no-op there; the interop lowerings are where redundant
    waits actually fall out (multiple cross-stream join edges landing on
    one producer stream).
    """
    from repro.analyze.deadlock import interop_programs
    from repro.analyze.plans import build_programs
    report = ElisionReport(device=device, pool_size=pool_size,
                           batch=batch, seed=seed)
    for network in networks:
        for plan in plans:
            for program in build_programs(network, plan=plan,
                                          pool_size=pool_size, batch=batch,
                                          seed=seed, device=device):
                result = certified_minimize(program)
                report.entries.append(_entry(result, network, plan))
    if include_interop:
        for network, plan, program in interop_programs(
                batch=min(batch, 2), device=device, streams=pool_size):
            result = certified_minimize(program)
            report.entries.append(_entry(result, network, plan))
    return report
