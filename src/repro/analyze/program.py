"""Dispatch programs: the static model of a kernel schedule.

A :class:`DispatchProgram` is the analyzer's abstraction of what a host
dispatcher does: an ordered list of operations — kernel launches with
explicit read/write region sets, device-wide barriers (``synchronize``),
and CUDA event record/wait pairs.  It deliberately mirrors the primitives
of :class:`repro.gpusim.engine.GPU` one-for-one, so a program built from a
runtime plan describes *exactly* the dependency edges the engine will wire
(:meth:`GPU._wire_dependencies`):

* ops on one stream are FIFO-ordered;
* an op on the legacy default stream (id 0) is a barrier: it waits for
  every stream's tail and everything issued later waits for it;
* a ``synchronize`` joins all streams on the host;
* a wait on a recorded event orders the waiting stream after the record.

:func:`happens_before` folds those rules into a transitive-reachability
bitmask per op.  :class:`HBIndex` is the same fold projected onto
launches, built once per program: :mod:`repro.analyze.hazards`
intersects it with the per-region access sets to find unordered
conflicting pairs, and the capacity and sync-elision passes read it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

#: Stream id of the legacy default stream inside a program (barrier
#: semantics).  Pool/thread streams use ids >= 1.
DEFAULT_STREAM = 0


@dataclass(frozen=True)
class Launch:
    """One kernel launch with its memory effect.

    ``reads``/``writes`` are abstract region names (see
    :mod:`repro.analyze.access` for how they are derived from a net);
    ``layer`` and ``chain`` are provenance labels used in hazard witnesses.
    """

    kernel: str
    stream: int
    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()
    layer: str = ""
    chain: int = -1


@dataclass(frozen=True)
class SyncAll:
    """A host ``synchronize``: joins every stream (layer_sync)."""

    label: str = ""


@dataclass(frozen=True)
class RecordEvent:
    """``cudaEventRecord`` of ``event`` into ``stream``."""

    event: int
    stream: int


@dataclass(frozen=True)
class WaitEvent:
    """``cudaStreamWaitEvent``: gate later ops in ``stream`` on ``event``."""

    event: int
    stream: int


DispatchOp = Union[Launch, SyncAll, RecordEvent, WaitEvent]


@dataclass
class DispatchProgram:
    """An ordered dispatch trace to be certified hazard-free.

    ``allowed`` is the program's suppression set: finding rule ids (e.g.
    ``"hazard/WAW"``, ``"deadlock/cycle"``, ``"capacity/over-subscription"``
    or the ``"*"`` wildcard) a plan producer has explicitly waived, using
    the same ``# repro: allow(...)`` marker syntax the lint understands
    (see :meth:`allow_from`).  Suppressed findings are counted, not
    hidden: every report surfaces its suppressed total.
    """

    name: str
    ops: list[DispatchOp] = field(default_factory=list)
    allowed: set[str] = field(default_factory=set)

    # -- builder helpers ----------------------------------------------
    def launch(self, kernel: str, stream: int, reads=(), writes=(),
               layer: str = "", chain: int = -1) -> "DispatchProgram":
        self.ops.append(Launch(kernel=kernel, stream=stream,
                               reads=frozenset(reads),
                               writes=frozenset(writes),
                               layer=layer, chain=chain))
        return self

    def sync(self, label: str = "") -> "DispatchProgram":
        self.ops.append(SyncAll(label=label))
        return self

    def record(self, event: int, stream: int) -> "DispatchProgram":
        self.ops.append(RecordEvent(event=event, stream=stream))
        return self

    def wait(self, event: int, stream: int) -> "DispatchProgram":
        self.ops.append(WaitEvent(event=event, stream=stream))
        return self

    def allow(self, *rules: str) -> "DispatchProgram":
        """Suppress finding rule ids for this program (kept as a count)."""
        self.allowed.update(rules)
        return self

    def allow_from(self, text: str) -> "DispatchProgram":
        """Parse ``# repro: allow(rule, ...)`` markers out of ``text``.

        The marker syntax is shared with the determinism lint
        (:func:`repro.analyze.lint.allow_markers`), so a plan producer can
        carry its waivers in a docstring or annotation string.
        """
        from repro.analyze.lint import allow_markers
        self.allowed.update(allow_markers(text))
        return self

    def is_allowed(self, rule: str) -> bool:
        return rule in self.allowed or "*" in self.allowed

    # -- queries ------------------------------------------------------
    def launches(self) -> list[tuple[int, Launch]]:
        """``(op_index, launch)`` pairs in issue order."""
        return [(i, op) for i, op in enumerate(self.ops)
                if isinstance(op, Launch)]

    def streams_used(self) -> set[int]:
        return {op.stream for op in self.ops
                if isinstance(op, (Launch, RecordEvent, WaitEvent))}

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[DispatchOp]:
        return iter(self.ops)


class HBState:
    """The tail/barrier/record state machine behind happens-before.

    :meth:`step` returns an op's direct predecessors under stream-FIFO
    order, default-stream barrier semantics, host ``synchronize`` joins
    and event record→wait edges, then advances the state past the op.
    The fold mirrors the engine's dependency wiring exactly.  An event
    that was never recorded gates nothing (CUDA semantics); a
    re-recorded event binds each wait to the latest record issued
    before the wait.
    """

    __slots__ = ("tails", "barrier", "records")

    def __init__(self) -> None:
        self.tails: dict[int, int] = {}     # stream id -> its tail op
        self.barrier: int | None = None     # last default-stream barrier
        self.records: dict[int, int] = {}   # event id -> latest record

    def copy(self) -> "HBState":
        other = HBState()
        other.tails = dict(self.tails)
        other.barrier = self.barrier
        other.records = dict(self.records)
        return other

    def step(self, i: int, op: DispatchOp) -> list[int]:
        """Direct predecessors of op ``i``; advances the state past it."""
        if isinstance(op, SyncAll):
            # The host joins every stream; model the sync as a new
            # default-stream barrier so later ops on any stream order
            # after everything before it.
            preds = list(self.tails.values())
            self.barrier = i
            self.tails[DEFAULT_STREAM] = i
            return preds
        stream = op.stream
        if stream == DEFAULT_STREAM:
            # Legacy default stream: barrier against every tail.
            preds = list(self.tails.values())
            self.barrier = i
        else:
            preds = []
            tail = self.tails.get(stream)
            if tail is not None:
                preds.append(tail)
            if self.barrier is not None:
                preds.append(self.barrier)
            if isinstance(op, WaitEvent):
                rec = self.records.get(op.event)
                if rec is not None:
                    preds.append(rec)
        self.tails[stream] = i
        if isinstance(op, RecordEvent):
            self.records[op.event] = i
        return preds


def happens_before(ops: list[DispatchOp]) -> list[int]:
    """Transitive happens-before reachability, one bitmask per op.

    Bit ``j`` of ``hb[i]`` is set iff op ``j`` happens before op ``i``
    (see :class:`HBState` for the rules).  Each op's mask is the union
    of its direct predecessors' masks plus the predecessors themselves.
    """
    state = HBState()
    hb: list[int] = []
    for i, op in enumerate(ops):
        mask = 0
        for p in state.step(i, op):
            mask |= hb[p] | (1 << p)
        hb.append(mask)
    return hb


@dataclass(frozen=True)
class HBIndex:
    """Happens-before projected onto launches, built once per program.

    Launches are keyed by *ordinal* (issue-order rank among launches),
    which inserting or deleting non-launch ops never changes.  ``bits[i]``
    is ``1 << ordinal`` for a launch and 0 otherwise; ``masks[i]`` has
    the bits of every launch that happens before op ``i``; ``preds[i]``
    lists op ``i``'s direct predecessors.  The projection commutes with
    the union in :func:`happens_before`, so ``masks[i]`` is the OR over
    predecessors ``p`` of ``masks[p] | bits[p]``: one sweep, no full
    relation.  Only launches carry memory effects or occupy the device,
    so hazard detection, the capacity check and sync-elision all read
    this one index (:func:`repro.interop.certify.certify` builds it once).
    """

    masks: list[int]
    bits: list[int]
    preds: list[list[int]]

    @classmethod
    def build(cls, ops: Sequence[DispatchOp]) -> "HBIndex":
        state = HBState()
        masks: list[int] = []
        bits: list[int] = []
        preds: list[list[int]] = []
        launches = 0
        for i, op in enumerate(ops):
            direct = state.step(i, op)
            mask = 0
            for p in direct:
                mask |= masks[p] | bits[p]
            masks.append(mask)
            preds.append(direct)
            if isinstance(op, Launch):
                bits.append(1 << launches)
                launches += 1
            else:
                bits.append(0)
        return cls(masks=masks, bits=bits, preds=preds)


def ordered(hb: list[int], a: int, b: int) -> bool:
    """True iff op ``a`` happens before op ``b`` (or vice versa)."""
    return bool((hb[b] >> a) & 1) or bool((hb[a] >> b) & 1)
