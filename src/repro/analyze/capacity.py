"""Static over-subscription check: does the plan fit the device?

A stream plan that is perfectly race- and deadlock-free can still be a
bad plan: if the kernels it makes concurrently resident together demand
more than the device offers, the hardware serializes them anyway and
every cross-stream sync the plan paid for buys nothing (Opara's
"effective parallelism" argument, PAPERS.md).  This check flags that
statically, from the same happens-before relation the other passes use:

* ``capacity/stream-pool`` — the program uses more concurrent non-default
  streams than the device exposes (``max_concurrent_kernels``) or than
  the pool the caller sized; extra streams alias onto existing hardware
  queues and silently serialize.
* ``capacity/over-subscription`` — some antichain of the launch
  happens-before order (launches that may all be resident at once) has a
  summed device *fill* (:class:`repro.interop.resources.KernelEstimate`)
  above :data:`OVERSUBSCRIPTION_FACTOR`; the overlap the plan schedules
  cannot actually happen.

Concurrency is approximated by happens-before *depth*: launches at equal
depth (longest hb chain below them) are pairwise unordered, hence a
legal simultaneous-residency set.  Depth levels under-approximate the
maximal antichains, so a flagged level is a sound witness of
over-subscription (no false positives from ordering), while quiet levels
make no completeness promise — this is a planning lint, not a proof.

Both rules are warnings (SARIF level ``warning``): the plan is correct,
just not profitably parallel.  Findings respect the program's
``allow`` suppression set like every other analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.analyze.program import (DEFAULT_STREAM, DispatchProgram, HBIndex,
                                   Launch)

#: Summed device fill above which one depth level is over-subscribed.
#: 1.0 is perfect packing; a small slack tolerates boundary kernels.
OVERSUBSCRIPTION_FACTOR = 1.5

#: Cap on kernels named per finding witness.
_MAX_KERNELS = 6

#: Rule ids emitted by this check.
CAPACITY_RULES = ("capacity/over-subscription", "capacity/stream-pool")


@dataclass(frozen=True)
class CapacityFinding:
    """One capacity breach witness."""

    rule: str
    level: int                 # hb depth level (-1 for stream-pool)
    total_fill: float          # summed fill at the level (0 for pool)
    limit: float               # the capacity it exceeds
    streams: int               # concurrent streams involved
    kernels: tuple[str, ...]   # witnesses (capped at _MAX_KERNELS)
    kernel_count: int
    message: str

    def describe(self) -> str:
        extra = ("" if self.kernel_count <= len(self.kernels)
                 else f" (+{self.kernel_count - len(self.kernels)} more)")
        who = ", ".join(self.kernels) + extra
        return f"[{self.rule}] {self.message} — {who}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule, "level": self.level,
            "total_fill": round(self.total_fill, 4),
            "limit": self.limit, "streams": self.streams,
            "kernels": list(self.kernels),
            "kernel_count": self.kernel_count,
            "message": self.message,
        }


def concurrency_levels(program: DispatchProgram,
                       index: Optional[HBIndex] = None) -> list[list[int]]:
    """Launch op indices grouped by happens-before depth.

    ``levels[d]`` holds the launches whose longest predecessor chain
    (counting launches only) has length ``d``; members of one level are
    pairwise unordered, i.e. may be concurrently resident.

    One sweep over the direct predecessors in ``index`` (built here when
    not given): ``reach[i]`` is the deepest launch depth among op ``i``
    and everything that happens before it, and happens-before is the
    transitive closure of the direct edges.
    """
    ops = program.ops
    preds = (index or HBIndex.build(ops)).preds
    reach: list[int] = []
    levels: list[list[int]] = []
    for i, op in enumerate(ops):
        d = max((reach[p] for p in preds[i]), default=-1)
        if isinstance(op, Launch):
            d += 1
            if d == len(levels):
                levels.append([])
            levels[d].append(i)
        reach.append(d)
    return levels


def check_capacity(program: DispatchProgram,
                   fills: Optional[Mapping[int, float]] = None,
                   pool_limit: Optional[int] = None,
                   device=None,
                   index: Optional[HBIndex] = None) -> list[CapacityFinding]:
    """All capacity findings for ``program``, post-suppression.

    ``fills`` maps a launch's ``chain`` id to its stand-alone device
    fill (fraction of the device the kernel occupies running alone, from
    :func:`repro.interop.resources.estimate_graph`); without it only the
    stream-pool rule can fire.  ``pool_limit`` defaults to the device's
    ``max_concurrent_kernels`` when a
    :class:`~repro.gpusim.device.DeviceProperties` is given.  ``index``
    is the program's happens-before index when the caller already built
    it.
    """
    findings: list[CapacityFinding] = []
    if pool_limit is None and device is not None:
        pool_limit = device.max_concurrent_kernels

    streams = sorted(s for s in program.streams_used()
                     if s != DEFAULT_STREAM)
    if pool_limit is not None and len(streams) > pool_limit:
        by_stream: dict[int, str] = {}
        for _, op in program.launches():
            by_stream.setdefault(op.stream, op.kernel)
        witnesses = tuple(by_stream[s] for s in streams
                          if s in by_stream)[:_MAX_KERNELS]
        findings.append(CapacityFinding(
            rule="capacity/stream-pool", level=-1, total_fill=0.0,
            limit=float(pool_limit), streams=len(streams),
            kernels=witnesses, kernel_count=len(streams),
            message=(f"{len(streams)} concurrent streams exceed the "
                     f"device's {pool_limit} hardware queues; the "
                     f"excess serializes — shrink the pool"),
        ))

    if fills:
        ops = program.ops
        levels = concurrency_levels(program, index)
        for level, members in enumerate(levels):
            with_fill = [(i, fills.get(ops[i].chain)) for i in members]
            total = sum(f for _, f in with_fill if f is not None)
            if total <= OVERSUBSCRIPTION_FACTOR:
                continue
            members_sorted = sorted(
                (i for i, f in with_fill if f is not None),
                key=lambda i: -(fills.get(ops[i].chain) or 0.0))
            names = tuple(ops[i].kernel
                          for i in members_sorted[:_MAX_KERNELS])
            lvl_streams = {ops[i].stream for i in members}
            findings.append(CapacityFinding(
                rule="capacity/over-subscription", level=level,
                total_fill=total, limit=OVERSUBSCRIPTION_FACTOR,
                streams=len(lvl_streams), kernels=names,
                kernel_count=len(members),
                message=(f"depth level {level} schedules "
                         f"{len(members)} concurrent kernels totalling "
                         f"{total:.2f}x device fill (limit "
                         f"{OVERSUBSCRIPTION_FACTOR:.2f}x); the overlap "
                         f"serializes on hardware — deepen the "
                         f"schedule or shrink the pool"),
            ))

    return [f for f in findings if not program.is_allowed(f.rule)]
