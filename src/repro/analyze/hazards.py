"""Stream-hazard race detection over dispatch programs.

For every memory region a program touches, collect its accesses in issue
order and flag each conflicting pair (at least one write) that the
happens-before relation (:func:`repro.analyze.program.happens_before`)
does not order: a RAW, WAR or WAW hazard.  Each hazard carries a minimal
witness — the two kernels, the shared buffer(s), and the missing sync
edge — and the report serializes to JSON/SARIF for CI.

The check is *sound for the modelled effects*: happens-before covers all
interleavings the engine could legally produce (stream FIFO, default
barriers, syncs, event edges), so a clean verdict certifies the plan for
every schedule, not just the ones a fuzzer happens to sample.  The
converse cross-check — a statically flagged sync-deletion mutant must
also fail dynamically — lives in :mod:`repro.analyze.mutate` and the
``repro.verify`` replay harness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.analyze.plans import PLAN_KINDS, ZOO_NETWORKS, build_programs
from repro.analyze.program import DispatchProgram, HBIndex, Launch

#: Cap on shared regions listed per hazard witness (full set in counts).
_MAX_REGIONS = 6


@dataclass(frozen=True)
class Hazard:
    """One unordered conflicting kernel pair: the minimal race witness."""

    kind: str                 # "RAW" | "WAR" | "WAW"
    first: str                # kernel issued earlier
    second: str               # kernel issued later
    first_layer: str
    second_layer: str
    first_stream: int
    second_stream: int
    first_index: int          # op indices in the program
    second_index: int
    regions: tuple[str, ...]  # shared buffers (capped at _MAX_REGIONS)
    region_count: int
    missing: str              # the absent sync edge, human-readable

    def describe(self) -> str:
        extra = ("" if self.region_count <= len(self.regions)
                 else f" (+{self.region_count - len(self.regions)} more)")
        return (f"[{self.kind}] {self.first} (stream {self.first_stream}, "
                f"{self.first_layer}) vs {self.second} "
                f"(stream {self.second_stream}, {self.second_layer}) on "
                f"{', '.join(self.regions)}{extra}: {self.missing}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "first": {"kernel": self.first, "layer": self.first_layer,
                      "stream": self.first_stream,
                      "op_index": self.first_index},
            "second": {"kernel": self.second, "layer": self.second_layer,
                       "stream": self.second_stream,
                       "op_index": self.second_index},
            "regions": list(self.regions),
            "region_count": self.region_count,
            "missing": self.missing,
        }


def detect(program: DispatchProgram,
           index: Optional[HBIndex] = None) -> list[Hazard]:
    """All RAW/WAR/WAW pairs of ``program`` not ordered by happens-before.

    Hazards are deduplicated per (kernel pair, kind): a pair racing on
    many per-sample regions is one witness listing the shared buffers.
    ``index`` is the program's happens-before index when the caller
    already built it; otherwise it is built here.
    """
    ops = program.ops
    index = index or HBIndex.build(ops)
    hb, bit = index.masks, index.bits
    by_region: dict[str, list[tuple[int, bool]]] = {}
    for i, op in enumerate(ops):
        if not isinstance(op, Launch):
            continue
        for r in op.reads:
            by_region.setdefault(r, []).append((i, False))
        for r in op.writes:
            by_region.setdefault(r, []).append((i, True))

    pairs: dict[tuple[int, int, str], list[str]] = {}
    for region in sorted(by_region):
        accs = by_region[region]
        if not any(w for _, w in accs):
            continue
        for a in range(len(accs)):
            ia, wa = accs[a]
            for b in range(a + 1, len(accs)):
                ib, wb = accs[b]
                if ia == ib or not (wa or wb):
                    continue
                if hb[ib] & bit[ia] or hb[ia] & bit[ib]:
                    continue
                kind = "WAW" if (wa and wb) else ("RAW" if wa else "WAR")
                pairs.setdefault((ia, ib, kind), []).append(region)

    hazards = []
    for (ia, ib, kind), regions in sorted(pairs.items()):
        first: Launch = ops[ia]          # type: ignore[assignment]
        second: Launch = ops[ib]         # type: ignore[assignment]
        missing = (
            f"no happens-before edge orders them; add a layer_sync "
            f"barrier between {first.layer or first.kernel} and "
            f"{second.layer or second.kernel}, or record an event on "
            f"stream {first.stream} after {first.kernel} and wait on it "
            f"on stream {second.stream}"
        )
        hazards.append(Hazard(
            kind=kind, first=first.kernel, second=second.kernel,
            first_layer=first.layer, second_layer=second.layer,
            first_stream=first.stream, second_stream=second.stream,
            first_index=ia, second_index=ib,
            regions=tuple(sorted(regions)[:_MAX_REGIONS]),
            region_count=len(regions), missing=missing,
        ))
    return hazards


@dataclass
class ProgramVerdict:
    """Hazard verdict for one program (one network × plan × context)."""

    program: str
    network: str
    plan: str
    ops: int
    launches: int
    hazards: list[Hazard] = field(default_factory=list)
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.hazards

    def to_dict(self) -> dict:
        return {
            "program": self.program, "network": self.network,
            "plan": self.plan, "ops": self.ops, "launches": self.launches,
            "ok": self.ok, "suppressed": self.suppressed,
            "hazards": [h.to_dict() for h in self.hazards],
        }


@dataclass
class HazardReport:
    """Outcome of one ``repro analyze hazards`` pass."""

    device: str
    pool_size: int
    batch: int
    seed: int
    entries: list[ProgramVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def hazard_count(self) -> int:
        return sum(len(e.hazards) for e in self.entries)

    @property
    def suppressed(self) -> int:
        return sum(e.suppressed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "kind": "hazard-report",
            "device": self.device, "pool_size": self.pool_size,
            "batch": self.batch, "seed": self.seed, "ok": self.ok,
            "hazards": self.hazard_count, "suppressed": self.suppressed,
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
            status = "OK" if e.ok else f"{len(e.hazards)} hazard(s)"
            lines.append(f"  {e.program}: {e.launches} launch(es) over "
                         f"{e.ops} op(s) — {status}")
            for h in e.hazards[:10]:
                lines.append(f"    {h.describe()}")
            if len(e.hazards) > 10:
                lines.append(f"    ... and {len(e.hazards) - 10} more")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"analyze hazards: {verdict} ({len(self.entries)} program(s), "
            f"{self.hazard_count} hazard(s), {self.suppressed} suppressed; "
            f"device {self.device}, pool {self.pool_size}, "
            f"batch {self.batch}, seed {self.seed})")
        return "\n".join(lines)


def verdict_for(program: DispatchProgram, network: str = "",
                plan: str = "",
                index: Optional[HBIndex] = None) -> ProgramVerdict:
    """Run the detector over one program and wrap the result.

    Hazards whose rule id (``hazard/<kind>``) is in the program's
    suppression set (:meth:`DispatchProgram.allow`) are dropped from the
    verdict but counted in ``suppressed``.  ``index`` is passed through
    to :func:`detect`.
    """
    kept: list[Hazard] = []
    suppressed = 0
    for h in detect(program, index):
        if program.is_allowed(f"hazard/{h.kind}"):
            suppressed += 1
        else:
            kept.append(h)
    return ProgramVerdict(
        program=program.name, network=network, plan=plan,
        ops=len(program), launches=len(program.launches()),
        hazards=kept, suppressed=suppressed,
    )


def analyze_networks(networks: Sequence[str] = ZOO_NETWORKS,
                     plans: Sequence[str] = ("round-robin",),
                     device: str = "p100",
                     pool_size: int = 4,
                     batch: int = 4,
                     seed: int = 0) -> HazardReport:
    """Certify every (network, plan) pair; the ``analyze hazards`` driver."""
    report = HazardReport(device=device, pool_size=pool_size, batch=batch,
                          seed=seed)
    for network in networks:
        for plan in plans:
            for program in build_programs(network, plan=plan,
                                          pool_size=pool_size, batch=batch,
                                          seed=seed, device=device):
                report.entries.append(
                    verdict_for(program, network=network, plan=plan))
    return report
