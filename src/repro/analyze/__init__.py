"""Static analysis for GLP4NN dispatch plans and the repo's own source.

Two analyzers share this package:

* **Stream-hazard race detection** — model a dispatch plan (round-robin
  pool, multithread, fused, or data-parallel) as an explicit program of
  kernel launches and sync primitives, compute the happens-before
  relation the engine guarantees (stream FIFO, default-stream barriers,
  recorded events), and report every conflicting access pair the
  relation does not order, with a minimal two-kernel witness.

* **Deadlock detection** — check the *strict* semantics a plan author
  intends: every event wait must be satisfiable by a record and the
  resulting dependency graph must be acyclic; self-waits, record-after-
  wait ordering bugs, never-recorded events and cross-stream wait
  cycles all get minimal cycle witnesses.

* **Certified sync-elision** — compute the transitive reduction of the
  happens-before relation and delete every event wait it proves
  redundant, under a launch-closure certificate that guarantees the
  minimized program replays identically (Opara's minimal-sync lever).

* **Over-subscription check** — flag plans whose concurrently resident
  kernels exceed device fill or stream-pool capacity, using the interop
  resource estimates.

* **Determinism lint** — an AST-based rule framework flagging the usual
  sources of run-to-run divergence (unseeded RNGs, wall-clock reads in
  simulated paths, unordered-set iteration, missing layer syncs).

All back ``python -m repro analyze`` and the CI gate; the verdicts are
cross-checked against the dynamic ``repro.verify`` harness and seeded
fault injection (:mod:`repro.analyze.inject`); see
``docs/static_analysis.md``.
"""

from repro.analyze.access import (Access, WorkAccess, data_region,
                                  derive_accesses, grad_region, work_access)
from repro.analyze.capacity import (CAPACITY_RULES, OVERSUBSCRIPTION_FACTOR,
                                    CapacityFinding, check_capacity,
                                    concurrency_levels)
from repro.analyze.deadlock import (DEADLOCK_RULES, CycleOp, DeadlockFinding,
                                    DeadlockReport, DeadlockVerdict,
                                    analyze_deadlocks, deadlock_verdict_for,
                                    detect_deadlocks)
from repro.analyze.elide import (ELIDE_RULE, ElidedOp, ElisionReport,
                                 ElisionResult, certified_minimize,
                                 launch_certificate, launch_closure,
                                 minimize,
                                 minimize_networks)
from repro.analyze.hazards import (Hazard, HazardReport, ProgramVerdict,
                                   analyze_networks, detect, verdict_for)
from repro.analyze.lint import (LintReport, LintRule, LintViolation,
                                lint_file, lint_paths)
from repro.analyze.mutate import drop_sync_mutant, find_flagged_mutant
from repro.analyze.plans import (DATA_PARALLEL_REPLICAS, PLAN_KINDS,
                                 ZOO_NETWORKS, build_programs,
                                 program_from_graph,
                                 program_from_schedule_plan,
                                 program_from_works)
from repro.analyze.program import (DEFAULT_STREAM, DispatchProgram, HBIndex,
                                   Launch, RecordEvent, SyncAll, WaitEvent,
                                   happens_before, ordered)
from repro.analyze.report import AnalyzeReport
from repro.analyze.rules import (DEFAULT_RULES, MissingLayerSyncRule,
                                 UnorderedIterationRule, UnseededRngRule,
                                 WallClockRule)
from repro.analyze.sarif import save_sarif, to_sarif

__all__ = [
    "Access", "WorkAccess", "data_region", "derive_accesses", "grad_region",
    "work_access",
    "CAPACITY_RULES", "OVERSUBSCRIPTION_FACTOR", "CapacityFinding",
    "check_capacity", "concurrency_levels",
    "DEADLOCK_RULES", "CycleOp", "DeadlockFinding", "DeadlockReport",
    "DeadlockVerdict", "analyze_deadlocks", "deadlock_verdict_for",
    "detect_deadlocks",
    "ELIDE_RULE", "ElidedOp", "ElisionReport", "ElisionResult",
    "certified_minimize", "launch_certificate", "launch_closure",
    "minimize", "minimize_networks",
    "Hazard", "HazardReport", "ProgramVerdict", "analyze_networks",
    "detect", "verdict_for",
    "LintReport", "LintRule", "LintViolation", "lint_file", "lint_paths",
    "drop_sync_mutant", "find_flagged_mutant",
    "DATA_PARALLEL_REPLICAS", "PLAN_KINDS", "ZOO_NETWORKS",
    "build_programs", "program_from_graph", "program_from_schedule_plan",
    "program_from_works",
    "DEFAULT_STREAM", "DispatchProgram", "HBIndex", "Launch",
    "RecordEvent", "SyncAll", "WaitEvent", "happens_before", "ordered",
    "AnalyzeReport",
    "DEFAULT_RULES", "MissingLayerSyncRule", "UnorderedIterationRule",
    "UnseededRngRule", "WallClockRule",
    "save_sarif", "to_sarif",
]
