"""Output checks of the benchmark, computed apart from the program.

Every function here takes plain data (numbers, dicts, tuples) that a
workload extracted from the program's outputs and returns a list of
failure messages; an empty list means the check passed.  None of them
calls into ``repro`` except through the callables a workload passes in,
so ``perfbench/tests/test_checks.py`` can feed each one a corrupted input
and show that it fails.

The checks and where they come from:

* convergence invariance (paper Sec. 3.3.1, Fig. 11): the loss sequence
  under the GLP4NN executor is bit-identical to the same net stepped by
  the solver alone, and the first loss of a 10-class net is near ln 10;
* launch bound: a simulated pass cannot finish before its host thread
  has paid ``T_launch`` for every kernel it launched;
* analyzer decisions (Eqs. 4-9): re-derived from the profiled launch
  configurations and the device table, and compared with an exact MILP
  solved by SciPy/HiGHS, not by ``repro.milp``;
* certified plans: every kernel starts after its graph predecessors end,
  a plan is never shorter than the graph's critical path (the
  critical-path limit of Pourghassemi & Lee), and a wait removed from a
  minimized plan makes certification refuse it;
* serving: outcomes add up to the generated trace, every latency covers
  the forward pass's launch bound, and the report's percentiles match the
  ones recomputed from per-request records.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Iterable, Mapping, Optional, Sequence

#: Absolute slack for comparisons of simulated microsecond clocks.
EPS_US = 1e-6


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------

def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def check_losses(losses: Sequence[float],
                 reference: Sequence[float]) -> list[str]:
    """Losses must equal the solver-only reference bit for bit."""
    if len(losses) != len(reference):
        return [f"loss sequence has {len(losses)} entries, reference "
                f"{len(reference)}"]
    for i, (a, b) in enumerate(zip(losses, reference)):
        if _bits(a) != _bits(b):
            return [f"loss {i} differs from the solver-only reference: "
                    f"{a!r} != {b!r}"]
    return []


def check_first_loss(loss: float, classes: int = 10,
                     tol: float = 0.01) -> list[str]:
    """An untrained softmax over ``classes`` starts near ln(classes)."""
    want = math.log(classes)
    if not abs(loss - want) <= tol:
        return [f"first loss {loss!r} is not within {tol} of "
                f"ln {classes} = {want:.5f}"]
    return []


# ----------------------------------------------------------------------
# Launch bound
# ----------------------------------------------------------------------

def count_kernels(works: Iterable) -> int:
    """Kernels in lowered layer works, counted chain by chain."""
    total = 0
    for work in works:
        total += sum(len(chain.kernels) for chain in work.parallel_chains)
        total += len(work.serial_kernels)
    return total


def check_launch_bound(label: str, sim_us: float, kernels: int,
                       t_launch_us: float) -> list[str]:
    """``sim_us`` must cover one host launch per kernel."""
    bound = kernels * t_launch_us
    if not sim_us >= bound - EPS_US:
        return [f"{label}: simulated {sim_us:.3f} us is below the launch "
                f"bound {kernels} x {t_launch_us} us = {bound:.3f} us"]
    return []


# ----------------------------------------------------------------------
# Analyzer decisions (Eqs. 4-9)
# ----------------------------------------------------------------------

def kernel_bounds(limits: Mapping[str, float],
                  kernel: Sequence) -> tuple[int, int, int, int]:
    """``(beta, tau, smem, ub)`` of one profiled kernel (Eqs. 7-8).

    ``kernel`` is ``(name, blocks, threads_per_block, smem_per_block,
    duration_us)``; ``beta`` is the per-SM block share of Eq. 8, clamped
    to at least one block and at most what one SM can hold.
    """
    _, blocks, tau, smem, duration = kernel
    sms = limits["sm_count"]
    beta = max(1, blocks // sms)
    fit = min(limits["max_blocks_per_sm"], limits["max_threads_per_sm"] // tau)
    if smem > 0:
        fit = min(fit, limits["shared_mem_per_sm"] // smem)
    beta = min(beta, max(1, fit))
    launch_b = max(1, math.ceil(duration / limits["launch_latency_us"]))
    thread_b = max(1, (limits["max_threads_per_sm"] * sms) // (tau * blocks))
    if smem > 0:
        smem_b = max(1, (limits["shared_mem_per_sm"] * sms) // (smem * blocks))
    else:
        smem_b = limits["max_concurrent_kernels"]
    return beta, tau, smem, max(1, min(launch_b, thread_b, smem_b))


def _exact_optimum(limits: Mapping[str, float], kernels: Sequence,
                   fixed: Optional[Mapping[str, int]] = None
                   ) -> Optional[float]:
    """Best Eq. 1-3 objective over assignments satisfying Eqs. 4-7.

    With ``fixed``, the per-name sums of ``#K_i`` are pinned to the given
    counts (a layer may profile two kernels of one name).  Returns None
    when no assignment is feasible.  Solved with SciPy's HiGHS MILP at
    zero optimality gap.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    rows = [kernel_bounds(limits, k) for k in kernels]
    beta = np.array([r[0] for r in rows], dtype=float)
    tau = np.array([r[1] for r in rows], dtype=float)
    smem = np.array([r[2] for r in rows], dtype=float)
    ub = np.array([r[3] for r in rows], dtype=float)
    ones = np.ones(len(rows))
    a = [smem * beta, tau * beta, beta, ones]
    lo = [-np.inf, -np.inf, -np.inf, 1.0]
    hi = [limits["shared_mem_per_sm"], limits["max_threads_per_sm"],
          limits["max_blocks_per_sm"], limits["max_concurrent_kernels"]]
    for name, count in (fixed or {}).items():
        a.append(np.array([1.0 if k[0] == name else 0.0 for k in kernels]))
        lo.append(count)
        hi.append(count)
    res = milp(-(tau * beta + 1e-3), integrality=ones,
               bounds=Bounds(np.zeros(len(rows)), ub),
               constraints=LinearConstraint(np.array(a), lo, hi),
               options={"mip_rel_gap": 0.0})
    if res.status == 2:
        return None
    if not res.success:
        raise RuntimeError(f"exact solve failed: {res.message}")
    return -res.fun


def check_decision(label: str, limits: Mapping[str, float],
                   kernels: Sequence, counts: Mapping[str, int],
                   c_out: int) -> list[str]:
    """One analyzer decision against Eqs. 4-9 and an exact solve.

    ``kernels`` are the layer's profiled kernels as
    ``(name, blocks, threads_per_block, smem_per_block, duration_us)``;
    ``counts`` and ``c_out`` are the decision's ``#K_i`` per kernel name
    and its stream-pool size.
    """
    names = {k[0] for k in kernels}
    if set(counts) != names:
        return [f"{label}: decision names {sorted(counts)} differ from the "
                f"profiled kernels {sorted(names)}"]
    if c_out != max(1, sum(counts.values())):
        return [f"{label}: C_out {c_out} is not the sum of #K_i "
                f"{sum(counts.values())} (Eq. 9)"]
    best = _exact_optimum(limits, kernels)
    if best is None:
        if c_out != 1 or any(v != 1 for v in counts.values()):
            return [f"{label}: Eqs. 4-7 are infeasible but the decision "
                    f"is not the serial fallback ({dict(counts)})"]
        return []
    chosen = _exact_optimum(limits, kernels, fixed=counts)
    if chosen is None:
        return [f"{label}: counts {dict(counts)} violate Eqs. 4-7"]
    if best > chosen + 1e-6:
        return [f"{label}: counts {dict(counts)} reach objective "
                f"{chosen:.4f}, an exact solve reaches {best:.4f}"]
    return []


# ----------------------------------------------------------------------
# Certified plans
# ----------------------------------------------------------------------

def check_precedence(label: str, deps: Mapping[int, Sequence[int]],
                     times: Mapping[int, tuple[float, float]]) -> list[str]:
    """Every kernel starts after all of its graph predecessors end."""
    if set(times) != set(deps):
        return [f"{label}: timeline holds {len(times)} kernels, graph "
                f"{len(deps)}"]
    for nid, ds in deps.items():
        start = times[nid][0]
        for d in ds:
            if start < times[d][1] - EPS_US:
                return [f"{label}: kernel {nid} starts at {start:.3f} us "
                        f"before its predecessor {d} ends at "
                        f"{times[d][1]:.3f} us"]
    return []


def critical_path(deps: Mapping[int, Sequence[int]],
                  durations: Mapping[int, float]) -> float:
    """Longest dependency path, summing kernel durations.

    Node ids are topological (every dependency has a smaller id), as
    :class:`repro.runtime.graph.KernelGraph` guarantees.
    """
    finish: dict[int, float] = {}
    for nid in sorted(deps):
        finish[nid] = durations[nid] + max(
            (finish[d] for d in deps[nid]), default=0.0)
    return max(finish.values(), default=0.0)


def check_critical_path(label: str, elapsed_us: float,
                        path_us: float) -> list[str]:
    """A plan cannot beat the critical path of its graph."""
    if not elapsed_us >= path_us - EPS_US:
        return [f"{label}: {elapsed_us:.3f} us is shorter than the "
                f"critical path {path_us:.3f} us"]
    return []


def check_wait_removal(label: str, ops: Sequence, wait_index: int,
                       certifies: Callable[[list], bool]) -> list[str]:
    """Certification must refuse ``ops`` once the wait at ``wait_index``
    is removed; ``certifies`` runs the program's certification on an op
    list and says whether it signs it."""
    mutated = [op for i, op in enumerate(ops) if i != wait_index]
    if certifies(mutated):
        return [f"{label}: certification still signs the plan with wait "
                f"op {wait_index} removed"]
    return []


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------

def percentile(samples: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile (min at 0, max at 100)."""
    ordered = sorted(samples)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def check_serving(label: str, trace_len: int, records: Sequence[tuple],
                  report_p50: Optional[float], report_p99: Optional[float],
                  bound_for_batch: Callable[[int], float]) -> list[str]:
    """One served trace.

    ``records`` are ``(rid, outcome, arrival_us, finish_us, batch_size)``
    per request; ``bound_for_batch`` gives the launch bound of the
    forward pass that serves a batch of that size.
    """
    out: list[str] = []
    if len(records) != trace_len or len({r[0] for r in records}) != trace_len:
        out.append(f"{label}: {len(records)} outcomes for a trace of "
                   f"{trace_len} requests")
    latencies = []
    for rid, outcome, arrival, finish, batch in records:
        if finish is None:
            continue
        latency = finish - arrival
        latencies.append(latency)
        bound = bound_for_batch(batch)
        if latency < bound - EPS_US:
            out.append(f"{label}: request {rid} latency {latency:.3f} us is "
                       f"below the launch bound {bound:.3f} us")
            break
    if not latencies:
        return out + [f"{label}: no request completed"]
    for q, reported in ((50, report_p50), (99, report_p99)):
        mine = percentile(latencies, q)
        if reported is None or not math.isclose(mine, reported,
                                                rel_tol=1e-12, abs_tol=1e-9):
            out.append(f"{label}: report p{q} {reported!r} != recomputed "
                       f"{mine!r}")
    return out
