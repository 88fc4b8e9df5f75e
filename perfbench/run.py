"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-cifar10 --seed 1 \\
        --seconds 15 --trace 0

``--workload all`` runs the four workloads one after another, each in its
own process so that set-up time and peak memory stay per workload.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (``setup_s``, ``peak_rss_mb``, ``host_op_ms``);
with ``--trace 1`` it carries the per-layer metrics of a traced run
instead (see ``tracing.py``).  Every run checks the program's outputs
(``checks.py``), writes a digest of every simulated statistic of its
first round to ``perfbench/out/`` and prints the digest's SHA-256.  The
exit code is 0 when every check passed, 1 when one failed, and 2 when the
``repro`` sources are missing.
"""

from __future__ import annotations

import os
import time

T0 = time.perf_counter()
# One BLAS thread: numpy's GEMMs then run the same way in every run and
# never compete with the simulator for the machine's cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_ROUNDS = 2
WORKLOAD_NAMES = ("train-cifar10", "zoo-sweep", "interop-certify",
                  "serve-cifar10")


def process_age_s() -> float:
    """Seconds since this process started (interpreter start-up included).

    Reads the start time from ``/proc/self/stat``; where that is missing or
    implausible, falls back to the time since this module began running.
    """
    since_module = time.perf_counter() - T0
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return since_module
    return age if since_module <= age < since_module + 5.0 else since_module


def host_op_ms(rounds: list[list[tuple[float, int]]]) -> float:
    """Host milliseconds per operation, each slot at its fastest round.

    The host's speed only ever drops (other tenants), in bursts shorter
    than a round; the fastest of a slot's samples is the steadiest
    estimate of the program's own cost.  Medians moved by up to 40 %
    between runs, slot minima by a few percent.
    """
    best = sum(min(dt for dt, _ in slot) for slot in zip(*rounds))
    return best / sum(ops for _, ops in rounds[0]) * 1e3


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_one(args) -> int:
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_s = process_age_s()

    # At least two rounds, so that every slot has a second sample.  In a
    # traced run, rounds alternate traced and untraced (starting traced)
    # and end on a whole pair: the difference between the two halves is
    # what tracing cost.
    rounds: list[list[tuple[float, int]]] = []
    round_s: list[float] = []
    window = time.perf_counter()
    while True:
        if tracer is not None and len(rounds) % 2:
            tracer.uninstall()
        elif tracer is not None and rounds:
            tracer.install()
        start = time.perf_counter()
        rounds.append(workload.run_round())
        round_s.append(time.perf_counter() - start)
        done = (time.perf_counter() - window >= args.seconds
                and len(rounds) >= MIN_ROUNDS)
        if done and (tracer is None or len(rounds) % 2 == 0):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        overhead_s = sum(round_s[0::2]) - sum(round_s[1::2])

    failures = workload.check()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    digest = json.dumps(workload.digest(), sort_keys=True)
    digest_path = OUT / f"{stem}.digest.json"
    digest_path.write_text(digest + "\n", encoding="utf-8")

    attempted = sum(ops for r in rounds for _, ops in r)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations")
    print(f"digest sha256 {hashlib.sha256(digest.encode()).hexdigest()} "
          f"{digest_path.relative_to(HERE.parent)}")
    for msg in failures:
        print(f"CHECK FAILED: {msg}")
    if tracer is not None:
        spans_path = OUT / f"{stem}.spans.json"
        tracer.write_spans(spans_path)
        print(f"spans {len(tracer.names)} {spans_path.relative_to(HERE.parent)}")
        metrics = {k: _metric(v, tracing.PER_LAYER[k][0])
                   for k, v in tracer.metrics(overhead_s).items()}
    else:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "host_op_ms": _metric(host_op_ms(rounds), "ms"),
        }
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": workload.failed_ops(), "metrics": metrics}))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(f"== {name}")
        print(proc.stdout, end="")
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 2 or not lines:
            return proc.returncode or 2
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
