"""binsum benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload tables|tally|queries --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S   # every workload

Run from anywhere; the code under test is the ``src`` directory next to
``perfbench``. Each workload runs in a fresh worker process (worker.py) that
imports binsum from there. Set-up time is the median over several fresh
workers of the time from spawning one to the end of its imports.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. The lines above
it give each metric's median, quartiles and sample count, the failed share
and the machine facts. A full result file, and with ``--trace 1`` the spans,
are written under ``.perfbench_out/`` in the checkout.

Exits 2 without a result when the checkout holds no binsum sources, and 1
when a worker fails or overruns.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path

from machine import facts, nproc
from summary import describe, percentile

WORKLOADS = ("tables", "tally", "queries")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 10      # plus the measuring worker itself: 11 set-up samples
START_TIMEOUT_S = 60   # for a worker's imports
WORKER_GRACE_S = 120   # beyond --seconds: the last pass, checks, set-up
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def _worker(workload: str, threads: int, *extra: str) -> tuple[subprocess.Popen, float]:
    """Spawn a worker; return it with the seconds until it reported READY."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--threads", str(threads),
           "--src", str(SRC), *extra]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    started_in_time, _, _ = select.select([proc.stdout], [], [], START_TIMEOUT_S)
    line = proc.stdout.readline() if started_in_time else ""
    ready = time.perf_counter() - started
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{workload} worker did not start (exit {proc.returncode})")
    return proc, ready


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker overran {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}")
    return out


def measure(workload: str, seed: int, seconds: float, trace: int, threads: int) -> dict:
    """Set-up probes, then one measuring worker; returns its raw result."""
    setups = []
    for _ in range(SETUP_PROBES):
        proc, ready = _worker(workload, threads, "--probe", "--seed", "0", "--seconds", "0",
                              "--workdir", str(OUT))
        _finish(proc, 60)
        setups.append(ready)
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    extra = ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--workdir", str(workdir)]
    if trace:
        extra += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.tsv.gz")]
    proc, ready = _worker(workload, threads, *extra)
    setups.append(ready)
    try:
        out = _finish(proc, seconds + WORKER_GRACE_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    last = out.strip().splitlines()[-1] if out.strip() else ""
    if not last.startswith("RESULT "):
        raise WorkerError("worker printed no result")
    raw = json.loads(last[len("RESULT "):])
    raw["setups"] = setups
    return raw


def end_to_end(raw: dict) -> dict[str, dict]:
    """Each end-to-end metric as median, quartiles and sample count."""
    # An operation's latency is its median over the passes that ran it (a
    # batch job runs in every pass, a query in one), so the percentiles do
    # not hinge on how many passes fitted in the run.
    latencies_ms = [percentile(per_op, 50) * 1e3 for per_op in raw["op_latencies"]]
    passes = raw["passes"]
    stats = {
        "setup_s": describe(raw["setups"]),
        "wall_s": describe([p["wall"] for p in passes]),
        "requests_per_s": describe([p["ops"] / p["wall"] for p in passes]),
        "request_p50_ms": describe(latencies_ms),
        "peak_rss_mb": {"median": raw["peak_rss_mb"], "q1": raw["peak_rss_mb"],
                        "q3": raw["peak_rss_mb"], "n": 1},
    }
    p99 = percentile(latencies_ms, 99)
    stats["request_p99_ms"] = {"median": p99, "q1": p99, "q3": p99, "n": len(latencies_ms)}
    return {name: stats[name] for name in END_TO_END_UNITS}


def run_one(workload: str, seed: int, seconds: float, trace: int, machine: dict) -> dict:
    raw = measure(workload, seed, seconds, trace, machine["threads"])
    failed = len(raw["failures"])
    for reason in raw["failures"][:10]:
        print(f"FAILED {workload}: {reason}", file=sys.stderr)
    stats = end_to_end(raw)
    if trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in raw["layers"].items()}
    else:
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine, "end_to_end": stats,
        "failed_share": failed / raw["attempted"], "failures": raw["failures"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return {"record": record, "attempted": raw["attempted"], "failed": failed}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _print_record(record: dict) -> None:
    w = record["workload"]
    for name, s in record["end_to_end"].items():
        print(f"{w:8s} {name:15s} {s['median']:12.4f} {END_TO_END_UNITS[name]:4s} "
              f"(q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n={s['n']})")
    print(f"{w:8s} {'failed_share':15s} {record['failed_share']:12.4f} ratio")
    if record["trace"]:
        for name, m in record["metrics"].items():
            print(f"{w:8s} {name:45s} {m['value']:14.6g} {m['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "binsum" / "__init__.py").is_file():
        print(f"error: no binsum sources under {SRC}", file=sys.stderr)
        return 2
    threads = min(2, nproc())
    machine = facts(ROOT, threads)
    print("machine " + json.dumps(machine))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_one(name, args.seed, args.seconds, args.trace, machine))
            _print_record(results[-1]["record"])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["record"]["metrics"]
    else:
        metrics = {f"{r['record']['workload']}.{name}": m
                   for r in results for name, m in r["record"]["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
