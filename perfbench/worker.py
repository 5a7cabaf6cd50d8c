"""One benchmark worker: a fresh process that imports binsum and runs passes.

run.py starts it with PYTHONPATH pointing at the checkout's ``src``. The
worker prints ``READY`` once its imports are done (run.py times set-up up to
that line), then, unless ``--probe`` is given, runs passes of one workload
until ``--seconds`` have gone by and prints ``RESULT <json>`` as its last
line.

With ``--trace 0`` every pass is untraced. With ``--trace 1`` each untraced
pass is followed by a traced pass over the same operations; the per-layer
numbers come from the traced ones, and the difference of the two medians is
the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _import_binsum(workload: str, src: Path) -> float:
    started = time.perf_counter()
    import binsum

    if workload == "queries":
        import binsum.cli  # noqa: F401
    elapsed = time.perf_counter() - started
    if Path(binsum.__file__).resolve().parent != (src / "binsum").resolve():
        raise SystemExit(f"imported binsum from {binsum.__file__}, not from {src}")
    return elapsed


def run_pass(ops, tracer=None) -> dict:
    """Run each operation once, timing it alone; check its answer untimed.

    An operation fails when it raises, or when its check rejects the answer
    (for CLI requests that includes an unexpected exit code).
    """
    from workloads import WrongAnswer

    latencies, failures = [], []
    for op in ops:
        if op.before is not None:
            try:
                op.before()
            except WrongAnswer as exc:
                failures.append(f"{op.label}: {exc}")
        if tracer is not None:
            tracer.op_id = op.op_id
        started = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a crash is a failed operation, not a dead run
            latencies.append(time.perf_counter() - started)
            failures.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - started)
        try:
            op.check(result)
        except WrongAnswer as exc:
            failures.append(f"{op.label}: {exc}")
        except Exception as exc:  # an answer the check cannot even read
            failures.append(f"{op.label}: check raised {type(exc).__name__}: {exc}")
    return {"wall": sum(latencies), "latencies": latencies, "failures": failures}


class Workload:
    """Builds each pass's operations for one workload and seed."""

    def __init__(self, name: str, seed: int, threads: int, workdir: Path) -> None:
        import workloads

        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.threads = threads
        self.passes = 0
        # batch passes repeat the same jobs; each queries pass has its own stream
        self.same_ops_each_pass = name != "queries"
        if name == "queries":
            self.checker = workloads.QueryChecker()
        else:
            self.batch = {"tables": workloads.tables_ops,
                          "tally": workloads.tally_ops}[name](seed, threads)

    def finish(self) -> list[str]:
        """Failures found by checks deferred until the measuring ended."""
        return [] if self.same_ops_each_pass else self.checker.finish()

    def run(self, tracer=None, limit: int | None = None, replay: bool = False) -> dict:
        """One pass; with replay, the queries stream of the previous pass again."""
        if self.same_ops_each_pass:
            return run_pass(self.batch, tracer)
        import binsum.cli
        import workloads

        if not replay:
            self.passes += 1
        stream = workloads.request_stream(self.seed, self.passes)[:limit]
        workdir = self.workdir / f"pass-{self.passes}{'-replay' if replay else ''}"
        one = workloads.QueriesPass(stream, self.checker, workdir, self.threads)
        try:
            return run_pass(one.ops(lambda: binsum.cli.main), tracer)
        finally:
            one.cleanup()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--probe", action="store_true",
                        help="exit right after the imports")
    args = parser.parse_args()

    import_s = _import_binsum(args.workload, args.src)
    print("READY", flush=True)
    if args.probe:
        return 0

    from summary import describe
    from tracing import Tracer

    workload = Workload(args.workload, args.seed, args.threads, args.workdir)
    # warm-up for the queries client: first-call costs, checked but not timed
    warmup = [] if workload.same_ops_each_pass else [workload.run(limit=100)]
    tracer = Tracer() if args.trace else None
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        plain.append(workload.run())
        if len(plain) == 1:
            # Peak RSS of set-up plus one pass. Later passes in the same
            # process let the heap fragment further, by an amount that
            # depends on the pass count, which users running once never see.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.install()
            try:
                traced.append(workload.run(tracer, replay=True))
            finally:
                tracer.uninstall()
        if time.perf_counter() >= deadline:
            break

    measured = warmup + plain + traced
    result = {
        "attempted": sum(len(p["latencies"]) for p in measured),
        "failures": [f for p in measured for f in p["failures"]] + workload.finish(),
        "import_s": import_s,
        "peak_rss_mb": peak_rss_mb,
        "passes": [{"wall": p["wall"], "ops": len(p["latencies"])} for p in plain],
        # each operation's times over the passes that ran it
        "op_latencies": ([list(per_op) for per_op in zip(*(p["latencies"] for p in plain))]
                         if workload.same_ops_each_pass
                         else [[x] for p in plain for x in p["latencies"]]),
    }
    if tracer is not None:
        layers = tracer.layer_metrics(len(traced))
        layers["tracing_overhead_s"] = (describe([p["wall"] for p in traced])["median"]
                                        - describe([p["wall"] for p in plain])["median"])
        layers["cli.startup.import_s"] = import_s
        layers["trace.spans"] = len(tracer.start) / len(traced)
        result["layers"] = layers
        if args.spans is not None:
            tracer.dump(args.spans)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
