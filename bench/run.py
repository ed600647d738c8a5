"""Benchmark of milalign: three single-process batch workloads.

    python3 bench/run.py --workload desk --seed 0 --seconds 20 --trace 0

Each round of a workload runs in a fresh interpreter (bench/worker.py):
generate, write and read back a corpus, train, save and load a
checkpoint, then evaluate (desk, eval-heavy) or run the aggregator grid
(grid). Rounds repeat until --seconds have passed; every round of a run
does the same operations on the same inputs, which --seed determines.
Set-up (interpreter start to workload ready) is measured on every round
and on a few extra set-up-only starts, and reported as a median.

With --trace 0 the run reports the end-to-end metrics, medians over its
rounds. With --trace 1 untraced and traced rounds alternate, and the run
reports the per-layer metrics of the traced rounds plus the tracing
overhead (traced minus untraced wall time). The first round of every run
also checks the program's outputs against independent references
(bench/checks.py). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import unit_of
from worker import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 2   # set-up-only starts per run, on top of one per round
RUN_LIMIT_S = 170  # no run outlasts this, whatever --seconds says

END_TO_END = {"wall_s": "s", "setup_s": "s", "gen_data_docs_per_s": "1/s",
              "train_samples_per_s": "1/s", "eval_cases_per_s": "1/s",
              "peak_rss_mb": "MB"}


class RoundFailed(RuntimeError):
    pass


def run_worker(args, extra, deadline):
    """Start one worker; return (seconds until it printed ready, its JSON)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - start), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise RoundFailed(f"worker exited with code {code} "
                          f"({'before' if first.strip() != 'ready' else 'after'} "
                          "set-up)")
    lines = rest.strip().splitlines()
    return ready_s, json.loads(lines[-1]) if lines else None


def end_to_end(rounds, setup) -> dict:
    walls, gen, train, evals, rss = [], [], [], [], []
    for r in rounds:
        stage, counts = r["stage_s"], r["counts"]
        walls.append(sum(stage.values()))
        gen.append(counts["documents"] / stage["gen_data"])
        train.append(counts["samples"] / stage["train"])
        evals.append(counts["eval_cases"] / stage["eval"])
        rss.append(r["rss_mb"])
    values = {"wall_s": walls, "setup_s": setup, "gen_data_docs_per_s": gen,
              "train_samples_per_s": train, "eval_cases_per_s": evals,
              "peak_rss_mb": rss}
    return {name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(traced, untraced) -> dict:
    names = traced[0]["layers"].keys()
    metrics = {name: {"value": statistics.median(r["layers"][name] for r in traced),
                      "unit": unit_of(name)} for name in names}
    overhead = (statistics.median(sum(r["stage_s"].values()) for r in traced)
                - statistics.median(sum(r["stage_s"].values()) for r in untraced))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "milalign" / "__init__.py").is_file():
        print(f"error: no milalign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    trace_out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    deadline = time.perf_counter() + RUN_LIMIT_S
    setup, results, traced_flags = [], [], []
    try:
        for i in range(SETUP_PROBES):
            ready_s, _ = run_worker(args, ["--dir", str(run_dir / f"probe{i}"),
                                           "--setup-only"], deadline)
            setup.append(ready_s)
        measure_start = time.perf_counter()
        i = 0
        while True:
            traced = args.trace == 1 and i % 2 == 1
            extra = ["--dir", str(run_dir / f"round{i}")]
            if i == 0:
                extra.append("--check")
            if traced:
                extra += ["--trace-out", str(trace_out)]
            ready_s, result = run_worker(args, extra, deadline)
            shutil.rmtree(run_dir / f"round{i}", ignore_errors=True)
            setup.append(ready_s)
            results.append(result)
            traced_flags.append(traced)
            i += 1
            if i >= 1 + args.trace and \
                    time.perf_counter() - measure_start >= args.seconds:
                break
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = results[0].get("problems", [])
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    whole = [(r, t) for r, t in zip(results, traced_flags) if r["stage_s"] is not None]
    digests = {r["digest"] for r, _ in whole}
    if len(digests) > 1:
        print("check failed: rounds on the same inputs gave different outputs",
              file=sys.stderr)
    untraced = [r for r, t in whole if not t]
    traced = [r for r, t in whole if t]
    if not untraced or (args.trace and not traced):
        print("error: no round completed its stages", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(traced, untraced)
    else:
        metrics = end_to_end(untraced, setup)
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({
        "correct": not problems and len(digests) == 1,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
