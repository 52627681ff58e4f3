"""Layered benchmark for eigencone.

    python3 perfbench/run.py --workload d4_cone --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout. Every repetition of a workload is a fresh
single-threaded process (worker.py) with an empty product-table cache, so
neither the on-disk cache nor the library's in-process caches carry over.
Repetitions run one at a time, in a closed loop, until ``--seconds`` would be
exceeded (at least one runs). A run first spawns a few set-up-only
processes so that ``setup_s`` is a median even when one solve fills the run.
``solve_ref`` is each solve's CPU time divided by the mean CPU time of one
pass of a fixed reference loop that reference.py runs in slices beside the
solve, on the same CPU; a median over repetitions. ``solve_s``, the solve's
CPU time in seconds, is printed beside it.

With ``--trace 0`` the last line of output carries the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics from
traced repetitions, after one untraced repetition that ``trace.overhead_s``
is measured against. Earlier lines show every metric with its unit, the
sample counts and the machine state; a JSON record of the run is kept under
``.bench_build/perfbench/``.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # the whole run, children included, must end before this


class BenchError(Exception):
    pass


def percentile(values, q):
    """Linear interpolation between order statistics; q in [0, 1]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 0.5)


class Runner:
    """Spawns worker processes for one workload and collects their records."""

    def __init__(self, root, workload, seed, deadline):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.scratch = root / ".bench_build" / "perfbench"
        self.scratch.mkdir(parents=True, exist_ok=True)

    def spawn(self, setup_only=False, spans=None):
        cache = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"),
                   EIGENCONE_CACHE_DIR=cache, PYTHONHASHSEED="0")
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed)]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", str(spans)]
        try:
            spawned = time.monotonic()
            proc = subprocess.run(cmd, env=env, cwd=self.root, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - spawned))
            ended = time.monotonic()
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload}: a repetition ran past {RUN_LIMIT_S} s")
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"{self.workload}: worker exited {proc.returncode}\n{proc.stderr}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        package = Path(record["package"]).resolve()
        if self.root / "src" not in package.parents:
            raise BenchError(f"imported eigencone from {package}, not from this checkout")
        record["setup_s"] = record["setup_done"] - spawned
        record["wall_s"] = ended - spawned
        return record


def repeat(runner, seconds, started, spans=None):
    """Repetitions until the next one would end after ``seconds``."""
    reps = []
    while True:
        reps.append(runner.spawn(spans=spans))
        longest = max(r["wall_s"] for r in reps)
        if time.monotonic() - started + longest > seconds:
            return reps


def measure(root, workload, seed, seconds, trace):
    started = time.monotonic()
    runner = Runner(root, workload, seed, started + RUN_LIMIT_S)
    probes = [runner.spawn(setup_only=True) for _ in range(SETUP_PROBES)]
    if trace:
        baseline = [runner.spawn()]
        spans = runner.scratch / f"spans-{workload}-seed{seed}.jsonl"
        reps = repeat(runner, seconds, started, spans=spans)
    else:
        baseline = []
        reps = repeat(runner, seconds, started)

    queries = [q for r in reps for q in r["query_s"]]
    result = {
        "setup_s": median([r["setup_s"] for r in probes + baseline + reps]),
        "solve_ref": median([r["solve_s"] / r["reference_s"] for r in reps]),
        "solve_s": median([r["solve_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "queries_per_s": len(queries) / sum(queries),
        "query_ms.p50": 1000 * percentile(queries, 0.5),
        "query_ms.p75": 1000 * percentile(queries, 0.75),
    }
    if trace:
        for name in reps[0]["layers"]:
            result[name] = median([r["layers"][name] for r in reps])
        result["trace.overhead_s"] = result["solve_s"] - median([r["solve_s"] for r in baseline])
    failures = [f for r in baseline + reps for f in r["failures"]]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": sum(r["attempted"] for r in baseline + reps),
        "failures": failures,
        "samples": {"setup": len(probes) + len(baseline) + len(reps),
                    "solve": len(reps), "queries": len(queries)},
        "metrics": result,
        "reps": [{k: r[k] for k in ("setup_s", "solve_s", "reference_s", "query_s",
                                         "peak_rss_mb")}
                 for r in baseline + reps],
        "machine": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()),
            "wall_s": time.monotonic() - started,
        },
    }


def report(run, spec):
    """Print the run for a reader; return the result object for the last line."""
    key = "per_layer" if run["trace"] else "end_to_end"
    metrics = {}
    print(f"== {run['workload']}  seed={run['seed']}  seconds={run['seconds']}  "
          f"trace={run['trace']}  samples={run['samples']}")
    for m in spec[key]:
        if m["name"] not in run["metrics"]:
            raise BenchError(f"metric {m['name']} was not measured")
        value = run["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:36s} {value:>14.6g} {m['unit']}")
    if not run["trace"]:
        # Printed, not declared: they follow the host's speed, and across
        # seeds they spread past the largest bound BENCHMARK.json allows
        # (see README.md).
        samples = run["samples"]
        for name, unit, of in (("solve_s", "s", f"{samples['solve']} repetitions"),
                               ("queries_per_s", "1/s", f"{samples['queries']} queries"),
                               ("query_ms.p50", "ms", f"{samples['queries']} queries"),
                               ("query_ms.p75", "ms", f"{samples['queries']} queries")):
            print(f"  {name:36s} {run['metrics'][name]:>14.6g} {unit} (of {of})")
    failed = len(run["failures"])
    print(f"  {'check_fail_ratio':36s} {failed / run['attempted']:>14.6g} "
          f"({failed} of {run['attempted']} checks failed)")
    for f in run["failures"]:
        print(f"  FAIL {f}")
    m = run["machine"]
    print(f"  python {m['python']}  nproc {m['nproc']}  loadavg {m['loadavg']}  "
          f"wall {m['wall_s']:.1f} s")
    return {"correct": failed == 0, "attempted": run["attempted"], "failed": failed,
            "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = Path.cwd().resolve()
    # Workers inherit this, so every solve and its reference sampler share a CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if not (root / "src" / "eigencone" / "__init__.py").is_file():
            raise BenchError(f"no eigencone sources under {root / 'src'}; "
                             "run from the root of a checkout")
        spec = json.loads((root / "BENCHMARK.json").read_text())
        seconds = args.seconds or spec["run_seconds"]
        if args.workload == "all":
            runs = [(w["name"], t) for w in spec["workloads"] for t in (0, 1)]
        else:
            runs = [(args.workload, args.trace)]

        out_dir = root / ".bench_build" / "perfbench"
        results = {}
        for workload, trace in runs:
            run = measure(root, workload, args.seed, seconds, trace)
            (out_dir / f"run-{workload}-seed{args.seed}-trace{trace}.json").write_text(
                json.dumps(run, indent=1))
            results[(workload, trace)] = report(run, spec)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/trace{t}": r["metrics"] for (w, t), r in results.items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
