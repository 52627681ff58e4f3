"""One repetition of one workload, in a fresh process.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src`` and
``EIGENCONE_CACHE_DIR`` at a new empty directory. Set-up (imports, root
systems, Weyl groups) ends at a ``time.monotonic()`` stamp that run.py
compares with the moment it spawned this process; both read the system-wide
CLOCK_MONOTONIC. The solve runs next to reference.py on the same CPU, and
is timed in this process's CPU time, as is every query within it. Prints one
JSON record on its last line.
"""

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def solve_beside_reference(solve, ctx):
    """Run ``solve(ctx)`` while reference.py samples the CPU it shares.

    Returns (solve CPU seconds, reference CPU seconds per pass). The sampler
    is stopped and waited for on every path out of here.
    """
    sampler = subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        if sampler.stdout.readline().strip() != "ready":
            raise RuntimeError("reference.py did not start")
        start = time.process_time()
        solve(ctx)
        solve_cpu = time.process_time() - start
        out, _ = sampler.communicate(timeout=30)  # closes its stdin: the stop signal
        cpu, passes = json.loads(out)
    finally:
        if sampler.poll() is None:
            sampler.kill()
        sampler.wait()
    return solve_cpu, cpu / passes


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="trace the library and write spans to this file")
    args = p.parse_args()

    import eigencone
    from eigencone import schubert, weyl
    from eigencone.rootdata import build_root_system

    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    labels, solve = workloads.WORKLOADS[args.workload]
    root_systems = {label: build_root_system(label) for label in labels}
    for rs in root_systems.values():
        weyl.weyl_group(rs)
    setup_done = time.monotonic()
    record = {"setup_done": setup_done, "package": eigencone.__file__}

    if not args.setup_only:
        expected = json.loads((HERE / "expected.json").read_text())
        ctx = workloads.Context(root_systems, expected, args.seed)
        record["solve_s"], record["reference_s"] = solve_beside_reference(solve, ctx)
        record["query_s"] = ctx.query_s
        record["attempted"] = ctx.attempted
        record["failures"] = ctx.failures
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tables = [schubert.product_table(rs) for rs in root_systems.values()]
            record["layers"] = tracer.layer_metrics(tables)
            tracer.write(args.spans)
    print(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())
