"""The reference loop that ``solve_ref`` is measured in, sampled during a solve.

worker.py starts this script next to its solve, on the same CPU. It runs
one slice of reference passes at once, prints ``ready``, and then every
PERIOD_S runs another slice of SLICE_CPU_S of its own CPU time, until its
standard input is closed. It then prints ``[cpu_s, passes]`` summed over
all its slices and exits. Because both processes share one CPU, the slices
see the same host speed as the solve does at the same moments; the
scheduler interleaves them, and each side counts only its own CPU time.

    python3 perfbench/reference.py < /dev/null
"""

import json
import select
import sys
import time
from fractions import Fraction

PERIOD_S = 0.2  # between slices: the sampler takes about a tenth of the CPU
SLICE_CPU_S = 0.02


def reference_pass():
    """A fixed pure-Python loop over Fractions, the library's number type,
    so that a slower host slows it as much as it slows the library."""
    acc = Fraction(0)
    for i in range(1, 1001):
        acc += Fraction(i % 7 + 1, i)
        if acc.denominator > 10**30:
            acc = Fraction(acc.numerator % 1000, 7)
    return acc


def run_slice():
    """Whole passes until SLICE_CPU_S of CPU time: (cpu seconds, passes)."""
    start = time.process_time()
    passes = 0
    while True:
        reference_pass()
        passes += 1
        cpu = time.process_time() - start
        if cpu >= SLICE_CPU_S:
            return cpu, passes


def main():
    cpu, passes = run_slice()
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        c, n = run_slice()
        cpu += c
        passes += n
    print(json.dumps([cpu, passes]), flush=True)


if __name__ == "__main__":
    main()
