"""Does a known slowdown pass through the scaled times?

    python3 bench/passthrough.py --pairs 8

Runs a fixed piece of program work, `count_mols(4, 2)` repeated 10 times in
a fresh interpreter, and the same work repeated 11 times (10% more), one
after the other, timed exactly as run.py times a workload's commands: CPU
time pinned to one CPU at one process (as `cpu_t1_s`), and wall time on all
CPUs through the pool at $(nproc) processes (as `wall_tmax_s`).  For each
timing it prints the quartiles, over the pairs, of the ratio of the longer
command's time to the shorter one's, measured and scaled.  A scaling that
passes changes in the program through gives scaled ratios near 1.1.
Run from the root of a source checkout, like run.py.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys

import run

REPS = (10, 11)
CODE = ("from molscope import search as s; o = s.SearchOptions(parallel={par}, threads={threads})\n"
        "for _ in range({reps}): s.count_mols(4, 2, o)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=8)
    args = ap.parse_args()

    cpus = sorted(os.sched_getaffinity(0))
    timings = (("cpu_t1", True, {cpus[0]}, 1), ("wall_tmax", False, set(cpus), len(cpus)))
    ratios = {(name, kind): [] for name, *_ in timings for kind in ("measured", "scaled")}
    work = run.WORK / "passthrough"
    work.mkdir(parents=True, exist_ok=True)
    probe = run.SpeedProbe(cpus)
    try:
        for pair in range(args.pairs):
            for name, pinned, run_on, threads in timings:
                took = []
                for reps in REPS:
                    code = CODE.format(par=not pinned, threads=threads, reps=reps)
                    rc, _, *timed = run.run_cmd([sys.executable, "-c", code], work, run_on)
                    if rc:
                        raise RuntimeError(f"the {reps}-repetition command exited with code {rc}")
                    took.append((*run.timings(probe, pinned, *timed), sum(timed[-1].values()) * run.TICK_S))
                (m0, s0, f0, st0), (m1, s1, f1, st1) = took
                ratios[name, "measured"].append(m1 / m0)
                ratios[name, "scaled"].append(s1 / s0)
                print(f"pair {pair + 1} {name}: measured {m0:.3f} -> {m1:.3f} s, scaled {s0:.3f} -> "
                      f"{s1:.3f} s (speed factor {f0:.3f} -> {f1:.3f}, stolen {st0:.2f} -> {st1:.2f} s)",
                      file=sys.stderr)
    finally:
        probe.stop()
    expected = REPS[1] / REPS[0]
    print(f"ratio of {REPS[1]} to {REPS[0]} repetitions (expected {expected:.3f}), over {args.pairs} pairs")
    print("| timing | time | q1 | median | q3 |")
    print("|---|---|---|---|---|")
    for (name, kind), vs in ratios.items():
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        print(f"| {name} | {kind} | {q1:.3f} | {med:.3f} | {q3:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
