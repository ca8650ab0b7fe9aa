"""molscope benchmark: end-to-end CLI timings, or a traced per-layer run.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program runs from `src/` as
`python3 -m molscope.cli`, so nothing needs installing.  Each run measures
whole rounds until --seconds have passed (at least one round).  A round runs
the workload's commands one at a time, first all at --threads 1, then all
at --threads $(nproc).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 1 the metrics
are the per-layer ones (see trace_run.py).  Inputs and witness files go under
.benchwork/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"
SETUP_SAMPLES = 7
OP_TIMEOUT = 170  # seconds; no single command comes near this
SETUP_CODE = "import molscope.cli as c; c.build_parser()"
PROBE_LOOP = 10_000  # iterations of the speed probe's loop (about 1 ms)
PROBE_PERIOD = 0.05  # seconds between probes on each CPU
# The probe loop's median CPU time while a command runs on the same CPU, on
# this machine when quiet; scaled times are seconds at that speed.
PROBE_REFERENCE_S = 0.0018


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def child_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


class SpeedProbe:
    """Measures how fast each CPU runs Python while commands run.

    The vCPUs of a shared machine change speed by up to half from second to
    second, as other guests load the same physical cores.  One thread per
    CPU, pinned to it, times a fixed loop in CPU time every PROBE_PERIOD.
    A command's time divided by the mean loop time over its lifetime, times
    PROBE_REFERENCE_S, is its time at a fixed reference speed.
    """

    def __init__(self, cpus):
        self.samples = {cpu: [] for cpu in cpus}  # cpu -> [(perf_counter, loop s)]
        self.stopping = threading.Event()
        self.threads = [threading.Thread(target=self._probe, args=(cpu,), daemon=True)
                        for cpu in cpus]
        for t in self.threads:
            t.start()

    def _probe(self, cpu: int) -> None:
        os.sched_setaffinity(threading.get_native_id(), {cpu})
        out = self.samples[cpu]
        while not self.stopping.wait(PROBE_PERIOD):
            t0 = time.thread_time()
            m = 0
            for i in range(PROBE_LOOP):
                m ^= ((i & -i) << 3) | (i >> 2)
            out.append((time.perf_counter(), time.thread_time() - t0))

    def scale(self, start: float, end: float, busy: dict) -> float:
        """PROBE_REFERENCE_S over the mean loop time during [start, end],
        widened by a period on each side so short commands get a sample,
        averaged over CPUs weighted by the ticks each was busy."""
        lo, hi = start - PROBE_PERIOD, end + PROBE_PERIOD
        weighted = total = 0.0
        for cpu, ticks in busy.items():
            loops = [s for t, s in self.samples[cpu] if lo <= t <= hi]
            if loops:
                weighted += max(ticks, 1) * PROBE_REFERENCE_S / statistics.mean(loops)
                total += max(ticks, 1)
        return weighted / total if total else 1.0

    def stop(self) -> None:
        self.stopping.set()
        for t in self.threads:
            t.join()


TICK_S = 1 / os.sysconf("SC_CLK_TCK")


def cpu_ticks(cpus) -> dict:
    """{cpu: (busy, stolen)} clock ticks since boot, from /proc/stat; stolen
    ticks are those the host ran something else while the vCPU had work."""
    out = {}
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            name, *ticks = line.split()
            if name.startswith("cpu") and name[3:].isdigit() and int(name[3:]) in cpus:
                user, nice, system, idle, iowait, irq, softirq, steal = map(int, ticks[:8])
                out[int(name[3:])] = (user + nice + system + irq + softirq, steal)
    return out


def steady_wall(wall: float, busy: dict, stolen: dict, factor: float) -> float:
    """Wall time less the steal on the CPUs that did the work (weighted by
    busy ticks), at the reference speed."""
    total = sum(busy.values())
    lost = sum(busy[c] * stolen[c] for c in busy) / total * TICK_S if total else 0.0
    return max(wall - lost, 0.0) * factor


def run_cmd(argv: list[str], work: Path, cpus):
    """(exit code, stdout, start, end, cpu s, busy and stolen ticks per CPU)
    of one command, run on the given CPUs; cpu counts the process and every
    child it reaped (pool workers)."""
    everywhere = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)  # the child inherits this thread's CPUs
    try:
        ticks0 = cpu_ticks(cpus)
        cpu0 = child_seconds()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=child_env(), text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    finally:
        os.sched_setaffinity(0, everywhere)
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT)
    finally:
        proc.kill()
        proc.wait()
    t1 = time.perf_counter()
    cpu = child_seconds() - cpu0
    ticks1 = cpu_ticks(cpus)
    busy = {c: ticks1[c][0] - ticks0[c][0] for c in ticks1}
    stolen = {c: ticks1[c][1] - ticks0[c][1] for c in ticks1}
    if proc.returncode and err:
        sys.stderr.write(err)
    return proc.returncode, out, t0, t1, cpu, busy, stolen


def run_op(op: workloads.Op, threads: int, work: Path, cpus):
    """run_cmd for one CLI invocation."""
    if op.prepare:
        op.prepare()
    return run_cmd([sys.executable, "-m", "molscope.cli", *op.argv(threads)], work, cpus)


def timings(probe: SpeedProbe, pinned: bool, t0, t1, cpu, busy, stolen):
    """(measured, scaled, speed factor) of one command: CPU seconds when it
    ran pinned at one process, wall seconds when it ran on all CPUs."""
    factor = probe.scale(t0, t1, busy)
    if pinned:
        return cpu, cpu * factor, factor
    return t1 - t0, steady_wall(t1 - t0, busy, stolen, factor), factor


def setup_seconds(work: Path, probe: SpeedProbe, cpu: int) -> tuple[float, float]:
    """Median steady and median measured wall time of a fresh interpreter on
    one CPU importing molscope.cli and building its parser (one untimed
    start first fills the bytecode cache)."""
    argv = [sys.executable, "-c", SETUP_CODE]
    steady, measured = [], []
    for i in range(SETUP_SAMPLES + 1):
        code, _, t0, t1, _, busy, stolen = run_cmd(argv, work, {cpu})
        if code:
            raise RuntimeError(f"{SETUP_CODE!r} exited with code {code}")
        if i:
            busy = {cpu: max(busy[cpu], 1)}
            steady.append(steady_wall(t1 - t0, busy, stolen, probe.scale(t0, t1, busy)))
            measured.append(t1 - t0)
    return statistics.median(steady), statistics.median(measured)


class Tally:
    """Operations attempted and failed, and whether every checked output was
    right."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, op: workloads.Op, threads: int, code: int, stdout: str) -> None:
        self.attempted += 1
        try:
            problems = op.check(code, stdout)
        except Exception:  # e.g. a witness file the checker cannot parse
            problems = [f"check raised an exception:\n{traceback.format_exc()}"]
        if code:
            self.failed += 1
        elif problems:
            self.correct = False
        for p in problems:
            print(f"{op.name} --threads {threads}: {p}", file=sys.stderr)


def end_to_end(wl: workloads.Workload, seconds: float, work: Path, tally: Tally) -> dict:
    cpus = sorted(os.sched_getaffinity(0))
    # --threads 1 runs on one CPU and is timed in CPU seconds; --threads
    # $(nproc) runs anywhere and is timed in wall seconds.
    passes = ((1, {cpus[0]}), (len(cpus), set(cpus)))
    probe = SpeedProbe(cpus)
    rounds = []  # per round: (cpu_t1, wall_tmax) scaled, then measured
    try:
        setup, setup_measured = setup_seconds(work, probe, cpus[0])
        start = time.perf_counter()
        while True:
            scaled, measured = [0.0, 0.0], [0.0, 0.0]
            for idx, (threads, run_on) in enumerate(passes):
                for op in wl.ops:
                    code, out, *timed = run_op(op, threads, work, run_on)
                    tally.record(op, threads, code, out)
                    took, steady, factor = timings(probe, idx == 0, *timed)
                    measured[idx] += took
                    scaled[idx] += steady
                    print(f"{op.name} --threads {threads}: {took:.3f} s measured, "
                          f"{steady:.3f} s scaled (speed factor {factor:.3f}, "
                          f"{sum(timed[-1].values()) * TICK_S:.2f} s stolen)", file=sys.stderr)
            rounds.append((*scaled, *measured))
            print("round: cpu_t1 {0:.3f} s scaled, {2:.3f} s measured; wall_tmax {1:.3f} s "
                  "scaled, {3:.3f} s measured".format(*rounds[-1]), file=sys.stderr)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        probe.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print("measured medians: cpu_t1_s {:.4f}, wall_tmax_s {:.4f}, setup_s {:.4f}".format(
        statistics.median(r[2] for r in rounds), statistics.median(r[3] for r in rounds),
        setup_measured), file=sys.stderr)
    return {
        "cpu_t1_s": {"value": statistics.median(r[0] for r in rounds), "unit": "s"},
        "wall_tmax_s": {"value": statistics.median(r[1] for r in rounds), "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "molscope" / "cli.py").is_file():
        print(f"error: no molscope sources under {SRC}", file=sys.stderr)
        return 2
    if "MOLSCOPE_LIMIT_N" in os.environ:
        print("error: unset MOLSCOPE_LIMIT_N; it changes which searches run", file=sys.stderr)
        return 2

    work = WORK / args.workload
    wl = workloads.build(args.workload, args.seed, work)
    tally = Tally()
    if args.trace:
        import trace_run

        metrics = trace_run.traced(wl, work, tally, SRC)
    else:
        metrics = end_to_end(wl, args.seconds, work, tally)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
