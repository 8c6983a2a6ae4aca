"""crcodes benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload verify-j284 --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all      # each workload in turn

Run from the root of a crcodes checkout; nothing needs building.  The last
line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1).  Progress and failures go to standard error.

A run sets up once in this process and the workload's setup_samples - 1
times in fresh child processes; setup_s is the median.  It then runs whole
passes over the workload's operations, starting another pass only while it
is expected to end within --seconds.  wall_norm_s is the median over passes
of the pass's operation time scaled to a nominal host speed by a probe
timed around and inside each operation (see SpeedProbe).  Library caches
are cold for the first pass (a fresh process) and emptied before each
later one.  Every operation's result is checked
against gate.py after its pass; an operation that raises or is wrong counts
as failed and the run goes on.  A traced run makes one pass with spans at
the layer boundaries (spans.py), writes them to
.perfbench_work/trace-<workload>-seed<seed>.jsonl and reports per-layer
numbers.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checkout

CHILD_TIMEOUT_S = 170
# kept in step with workloads.WORKLOADS, which cannot be imported before
# the package is found
WORKLOADS = ("verify-j284", "search")


def _child(args: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("child.py")), *args],
        cwd=checkout.ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child.py {' '.join(args)} exited {proc.returncode}")
    return proc.stdout


# a probe's time on the host the benchmark was written on (2-core Xeon VM);
# wall_norm_s is in seconds on a host where the probe takes this long
PROBE_NOMINAL_S = 0.005
PROBE_PERIOD_S = 0.25
BOUNDARY_PROBES = 5


class SpeedProbe:
    """How fast the host runs a fixed piece of work, over one operation.

    The shared host this benchmark was written on runs the same code up to
    25% slower for seconds to minutes at a time.  The probe is a few
    milliseconds of cache-resident dict lookups, integer arithmetic and a
    numpy sort, none of it crcodes code.  It runs before and after each
    operation and, from a SIGALRM timer, every PROBE_PERIOD_S inside it;
    the time spent probing inside the operation is taken out of its time.
    """

    def __init__(self):
        import numpy as np  # after the timed import of crcodes, which pulls it in
        self._argsort = np.argsort
        rng = random.Random(0)
        self._table = {rng.getrandbits(30): i for i in range(4096)}
        self._keys = list(self._table) * 8
        self._xs = np.random.default_rng(0).random(20_000)
        self.samples: list[float] = []
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def probe(self) -> float:
        t0 = time.perf_counter()
        table, acc = self._table, 0
        for key in self._keys:
            acc += table[key]
        for i in range(30_000):
            acc ^= i * i
        self._argsort(self._xs)
        return time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self.probe())
        self.paused += time.perf_counter() - t0

    def begin(self) -> None:
        self.samples = [self.probe() for _ in range(BOUNDARY_PROBES)]
        self.paused = 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def end(self) -> None:
        """Stop probing inside the operation; a pending tick runs now."""
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mean(self) -> float:
        """Mean probe time over the operation, closing probes included."""
        self.samples += [self.probe() for _ in range(BOUNDARY_PROBES)]
        return statistics.mean(self.samples)


def _decided(op, value) -> bool:
    try:
        return bool(op.decided(value))
    except Exception:  # an unreadable result is judged, not scaled, later
        return True


def _run_pass(ops, tracer, probe=None):
    """Time one pass; (wall, normalised wall, [(op, value, error)]).

    With probe, an operation's time leaves out the probes run inside it and
    is scaled by PROBE_NOMINAL_S over the mean probe time, unless the
    operation ended without a verdict: then it ran out its time budget,
    which no host speed changes.  Without probe the normalised wall is the
    wall.
    """
    results = []
    wall = norm = 0.0
    for op in ops:
        tracer.op = op.name
        if probe:
            probe.begin()
        t0 = time.perf_counter()
        value = error = None
        try:
            with tracer.span("bench.op"):
                value = op.run()
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
        if probe:
            probe.end()
        dt = time.perf_counter() - t0
        results.append((op, value, error))
        if probe:
            dt -= probe.paused
            clock_bound = error is None and not _decided(op, value)
            norm += dt if clock_bound else dt * PROBE_NOMINAL_S / probe.mean()
        else:
            norm += dt
        wall += dt
        print(f"  {op.name}: {dt:.3f}s", file=sys.stderr)
    tracer.op = None
    return wall, norm, results


def _judge(results) -> tuple[int, int]:
    """(failed, decided) for one pass, reasons printed to stderr."""
    failed = decided = 0
    for op, value, error in results:
        if error is None:
            try:
                error = op.check(value)
            except Exception as exc:  # an unreadable result is a wrong one
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is None and op.decided(value):
            decided += 1
        if error is not None:
            failed += 1
            print(f"FAILED {op.name}: {error}", file=sys.stderr)
    return failed, decided


def _span_cost_s(n: int = 20000) -> float:
    """Seconds one wrapped call adds, measured on a throwaway tracer."""
    import spans
    tracer = spans.Tracer()
    noop = tracer.wrap(lambda: None, "bench.calibrate")
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    traced = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        (lambda: None)()
    return max(0.0, traced - (time.perf_counter() - t0)) / n


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import_s = checkout.import_crcodes()
    import spans
    import workloads

    checkout.WORK.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[workload](checkout.WORK, seed)
    if wl.input_args() is not None:
        _child(wl.input_args())
    tracer = spans.Tracer() if trace else spans.NullTracer()
    if trace:
        spans.install(tracer)

    t0 = time.perf_counter()
    with tracer.span("bench.setup"):
        state = wl.setup()
    setup = [import_s + time.perf_counter() - t0]
    if not trace:
        setup += [json.loads(_child(["setup", workload]))["setup_s"]
                  for _ in range(wl.setup_samples - 1)]
    print(f"{workload}: setup {setup}", file=sys.stderr)

    ops = wl.ops(state, tracer)
    probe = None if trace else SpeedProbe()
    walls, norms = [], []
    attempted = failed = decided = 0
    start = time.perf_counter()
    while True:
        if walls:
            workloads.clear_library_caches()
        wall, norm, results = _run_pass(ops, tracer, probe)
        walls.append(wall)
        norms.append(norm)
        f, d = _judge(results)
        attempted += len(results)
        failed += f
        decided += d
        print(f"{workload}: pass {len(walls)} wall {wall:.3f}s "
              f"normalised {norm:.3f}s failed {f} decided {d}/{len(results)}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        if trace or elapsed + elapsed / len(walls) > seconds:
            break

    if trace:
        metrics = spans.layer_metrics(tracer.spans)
        metrics["cli.import_s"] = import_s
        metrics["trace.wall_s"] = walls[0]
        metrics["trace.spans"] = len(tracer.spans)
        metrics["trace.overhead_s"] = len(tracer.spans) * _span_cost_s()
        path = checkout.WORK / f"trace-{workload}-seed{seed}.jsonl"
        tracer.write_jsonl(path)
        print(f"{workload}: {len(tracer.spans)} spans in {path}", file=sys.stderr)
        units = {name: spans.unit_of(name) for name in metrics}
    else:
        metrics = {
            "wall_norm_s": statistics.median(norms),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "decided_frac": decided / attempted,
        }
        units = {"wall_norm_s": "s", "setup_s": "s",
                 "peak_rss_mb": "MB", "decided_frac": "ratio"}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process; metrics keyed <workload>.<metric>."""
    checkout.import_crcodes()  # fail here, before any child, if src is missing
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=checkout.ROOT, stdout=subprocess.PIPE, text=True, check=True)
        line = proc.stdout.strip().splitlines()[-1]
        print(f"{name}: {line}")
        result = json.loads(line)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
