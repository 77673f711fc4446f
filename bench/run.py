#!/usr/bin/env python3
"""Benchmark of probstruct: one workload from one seed, every metric by name.

    python3 bench/run.py --workload {cli,query,verify,docs} --seed N --seconds S --trace {0,1}

The program measured is the working tree's `src/probstruct`, never an
installed copy.  A run sets up, then repeats the workload's fixed operation
list in whole rounds until `--seconds` have passed and at least 100
operations ran, then checks every output against the oracle.  Untraced, it
samples the machine's speed between operations (`speed.py`) and reports
every time on that reference scale.  The last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`.  README.md says what each one means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer, write

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_OPS = 100  # ten samples beyond the 90th percentile
SETUP_REPS, SETUP_SECONDS = 3, 2.0  # set up at least this often and this long

# Timings (ms, us) are the median per call of the span named by the part
# before the unit; the other units are counts over the set-up and one round.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
SCALE = {"ms": 1e3, "us": 1e6}


class Rounds:
    """Whole rounds of a workload's operations, run until the time is up."""

    def __init__(self, wl, state, seconds: float, tr=None, speed=None):
        ops = wl.ops
        self.problems: list[str] = []
        self.spans: list[tuple[float, float]] = []  # start, end of each timed operation
        self.ok: list[bool] = []  # whether it did not fail
        self.rounds = self.failed = 0
        self.first = None
        start = time.perf_counter()
        while True:
            outs, spans = [], []
            for i, op in enumerate(ops):
                if tr is None:
                    speed.due()
                    t0 = time.perf_counter()
                    out = op.run(state)
                    spans.append((t0, time.perf_counter()))
                else:
                    tr.op_id = f"{self.rounds}.{i}"
                    with tr.span("op." + op.kind):
                        out = op.traced(state, tr)
                outs.append(out)
            if tr is not None:
                tr.counting = False
                wl.floors(tr)
            self._settle(ops, outs, spans)
            self.rounds += 1
            if time.perf_counter() - start >= seconds and self.rounds * len(ops) >= MIN_OPS:
                break
        self.attempted = self.rounds * len(ops)

    def _settle(self, ops, outs, spans) -> None:
        """Count the known fault, and hold every other output to round one's."""
        if self.first is None:
            self.first = outs
        self.spans += spans
        for i, op in enumerate(ops):
            fails = op.known_fault and op.check(outs[i]) is not None
            self.failed += fails
            self.ok.append(not fails)
            if not fails and not op.known_fault and outs[i] != self.first[i]:
                self.problems.append(f"round {self.rounds}: {op.kind} #{i} differs from round 0")

    def check(self, wl) -> list[str]:
        """The oracle's verdict on round one; later rounds equal it."""
        problems = self.problems + wl.check_setup()
        for i, (op, out) in enumerate(zip(wl.ops, self.first)):
            if not op.known_fault:
                problem = op.check(out)
                if problem is not None:
                    problems.append(f"{op.kind} #{i}: {problem}")
        return problems


def timed_run(wl, seconds: float):
    """Times on the reference scale of `speed.py`; the table also gives
    the times as measured."""
    speed = wl.speed()
    raw_setups = []
    while len(raw_setups) < SETUP_REPS or sum(t1 - t0 for t0, t1 in raw_setups) < SETUP_SECONDS:
        state = None
        speed.due()
        t0 = time.perf_counter()
        state = wl.setup()
        raw_setups.append((t0, time.perf_counter()))
        speed.due()
    speed.sample()
    setups = [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in raw_setups]
    raw_setups = [t1 - t0 for t0, t1 in raw_setups]
    wl.prepare(state)
    gc.collect()
    r = Rounds(wl, state, seconds, speed=speed)
    speed.sample()
    peak_kb = resource.getrusage(wl.rusage).ru_maxrss
    problems = r.check(wl)
    raw = [t1 - t0 for t0, t1 in r.spans]
    scaled = [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in r.spans]
    t = [x for x, ok in zip(scaled, r.ok) if ok]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": ((r.attempted - r.failed) / sum(scaled), "1/s"),
        "op_p50_ms": (statistics.median(t) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(t, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    raw_ok = [x for x, ok in zip(raw, r.ok) if ok]
    table = [
        f"{len(t)} timed operations in {r.rounds} rounds, setup x{len(setups)}",
        f"speed: {len(speed.times)} reference samples, median {speed.median_ms():.4f} ms"
        f" (the scale takes {speed.scale_s * 1e3:.4f} ms)",
        f"as measured: setup_s {statistics.median(raw_setups):.4f},"
        f" ops_per_s {(r.attempted - r.failed) / sum(raw):.4f},"
        f" op_p50_ms {statistics.median(raw_ok) * 1e3:.4f},"
        f" op_p90_ms {statistics.quantiles(raw_ok, n=10)[8] * 1e3:.4f}",
    ]
    return r, problems, metrics, table


def traced_run(wl, seconds: float, procs, out_path: Path):
    import workloads

    tr = Tracer()
    tr.op_id = "setup"
    state = wl.setup(tr)
    wl.prepare(state)
    r = Rounds(wl, state, seconds, tr)
    problems = r.check(wl)
    tr.op_id, tr.counting = "post", True
    wl.post(state, tr, problems)
    probe = Tracer()
    workloads.probe(probe, procs, problems)
    metrics, table = layer_metrics(tr, probe)
    write(out_path, workload=type(wl).__name__.lower(), run=tr.export(), probe=probe.export())
    table.append(f"spans written to {out_path.relative_to(ROOT)}")
    return r, problems, metrics, table


def layer_metrics(tr, probe):
    """Every per-layer metric, from the run's own spans where it made the
    call and from the coats probe where it did not."""
    own, probed = tr.medians(), probe.medians()
    metrics, table = {}, [f"{'metric':30} {'value':>12} {'unit':5} {'calls':>7} {'self ms':>10}  source"]
    for name, unit in PER_LAYER:
        if unit in SCALE:
            span = name.rsplit("_", 1)[0]
            medians = own if span in own else probed
            median, calls, self_time = medians[span]
            if span == "cli.import":  # the import above the bare interpreter
                median -= medians["cli.interpreter"][0]
                self_time -= medians["cli.interpreter"][2]
            value = median * SCALE[unit]
            line = f"{calls:7d} {self_time * 1e3:10.4f}"
        else:
            medians = own if name in tr.counts else probed
            value = (tr if medians is own else probe).counts[name]
            line = f"{'':7} {'':10}"
        metrics[name] = (value, unit)
        table.append(f"{name:30} {value:12.4f} {unit:5} {line}  {'run' if medians is own else 'probe'}")
    for span, (median, calls, _) in sorted(own.items()):
        if span.startswith("op."):
            table.append(f"{span:30} {median * 1e3:12.4f} ms    {calls:7d}  traced operation")
    return metrics, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "probstruct" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'probstruct'}", file=sys.stderr)
        return 2
    # One CPU for this process and the CLI processes it starts, so that the
    # speed samples come from the CPU the operations run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import workloads

    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        procs = workloads.Processes(SRC, work, os.environ)
        wl = workloads.WORKLOADS[args.workload](args.seed, procs)
        if args.trace:
            out_path = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json"
            r, problems, metrics, table = traced_run(wl, args.seconds, procs, out_path)
        else:
            r, problems, metrics, table = timed_run(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in table:
        print(line)
    for problem in problems:
        print("problem:", problem, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
