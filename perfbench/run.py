"""clvkit benchmark: whole CLI runs end to end, and a traced run per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload longtail --seed 1 --seconds 20 --trace 0

One benchmark process generates the workload's inputs from ``--seed``, then
runs its ``clvkit`` commands one after another, each as its own
subprocess: a closed loop with one client, so no two commands ever run at
once. It repeats the sequence until ``--seconds`` would be exceeded, checks
every output, and prints the metrics as one JSON line.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` reports the per-layer metrics: each repeat runs the sequence
once plainly and once through ``traced.py``, which runs the same command
in-process with a span around every call into a clvkit module. Layer times
are span self times; ``tracing.overhead_s`` is traced minus plain wall time
over the sequence's commands. Counts come from the inputs and outputs, so
they repeat exactly.

Every time the benchmark reports is adjusted for the host's speed. On a
shared host the same command runs up to 70% slower for minutes at a time,
as other tenants load the machine. So each repeat also times
``reference_s``, fixed pure-Python work in the benchmark's own code that no
change to the program can move, and each time is multiplied by
``REFERENCE_S`` over the run's mean reference time: it reads as seconds on
a host where the reference takes ``REFERENCE_S``. The raw mean reference
time is the per-layer metric ``host.reference_s``. Over ten-minute runs of
longtail on a 2-core shared host, this cut the spread (IQR/median) of
eight-repeat means from 0.20 to 0.06.

End-to-end metrics, each averaged over all of the run's repeats (the mean
of repeats that vary mostly from one to the next spreads less from run to
run than their median):

* ``setup_s``: cold ``import clvkit.cli`` in a fresh interpreter, one probe
  per repeat; every invocation pays it.
* ``wall_s``: first command start to last command end.
* ``cpu_s``: user plus system CPU time of the CLI processes, so a change
  that buys wall time with more cores still shows its cost.
* ``peak_rss_mb``: the largest peak resident set of any one CLI process,
  as the process itself reads it at exit (``measured.py``), so the
  benchmark's own memory never counts; the median over the repeats.
* ``main_rows_per_s``: input rows of the workload's main command (``score``
  on longtail and competing, ``fit-odds`` on panel, customers simulated on
  simulate), summed over the repeats, over that command's summed wall time.
  Throughputs are divided by the host-speed factor, times multiplied by it.

An invocation fails when it exits non-zero or its output check fails;
``failed`` over ``attempted`` in the result is the failed share.

The program is taken from ``src/`` under the current directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
# A run must end within 180 s; this stops it well before that.
HARD_LIMIT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "main_rows_per_s": "1/s",
}

# A typical reference time on the 2-core shared host the bounds were set on.
# It only sets the scale of the adjusted times; changing it moves every
# reported time by the same factor.
REFERENCE_S = 0.35
_REFERENCE_ROWS = 60_000
_REFERENCE_CSV = "\n".join(
    f"c{i:06d},{i % 120},{i * 7919 % 10007 / 10007:.6f},{i * 104729 % 50021 / 1000:.6f}"
    for i in range(_REFERENCE_ROWS))

_LAYER_SPANS = ["pipeline.score", "simulate.generate", "simulate.write_truth",
                "dataio.read_calibration", "dataio.read_scoring",
                "dataio.write_projections", "dataio.write_cohort",
                "survival.estimate", "survival.detect_tail", "odds.fit", "cli.main"]
_COUNTS = ["pipeline.customer_months", "pipeline.chunk_steps", "pipeline.clipped_customers",
           "dataio.rows_read", "dataio.rows_written", "survival.tail_start",
           "survival.tail_start_gap", "survival.pooled_bins", "odds.iterations"]
_COMMANDS = ["baseline", "score", "fit-odds", "simulate"]

PER_LAYER_UNITS = {
    **{("cli.self_s" if span == "cli.main" else f"{span}_s"): "s" for span in _LAYER_SPANS},
    "pipeline.ns_per_customer_month": "ns",
    "pipeline.capped_share": "share",
    **{name: "count" for name in _COUNTS},
    "tracing.overhead_s": "s",
    "host.reference_s": "s",
    **{f"command.{name.replace('-', '_')}_s": "s" for name in _COMMANDS},
}


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


@dataclass
class Outcome:
    """One finished CLI process."""

    command: workloads.Command
    start: float
    end: float
    cpu_s: float
    rss_mb: float
    problem: str | None  # None when it exited 0 and its output checked out
    spans: list | None = None

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Runner:
    """Spawns the CLI from one checkout and keeps the run's tallies."""

    def __init__(self, root: Path, work: Path):
        src = root / "src"
        if not (src / "clvkit" / "cli.py").is_file():
            raise BenchError(f"no clvkit sources at {src}; run from the repository root")
        self.src = src
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": str(src)}
        self.log = work / "command.log"
        self.attempted = 0
        self.failed = 0

    def _spawn(self, argv: list[str]) -> tuple[int, float, float, float]:
        with open(self.log, "w", encoding="utf-8") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, start, end, usage.ru_utime + usage.ru_stime

    def import_s(self) -> float:
        """Time of one cold ``import clvkit.cli`` in a fresh interpreter."""
        probe = ("import time; t = time.perf_counter(); import clvkit.cli; "
                 "print(time.perf_counter() - t); print(clvkit.cli.__file__)")
        done = subprocess.run([sys.executable, "-c", probe], env=self.env,
                              capture_output=True, text=True, check=False)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or len(lines) != 2:
            raise BenchError(f"cannot import clvkit.cli: {done.stderr.strip()}")
        if Path(lines[1]).resolve().parent.parent != self.src.resolve():
            raise BenchError(f"clvkit imported from {lines[1]}, not from {self.src}")
        return float(lines[0])

    def sequence(self, workload: workloads.Workload, traced: bool) -> list[Outcome]:
        """Run the workload's commands in order, then check every output."""
        outcomes = []
        for index, command in enumerate(workload.commands):
            spans_path = self.work / f"spans{index}.json"
            peak_path = self.work / f"peak{index}.txt"
            peak_path.unlink(missing_ok=True)
            argv = ([str(HERE / "traced.py"), str(spans_path), *command.argv] if traced
                    else [str(HERE / "measured.py"), str(peak_path), *command.argv])
            code, start, end, cpu = self._spawn(argv)
            self.attempted += 1
            problem = None
            rss = 0.0
            if code != 0:
                problem = (f"{command.name} exited {code}: "
                           f"{self.log.read_text(encoding='utf-8')[-400:].strip()}")
            elif not traced:
                try:
                    rss = int(peak_path.read_text(encoding="ascii")) / 1024.0
                except (OSError, ValueError) as exc:
                    problem = f"{command.name} left no peak resident set: {exc!r}"
            outcomes.append(Outcome(command, start, end, cpu, rss, problem))
            print(f"{'traced ' if traced else ''}{command.name}: {end - start:.3f} s",
                  file=sys.stderr)
            if problem:
                break
            if traced:
                outcomes[-1].spans = json.loads(spans_path.read_text(encoding="utf-8"))
        for outcome in outcomes:
            if outcome.problem is None:
                try:
                    outcome.problem = outcome.command.check()
                except (ValueError, IndexError, KeyError, OSError) as exc:
                    outcome.problem = f"{outcome.command.name} output unreadable: {exc!r}"
            if outcome.problem:
                self.failed += 1
                print(f"FAILED {outcome.problem}", file=sys.stderr)
        return outcomes


def reference_s() -> float:
    """Time of fixed work like the CLI's: CSV in, per-row Python, CSV out."""
    start = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += i * i
    rows = [(cid, int(tenure), float(a), float(b))
            for cid, tenure, a, b in csv.reader(io.StringIO(_REFERENCE_CSV))]
    values = {cid: a * b + tenure for cid, tenure, a, b in rows}
    out = csv.writer(io.StringIO())
    for cid, value in values.items():
        out.writerow([cid, f"{value:.6f}"])
    return time.perf_counter() - start


def _speed(references: list[float]) -> float:
    """The factor that turns this run's times into times at ``REFERENCE_S``."""
    reference = statistics.fmean(references)
    print(f"host reference {reference:.3f} s over {len(references)} repeats; "
          f"times scaled by {REFERENCE_S / reference:.3f}", file=sys.stderr)
    return REFERENCE_S / reference


def _repeat(seconds: float, deadline: float, one) -> list:
    """Call ``one`` until another call would overrun ``seconds``; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(one())
        now = time.perf_counter()
        took = now - began
        if now - start + took > seconds or now + 2 * took > deadline:
            return results


def end_to_end(runner: Runner, workload: workloads.Workload, seconds: float,
               deadline: float) -> dict[str, float]:
    # One reference and one import probe per repeat spread their samples
    # over the whole run, so they see the same machine as the commands do.
    repeats = _repeat(seconds, deadline,
                      lambda: (reference_s(), runner.import_s(),
                               runner.sequence(workload, traced=False)))
    speed = _speed([ref for ref, _, _ in repeats])
    runs = [run for _, _, run in repeats]
    main_runs = [o for run in runs for o in run if o.command.name == workload.main]
    if not main_runs:
        raise BenchError(f"{workload.main} never ran: an earlier command failed every time")
    return {
        "setup_s": speed * statistics.fmean(setup for _, setup, _ in repeats),
        "wall_s": speed * statistics.fmean(run[-1].end - run[0].start for run in runs),
        "cpu_s": speed * statistics.fmean(sum(o.cpu_s for o in run) for run in runs),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in run) for run in runs),
        "main_rows_per_s": (sum(o.command.throughput_rows for o in main_runs)
                            / sum(o.wall_s for o in main_runs) / speed),
    }


def self_times(spans: list) -> dict[str, float]:
    """Per span name: summed duration minus the time covered by child spans."""
    children = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for (name, start, end, _), covered in zip(spans, children):
        totals[name] += end - start - covered
    return totals


def per_layer(runner: Runner, workload: workloads.Workload, seconds: float,
              deadline: float) -> dict[str, float]:
    def pair():
        return (reference_s(), runner.sequence(workload, traced=False),
                runner.sequence(workload, traced=True))

    pairs = _repeat(seconds, deadline, pair)
    speed = _speed([ref for ref, _, _ in pairs])
    layers: dict[str, list[float]] = defaultdict(list)
    for _, plain, traced in pairs:
        totals: dict[str, float] = defaultdict(float)
        for outcome in traced:
            for name, value in self_times(outcome.spans or []).items():
                totals[name] += value
        for span in _LAYER_SPANS:
            layers[span].append(totals[span])
        layers["overhead"].append(sum(o.wall_s for o in traced) - sum(o.wall_s for o in plain))
        for name in _COMMANDS:
            layers[name].append(sum(o.wall_s for o in plain if o.command.name == name))

    metrics = {("cli.self_s" if span == "cli.main" else f"{span}_s"):
               speed * statistics.median(layers[span]) for span in _LAYER_SPANS}
    metrics["tracing.overhead_s"] = speed * statistics.median(layers["overhead"])
    for name in _COMMANDS:
        metrics[f"command.{name.replace('-', '_')}_s"] = speed * statistics.median(layers[name])
    metrics["host.reference_s"] = REFERENCE_S / speed
    counts = {name: 0 for name in _COUNTS}
    counts["pipeline.capped_share"] = 0.0
    if runner.failed == 0:
        counts.update(workload.counts())
    counts["dataio.rows_read"] = sum(c.rows_read for c in workload.commands)
    counts["dataio.rows_written"] = sum(c.rows_written for c in workload.commands)
    metrics.update(counts)
    months = counts["pipeline.customer_months"]
    metrics["pipeline.ns_per_customer_month"] = (
        metrics["pipeline.score_s"] / months * 1e9 if months else 0.0)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input size by this factor (smoke tests)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    started = time.perf_counter()
    deadline = started + HARD_LIMIT_S - 20

    def out_of_time(signum, frame):
        raise TimeoutError(f"run exceeded {HARD_LIMIT_S} s")

    root = Path.cwd()
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(HARD_LIMIT_S)
    try:
        runner = Runner(root, work)
        work.mkdir(parents=True)
        workload = workloads.WORKLOADS[args.workload](args.seed, args.scale, work)
        measure = per_layer if args.trace else end_to_end
        values = measure(runner, workload, args.seconds, deadline)
    except (BenchError, TimeoutError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # absent, or another run is using it

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
