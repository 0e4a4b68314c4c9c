#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for `lelab run` and the Bohr-sector API.

Usage (from the repository root):

    python3 perfbench/run.py --workload cubic-yukawa --seed 1 --seconds 26 --trace 0

Workloads (see ``workloads.WHY``): ``cubic-yukawa``, ``line-long`` and
``classical-kick`` run `lelab run` in child processes; ``bohr-sectors``
runs ``bohr_driver.py`` in a child.  Inputs are generated from ``--seed``
and validated with ``lelab.config.validate_config`` before any timing.

``--trace 0`` (end to end, closed loop, one child at a time):
  1. one untimed warm-up child on the default-seed inputs, compared with
     the stored reference;
  2. cycles of one child on the inputs cut to one time step (the driver
     without decompositions) and ``RUNS_PER_SETUP`` full children, each
     full child after a ``calibrate.py`` child, until ``--seconds``
     have passed (at least ``MIN_CYCLES``).  ``setup_s`` and ``run_s``
     are the median wall times of the cut and of the full children,
     each scaled by
     ``CALIBRATION_REF_S`` / the calibration children's median: seconds
     at the machine speed where the fixed calibration work takes
     ``CALIBRATION_REF_S``.  On a shared host the speed drifts by tens
     of percent between minutes; the scaling takes that drift out of a
     comparison, and the raw medians are printed beside them.  The
     largest peak RSS of the full children, from ``os.wait4``, is
     ``peak_rss_mb``: one child's peak can land on either of two values
     some megabytes apart, and the share of each drifts over time, so
     their median would jump between them.
``--trace 1`` (per layer): ``cli.startup_s`` from children that only
import ``lelab.cli``, then in-process runs alternating untraced and
traced (see ``tracing.py``) until ``--seconds`` have passed; per-layer
values are medians over the traced runs, ``trace.overhead_s`` is the
traced minus the untraced median.  Layers a workload never calls read 0.

Every run's output is checked (``workloads.py``).  A run fails when it
exits nonzero, its summary reports a failed invariant check, or the
check rejects its output; ``fail_share`` is failed / attempted.  The
program runs with the environment as given: ``LEL_THREADS`` and BLAS
thread variables are recorded, never set.  Each invocation writes a
results file with provenance under ``.bench_build/perfbench/results``;
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CALIBRATION = HERE / "calibrate.py"
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

RUNS_PER_SETUP = 2
MIN_CYCLES = 2
# Median wall seconds of calibrate.py on a 2-CPU Xeon with OpenBLAS
# 0.3.31; it only sets the scale of run_s and setup_s.
CALIBRATION_REF_S = 0.33
STARTUP_RUNS = 5
MIN_TRACED = 2
# So that one invocation ends within 180 s: start no timed run after
# STOP_S and kill any child still running at DEADLINE_S (both counted
# from the start of the measurement; a killed child is a failed run).
STOP_S = 140.0
DEADLINE_S = 165.0

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Which statistic of the samples each end-to-end metric reports.
REPORTED = {"run_s": "median", "setup_s": "median", "peak_rss_mb": "max"}
PER_LAYER_COUNTS = (
    "basis.points", "basis.shells", "reduction.workers", "reduction.sectors",
    *(f"{layer}_calls" for layer in tracing.COUNTED_LAYERS),
)
PER_LAYER = tuple(sorted(
    [("cli.startup_s", "s"), ("harness.run_s", "s"), ("harness.self_s", "s"),
     ("reduction.row_ms", "ms"), ("reduction.sector_mb", "MB"), ("linalg.flops_est", "flop"),
     ("trace.overhead_s", "s"), ("trace.root_s", "s"), ("trace.remainder_s", "s"),
     ("trace.overlap_s", "s")]
    + [(f"{layer}_s", "s") for layer in tracing.TIMED_LAYERS]
    + [(name, "count") for name in PER_LAYER_COUNTS]
))


@dataclass
class Run:
    """One checked execution of a workload, in a child or in process."""

    kind: str
    wall_s: float
    rss_mb: float | None
    problems: list[str]


class Bench:
    """Inputs, work directory and run log of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, size: int, work: Path):
        self.workload, self.work = workload, work
        self.runs: list[Run] = []
        self.start = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.reference = wl.load_reference(workload, size)
        self.configs = {
            "default": wl.make_config(workload, wl.DEFAULT_SEED, size),
            "full": wl.make_config(workload, seed, size),
            "setup": wl.make_config(workload, seed, size, setup=True),
        }
        self.paths = {}
        self._first_output: dict[str, bytes] = {}
        from lelab.config import validate_config

        for name, cfg in self.configs.items():
            text = json.dumps(cfg, indent=1)
            validate_config(text)  # a bad config fails here, before any timing
            self.paths[name] = work / f"{name}.json"
            self.paths[name].write_text(text)

    # -- one run ---------------------------------------------------------
    def command(self, config: str, out_dir: Path) -> list[str]:
        cfg = str(self.paths[config])
        if wl.is_driver(self.workload):
            cmd = [sys.executable, str(HERE / "bohr_driver.py"), "--config", cfg,
                   "--out", str(out_dir / "driver.json")]
            return cmd + (["--setup-only"] if config == "setup" else [])
        return [sys.executable, "-m", "lelab.cli", "run", "--config", cfg, "--out-dir", str(out_dir)]

    def child(self, kind: str, config: str) -> Run:
        """Run one child process to completion, time it and check its output."""
        out_dir = self.work / f"{kind}-{len(self.runs)}"
        out_dir.mkdir()
        wall, rss, code = run_process(self.command(config, out_dir), self.env, out_dir, self.time_left())
        problems = [] if code == 0 else [f"exit code {code}: {tail_of(out_dir / 'stderr.txt')}"]
        run = Run(kind, wall, rss, problems + self.check(config, out_dir))
        self.runs.append(run)
        return run

    def bare_child(self, kind: str, cmd: list[str]) -> Run:
        """Run ``cmd`` as a child whose only check is its exit code."""
        out_dir = self.work / f"{kind}-{len(self.runs)}"
        out_dir.mkdir()
        wall, rss, code = run_process(cmd, self.env, out_dir, self.time_left())
        problems = [] if code == 0 else [f"exit code {code}: {tail_of(out_dir / 'stderr.txt')}"]
        run = Run(kind, wall, rss, problems)
        self.runs.append(run)
        return run

    def check(self, config: str, out_dir: Path) -> list[str]:
        """Output problems of one run of ``config`` whose files are in ``out_dir``."""
        try:
            result = wl.read_result(self.workload, out_dir)
            raw = (out_dir / ("driver.json" if wl.is_driver(self.workload) else "trace.csv")).read_bytes()
            problems = wl.physics_problems(self.workload, self.configs[config], result)
            if self.reference is not None and self.configs[config] == self.configs["default"]:
                problems += wl.reference_problems(result, self.reference)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]
        first = self._first_output.setdefault(config, raw)
        if raw != first:
            problems.append("output differs from the first run of the same inputs")
        return problems

    def in_process(self, config: str, out_dir: Path) -> list[str]:
        """Run ``config`` inside this process, as the child would; returns problems."""
        out_dir.mkdir()
        try:
            if wl.is_driver(self.workload):
                import bohr_driver

                result = bohr_driver.drive(self.paths[config].read_text())
                (out_dir / "driver.json").write_text(json.dumps(result))
                code = 0
            else:
                cli = sys.modules["lelab.cli"]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["run", "--config", str(self.paths[config]), "--out-dir", str(out_dir)])
        except Exception:  # a crash is a failed run, reported, not a crashed benchmark
            return [f"raised: {traceback.format_exc(limit=3)}"]
        return ([] if code == 0 else [f"exit code {code}"]) + self.check(config, out_dir)

    # -- the two modes ---------------------------------------------------
    def end_to_end(self, seconds: float) -> dict:
        self.child("warmup", "default")
        start = time.perf_counter()
        cycles = 0
        while cycles == 0 or ((cycles < MIN_CYCLES or time.perf_counter() - start < seconds)
                              and time.perf_counter() - self.start < STOP_S):
            self.child("setup", "setup")
            for _ in range(RUNS_PER_SETUP):
                self.bare_child("calibration", [sys.executable, str(CALIBRATION)])
                self.child("run", "full")
            cycles += 1
        calibration = self.good("calibration", "wall_s")
        scale = CALIBRATION_REF_S / statistics.median(calibration)
        return {
            "run_s": timing_stats([scale * t for t in self.good("run", "wall_s")]),
            "setup_s": timing_stats([scale * t for t in self.good("setup", "wall_s")]),
            "peak_rss_mb": timing_stats(self.good("run", "rss_mb")),
            "raw_run_s": timing_stats(self.good("run", "wall_s")),
            "raw_setup_s": timing_stats(self.good("setup", "wall_s")),
            "calibration_s": timing_stats(calibration),
        }

    def layers(self, seconds: float) -> tuple[dict, list, list]:
        for _ in range(STARTUP_RUNS):
            self.bare_child("startup", [sys.executable, "-c", "import lelab.cli"])
        startup = statistics.median(self.good("startup", "wall_s"))

        import lelab.cli  # noqa: F401  (loads every lelab module before patching)

        self.in_process_run("warmup", "default", None)
        traced, untraced, spans = [], [], []
        start = time.perf_counter()
        while not traced or ((len(traced) < MIN_TRACED or time.perf_counter() - start < seconds)
                             and time.perf_counter() - self.start < STOP_S):
            untraced.append(self.in_process_run("untraced", "full", None))
            tracer = tracing.Tracer()
            traced.append(self.in_process_run("traced", "full", tracer))
            spans = tracer.export()
        values = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
        for name in PER_LAYER_COUNTS:
            if any(m[name] != traced[0][name] for m in traced):
                print(f"warning: count {name} differs between traced runs", file=sys.stderr)
        values["cli.startup_s"] = startup
        values["trace.overhead_s"] = (statistics.median(m["trace.root_s"] for m in traced)
                                      - statistics.median(m["trace.root_s"] for m in untraced))
        return values, traced, spans

    def in_process_run(self, kind: str, config: str, tracer: tracing.Tracer | None) -> dict:
        """One in-process run; returns its per-layer values (root time only if untraced)."""
        out_dir = self.work / f"{kind}-{len(self.runs)}"
        if tracer is None:
            t0 = time.perf_counter()
            problems = self.in_process(config, out_dir)
            wall = time.perf_counter() - t0
            self.runs.append(Run(kind, wall, None, problems))
            return {"trace.root_s": wall}
        tracer.install()
        try:
            root = tracer.open("root")
            try:
                problems = self.in_process(config, out_dir)
            finally:
                tracer.close(root)
        finally:
            tracer.uninstall()
        values = layer_values(tracer, root)
        self.runs.append(Run(kind, values["trace.root_s"], None, problems))
        return values

    def time_left(self) -> float:
        """Seconds a child may still run before it is killed."""
        return max(1.0, DEADLINE_S - (time.perf_counter() - self.start))

    def failures(self) -> tuple[int, int]:
        """(failed, attempted) over every run so far."""
        return sum(1 for r in self.runs if r.problems), len(self.runs)

    def good(self, kind: str, field: str) -> list[float]:
        """``field`` of the runs of ``kind`` that passed (of all of them if none did)."""
        runs = [r for r in self.runs if r.kind == kind]
        ok = [r for r in runs if not r.problems] or runs
        return [getattr(r, field) for r in ok]


def run_process(cmd: list[str], env: dict | None, out_dir: Path,
                timeout: float) -> tuple[float, float, int]:
    """Run ``cmd`` in ``out_dir``, killing it after ``timeout`` seconds;
    returns wall seconds, peak RSS in MB and exit code."""
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=out_dir, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def layer_values(tracer: tracing.Tracer, root: tracing.Span) -> dict:
    """Every per-layer value of one traced run except cli.startup_s and trace.overhead_s."""
    self_t = tracer.self_times()
    counts = tracer.counts
    values = {f"{layer}_s": self_t.get(layer, 0.0) for layer in tracing.TIMED_LAYERS}
    values.update({name: counts[name.removesuffix("_calls")] for name in PER_LAYER_COUNTS})
    # Wall time per trace row, after the trace's own eigh; with a thread
    # pool the rows overlap, so this is the amortized cost of one row.
    trace_spans = [s for s in tracer.spans if s.name == "reduction.trace"]
    row_wall = sum(s.end - s.start for s in trace_spans) - sum(
        s.end - s.start for s in tracer.spans if s.name == "dynamics.eigh" and s.parent in trace_spans)
    rows = counts["reduction.rows"]
    root_s = root.end - root.start
    values.update({
        "harness.run_s": tracer.durations("harness.run"),
        "harness.self_s": self_t.get("harness.run", 0.0),
        "reduction.row_ms": 1000.0 * row_wall / rows if rows else 0.0,
        "reduction.sector_mb": float(counts["reduction.sector_mb"]),
        "linalg.flops_est": counts["linalg.flops_est"],
        "trace.root_s": root_s,
        "trace.remainder_s": self_t["root"],
        "trace.overlap_s": sum(v for k, v in self_t.items() if not k.startswith("linalg.")) - root_s,
    })
    return values


def timing_stats(values: list[float]) -> dict:
    """Median, quartiles and the guide's tail: the highest percentile with
    at least ten samples beyond it, when that lies above the median (from
    21 samples on); the max is always kept."""
    values = sorted(values)
    n = len(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else (values[0],) * 3
    stats = {"median": statistics.median(values), "p25": q1, "p75": q3, "n": n, "max": values[-1]}
    pct = int(100 * (1 - 10 / n))
    if pct > 50:
        stats[f"p{pct}"] = float(np.percentile(values, pct))
    return stats


def provenance() -> dict:
    """Machine, library versions and thread settings as this run saw them."""
    import lelab
    from lelab import harness
    from lelab.errors import ConfigError

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    try:
        workers = harness.worker_count()
    except ConfigError as exc:
        workers = f"invalid: {exc}"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=False).stdout.strip() or "unknown"
    else:
        commit = "unavailable: not a git checkout"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "blas": blas,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "lelab": getattr(lelab, "__version__", "unknown"),
        "git_commit": commit,
        "env": {k: os.environ.get(k) for k in
                ("LEL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "worker_count": workers,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, f"L{level} {size}"))
    return best[1]


def tail_of(path: Path, limit: int = 300) -> str:
    try:
        return path.read_text(errors="replace")[-limit:].strip()
    except OSError:
        return ""


def write_reference(workload: str, size: int, work: Path) -> int:
    """Store the default-seed result at ``size`` as the reference."""
    bench = Bench(workload, wl.DEFAULT_SEED, size, work)
    bench.reference = None
    ref_run = bench.child("reference", "default")
    if ref_run.problems:
        print("not written: " + "; ".join(ref_run.problems), file=sys.stderr)
        return 1
    result = wl.read_result(workload, work / "reference-0")
    path = wl.reference_path(workload, size)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(result, indent=0) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, help="lattice size (default: the benchmark size)")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default-seed result at --size as the reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "lelab" / "__init__.py").is_file():
        print(f"error: no lelab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    size = args.size if args.size is not None else wl.BENCH_SIZE[args.workload]

    BUILD.mkdir(parents=True, exist_ok=True)
    if not compileall.compile_dir(str(SRC / "lelab"), quiet=1):
        print("error: lelab sources do not compile", file=sys.stderr)
        return 2
    work = BUILD / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.write_reference:
            return write_reference(args.workload, size, work)
        return measure(args, size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, size: int, work: Path) -> int:
    bench = Bench(args.workload, args.seed, size, work)
    traced, spans = [], []
    if args.trace == 0:
        stats = bench.end_to_end(args.seconds)
        metrics = {name: (stats[name][REPORTED[name]], unit) for name, unit in END_TO_END}
    else:
        values, traced, spans = bench.layers(args.seconds)
        stats = {}
        metrics = {name: (float(values[name]), unit) for name, unit in PER_LAYER}
    failed, attempted = bench.failures()
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    print(f"workload {args.workload} seed {args.seed} size {size} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name in stats:
            s = stats[name]
            tail = [f"{k} {v:.6g}" for k, v in s.items() if k.startswith("p") and k not in ("p25", "p75")]
            middle = "" if REPORTED[name] == "median" else f"median {s['median']:.6g}, "
            extra = (f"  [{REPORTED[name]} of {s['n']}; {middle}p25 {s['p25']:.6g}, p75 {s['p75']:.6g}; "
                     + (", ".join(tail) if tail else f"max {s['max']:.6g}; no tail percentile under 21 samples") + "]")
        print(f"metric {name} = {value!r} {unit}{extra}")
    if "calibration_s" in stats:
        print(f"scaled to machine speed: calibration child median {stats['calibration_s']['median']:.6g} s "
              f"(reference {CALIBRATION_REF_S} s); raw wall medians run "
              f"{stats['raw_run_s']['median']:.6g} s, setup {stats['raw_setup_s']['median']:.6g} s")
    print(f"metric fail_share = {failed / attempted!r} ratio  [{failed} of {attempted} runs failed]")
    for run in bench.runs:
        for problem in run.problems:
            print(f"FAILED {run.kind}: {problem}")

    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-size{size}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "why": wl.WHY[args.workload], "seed": args.seed,
        "size": size, "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(), "configs": bench.configs,
        "metrics": reported, "stats": stats, "fail_share": failed / attempted,
        "runs": [asdict(r) for r in bench.runs], "traced_runs": traced, "spans": spans,
    }, indent=1))
    print(f"results {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
