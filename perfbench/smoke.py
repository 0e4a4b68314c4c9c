#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (M=1, N=16, a 64x64 grid).

Checks that:
  * every workload, with --trace 0 and --trace 1, prints every metric of
    BENCHMARK.json (plus fail_share) by name with its unit, and ends with
    the JSON result line, all runs passing;
  * the per-layer self times of each traced run add up to the traced
    in-process run, apart from the reported overlap;
  * a deliberately corrupted trace is counted as failed in fail_share,
    both when it breaks an invariant and when only the stored reference
    tells it apart;
  * without the lelab sources the benchmark exits nonzero and prints no result.

Usage (from the repository root): python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads as wl

SECONDS = "1"
METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)", re.MULTILINE)


def benchmark(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180, check=False)


def check_printed(workload: str, trace: int, declared: dict) -> None:
    size = str(wl.TINY_SIZE[workload])
    proc = benchmark("--workload", workload, "--seed", "1", "--seconds", SECONDS,
                     "--size", size, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    printed = {name: unit for name, _, unit in METRIC_LINE.findall(proc.stdout)}
    want = dict(run.END_TO_END if trace == 0 else run.PER_LAYER, fail_share="ratio")
    assert printed == want, f"{workload} trace {trace}: printed {printed}, want {want}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    listed = {m["name"]: m["unit"] for m in declared["end_to_end" if trace == 0 else "per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == listed, f"{workload} trace {trace}: JSON metrics {got} != BENCHMARK.json {listed}"
    if trace == 1:
        results = run.ROOT / proc.stdout.strip().splitlines()[-2].removeprefix("results ")
        for values in json.loads(results.read_text())["traced_runs"]:
            check_coverage(values)


def check_coverage(values: dict) -> None:
    """Self times of all non-kernel layers, minus the parallel overlap, are the root's time."""
    layers = sum(values[f"{layer}_s"] for layer in tracing.TIMED_LAYERS
                 if not layer.startswith("linalg."))
    covered = layers + values["harness.self_s"] + values["trace.remainder_s"] - values["trace.overlap_s"]
    assert abs(covered - values["trace.root_s"]) < 1e-6, (covered, values["trace.root_s"])


def corrupt(workload: str, out_dir: Path, reference_only: bool) -> None:
    """Damage one run's output in place.

    With ``reference_only`` the damage keeps every invariant (S_eff and the
    shell column move together), so only the stored reference can catch it.
    """
    if wl.is_driver(workload):
        path = out_dir / "driver.json"
        doc = json.loads(path.read_text())
        if reference_only:
            doc["sector_norms"][0][0] += 1e-6
        else:
            doc["reconstruct_exact"][0] = False
        path.write_text(json.dumps(doc))
        return
    path = out_dir / "trace.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[-1].split(",")
    if workload == "classical-kick":
        cols = ["S_classical"] if reference_only else ["mass"]
        delta = 1e-6 if reference_only else -1e-3
    else:
        shell = next(i for i, name in enumerate(header) if name.startswith("S_E_"))
        cols = ["S_eff", header[shell]] if reference_only else ["tr_rho2"]
        delta = 1e-6 if reference_only else 1e-8
    for col in cols:
        j = header.index(col)
        cells[j] = repr(float(cells[j]) + delta)
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def check_corruption_counted(workload: str) -> None:
    size = wl.TINY_SIZE[workload]
    for seed, reference_only in ((1, False), (wl.DEFAULT_SEED, True)):
        work = run.BUILD / "smoke" / f"{workload}-{seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            bench = run.Bench(workload, seed, size, work)
            config = "default" if seed == wl.DEFAULT_SEED else "full"
            clean = bench.child("run", config)
            assert not clean.problems, clean.problems
            out_dir = work / "run-0"
            corrupt(workload, out_dir, reference_only)
            result = wl.read_result(workload, out_dir)
            caught = (wl.reference_problems(result, bench.reference) if reference_only
                      else wl.physics_problems(workload, bench.configs[config], result))
            assert caught, f"{workload}: corrupted output passed the check"
            problems = bench.check(config, out_dir)
            bench.runs.append(run.Run("run", clean.wall_s, clean.rss_mb, problems))
            assert bench.failures() == (1, 2), bench.failures()
        finally:
            shutil.rmtree(work, ignore_errors=True)


def check_refuses_without_sources() -> None:
    bare = run.BUILD / "smoke" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = benchmark("--workload", "cubic-yukawa", "--seed", "1", "--seconds", SECONDS,
                         "--trace", "0", cwd=bare)
        assert proc.returncode != 0, "ran without lelab sources"
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(wl.WORKLOADS)
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            check_printed(workload, trace, declared)
        check_corruption_counted(workload)
        print(f"ok {workload}")
    check_refuses_without_sources()
    print("ok refuses to run without lelab sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
