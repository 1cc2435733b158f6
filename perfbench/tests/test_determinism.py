#!/usr/bin/env python3
"""Determinism and traced-run checks of the repository benchmark.

    python3 perfbench/tests/test_determinism.py [--workloads a,b] [--seeds A,B]

For each workload (default: those of BENCHMARK.json) this runs
perfbench/run.py from the repository root with short measuring windows:

  * seed A untraced, twice: both runs pass their output checks and report
    the same frames_per_dump_mb;
  * seed A traced, twice: both pass, the traced replays reproduced the
    untraced outputs byte for byte (the benchmark counts any difference as
    a failed operation), every per-layer metric of BENCHMARK.json is printed
    with its unit, the overhead and coverage figures are present, and the
    exact counts (verisc.steps, filmstore.records_read/bytes_read, the
    mocoder DecodeStats counts, ...) are identical;
  * seed B traced: passes its output checks on inputs whose digest
    differs from seed A's.

Exits non-zero on the first violated check.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run(workload, seed, trace, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise AssertionError(f"{workload} seed {seed} trace {trace}: exit "
                             f"{proc.returncode}")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, result
    report_path = os.path.join(
        ROOT, ".bench_out", f"{workload}-seed{seed}-trace{trace}.report.json")
    with open(report_path) as f:
        report = json.load(f)
    return result, report


def check_metrics(result, declared):
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}, sorted(got)
    for m in declared:
        assert got[m["name"]]["unit"] == m["unit"], (m, got[m["name"]])
        assert isinstance(got[m["name"]]["value"], (int, float))


def exact_counts(report):
    return {k: v for k, v in report["values"].items()
            if k.startswith("exact.")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="7,8")
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    seed_a, seed_b = (int(s) for s in args.seeds.split(","))

    for workload in args.workloads.split(","):
        untraced = [run(workload, seed_a, 0, args.seconds) for _ in range(2)]
        for result, _ in untraced:
            check_metrics(result, bench["end_to_end"])
        frames = [r["values"]["frames_per_dump_mb"] for _, r in untraced]
        assert frames[0] == frames[1], frames

        traced = [run(workload, seed_a, 1, args.seconds) for _ in range(2)]
        for result, report in traced:
            check_metrics(result, bench["per_layer"])
            values = result["metrics"]
            assert values["trace.overhead"]["value"] > 0, values
            assert values["trace.coverage"]["value"] > 0, values
            assert report["values"]["frames_per_dump_mb"] == frames[0]
        counts = [exact_counts(r) for _, r in traced]
        assert counts[0] and counts[0] == counts[1], counts

        _, other = run(workload, seed_b, 1, args.seconds)
        assert other["input_digest"] != traced[0][1]["input_digest"], workload
        print(f"{workload}: ok ({len(counts[0])} exact counts repeat)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
