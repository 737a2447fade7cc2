#!/usr/bin/env python3
"""Builds and runs the BayesCrowd end-to-end benchmark.

    python3 perfbench/run.py --workload adult-hhs --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 1
    python3 perfbench/run.py --workload nba-stream --smoke --seconds 1 --trace 1

Run from the repository root. The benchmark is compiled from source into
.bench_build/ (CMake, Release) on first use. Every line the benchmark
binary prints is passed through; the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; the traced run also writes a Chrome trace
to .bench_build/traces/.

Answer digests of each (workload, seed, scale) are kept in
.bench_build/digests/: a traced and an untraced run of the same seed and
build must agree, otherwise the run counts a failed operation. The exit code
is 0 only when every correctness check passed.
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ["adult-hhs", "nba-stream", "serve-ckpt"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; the log goes to a file."""
    BUILD_ROOT.mkdir(exist_ok=True)
    log_path = BUILD_ROOT / "perfbench-build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                # A failed configure must not leave a cache behind.
                if step is steps[0] and len(steps) == 2:
                    shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail(f"build failed, see {log_path}")


def metric_spec():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    return spec


def run_one(workload, args, spec):
    """Runs one workload; returns (contract result, binary result)."""
    scale = "smoke" if args.smoke else "full"
    tag = f"{workload}-seed{args.seed}-{scale}"
    trace_dir = BUILD_ROOT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{tag}.json"
    tmp_root = BUILD_ROOT / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp, "--trace-out", str(trace_path)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail(f"{workload}: benchmark exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: no result line")

    failed = result["failed"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        got = result["metrics"].get(entry["name"])
        if got is None or got["unit"] != entry["unit"]:
            print(f"perfbench: metric {entry['name']} missing or not in "
                  f"{entry['unit']}", file=sys.stderr)
            failed += 1
            continue
        metrics[entry["name"]] = got

    # Traced and untraced runs of one seed must give the same answers.
    digest_dir = BUILD_ROOT / "digests"
    digest_dir.mkdir(parents=True, exist_ok=True)
    binary = BINARY.stat()
    mine = {"build": [binary.st_mtime_ns, binary.st_size],
            "digests": result["digests"],
            "query_s.p50": result["metrics"]["query_s.p50"]["value"]}
    other_path = digest_dir / f"{tag}-trace{1 - args.trace}.json"
    other = json.loads(other_path.read_text()) if other_path.exists() else {}
    if other.get("build") == mine["build"]:
        if other["digests"] != mine["digests"]:
            print("perfbench: traced and untraced answers differ for "
                  f"{tag}", file=sys.stderr)
            failed += 1
        else:
            print(f"answer digests match the {'un' if args.trace else ''}"
                  f"traced run of this seed ({len(mine['digests'])} queries)")
        if args.trace:
            base = other["query_s.p50"]
            traced = mine["query_s.p50"]
            print(f"tracing overhead: query_s.p50 {traced:.6f} s traced vs "
                  f"{base:.6f} s untraced ({100 * (traced / base - 1):+.2f}%)")
    (digest_dir / f"{tag}-trace{args.trace}.json").write_text(json.dumps(mine))
    if args.trace:
        print(f"trace: {trace_path}")

    attempted = result["attempted"] + 1  # The digest comparison.
    contract = {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}
    return contract, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size inputs (tiny tables, one cycle, "
                             "one wave)")
    args = parser.parse_args()

    spec = metric_spec()
    build()
    if args.workload != "all":
        contract, _ = run_one(args.workload, args, spec)
        print(json.dumps(contract))
        sys.exit(0 if contract["correct"] else 1)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        contract, _ = run_one(workload, args, spec)
        combined["correct"] &= contract["correct"]
        combined["attempted"] += contract["attempted"]
        combined["failed"] += contract["failed"]
        for name, value in contract["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined))
    sys.exit(0 if combined["correct"] else 1)


if __name__ == "__main__":
    main()
