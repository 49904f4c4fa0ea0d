#!/usr/bin/env python3
"""End-to-end benchmark of the optimizer daemon.

Builds the daemon (`oodbsub`) and the `perfbench` program from the sources
next to this directory, runs one workload, and prints as its last line
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end metrics named
in BENCHMARK.json, with `--trace 1` its per-layer metrics. The line
before it is the program's full report (every metric with its sample
count, input sizes, host and build stamp).

    python3 perfbench/run.py --workload check-warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest     # the benchmark's own tests

Run it from the repository root. Build products go to .bench_build/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
TRACES = ROOT / ".bench_build" / "traces"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(targets):
    """Configures (once) and builds `targets` in Release mode."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no repository sources next to the benchmark "
             "(expected CMakeLists.txt and src/ in the parent directory)")
    jobs = str(min(4, os.cpu_count() or 1))
    # Configuring an existing build tree takes well under a second and
    # picks up changed build files.
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        fail("cmake configure failed")
    command = ["cmake", "--build", str(BUILD), "--target", *targets, "-j"]
    if subprocess.run(command + [jobs], stdout=sys.stderr).returncode == 0:
        return
    # A parallel build can run out of memory on a small host; one job at a
    # time resumes where it stopped.
    print("perfbench: parallel build failed; retrying with one job",
          file=sys.stderr)
    if subprocess.run(command + ["1"], stdout=sys.stderr).returncode != 0:
        fail("build failed")


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        tests = ["perfbench_spans_test", "perfbench_metrics_test"]
        build(tests)
        codes = [subprocess.run([str(BUILD / t)]).returncode for t in tests]
        sys.exit(max(codes))

    # Any workload perfbench knows runs, also one BENCHMARK.json does not
    # list (catalog-churn); perfbench refuses an unknown name.
    spec = load_spec()
    if not args.workload:
        fail("--workload is required")
    build(["perfbench", "oodbsub"])
    TRACES.mkdir(parents=True, exist_ok=True)

    command = [str(BUILD / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--daemon", str(BUILD / "oodb" / "tools" / "oodbsub"),
               "--out-dir", str(TRACES)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"perfbench failed with exit code {run.returncode}")
    report = json.loads(lines[-1])

    section = "per_layer" if args.trace else "end_to_end"
    measured = report.get(section, {})
    metrics = {}
    for entry in spec[section]:
        name = entry["name"]
        if name not in measured:
            fail(f"metric {name} missing from the {args.workload} report")
        metrics[name] = {"value": measured[name]["value"], "unit": entry["unit"]}

    print("report: " + json.dumps(report))
    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
