#!/usr/bin/env python3
"""Build and run the SNIP end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and
builds the library plus the benchmark program snip_perfbench (CMake,
RelWithDebInfo) in .bench_build/ ($CARGO_TARGET_DIR when set); later
runs only check the build is current. The program's report goes to
stdout; the last line is one JSON object: {"correct", "attempted",
"failed", "metrics"}, with the end-to-end metrics of BENCHMARK.json for
--trace 0 and its per-layer metrics for --trace 1.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("snip_session", "baseline_session", "shrink_ship")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then bring snip_perfbench up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no library sources at src/; run from a full checkout")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "snip_perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = json.loads((HERE / "meta.json").read_text())
    build_dir = build()

    cmd = [str(build_dir / "snip_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}.tsv")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"snip_perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail(f"snip_perfbench exited {r.returncode} without a result")
    for line in lines[:-1]:
        print(line)

    problems = []
    if r.returncode != 0:
        problems.append(f"snip_perfbench exited {r.returncode}")
    failed = int(raw["failed"])

    # Golden digests recorded for the default and held-out seeds.
    golden = meta["digests"].get(args.workload, {}).get(str(args.seed))
    if golden:
        for key in ("sim_digest", "package_digest"):
            if raw[key] != golden[key]:
                problems.append(f"{key} {raw[key]} != recorded "
                                f"{golden[key]}")
                failed += 1
    print(f"sim_digest {raw['sim_digest']}  "
          f"package_digest {raw['package_digest']}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                problems.append(f"metric {m['name']} missing")
                continue
            # A layer this workload never calls (e.g. Shrink on
            # baseline_session) did no work.
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} has unit {got['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)

    correct = not problems and failed == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(raw["attempted"]),
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
