#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload <stack|region|diurnal> --seed <n> \
        --seconds <s> --trace <0|1>

Builds perfbench/ (and with it every source under src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
benchmark binary. Build output goes to stderr; the binary's stdout is passed
through, and its last line is the JSON result.

Seeds: seed 1 is the default. Its output hash per workload is recorded in
perfbench/expected_hashes.json and checked on every run with that seed.
Seed 7919 is held out: use it to confirm a claim on inputs that were not
used while the claim was written. Every check except the hash runs on any
seed.

Re-record the hashes after a change that alters simulated outputs on
purpose (and say why in the change):

    python3 perfbench/run.py --workload stack --record
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HASHES = os.path.join(HERE, "expected_hashes.json")
WORKLOADS = ("stack", "region", "diurnal")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    # A configure that failed leaves a cache but no build system: redo it.
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def load_hashes():
    if not os.path.exists(HASHES):
        return {}
    with open(HASHES) as f:
        return json.load(f)


def record(binary, workload):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(DEFAULT_SEED), "--seconds", "1",
         "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S).stdout
    found = re.search(r"^output hash ([0-9a-f]{16})", out, re.MULTILINE)
    if not found:
        sys.exit("error: the benchmark printed no output hash")
    hashes = load_hashes()
    hashes[workload] = found.group(1)
    with open(HASHES, "w") as f:
        json.dump(hashes, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"recorded {workload} seed {DEFAULT_SEED}: {found.group(1)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record the default seed's output hash and exit")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"error: benchmark build failed: {err}")
    if args.record:
        record(binary, args.workload)
        return

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    expected = load_hashes().get(args.workload)
    if args.seed == DEFAULT_SEED and expected:
        cmd += ["--expect", expected]
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"error: benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
