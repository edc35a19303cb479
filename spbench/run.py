#!/usr/bin/env python3
"""Builds and runs the spmap benchmark.

    python3 spbench/run.py --workload paper_mix --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the library, spmap_cli and the
spbench program from source (Release, into $CARGO_TARGET_DIR or
.bench_build), runs one workload, and prints the program's report; the last
line of standard output is the result JSON. Exits non-zero without a result
line when the build or the run fails. See spbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("paper_mix", "search_paper", "search_wide", "serve_mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_group(cmd, timeout, stdout):
    """Runs `cmd` in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", "spbench", "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "spbench",
                  "spmap_cli", "-j", jobs])
    for cmd in steps:
        rc, _ = run_group(cmd, BUILD_TIMEOUT_S, sys.stderr)
        if rc != 0:
            log("spbench: build step failed:", " ".join(cmd))
            return False
    return True


def commit():
    """HEAD of the checkout, or "unknown" when it is not a git work tree of
    its own (a parent directory's repository does not count)."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if (top.returncode == 0 and
                os.path.realpath(top.stdout.strip()) == os.path.realpath(".")):
            head = subprocess.run(["git", "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def expected_metrics(trace):
    """The metric names BENCHMARK.json declares for this mode, if present."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    # A terminated launcher takes its process group (spbench and the
    # daemon) down with it: SystemExit unwinds through run_group's killpg.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        return 1
    work_dir = os.path.join(build_dir, "spbench-work")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "spbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(build_dir, "spmap", "spmap_cli"),
           "--work-dir", work_dir,
           "--platform-dir", os.path.join("scenarios", "platforms"),
           "--commit", commit()]
    rc, out = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.rstrip("\n").split("\n") if out else []
    if rc != 0 or not lines:
        sys.stdout.write(out or "")
        log("spbench: run failed with exit code", rc)
        return rc or 1

    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace == 1)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log("spbench: reported metrics differ from BENCHMARK.json:",
            sorted(set(expected) ^ set(result["metrics"])))
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
