#!/usr/bin/env python3
"""perfbench runner: builds the benchmark from source, then runs it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build); reports, spans and scratch journals go to
.perfbench_out. The binary's stdout is passed through unchanged, so its last
line is the result object. Build output goes to stderr.

--self-check runs every workload once at minimal length, checks that every
metric named in BENCHMARK.json is emitted with its unit (and described in
perfbench/metrics.json), then injects one corrupted schedule and one wrong
recovery digest and checks that the command fails on each.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
OUT_DIR = ".perfbench_out"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    build_dir = os.path.join(ROOT, BUILD_DIR)
    steps = []
    generated = any(os.path.exists(os.path.join(build_dir, name))
                    for name in ("Makefile", "build.ninja"))
    if not generated:
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            log("build failed: %s" % error)
            return None
        if done.returncode != 0:
            log("build failed: %s exited %d" % (step[0], done.returncode))
            return None
    return os.path.join(build_dir, "perfbench")


def run_bench(binary, args, capture=False):
    """Runs the benchmark binary; returns (exit code, stdout text or None)."""
    command = [binary] + args + ["--out-dir", OUT_DIR]
    try:
        done = subprocess.run(
            command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s and was killed" % RUN_TIMEOUT_S)
        return 124, None
    return done.returncode, done.stdout


def last_json(text):
    lines = [line for line in (text or "").splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def self_check(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(os.path.join(ROOT, "perfbench", "metrics.json")) as handle:
        described = json.load(handle)
    problems = []

    def expect(condition, message):
        if not condition:
            problems.append(message)
            log("FAIL: " + message)

    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            entry = described["metrics"].get(metric["name"])
            expect(entry is not None and entry["unit"] == metric["unit"] and
                   entry["better"] == metric["better"],
                   "metrics.json does not describe %s as in BENCHMARK.json"
                   % metric["name"])
    for workload in spec["workloads"]:
        expect(workload["name"] in described["workloads"],
               "metrics.json does not describe workload %s" % workload["name"])

    def check_run(args, group, label):
        code, out = run_bench(binary, args, capture=True)
        result = last_json(out)
        expect(code == 0, "%s exited %d" % (label, code))
        if result is None:
            expect(False, "%s printed no result" % label)
            return
        expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
               "%s: result keys %s" % (label, sorted(result)))
        expect(result.get("correct") is True and result.get("failed") == 0,
               "%s: correct=%s failed=%s" % (label, result.get("correct"),
                                             result.get("failed")))
        wanted = {m["name"]: m["unit"] for m in spec[group]}
        got = result.get("metrics", {})
        expect(set(got) == set(wanted), "%s: metrics differ: missing %s, extra %s"
               % (label, sorted(set(wanted) - set(got)),
                  sorted(set(got) - set(wanted))))
        for name, unit in wanted.items():
            entry = got.get(name)
            if entry is None:
                continue
            value = entry.get("value")
            expect(isinstance(value, (int, float)) and math.isfinite(value),
                   "%s: %s is not a finite number" % (label, name))
            expect(entry.get("unit") == unit,
                   "%s: %s unit %s != %s" % (label, name, entry.get("unit"), unit))
        log("%s: %d metrics checked" % (label, len(wanted)))

    for workload in spec["workloads"]:
        check_run(["--workload", workload["name"], "--seed", "1",
                   "--seconds", "2", "--trace", "0"], "end_to_end",
                  workload["name"] + " trace=0")
    check_run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
               "--seconds", "2", "--trace", "1"], "per_layer",
              spec["workloads"][0]["name"] + " trace=1")

    for inject in ("corrupt-schedule", "bad-digest"):
        code, out = run_bench(binary, ["--workload", spec["workloads"][0]["name"],
                                        "--seed", "1", "--seconds", "2",
                                        "--trace", "0", "--inject", inject],
                               capture=True)
        result = last_json(out)
        expect(code != 0, "--inject %s: exit code 0" % inject)
        expect(result is not None and result.get("correct") is False and
               result.get("failed", 0) > 0,
               "--inject %s: result not marked incorrect" % inject)
        log("--inject %s: exit %d, detected" % (inject, code))

    if problems:
        log("self-check FAILED (%d problem(s))" % len(problems))
        return 1
    log("self-check passed")
    return 0


def main(argv):
    binary = build()
    if binary is None:
        return 1
    if argv == ["--self-check"]:
        return self_check(binary)
    code, _ = run_bench(binary, argv)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
