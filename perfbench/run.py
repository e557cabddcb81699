#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the perfbench binary (CMake, Release) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only rebuild what changed. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
report the end-to-end metrics of BENCHMARK.json, traced runs its
per-layer metrics. Numbers that must repeat exactly for a seed
(speedup_geomean, training transitions, search counts) are kept in
<build>/exact.json; a later run of the same seed that disagrees is
reported as incorrect. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEADLINE_S = 175.0  # every run must end within 180 s


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build(directory):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("the library sources (CMakeLists.txt, src/) are missing from the checkout")
    os.makedirs(directory, exist_ok=True)
    log_path = os.path.join(directory, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", directory,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", directory, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 2)])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-40:]))
                die("build failed (" + " ".join(step[:2]) + "); see " + log_path)
    return os.path.join(directory, "perfbench")


def source_digest():
    """sha256 over the sources the binary is built from (the checkout may
    not be a git repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, names in os.walk(path) for f in names)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return result.stdout.strip() if result.returncode == 0 else "none"


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_exact(directory, key, exact):
    """Compare this run's exact numbers with the first run of the same
    workload, seed, size and sources."""
    path = os.path.join(directory, "exact.json")
    records = {}
    if os.path.isfile(path):
        with open(path) as handle:
            records = json.load(handle)
    previous = records.get(key)
    if previous is None:
        records[key] = exact
        with open(path + ".tmp", "w") as handle:
            json.dump(records, handle, indent=1, sort_keys=True)
        os.replace(path + ".tmp", path)
        return []
    return ["%s: %r differs from an earlier run of this seed (%r)" % (name, exact.get(name), value)
            for name, value in sorted(previous.items()) if exact.get(name) != value]


def main():
    start = time.monotonic()
    workloads, end_to_end, per_layer = contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: reduced inputs, for perfbench/test_perfbench.py")
    args = parser.parse_args()

    directory = build_dir()
    binary = build(directory)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace), "--size", args.size]
    if args.trace:
        traces = os.path.join(directory, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    remaining = DEADLINE_S - (time.monotonic() - start)
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                             timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired:
        die("%s did not finish within the run deadline" % args.workload, 1)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        die("%s exited with %d" % (args.workload, run.returncode), 1)
    report = json.loads(lines[-1])

    # BENCHMARK.json is the only list of metric names and units. An untraced
    # run must set every end-to-end metric; a per-layer metric the workload
    # did not set reads 0 (that layer is not exercised there).
    expected = per_layer if args.trace else end_to_end
    values = report["metrics"]
    unknown = sorted(set(values) - set(expected))
    missing = [] if args.trace else sorted(set(expected) - set(values))
    if unknown or missing:
        die("the binary's metrics do not match BENCHMARK.json: unknown %s, missing %s"
            % (unknown, missing), 1)
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in sorted(expected.items())}

    errors = list(report["errors"])
    digest = source_digest()
    errors += check_exact(directory, "%s|%d|%s|%s" % (args.workload, args.seed, args.size, digest),
                          report["exact"])
    for error in errors:
        print("perfbench: CHECK FAILED: " + error, file=sys.stderr)

    provenance = dict(report["info"])
    provenance.update({"git_sha": git_sha(), "source_digest": digest,
                       "trace": args.trace, "seconds": args.seconds})
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print("exact: " + json.dumps(report["exact"], sort_keys=True))
    for name, metric in sorted(metrics.items()):
        print("%-32s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": not errors, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
