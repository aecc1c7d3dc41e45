#!/usr/bin/env python3
"""Wall-clock benchmark of PlatoD2GL: build the harness, run one workload.

    python3 perfbench/run.py --workload train-stream --seed 1 \
        --seconds 25 --trace 0

Run from the root of a checkout. The harness (perfbench/src) and the
library (src/) are built from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Stdout ends with a table of the
workload's end-to-end metrics under their own names, the full record
(every check, the open-loop validity report, the environment stamp) as
one JSON line, and, as the last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the workload untraced and then traced with the same seed and reports the
per-layer metrics, including the tracing overhead between the two runs.
A failed correctness check makes the exit code 1; a missing source tree
or a failed build exits 2 without a result line. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# A seed kept out of tuning, for confirming a later performance claim on
# inputs its author did not tune against (see README.md).
HELD_OUT_SEED = 7919

# BENCHMARK.json names each end-to-end metric once for every workload;
# this is what each name measures on each workload.
E2E_NAMES = {
    "train-stream": {"latency_ms.p50": "train_step_ms.p50",
                     "latency_ms.tail": "train_step_ms.p95",
                     "throughput_per_s": "train_steps_per_s"},
    "ingest-burst": {"latency_ms.p50": "visible_ms.p50",
                     "latency_ms.tail": "visible_ms.p99",
                     "throughput_per_s": "ingest_updates_per_s"},
    "serve-zipf": {"latency_ms.p50": "serve_ms.p50",
                   "latency_ms.tail": "serve_ms.p90",
                   "throughput_per_s": "serve_capacity_rps"},
}
UNITS = {"setup_s": "s", "bytes_per_edge": "B", "train_step_ms.p50": "ms",
         "train_step_ms.p95": "ms", "train_steps_per_s": "1/s",
         "visible_ms.p50": "ms", "visible_ms.p99": "ms",
         "ingest_updates_per_s": "1/s", "serve_ms.p50": "ms",
         "serve_ms.p90": "ms", "serve_ms.p99": "ms",
         "serve_capacity_rps": "1/s"}


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def cache_value(bdir, key):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr (stdout is the result)."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout)
    if proc.returncode != 0:
        die("build step failed: " + " ".join(cmd))


def build(bdir):
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die("library sources not found (%s); run from a full checkout"
                % need)
    if shutil.which("cmake") is None:
        die("cmake not found")
    if cache_value(bdir, "CMAKE_HOME_DIRECTORY") not in (None, HERE):
        shutil.rmtree(bdir)  # configured for another checkout
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"] + gen, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", bdir, "--target", "pd2gl_perfbench",
               "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(bdir, "pd2gl_perfbench")


def run_harness(binary, args, trace, out_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        die("harness timed out after %d s" % RUN_TIMEOUT_S, 1)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        die("harness exited with code %d" % proc.returncode, 1)
    record = json.loads(lines[-1])
    if record.get("correct") is not True:
        print("perfbench: correctness check failed: " +
              json.dumps(record.get("checks")), file=sys.stderr)
    return record


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, env=env,
                             timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(E2E_NAMES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)

    bdir = build_dir()
    binary = build(bdir)
    out_dir = os.path.join(bdir, "results")
    os.makedirs(out_dir, exist_ok=True)

    names = E2E_NAMES[args.workload]
    base = run_harness(binary, args, False, out_dir)
    records = [base]
    metrics = {}
    not_measured = []
    if args.trace:
        traced = run_harness(binary, args, True, out_dir)
        records.append(traced)
        layers = dict(traced["layers"])
        # How much slower the traced run went, by the workload's throughput
        # (a rate over the whole run, unlike a latency that a backlog sets).
        tp = names["throughput_per_s"]
        layers["trace.overhead_share"] = (
            base["e2e"][tp] / traced["e2e"][tp] - 1)
        if "trace.layers_ms.p50" in layers:
            layers["trace.accounted_share"] = (
                layers["trace.layers_ms.p50"] / base["e2e"][names[
                    "latency_ms.p50"]])
        with open(os.path.join(out_dir, "layers-%s-%d.txt" % (
                args.workload, args.seed)), "a") as f:
            for name in ("trace.overhead_share", "trace.accounted_share"):
                if name in layers:
                    f.write("%-34s %16.6g\n" % (name, layers[name]))
        for m in spec["per_layer"]:
            # The result line must carry every per-layer metric; one the
            # workload does not measure reads 0 and is listed as such.
            if m["name"] not in layers:
                not_measured.append(m["name"])
            metrics[m["name"]] = {"value": layers.get(m["name"], 0.0),
                                  "unit": m["unit"]}
        if not_measured:
            print("perfbench: not measured on %s (reported as 0): %s" % (
                args.workload, " ".join(not_measured)), file=sys.stderr)
    else:
        for m in spec["end_to_end"]:
            value = base["e2e"].get(names.get(m["name"], m["name"]))
            if value is None:
                die("harness did not report " + m["name"], 1)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    for name, value in base["e2e"].items():
        print("%-12s %-22s %14.6g %s" % (args.workload, name, value,
                                         UNITS.get(name, "")))
    print("%-12s %-22s %14d" % (args.workload, "ops", base["attempted"]))
    print("%-12s %-22s %14d" % (args.workload, "ops_failed", base["failed"]))

    env = {
        "git_sha": git_sha(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "build_type": cache_value(bdir, "CMAKE_BUILD_TYPE"),
        "compiler": cache_value(bdir, "CMAKE_CXX_COMPILER"),
        "held_out_seed": HELD_OUT_SEED,
    }
    correct = all(r["correct"] is True for r in records)
    last = records[-1]
    detail = {"env": env, "runs": records, "not_measured": not_measured}
    with open(os.path.join(out_dir, "%s-%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(detail, f, indent=1)
    print(json.dumps(detail))
    print(json.dumps({"correct": correct,
                      "attempted": int(last["attempted"]),
                      "failed": int(last["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
