#!/usr/bin/env python3
"""End-to-end benchmark of the parallel shear-warp renderer.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles ../src) and
runs one workload:

    python3 perfbench/run.py --workload orbit-mri256 --seed 1 --seconds 25 --trace 0

--seconds defaults to run_seconds of BENCHMARK.json. --trace 0 runs the
untraced binary and prints the end-to-end metrics. --trace 1 prints the
per-layer metrics: it runs the untraced binary, then the traced one with the
same seed and seconds; the wall-clock frame figures come from the untraced
run and obs.trace_overhead_pct compares its fps with the traced run's. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit status is non-zero when the build
fails, a run fails or any output check fails.

--workload all runs every workload in turn (a summary line each).
--repeat N runs the workload N times with seeds seed..seed+N-1 and prints a
steadiness report: median, quartiles, min/max and relative spread of each
metric (gated ones against their bound, and every other figure the runs
print), with the host fingerprint.

The build goes to $CARGO_TARGET_DIR if set, else .bench_build, relative to
the checkout root. See perfbench/README.md.
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["orbit-mri256", "viewers-routed", "churn-mixed"]
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170  # one run (both binaries with --trace 1) must end within 180 s
BUILD_TIMEOUT_S = 880  # the first run of a checkout may take 900 s

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds both binaries; returns the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"renderer sources not found under {ROOT}/src")
    if not (ROOT / "BENCHMARK.json").is_file():
        raise RuntimeError(f"BENCHMARK.json not found under {ROOT}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "perfbench", "perfbench_traced"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return out


FIGURE = re.compile(r"^# (\S+) = (\S+) (\S+)$")
# Per-layer metrics a --trace 1 run takes from its untraced run: the
# wall-clock figures (frames and set-up) of the program as users run it.
WALL_CLOCK = ["fps", "frame_p50_ms", "frame_p95_ms", "first_frame_p50_ms", "setup_wall_s"]


def run_once(out, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (result dict or None, exit code, figures),
    where figures holds every '# name = value unit' line the run printed,
    gated or not. With trace, runs the untraced binary first (see the module
    doc)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if not trace:
        result, code, figures = run_binary(out, workload, seed, seconds, False, echo, deadline)
        if result is not None:
            check_metrics(result, trace)
        return result, code, figures
    plain, code, plain_figures = run_binary(out, workload, seed, seconds, False, False, deadline)
    if plain is None or code != 0 or not plain["correct"]:
        log(f"{workload} seed {seed}: untraced run failed (exit {code})")
        return None, code or 1, plain_figures
    result, code, figures = run_binary(out, workload, seed, seconds, True, echo, deadline)
    if result is None:
        return None, code, figures
    untraced_fps = plain_figures["fps"]["value"]
    traced_fps = figures["fps"]["value"]
    overhead = {"value": (untraced_fps / traced_fps - 1.0) * 100.0, "unit": "%"}
    print(f"# traced fps = {traced_fps:.10g} 1/s")
    for name in WALL_CLOCK:
        result["metrics"][name] = plain_figures[name]
        print(f"# untraced {name} = {plain_figures[name]['value']:.10g} {plain_figures[name]['unit']}")
    result["metrics"]["obs.trace_overhead_pct"] = overhead
    figures = {**figures, **{name: plain_figures[name] for name in WALL_CLOCK},
               "obs.trace_overhead_pct": overhead}
    result["attempted"] += plain["attempted"]
    result["failed"] += plain["failed"]
    check_metrics(result, trace)
    return result, code, figures


def run_binary(out, workload, seed, seconds, trace, echo, deadline):
    """Runs one binary on one workload, killing it at `deadline` (monotonic
    time); returns (result dict or None, exit code, figures)."""
    binary = out / ("perfbench_traced" if trace else "perfbench")
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{workload} seed {seed}: timed out ({RUN_TIMEOUT_S} s per run)")
        return None, 1, {}
    lines = stdout.splitlines()
    figures = {}
    for line in lines:
        m = FIGURE.match(line)
        if m:
            figures[m[1]] = {"value": float(m[2]), "unit": m[3]}
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"{workload} seed {seed}: no result line (exit {proc.returncode})")
        return None, proc.returncode or 1, figures
    return result, proc.returncode, figures


def host_fingerprint(out):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = "unknown"
    try:
        cache = (out / "CMakeCache.txt").read_text()
        for line in cache.splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1]
                ver = subprocess.run([path, "--version"], stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
                compiler = ver.stdout.splitlines()[0] if ver.stdout else path
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": BUILD_TYPE, "git_revision": rev}


def benchmark_doc():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_specs(trace):
    """The metric set of BENCHMARK.json a run must print, by name."""
    return {m["name"]: m for m in benchmark_doc()["per_layer" if trace else "end_to_end"]}


def check_metrics(result, trace):
    """Holds a result to BENCHMARK.json. Per-layer metrics whose layer is not
    on the workload's path read 0; anything else missing fails the run."""
    want = metric_specs(trace)
    got = result["metrics"]
    absent, problems = [], []
    for name, spec in want.items():
        if name not in got:
            if trace:
                got[name] = {"value": 0, "unit": spec["unit"]}
                absent.append(name)
            else:
                problems.append(f"missing {name}")
        elif got[name]["unit"] != spec["unit"]:
            problems.append(f"{name} in {got[name]['unit']}, expected {spec['unit']}")
    problems += [f"undeclared {name}" for name in sorted(set(got) - set(want))]
    if absent:
        print("# not on this workload's path (reported as 0): " + " ".join(absent))
    for p in problems:
        log(f"metric set: {p}")
    if problems:
        result["correct"] = False


def steadiness(out, workload, seed, seconds, trace, repeat):
    """Repeats one workload and prints the spread of every metric."""
    values, units, walls, ok = {}, {}, [], True
    for i in range(repeat):
        t0 = time.monotonic()
        result, code, figures = run_once(out, workload, seed + i, seconds, trace, echo=False)
        walls.append(time.monotonic() - t0)
        if result is None or not result["correct"] or code != 0:
            log(f"{workload} seed {seed + i}: run failed")
            ok = False
            continue
        for name, m in {**figures, **result["metrics"]}.items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        log(f"{workload} seed {seed + i}: done in {walls[-1]:.1f} s")
    host = host_fingerprint(out)
    print(f"# steadiness: workload={workload} trace={trace} runs={repeat} "
          f"seconds={seconds} seeds={seed}..{seed + repeat - 1} "
          f"wall per run={statistics.median(walls):.1f} s (max {max(walls):.1f})")
    print("# host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    limits = {name: m.get("bound") for name, m in metric_specs(trace).items()}
    print(f"# {'metric':30s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'min':>12s} {'max':>12s} {'spread':>7s} bound")
    report = {"workload": workload, "trace": trace, "host": host, "wall_s": walls,
              "metrics": {}}
    for name in sorted(values):
        v = values[name]
        if len(v) < 2:
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = limits.get(name)
        flag = "" if bound is None else f"{bound:.2f}" + (" OVER" if spread > bound else "")
        print(f"  {name:30s} {units[name]:6s} {med:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{min(v):12.4f} {max(v):12.4f} {spread:7.3f} {flag}")
        report["metrics"][name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                                   "min": min(v), "max": max(v), "spread": spread, "values": v}
    print(json.dumps(report))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    help="length of one run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="steadiness report over this many seeds")
    args = ap.parse_args()
    try:
        out = build()
        if args.seconds is None:
            args.seconds = benchmark_doc()["run_seconds"]
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        log(str(e))
        return 2
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.repeat > 0:
        codes = [steadiness(out, w, args.seed, args.seconds, args.trace, args.repeat)
                 for w in workloads]
        return max(codes)
    worst = 0
    for w in workloads:
        result, code, _ = run_once(out, w, args.seed, args.seconds, args.trace)
        if result is None:
            return code or 1
        if len(workloads) > 1:
            print(f"# {w}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, m in sorted(result["metrics"].items()):
                print(f"#   {name} = {m['value']:.4f} {m['unit']}")
        worst = max(worst, code, 0 if result["correct"] else 1)
        if len(workloads) == 1:
            print(json.dumps(result))
    return worst


if __name__ == "__main__":
    sys.exit(main())
