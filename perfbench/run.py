#!/usr/bin/env python3
"""CloudWalker benchmark: one command, three workloads, end-to-end metrics
and a per-layer trace.

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 20 --trace 0

Run from the repository root. The script builds the library and the cwbench
binary (perfbench/src) into .bench_build/perfbench, checks the pinned input hashes,
builds the seeded fixture (R-MAT graph, index, snapshot) in a child process,
runs the workload in another, and prints a report. Its last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"} with the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). Run results, their context and span files are kept under
.bench_build/perfbench/results.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
CWBENCH = os.path.join(BUILD, "cwbench")
# Every run, set-up and build included, must end well inside 180 s.
DEADLINE_S = 170.0

# The tail latency's name per workload in the report (cwbench calls it
# tail_ms; it is printed, not gated in BENCHMARK.json).
TAIL_NAME = {"ooc_paged": "p90_ms"}


def fail(message, code=1):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 1:
            fail("time budget exhausted")
        return left


def run_child(cmd, deadline, capture=True):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, process_group=0,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out: {' '.join(cmd[:2])}")
    if proc.returncode != 0:
        fail(f"{' '.join(cmd[:2])} exited with {proc.returncode}")
    return out


def cwbench_json(args, deadline):
    out = run_child([CWBENCH] + args, deadline)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail(f"cwbench {args[0]} printed nothing")
    return json.loads(lines[-1])


def build(deadline):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_child(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], deadline, capture=False)
    run_child(["cmake", "--build", BUILD, "-j", jobs,
               "--target", "cwbench"], deadline, capture=False)


def check_pins(deadline):
    """Refuses to report when the inputs' generators changed."""
    with open(os.path.join(HERE, "pins.json")) as f:
        pinned = json.load(f)["canary_hashes"]
    now = cwbench_json(["pins"], deadline)["info"]
    changed = [k for k in pinned if pinned[k] != now.get(k)]
    if changed:
        fail("input generators changed (pins.json): " + ", ".join(changed), 3)


def cmake_cache():
    entries = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if ":" in line and "=" in line and not line.startswith("//"):
                    key, value = line.rstrip("\n").split("=", 1)
                    entries[key.split(":")[0]] = value
    except OSError:
        pass
    return entries


def cpu_cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            d = os.path.join(base, index)
            try:
                with open(os.path.join(d, "level")) as f:
                    level = f.read().strip()
                with open(os.path.join(d, "type")) as f:
                    kind = f.read().strip()
                with open(os.path.join(d, "size")) as f:
                    size = f.read().strip()
            except OSError:
                continue
            if kind != "Instruction":
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over the library and benchmark sources (a checkout may not
    be a git repository, so the commit id is not always available)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unavailable (not a git checkout)"


def run_context(fixture, run):
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], text=True,
                                 capture_output=True, timeout=10).stdout
        version = version.splitlines()[0] if version else compiler
    except (OSError, subprocess.SubprocessError):
        version = compiler
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(x for x in (cache.get("CMAKE_CXX_FLAGS", ""), cache.get(
        f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")) if x)
    m = run["metrics"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "cpu_caches": cpu_cache_sizes(),
        "compiler": version,
        "build_type": build_type,
        "cxx_flags": flags + " -Wall -Wextra -std=c++20",
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "graph_nodes": int(fixture["metrics"]["nodes"]),
        "graph_edges": int(fixture["metrics"]["edges"]),
        "graph_hash": fixture["info"]["graph_hash"],
        "stream_hash": run["info"]["stream_hash"],
        "artifact_bytes": int(fixture["metrics"]["artifact_bytes"]),
        "index_threads": int(fixture["metrics"]["index_threads"]),
        "ooc_budget_bytes": int(m["ooc_budget_bytes"]),
        "pool_threads": int(m["pool_threads"]),
        "walk_threads": int(m["walk_threads"]),
        "query_walkers": int(m["query_walkers"]),
        # Single-thread R-MAT generation time of the fixture: a gauge of
        # how fast the host ran during this run.
        "fixture_graph_s": fixture["metrics"]["graph_s"],
    }


def report(workload, seed, trace, spec, fixture, run, context, results_dir):
    f, m = fixture["metrics"], run["metrics"]
    values = dict(m)
    values["index_s"] = f["index_s"]
    values["artifact_bytes_per_edge"] = f["artifact_bytes_per_edge"]
    for key in ("indexer.build_s", "indexer.msteps_per_s", "snapshot.write_s"):
        values[key] = f[key]
    names = [x["name"] for x in spec["per_layer" if trace else "end_to_end"]]
    units = {x["name"]: x["unit"] for x in spec["per_layer"] + spec["end_to_end"]}
    missing = [n for n in names if n not in values]
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    attempted = int(m["attempted"])
    failed = int(m["failed"])
    fail_frac = failed / attempted if attempted else 1.0

    print(f"perfbench {workload} seed={seed} trace={trace}")
    print("end-to-end:")
    tail = TAIL_NAME.get(workload, "p99_ms")
    rows = [("setup_s", m["setup_s"], "s"), ("index_s", f["index_s"], "s")]
    if workload == "serve_zipf":
        rows.append(("max_qps_at_slo", m["max_qps_at_slo"], "1/s"))
        rows.append(("max_qps_at_slo.rung", m["max_qps_at_slo.rung"], "1/s"))
    rows += [("qps", m["qps"], "1/s"),
             ("p50_ms", m["p50_ms"], "ms"), (tail, m["tail_ms"], "ms"),
             ("fail_frac", fail_frac, "ratio"),
             ("peak_rss_mb", m["peak_rss_mb"], "MB"),
             ("artifact_bytes_per_edge", f["artifact_bytes_per_edge"], "B/edge")]
    for name, value, unit in rows:
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(f"  ({int(m['samples'])} latency samples"
          + (f"; open-loop ladder from the {m['reference_rate']:.0f}/s "
             f"reference rung, rate:p99:verdict = {run['info']['ladder']}"
             if workload == "serve_zipf" else "")
          + f"; {attempted} attempted, {failed} failed, "
          f"{int(m['checked'])} answers checked, {int(m['mismatches'])} wrong)")
    if trace:
        print("per-layer:")
        for name in sorted(x["name"] for x in spec["per_layer"]):
            print(f"  {name:<34} {values[name]:>14.6g} {units[name]}")
        extra = [k for k in ("core.execute_ms_p50.n2v", "engine.walk_share.n2v",
                             "net.start_s", "net.connect_s", "net.walk_ms_p50")
                 if k in m]
        for name in extra:
            print(f"  {name:<34} {values[name]:>14.6g}")
        print(f"  spans: {run['info'].get('spans', '')}")
    print("context: " + json.dumps(context, sort_keys=True))
    for e in run["errors"]:
        print(f"  ! {e}")

    result = {
        "correct": int(m["mismatches"]) == 0 and int(m.get("trace.mismatches", 0)) == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    with open(os.path.join(results_dir, f"{workload}-seed{seed}-trace{trace}.json"),
              "w") as out:
        json.dump({"result": result, "context": context,
                   "fixture": fixture, "run": run}, out, indent=1)
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = Deadline(DEADLINE_S)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json in {ROOT}: {e}", 2)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}", 2)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found: run from the repository root", 2)

    build(deadline)
    check_pins(deadline)

    results_dir = os.path.join(BUILD, "results")
    run_dir = os.path.join(BUILD, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(run_dir, exist_ok=True)
    try:
        snapshot = os.path.join(run_dir, "fixture.cwk")
        fixture = cwbench_json(["fixture", f"--seed={args.seed}",
                               f"--out={snapshot}"], deadline)
        run = cwbench_json(["run", f"--workload={args.workload}",
                           f"--seed={args.seed}", f"--snapshot={snapshot}",
                           f"--out-dir={run_dir}", f"--seconds={args.seconds}",
                           f"--trace={args.trace}"], deadline)
        if args.trace:
            spans = os.path.join(
                results_dir, f"{args.workload}-seed{args.seed}.spans.jsonl")
            shutil.copyfile(run["info"]["spans"], spans)
            run["info"]["spans"] = os.path.relpath(spans, ROOT)
        context = run_context(fixture, run)
        report(args.workload, args.seed, args.trace, spec, fixture, run,
               context, results_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
