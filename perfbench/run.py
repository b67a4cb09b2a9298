"""spatialknn benchmark: closed-loop CLI calls on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke               # harness self-test, seconds long
    python3 perfbench/run.py --record-reference    # rewrite reference/*.json

Run from the repository root; the package is imported from ``src/``.
One client calls the CLI, each call in a fresh interpreter, and starts
the next call only when the previous one has returned, until ``S``
seconds have passed. Every call's report is checked (verify.py); a call
fails on a non-zero exit or a failed check.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer ones: untraced and traced calls
alternate, and the traced calls record layer spans (tracer.py). A line
before it records the machine, the environment and every call.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, here and in every child:
# BLAS threads on top of the two pool workers oversubscribe two cores,
# and the thread count changes report digits (README).
BLAS_THREADS = 1
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join("src", "spatialknn")
WORK_ROOT = ".bench_work"

#: Set-ups per run; set-up time is their median.
SETUP_REPEATS = 3
#: A traced call's layer self times plus cli.main's must cover at least
#: this share of its wall time; the rest is interpreter start-up and
#: imports, which no span sees.
COVERAGE_MIN = 0.85
#: Processes still running this many seconds after start-up are killed,
#: so that a hung call cannot keep the benchmark past its time limit.
DEADLINE_S = 170.0
_STARTED = perf_counter()

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)

PER_LAYER_FIELDS = (
    ("kernels.eval_scalar", ("calls", "self_s", "elements", "bytes_computed")),
    ("evaluation.cv_select", ("calls", "self_s", "grid_points")),
    ("evaluation.cv_select_classification", ("calls", "self_s", "grid_points")),
    ("evaluation.default_grid", ("calls", "self_s")),
    ("evaluation.holdout_predictions", ("self_s",)),
    ("evaluation.holdout_labels", ("self_s",)),
    ("evaluation.stratified_split", ("self_s",)),
    (
        "evaluation.benchmark_replications",
        ("calls", "self_s", "worker_busy_s", "pool_wait_s"),
    ),
    ("lattice.pairwise_distances", ("calls", "self_s", "bytes_computed")),
    ("lattice.distances_to", ("calls", "self_s")),
    ("estimator.predict", ("calls", "self_s", "p50_us", "p99_us")),
    ("estimator.classify", ("calls", "self_s", "p50_us", "p99_us")),
    ("estimator.knn_weights", ("calls", "self_s", "unnormalized")),
    ("estimator.nw_weights", ("calls", "self_s", "unnormalized")),
    ("neighbors.knn_bandwidth", ("calls", "self_s")),
    ("neighbors.spatial_bandwidth", ("calls", "self_s")),
    ("simulate.gen_dataset", ("calls", "self_s", "setup_self_s")),
    ("simulate.sample_grf", ("calls", "self_s", "setup_self_s")),
    ("dataio.read_dataset", ("calls", "self_s", "bytes")),
    ("dataio.write_report", ("calls", "self_s", "bytes")),
    ("dataio.parse_config", ("self_s",)),
    ("cli.main", ("self_s",)),
)
TRACE_FIELDS = (("trace.overhead_s", "s"), ("trace.coverage", "ratio"))

#: Counters that must repeat exactly between calls on the same inputs.
EXACT_FIELDS = ("calls", "grid_points", "elements", "bytes_computed", "unnormalized", "bytes")


def field_unit(field: str) -> str:
    if field.endswith("_s"):
        return "s"
    if field.endswith("_us"):
        return "us"
    if field.startswith("bytes"):
        return "B"
    return "count"


def per_layer_names():
    names = [(f"{key}.{f}", field_unit(f)) for key, fields in PER_LAYER_FIELDS for f in fields]
    return names + list(TRACE_FIELDS)


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)  # BLAS threads already pinned above
    env.pop("SPATIALKNN_THREADS", None)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def run_process(argv, cwd, out_path, err_path):
    """Run to completion; returns (exit code, wall seconds, rusage).

    The rusage comes from wait4, so it covers the process and every
    descendant it waited for: the CLI's pool workers. The child leads its
    own process group, which the deadline kills as a whole.
    """
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=out, stderr=err, start_new_session=True
        )
        remaining = max(1.0, DEADLINE_S - (start - _STARTED))
        watchdog = threading.Timer(remaining, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def _tail(path, lines=5) -> str:
    with open(path) as fh:
        return "".join(fh.readlines()[-lines:]).strip()


# ---------------------------------------------------------------------------
# set-up


def _dir_digest(path) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def set_up(workload, seed, work_dir, smoke, trace):
    """Generate the inputs ``SETUP_REPEATS`` times in fresh interpreters.

    Returns the first input directory, every set-up's seconds and, when
    ``trace`` is set, the layer stats of the last set-up, which is traced.
    The repeats must produce identical files: inputs depend on the seed
    only.
    """
    dirs, times = [], []
    trace_dir = os.path.join(work_dir, "setup-trace")
    for r in range(SETUP_REPEATS):
        d = os.path.join(work_dir, f"inputs-{r}")
        os.makedirs(d)
        argv = [sys.executable, os.path.join(HERE, "workloads.py"), workload, str(seed), d]
        if smoke:
            argv.append("--smoke")
        if trace and r == SETUP_REPEATS - 1:
            os.makedirs(trace_dir)
            argv += ["--trace", trace_dir]
        code, wall, _ = run_process(argv, ".", d + ".out", d + ".err")
        if code != 0:
            raise RuntimeError(f"set-up of {workload} failed: {_tail(d + '.err')}")
        dirs.append(d)
        times.append(wall)
    digests = {_dir_digest(d) for d in dirs}
    if len(digests) != 1:
        raise RuntimeError(f"set-up of {workload} is not deterministic for seed {seed}")
    setup_stats = tracer.load_trace(trace_dir)[0] if trace else None
    return dirs[0], times, setup_stats


# ---------------------------------------------------------------------------
# calls


def one_call(workload, seed, input_dir, call_dir, traced, check_reference):
    os.makedirs(call_dir)
    capture_path = os.path.join(call_dir, "capture.json")
    argv = [sys.executable, os.path.join(HERE, "cli_entry.py"), "--capture", capture_path]
    if traced:
        argv += ["--trace", call_dir]
    argv += ["--"] + workloads.cli_args(workload)
    report = os.path.join(input_dir, "report.csv")
    if os.path.exists(report):
        os.remove(report)
    code, wall, usage = run_process(
        argv, input_dir, os.path.join(call_dir, "out"), os.path.join(call_dir, "err")
    )
    call = {
        "traced": traced,
        "exit": code,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    problems = []
    if code != 0:
        problems.append(f"exit code {code}: {_tail(os.path.join(call_dir, 'err'))}")
    else:
        with open(report, "rb") as fh:
            call["report"] = fh.read()
        call["report_sha256"] = hashlib.sha256(call["report"]).hexdigest()
        try:
            with open(capture_path) as fh:
                capture = call["capture"] = json.load(fh)
            problems += verify.CHECKS[workload](input_dir, report, capture, seed)
            if check_reference:
                problems += verify.check_reference(workload, report, capture)
        except Exception as exc:  # a malformed report fails the call, not the run
            problems.append(f"check raised {type(exc).__name__}: {exc}")
        if traced:
            call["stats"], call["samples"], accounted_s = tracer.load_trace(call_dir)
            call["coverage"] = accounted_s / wall
    call["problems"] = problems
    return call


def measure(workload, seed, seconds, trace, smoke, work_dir):
    """Set up, then call the CLI in a closed loop for ``seconds``."""
    input_dir, setup_times, setup_stats = set_up(workload, seed, work_dir, smoke, trace)
    check_reference = seed == verify.REFERENCE_SEED and not smoke
    calls = []
    start = perf_counter()
    while True:
        traced = bool(trace) and len(calls) % 2 == 1
        call_dir = os.path.join(work_dir, f"call-{len(calls)}")
        calls.append(one_call(workload, seed, input_dir, call_dir, traced, check_reference))
        # stop before a call that would likely end past the deadline
        next_end = perf_counter() - start + calls[-1]["wall_s"]
        if next_end > seconds and (not trace or len(calls) >= 2):
            break
    _cross_call_checks(calls, smoke)
    return setup_times, setup_stats, calls


def _cross_call_checks(calls, smoke):
    """Same inputs, same program: same report bytes and same work counts."""
    ok = [c for c in calls if not c["problems"]]
    if ok:
        first = ok[0]
        for c in ok[1:]:
            if c["report"] != first["report"]:
                c["problems"].append("report bytes differ from the run's first call")
    traced = [c for c in ok if c["traced"]]
    for c in traced:
        coverage = c["coverage"]
        if not coverage <= 1.0 or (not smoke and coverage < COVERAGE_MIN):
            c["problems"].append(f"spans cover {coverage:.3f} of the traced wall time")
        for key, fields in c["stats"].items():
            for field in EXACT_FIELDS:
                if field in fields and fields[field] != traced[0]["stats"][key][field]:
                    c["problems"].append(f"{key}.{field} differs between traced calls")


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(setup_times, calls):
    ok = [c for c in calls if not c["problems"]] or calls
    values = {
        "wall_s": statistics.median(c["wall_s"] for c in ok),
        "setup_s": statistics.median(setup_times),
        "cpu_s": statistics.median(c["cpu_s"] for c in ok),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in ok),
        "success_rate": sum(not c["problems"] for c in calls) / len(calls),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer_metrics(calls, setup_stats):
    traced = [c for c in calls if "stats" in c]
    plain = [c for c in calls if not c["traced"] and not c["problems"]]
    values = {}
    for key, fields in PER_LAYER_FIELDS:
        for field in fields:
            name = f"{key}.{field}"
            if field in ("p50_us", "p99_us"):
                pooled = [s for c in traced for s in c["samples"].get(key, [])]
                q = 50 if field == "p50_us" else 99
                values[name] = float(np.percentile(pooled, q)) * 1e6 if pooled else 0.0
            elif field == "setup_self_s":
                values[name] = setup_stats[key]["self_s"]
            elif field.endswith("_s"):
                values[name] = _median(c["stats"][key][field] for c in traced)
            else:  # an exact count, the same in every traced call
                values[name] = traced[0]["stats"][key][field] if traced else 0
    values["trace.overhead_s"] = _median(c["wall_s"] for c in traced) - _median(
        c["wall_s"] for c in plain
    )
    values["trace.coverage"] = _median(c["coverage"] for c in traced)
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


# ---------------------------------------------------------------------------
# environment record


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, check=True)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.CalledProcessError):
        return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _git_commit():
    # the benchmark's checkout is usually not a git repository
    if not os.path.isdir(".git"):
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or None


def environment() -> dict:
    blas = {}
    try:
        info = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (AttributeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "cli_threads": workloads.THREADS,
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# entry points


def run_workload(workload, seed, seconds, trace, smoke=False):
    work_dir = os.path.abspath(os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}"))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        setup_times, setup_stats, calls = measure(workload, seed, seconds, trace, smoke, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for c in calls:
        for problem in c["problems"]:
            print(f"{workload}: call failed: {problem}", file=sys.stderr)
    failed = sum(bool(c["problems"]) for c in calls)
    if trace:
        metrics = per_layer_metrics(calls, setup_stats)
    else:
        metrics = end_to_end_metrics(setup_times, calls)
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "setup_s": setup_times,
        "calls": [
            {k: c.get(k) for k in ("traced", "exit", "wall_s", "cpu_s", "peak_rss_mb",
                                   "report_sha256", "coverage", "problems")}
            for c in calls
        ],
    }
    result = {"correct": failed == 0, "attempted": len(calls), "failed": failed, "metrics": metrics}
    return info, result


def self_test() -> int:
    """Each workload at smoke size, untraced and traced, plus harness checks."""
    problems = []
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layer = {m["name"] for m in spec["per_layer"]}
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in workloads.WORKLOADS:
        for trace, want in ((0, want_e2e), (1, want_layer)):
            _, result = run_workload(workload, 0, 0, trace, smoke=True)
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed call(s)")
            if set(result["metrics"]) != want:
                diff = set(result["metrics"]) ^ want
                problems.append(f"{workload} trace={trace}: metric names differ: {sorted(diff)}")
    problems += _restore_check()
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def _restore_check() -> list:
    sys.path.insert(0, os.path.abspath("src"))
    import spatialknn.cli  # noqa: F401  (loads every module the tracer rebinds)

    t = tracer.Tracer(trace_dir=WORK_ROOT)
    t.install()
    bound = t.bound_names()
    t.uninstall()
    problems = []
    if len(bound) < len(tracer.LAYERS) + 1:
        problems.append(f"only {len(bound)} names were rebound")
    for module_name, attr, original in bound:
        if getattr(sys.modules[module_name], attr) is not original:
            problems.append(f"{module_name}.{attr} was not restored")
    return problems


def record_reference() -> int:
    os.makedirs(verify.REFERENCE_DIR, exist_ok=True)
    for workload in workloads.WORKLOADS:
        work_dir = os.path.abspath(os.path.join(WORK_ROOT, f"reference-{workload}"))
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        try:
            input_dir, _, _ = set_up(workload, verify.REFERENCE_SEED, work_dir, False, False)
            call_dir = os.path.join(work_dir, "call")
            call = one_call(workload, verify.REFERENCE_SEED, input_dir, call_dir, False, False)
            if call["problems"]:
                print("\n".join(call["problems"]), file=sys.stderr)
                return 1
            record = verify.reference_record(
                workload, os.path.join(input_dir, "report.csv"), call["capture"]
            )
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        with open(os.path.join(verify.REFERENCE_DIR, f"{workload}.json"), "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(f"recorded {workload}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spatialknn CLI benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=verify.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the harness self-test")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: run from the repository root; {SRC} not found", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.smoke:
        return self_test()
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    info, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
