"""entrolab benchmark: four workloads through the public scenarios API.

    python3 perfbench/run.py --workload coupled-2d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The load is a closed loop: one caller runs a workload's operations one after
another in this process, with no extra threads and the math-library thread
pools pinned to 1.  A warm-up repetition comes first; then repetitions run
as long as the next one should end within `--seconds` (at least 3), and each
timing metric is the median over them.  With `--trace 0` the result holds the end-to-end metrics; with
`--trace 1` it holds per-layer metrics from traced repetitions interleaved
with untraced ones, plus microbenchmarks of the hot kernels.

All run output goes to a temporary directory inside the checkout, removed
at exit.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds the
provenance, the input and artifact hashes and the repetition times.
`--workload all` runs every workload in its own process and prints one table.
"""

from __future__ import annotations

import os

# pinned before numpy is imported; the program is single-threaded by design
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import ctypes  # noqa: E402
import ctypes.util  # noqa: E402

# glibc's default malloc hands large freed arrays back to the kernel, so every
# temporary of more than ~1 MB is page-faulted in again.  On transport-1d that
# is ~1e6 faults and a quarter of the wall time per repetition, and its cost
# moves with the load on the host.  Keeping freed memory in the heap (as a
# long-running process would) removes that kernel time from the measurement.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_PIN = {"M_MMAP_THRESHOLD": 32 * 2**20, "M_TRIM_THRESHOLD": 1 * 2**30}


def _pin_malloc():
    """Apply MALLOC_PIN; return the settings applied, or None off glibc."""
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError, TypeError):
        return None
    ok = mallopt(M_MMAP_THRESHOLD, MALLOC_PIN["M_MMAP_THRESHOLD"]) == 1
    ok &= mallopt(M_TRIM_THRESHOLD, MALLOC_PIN["M_TRIM_THRESHOLD"]) == 1
    return dict(MALLOC_PIN) if ok else None


MALLOC = _pin_malloc()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

try:
    import entrolab  # noqa: E402
except ImportError as exc:
    sys.exit(f"cannot import entrolab from {ROOT}/src: {exc}")

import micro  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import yaml  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("artifact_mb", "MB"),
    ("passed_frac", "fraction"),
)
EXTRA_PER_LAYER = (("scenarios.compare.rho_l2_max", "l2"),)

MIN_REPS = 3  # timed repetitions per run, whatever --seconds says
SETUP_ROUNDS = 30  # back-to-back set-ups after the timed loop, for setup_s,
SETUP_SECONDS = 1.0  # and more of them until this much time has passed


@dataclass
class Rep:
    """Counts and timings of one repetition of a workload."""

    wall_s: float = 0.0
    attempted: int = 0
    raised: int = 0
    check_failed: int = 0
    results: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    artifact_sha256: str = ""
    artifact_bytes: int = 0


def _passed(result):
    if isinstance(result, dict):
        return bool(result.get("passed", True))
    return bool(getattr(result, "passed", True))


def run_rep(workload, configs, outdir):
    """One repetition: every operation of the workload, timed as a whole."""
    rep = Rep()

    def op(kind, fn, *args):
        rep.attempted += 1
        try:
            result = fn(*args)
        except Exception as exc:  # a failing operation is counted; the run goes on
            rep.raised += 1
            rep.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        if not _passed(result):
            rep.check_failed += 1
        rep.results.append((kind, result))
        return result

    gc.collect()
    t0 = time.perf_counter()
    workloads.operations(workload, configs, outdir, op)
    rep.wall_s = time.perf_counter() - t0
    return rep


def tree_digest(root):
    """sha256 over relative paths and contents of every file under root, and
    the total byte count."""
    digest = hashlib.sha256()
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(data)
            total += len(data)
    return digest.hexdigest(), total


def _finite(*values):
    return all(math.isfinite(float(v)) for v in values)


def verify(rep):
    """The benchmark's own checks of the program's outputs.

    Every verdict must follow from its reported value and tolerance, and
    every value must be finite.  Whether a physics check passes is measured
    (`passed_frac`), not required.
    """
    problems = []
    for kind, result in rep.results:
        if kind == "run":
            for name, c in result["checks"].items():
                if not _finite(c["value"]) or c["passed"] != (c["value"] <= c["tolerance"]):
                    problems.append(f"run check {name} inconsistent: {c}")
            if result["passed"] != all(c["passed"] for c in result["checks"].values()):
                problems.append("run verdict disagrees with its checks")
        elif kind == "gauge_check":
            gaps = (result["rho_gap_max"], result["phase_gap_max"])
            if not _finite(*gaps) or result["passed"] != (max(gaps) <= result["tolerance"]):
                problems.append(f"gauge verdict inconsistent: {gaps}")
        elif kind == "compare":
            for m in result.metrics:
                worst = min(m.values) if m.name == "ks" else max(m.values)
                ok = worst >= m.tolerance if m.name == "ks" else worst <= m.tolerance
                if not _finite(*m.values) or m.passed != ok:
                    problems.append(f"compare {m.name} verdict inconsistent: {m.values}")
    return problems


def ref_gap(reps):
    gaps = [
        max(m.values)
        for rep in reps
        for kind, result in rep.results
        if kind == "compare"
        for m in result.metrics
        if m.name == "rho_l2"
    ]
    return max(gaps) if gaps else 0.0


def _cpu_info():
    model, cache = None, None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model is None:
                    model = value.strip()
                elif key == "cache size" and cache is None:
                    cache = value.strip()
    except OSError:
        pass
    try:
        llc = os.sysconf("SC_LEVEL3_CACHE_SIZE")
        if llc > 0:
            cache = f"{llc // 1024} KB"
    except (ValueError, OSError):
        pass
    return model or platform.processor() or "unknown", cache or "unknown"


def _git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance():
    model, cache = _cpu_info()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "last_level_cache": cache,
        "thread_pools": {var: os.environ.get(var) for var in THREAD_VARS},
        "malloc": MALLOC,
        "git_revision": _git_revision(),
    }


def per_layer_names():
    return tracer.metric_names() + micro.metric_names() + list(EXTRA_PER_LAYER)


def check_declared_metrics():
    """The metric lists in BENCHMARK.json must match what this file reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    pairs = lambda key: [(m["name"], m["unit"]) for m in declared[key]]  # noqa: E731
    problems = []
    if pairs("end_to_end") != list(END_TO_END):
        problems.append("end_to_end")
    if pairs("per_layer") != per_layer_names():
        problems.append("per_layer")
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        problems.append("workloads")
    return problems


def measure(args, tmp):
    """Run one workload; return (result dict, record dict)."""
    indir = os.path.join(tmp, "inputs")
    os.makedirs(indir)
    configs = workloads.generate(args.workload, args.seed, indir)
    inputs_sha256, _ = tree_digest(indir)

    counter = itertools.count()

    def rep_once(trace=None):
        outdir = os.path.join(tmp, f"rep{next(counter)}")
        if trace is not None:
            trace.install()
        try:
            rep = run_rep(args.workload, configs, outdir)
        finally:
            if trace is not None:
                trace.uninstall()
        if os.path.isdir(outdir):
            rep.artifact_sha256, rep.artifact_bytes = tree_digest(outdir)
            shutil.rmtree(outdir)
        return rep

    warm = rep_once()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    all_reps = [warm]
    timed, traced = [], []
    t_tracer = tracer.Tracer()
    deadline = time.perf_counter() + args.seconds
    per_round = 2 * warm.wall_s if args.trace else warm.wall_s

    def go_on(done):
        # stop before a round that would end past the deadline
        return done < MIN_REPS or time.perf_counter() + per_round < deadline

    if args.trace:
        while go_on(len(traced)):
            timed.append(rep_once())
            t_tracer.rep = len(traced)
            traced.append(rep_once(t_tracer))
    else:
        while go_on(len(timed)):
            timed.append(rep_once())
    all_reps += timed + traced

    problems = [p for rep in all_reps for p in verify(rep)]
    if len({rep.artifact_sha256 for rep in all_reps}) != 1:
        problems.append("repetitions of one seed left different artifacts")
    if traced and {r.artifact_sha256 for r in traced} != {r.artifact_sha256 for r in timed}:
        problems.append("traced and untraced repetitions left different artifacts")

    attempted = sum(r.attempted for r in all_reps)
    raised = sum(r.raised for r in all_reps)
    check_failed = sum(r.check_failed for r in all_reps)
    wall = statistics.median(r.wall_s for r in timed)

    if args.trace:
        mean_traced = statistics.fmean(r.wall_s for r in traced)
        values = t_tracer.metrics(len(traced), mean_traced)
        values["trace.overhead_frac"] = statistics.median(r.wall_s for r in traced) / wall - 1.0
        values.update(micro.run(os.path.join(tmp, "micro")))
        values["scenarios.compare.rho_l2_max"] = ref_gap(all_reps)
        units = dict(per_layer_names())
    else:
        setup = []
        setup_end = time.perf_counter() + SETUP_SECONDS
        while len(setup) < SETUP_ROUNDS or time.perf_counter() < setup_end:
            t0 = time.perf_counter()
            for path in configs.values():
                workloads.scenarios.load_scenario(path)
            setup.append(time.perf_counter() - t0)
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "artifact_mb": warm.artifact_bytes / 1e6,
            "passed_frac": (attempted - raised - check_failed) / attempted,
        }
        units = dict(END_TO_END)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": raised,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": {"timed": len(timed), "traced": len(traced)},
        "timed_wall_s": [r.wall_s for r in timed],
        "check_failed": check_failed,
        "inputs_sha256": inputs_sha256,
        "artifacts_sha256": warm.artifact_sha256,
        "provenance": provenance(),
        "problems": problems,
        "errors": sorted({e for r in all_reps for e in r.errors}),
    }
    return result, record


def print_metrics(metrics):
    for name, m in metrics.items():
        print(f"  {name:<45} {m['value']:>14.6g} {m['unit']}")


def run_all(args):
    """Each workload in its own process (peak RSS is per process); one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}:")
        print_metrics(result["metrics"])
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
        print(f"  correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(entrolab.__file__)))
    if package_root != os.path.join(ROOT, "src"):
        print(f"entrolab imported from {entrolab.__file__}, not this checkout", file=sys.stderr)
        return 2
    problems = check_declared_metrics()
    if problems:
        print(f"BENCHMARK.json disagrees with run.py on: {problems}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        result, record = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    print_metrics(result["metrics"])
    for line in record["problems"] + record["errors"]:
        print(f"  ! {line}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
