"""coherray benchmark: seeded job decks timed end to end, or traced per layer.

Usage, from the repository root:

    python3 bench/run.py --workload farfield --seed 1 --seconds 20 --trace 0

The package is imported from ``src/``. One client runs the deck in a
closed loop: the next job starts when the previous one returns. The run
repeats passes of fresh seeded jobs until ``--seconds`` have passed and
at least MIN_JOBS jobs have completed, always finishing the pass it is in.
Outputs are checked after the timed region. End-to-end times are scaled
to a reference machine speed by a calibration kernel sampled during the
run (see calibration.py); the raw values are reported alongside.

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` every pass runs once untraced and once traced (alternating
which goes first) and the metrics are the per-layer ones. The line before
it records the environment, the error rate, the sample count, the raw
metrics, the measured slowdowns and the SHA-256 of the first pass's outputs.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SOURCE_DIR = os.path.join(ROOT, "src")

# p90 needs at least ten samples beyond it
MIN_JOBS = 100
# no new pass starts after this many seconds, whatever MIN_JOBS says
HARD_CAP_S = 120.0
SETUP_PROBES = 5
WORK_ROOT = ".bench_tmp"


def _load():
    """Import the benchmark modules; coherray must come from src/."""
    sys.path.insert(0, SOURCE_DIR)
    import coherray

    found = os.path.dirname(os.path.abspath(coherray.__file__))
    expected = os.path.join(SOURCE_DIR, "coherray")
    if found != expected:
        raise ImportError(f"coherray imported from {found}, expected {expected}")
    import calibration
    import checks
    import decks
    import jobs
    import trace

    return calibration, checks, decks, jobs, trace


calibration, checks, decks, jobs, trace = _load()


def _workdir(workload: str) -> str:
    return f"{WORK_ROOT}/{workload}"


def _write_configs(deck: list):
    for job in deck:
        if job.config is not None:
            jobs.write_config(job.config_file, job.config)


def execute(job) -> str:
    """Run one job; the output text, or JobFailed / any exception."""
    if job.argv:
        return jobs.run_cli(jobs.cli_argv(job))
    return jobs.run_library(job)


def setup(workload: str, seed: int) -> list:
    """Deck generation plus a warm-up of one job of each kind.

    The warm-up jobs are the smallest of each kind in a fixed pass that
    does not depend on the seed, so set-up work is the same for every seed.
    """
    workdir = _workdir(workload)
    os.makedirs(workdir, exist_ok=True)
    warmup = decks.first_of_each_kind(decks.generate(workload, 0, -1, workdir))
    _write_configs(warmup)
    for job in warmup:
        execute(job)
    deck = decks.generate(workload, seed, 0, workdir)
    _write_configs(deck)
    return deck


def probe_setup(workload: str, seed: int) -> tuple:
    """(raw, scaled) wall time of a fresh process that imports, builds the
    deck and warms up; scaled by kernel samples taken around it."""
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-only",
        "--workload", workload, "--seed", str(seed),
    ]
    calibrator = calibration.Calibrator(calibration.SETUP_KERNEL)
    calibrator.sample(5)
    start = time.perf_counter()
    subprocess.run(command, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    calibrator.sample(5)
    return elapsed, elapsed / calibrator.slowdown()


class Record:
    """One executed job: its output (or error), latency and CPU time."""

    __slots__ = ("job", "text", "error", "seconds", "cpu")

    def __init__(self, job, text, error, seconds, cpu):
        self.job, self.text, self.error, self.seconds, self.cpu = job, text, error, seconds, cpu


class Pass:
    """Records of one execution of a deck."""

    def __init__(self, records: list, traced: bool):
        self.records, self.traced = records, traced

    @property
    def seconds(self) -> float:
        return sum(record.seconds for record in self.records)


def run_pass(deck: list, calibrator) -> list:
    records = []
    for job in deck:
        calibrator.sample_if_due()
        text = error = None
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            text = execute(job)
        except Exception as err:  # a job that raises is a failed job
            error = f"{job.kind}: {type(err).__name__}: {err}"
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu
        if error is None and job.output is not None:
            text = jobs.read_output_file(job.output)
        records.append(Record(job, text, error, elapsed, cpu))
    return records


def check_records(records: list, corrupt=None) -> list:
    """Failure reasons, one per failed job (empty when all are right)."""
    failures = []
    for record in records:
        if record.error is not None:
            failures.append(record.error)
            continue
        job = record.job
        text = record.text if corrupt is None else corrupt(record.text)
        reason = checks.check(job, text)
        if reason is None and job.output is not None:
            if job.config is not None:
                jobs.write_config(job.config_file, job.config)
            reference = jobs.run_cli(jobs.cli_argv(job, with_output=False))
            if checks.strip_output_echo(text, job.output) != reference:
                reason = f"{job.kind}: --output file differs from stdout of the same job"
        if reason is not None:
            failures.append(reason)
    return failures


def output_digest(records: list) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update((record.text if record.error is None else "<failed>\n").encode())
    return digest.hexdigest()


def measure(workload: str, seed: int, seconds: float, traced: bool, deck: list, min_jobs: int = MIN_JOBS):
    """Run passes until the time and job minimums are met.

    Returns (every Pass, tracer or None, calibrator). In a traced run each
    deck runs twice, untraced and traced, alternating which goes first.
    """
    tracer = trace.Tracer() if traced else None
    calibrator = calibration.Calibrator(calibration.KERNEL[workload])
    passes = []
    start = time.perf_counter()
    pass_index = 0
    while True:
        modes = (False, True) if pass_index % 2 == 0 else (True, False)
        for with_trace in modes if traced else (False,):
            if with_trace:
                tracer.install()
            try:
                done = run_pass(deck, calibrator)
            finally:
                if with_trace:
                    tracer.remove()
            passes.append(Pass(done, with_trace))
        pass_index += 1
        elapsed = time.perf_counter() - start
        jobs_done = sum(len(p.records) for p in passes if not p.traced)
        if (elapsed >= seconds and jobs_done >= min_jobs) or elapsed >= HARD_CAP_S:
            break
        deck = decks.generate(workload, seed, pass_index, _workdir(workload))
        _write_configs(deck)
    return passes, tracer, calibrator


def end_to_end(passes: list, setup_seconds: list, slowdown: float) -> dict:
    """End-to-end metrics over untraced passes, job times divided by the
    run's slowdown (1.0 gives raw times)."""
    latencies = [r.seconds / slowdown for p in passes for r in p.records]
    p50, p90 = statistics.quantiles(latencies, n=10, method="inclusive")[4::4]
    cpu = statistics.median(sum(r.cpu for r in p.records) / slowdown for p in passes)
    values = {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "jobs_per_s": (len(latencies) / sum(latencies), "1/s"),
        "job_p50_ms": (1e3 * p50, "ms"),
        "job_p90_ms": (1e3 * p90, "ms"),
        "cpu_s": (cpu, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer(tracer, passes: int, traced_s: float, untraced_s: float) -> dict:
    overhead = 100.0 * (traced_s / untraced_s - 1.0)
    units = {"ms": "ms", "mb": "MB", "pct": "%", "bytes": "B"}
    metrics = {}
    for name, value in tracer.metrics(passes, overhead).items():
        suffix = name.replace(".", "_").rsplit("_", 1)[1]
        metrics[name] = {"value": value, "unit": units.get(suffix, "count")}
    return metrics


def ranking(metrics: dict) -> dict:
    """Kernel spans by inclusive time and layers by self time, largest first."""
    outer = set(trace.OUTER_SPANS)
    spans = sorted(
        (name[:-3] for name in metrics if name.endswith(".ms") and name[:-3] not in outer),
        key=lambda span: -metrics[span + ".ms"]["value"],
    )
    layers = sorted(trace.SPANS, key=lambda layer: -metrics[f"{layer}.self_ms"]["value"])
    return {"kernel_spans": spans, "layer_self": layers}


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                break
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if variable in os.environ:
            info[variable] = os.environ[variable]
    return info


def environment(seed: int) -> dict:
    import numpy as np

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = result.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SOURCE_DIR, "coherray", "*.py"))):
        with open(path, "rb") as handle:
            source.update(handle.read())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, traced: bool, setup_samples: list,
        deck=None, corrupt=None, min_jobs: int = MIN_JOBS):
    """Measure one workload; returns (result line dict, info dict)."""
    process_setup_start = time.perf_counter()
    if deck is None:
        deck = setup(workload, seed)
    process_setup_s = time.perf_counter() - process_setup_start
    passes, tracer, calibrator = measure(workload, seed, seconds, traced, deck, 0 if traced else min_jobs)
    records = [record for p in passes for record in p.records]
    untraced = [p for p in passes if not p.traced]
    failures = check_records(records, corrupt)
    if traced:
        traced_s = sum(p.seconds for p in passes if p.traced)
        untraced_s = sum(p.seconds for p in untraced)
        metrics = per_layer(tracer, len(untraced), traced_s, untraced_s)
    else:
        metrics = end_to_end(untraced, [scaled for _, scaled in setup_samples], calibrator.slowdown())
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "passes": len(untraced),
        "attempted": len(records),
        "error_rate": len(failures) / len(records),
        "job_samples": sum(len(p.records) for p in untraced),
        "output_digest": output_digest(untraced[0].records),
        "slowdown": {
            "kernel": calibration.KERNEL[workload],
            "run": calibrator.slowdown(),
            "samples": len(calibrator.samples),
            "setup": [raw / scaled for raw, scaled in setup_samples],
        },
        "process_setup_s": process_setup_s,
        "failures": failures[:5],
        "environment": environment(seed),
    }
    if traced:
        info["ranking"] = ranking(metrics)
    else:
        info["raw_metrics"] = end_to_end(untraced, [raw for raw, _ in setup_samples], 1.0)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=decks.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, build the deck, warm up and exit (a set-up probe)")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        if args.setup_only:
            setup(args.workload, args.seed)
            return 0
        setup_samples = [] if args.trace else [
            probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)
        ]
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), setup_samples)
    finally:
        shutil.rmtree(_workdir(args.workload), ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
