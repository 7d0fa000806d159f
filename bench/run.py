"""uccfsim benchmark: trials per second end to end, per-module timings traced.

Run from the repository root:

    python3 bench/run.py --workload many_small --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload, each in its own process.  With
``--trace 0`` the end-to-end metrics are measured untraced, and every
timing is scaled to a reference host speed (see ``calibration_s``); with
``--trace 1`` the same batch is run alternately untraced and traced, and
the per-layer metrics, the tracing overhead and a record-identity check
are reported.  Every run checks its outputs (see ``gate.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a manifest and, for traced
runs, the spans are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gzip
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import gate
from workloads import (DEFAULT_SEED, HELD_OUT_SEED, SEED_STRIDE, WARMUP_BATCH,
                       WORKLOADS, nproc)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 170


def limit_blas_threads():
    """Single-threaded BLAS; must precede the numpy import.

    Worker threads then never exceed nproc, and a workload with one worker
    keeps to one core: BLAS threads that spin while waiting for each other
    on a shared host measure the scheduler rather than the program.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


# A reference host runs calibration_s() in REFERENCE_CALIBRATION_S seconds.
REFERENCE_CALIBRATION_S = 0.010
CALIBRATION_LOOP = 100_000
CALIBRATION_SOLVES = 150
# after each timed piece of work, calibrate for this share of its time
CALIBRATION_SHARE = 0.1


def calibration_s() -> float:
    """Seconds taken by a fixed interpreter loop plus small dense solves.

    The code is the benchmark's own and never changes with the program,
    so its time tracks only the host's speed.
    """
    import numpy as np
    a = np.eye(32) * 4.0 + np.ones((32, 32))
    b = np.arange(32.0)
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i
    for _ in range(CALIBRATION_SOLVES):
        np.linalg.solve(a, b)
    return time.perf_counter() - t0


def calibrate_after(seconds: float) -> list:
    """Calibrations, at least one, lasting ``CALIBRATION_SHARE * seconds``.

    The host switches between speeds within a second, so a long piece of
    work needs many samples of the calibration to give its mean speed.
    """
    samples = [calibration_s()]
    while sum(samples) < CALIBRATION_SHARE * seconds:
        samples.append(calibration_s())
    return samples


def at_reference_speed(seconds: float, calibration: float) -> float:
    """``seconds`` measured while ``calibration_s()`` took ``calibration``,
    scaled to the reference host.

    A shared host's speed drifts by up to 1.5x, from one second to the
    next and over minutes.  Calibrations taken between the timed pieces of
    work give the host's speed over the same stretch of time; dividing by
    it removes the drift.
    """
    return seconds * REFERENCE_CALIBRATION_S / calibration


def trimmed_mean(values) -> float:
    """Mean without the lowest and highest tenth of ``values`` (at least one
    each when there are five or more): a time that another process cut
    into moves the mean of the rest by little."""
    values = sorted(values)
    cut = max(1, len(values) // 10) if len(values) >= 5 else 0
    return statistics.fmean(values[cut:len(values) - cut])


def import_engine():
    """uccfsim.engine from this checkout's sources; exits if they are missing."""
    if not (SRC / "uccfsim" / "engine.py").is_file():
        sys.exit(f"error: no uccfsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from uccfsim import engine
    return engine


# a fresh interpreter that imports numpy and uccfsim, merges and validates
# the scenario, then reports ready
SETUP_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from uccfsim import engine
errors = engine.validate_scenario(engine.merge_scenario(json.loads(sys.argv[2])))
print("; ".join(errors) or "ready", flush=True)
"""


def measure_setup(workload):
    """Seconds from process start to ready, for several fresh processes,
    and the calibrations taken around them."""
    scenario = json.dumps(workload.scenario(DEFAULT_SEED))
    times = []
    calibrations = calibrate_after(0.0)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(SRC),
                               scenario],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {line!r} "
                               f"(exit {proc.returncode})")
        times.append(elapsed)
        calibrations += calibrate_after(elapsed)
    return times, calibrations


def blas_threads():
    """Thread count reported by the OpenBLAS loaded into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines()
             if "openblas" in line.lower() and ".so" in line}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def manifest(engine, seed: int, workers: int) -> dict:
    import numpy as np
    try:
        # the ceiling keeps git from reporting an enclosing repository
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "workers": workers,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "scenario_hash": {
            name: engine.scenario_hash(engine.merge_scenario(w.scenario(seed)))
            for name, w in WORKLOADS.items()},
    }


class Batches:
    """Runs batches through the public API and checks every trial.

    Batch 0 of a seed with a committed reference is also compared with it.
    """

    def __init__(self, engine, workload):
        self.engine = engine
        self.workload = workload
        self.num_ues = engine.merge_scenario(
            workload.scenario(0))["topology"]["num_ues"]
        self.refs = gate.load_reference(workload.name)
        if DEFAULT_SEED not in self.refs:
            raise RuntimeError(f"no committed reference for {workload.name}")
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def run(self, scenario):
        """(result, csv text, seconds); result is None if the batch raised."""
        t0 = time.perf_counter()
        try:
            result = self.engine.run_scenario(scenario, self.workload.workers)
            csv_text = self.engine.results_to_csv(result)
        except Exception:
            traceback.print_exc()
            result = csv_text = None
        return result, csv_text, time.perf_counter() - t0

    def check(self, scenario, result, csv_text, extra_failed=()):
        trials = scenario["trials"]
        failed = (set(range(trials)) if result is None else
                  gate.invariant_failures(result["records"], trials,
                                          self.num_ues))
        failed |= set(extra_failed)
        seed, batch = divmod(scenario["seed"], SEED_STRIDE)
        entry = self.refs.get(seed) if batch == 0 else None
        if entry is not None:
            if entry["trials"] != trials:
                raise RuntimeError("reference batch size differs from the "
                                   f"{self.workload.name} workload")
            off, grid_ok = (gate.reference_failures(result["records"], entry)
                            if result is not None
                            else (set(range(trials)), False))
            failed |= off
            self.reference = {
                "seed": seed, "trials": trials,
                "out_of_tolerance": sorted(off), "grid_match": grid_ok,
                "csv_identical": (csv_text is not None and gate.csv_digest(
                    csv_text) == entry["csv_sha256"]),
                "rtol": gate.RTOL, "atol": gate.ATOL}
        self.attempted += trials
        self.failed += len(failed)

    def ensure_reference(self):
        """A seed without a committed reference still passes the gate: the
        default seed's batch 0 is run, untimed, and compared."""
        if self.reference is None:
            scenario = self.workload.scenario(DEFAULT_SEED)
            result, csv_text, _ = self.run(scenario)
            self.check(scenario, result, csv_text)
        return self.reference


def untraced_run(batches, seed: int, seconds: float):
    """Distinct batches until ``seconds`` of measured time have passed."""
    workload = batches.workload
    batches.run(workload.scenario(seed, WARMUP_BATCH, trials=1))
    times = []
    calibrations = calibrate_after(0.0)
    while not times or (sum(times) < seconds and len(times) < WARMUP_BATCH):
        scenario = workload.scenario(seed, len(times))
        result, csv_text, elapsed = batches.run(scenario)
        times.append(elapsed)
        calibrations += calibrate_after(elapsed)
        batches.check(scenario, result, csv_text)
    trials = len(times) * workload.batch_trials
    # batches and calibrations alternate, so the mean calibration is the
    # host's mean speed over the batches
    metrics = {"trials_per_s": (workload.batch_trials / at_reference_speed(
        trimmed_mean(times), trimmed_mean(calibrations)), "1/s")}
    return metrics, {
        "batches": len(times), "trials": trials,
        "trials_per_s_wall": trials / sum(times),
        "calibration_ms_mean": 1e3 * trimmed_mean(calibrations),
        "batch_s": times, "calibration_s": calibrations,
        "reference": batches.ensure_reference()}


def traced_run(batches, seed: int, seconds: float):
    """Batch 0 alternately untraced and traced until ``seconds`` pass."""
    from tracer import Tracer, layer_metrics, uccfsim_modules, uccfsim_targets
    workload = batches.workload
    scenario = workload.scenario(seed)
    tracer = Tracer(uccfsim_targets(), uccfsim_modules())
    batches.run(workload.scenario(seed, WARMUP_BATCH, trials=1))
    busy = {False: 0.0, True: 0.0}
    pairs, mismatched = 0, 0
    while pairs == 0 or sum(busy.values()) < seconds:
        out = {}
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            if traced:
                with tracer:
                    out[traced] = batches.run(scenario)
            else:
                out[traced] = batches.run(scenario)
            busy[traced] += out[traced][2]
        (plain, plain_csv, _), (seen, seen_csv, _) = out[False], out[True]
        same = (plain is not None and seen is not None and plain_csv == seen_csv
                and gate.same_records(plain["records"], seen["records"]))
        if not same:
            mismatched += 1
        batches.check(scenario, plain, plain_csv)
        batches.check(scenario, seen, seen_csv,
                      () if same else range(scenario["trials"]))
        pairs += 1
    trials = pairs * scenario["trials"]
    metrics = layer_metrics(tracer.spans, tracer.present, trials)
    metrics["trace.overhead_frac"] = (1.0 - busy[False] / busy[True],
                                      "fraction")
    info = {"pairs": pairs, "traced_trials": trials,
            "trials_per_s_untraced": trials / busy[False],
            "trials_per_s_traced": trials / busy[True],
            "traced_records_identical": mismatched == 0,
            "absent": tracer.absent, "reference": batches.ensure_reference()}
    return metrics, info, tracer.spans


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    engine = import_engine()
    setup_times, setup_calibrations = measure_setup(workload)
    batches = Batches(engine, workload)
    info_manifest = manifest(engine, args.seed, workload.workers)
    print("manifest " + json.dumps(info_manifest, sort_keys=True))
    spans = None
    if args.trace:
        metrics, info, spans = traced_run(batches, args.seed, args.seconds)
    else:
        metrics, info = untraced_run(batches, args.seed, args.seconds)
        metrics["setup_s"] = (at_reference_speed(
            statistics.median(setup_times),
            statistics.median(setup_calibrations)), "s")
        info["setup_s_wall"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    failed_frac = batches.failed / batches.attempted

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{int(args.trace)}"
    if spans is not None:
        with gzip.open(OUT / f"{stem}-spans.jsonl.gz", "wt") as fh:
            for span in spans:
                fh.write(json.dumps(asdict(span)) + "\n")
    (OUT / f"{stem}.json").write_text(json.dumps({
        "manifest": info_manifest, "setup_s_samples": setup_times,
        "setup_calibration_s": setup_calibrations,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed_frac": failed_frac, "run": info}, indent=1, default=str))

    print(f"workload {workload.name}  seed {args.seed}  "
          f"trace {int(args.trace)}  workers {workload.workers}")
    for key, value in info.items():
        if not isinstance(value, list):     # samples go to bench/out only
            print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    print(f"  {'failed_frac':44s} {failed_frac:.6g} fraction "
          f"({batches.failed} of {batches.attempted} trials)")
    print(json.dumps({
        "correct": batches.failed == 0, "attempted": batches.attempted,
        "failed": batches.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; metrics prefixed by workload."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(int(args.trace))],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    limit_blas_threads()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
