"""Benchmark of the weeklisten CLI: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload logs --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

With ``--trace 0`` the benchmark times the CLI's start-up several times
(``setup_s``), then runs repetitions of the workload, each in fresh child
processes, until ``--seconds`` would be exceeded (at least two).  It reports the median
wall time and AUC over the repetitions, and the highest peak RSS of any child
in the run.  Repetition ``i`` of a run with seed ``n`` generates its inputs
with seed ``n * 1000 + i``: learning time depends on the inputs, so a run
takes the median over several, and the same seed always gives the same inputs.

With ``--trace 1`` it runs one untraced repetition and then the same
commands once more in one child process that records a span per call of
every public weeklisten function (see ``tracer.py``), and reports per-layer
metrics.

Every repetition is checked (exit codes, the evaluation report, the codes'
AUC floor and KKT certificate, and byte-identical artifacts across runs with
the same inputs); a repetition failing any check counts as failed.  The last
line of standard output is the JSON result; the full record, with the
environment, goes to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

RUN_SECONDS = 34
SETUP_SPAWNS = 9
#: An untraced run always takes a median of at least MIN_REPS repetitions.
MIN_REPS, MAX_REPS = 2, 20
#: Children still running this long after the start are killed, so a run ends within 180 s.
HARD_LIMIT_S = 165.0

# wall_s: the workload's CLI calls; peak_rss_mb: the largest child; setup_s: the
# start-up every CLI call pays (one spawn is too noisy, so a median of several);
# auc_codes_primary: the paper's result, so that a faster solver cannot return worse codes.
END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "auc_codes_primary", "unit": "AUC", "better": "higher", "bound": 0.05},
]


def _per_layer() -> list[dict]:
    lower, higher = "lower", "higher"
    spec = []
    for stage in tracer.STAGES:
        spec += [(f"cli.cmd_{stage}.s", "s", lower), (f"cli.cmd_{stage}.self_s", "s", lower)]
    spec += [
        ("synth.generate.s", "s", lower),
        ("synth.generate.events_per_s", "events/s", higher),
        ("synth.events_csv_mb", "MB", lower),
        ("ingest.parse_events.s", "s", lower),
        ("ingest.parse_events.calls", "count", lower),
        ("ingest.parse_events.lines_per_s", "lines/s", higher),
        ("ingest.parse_favorites.s", "s", lower),
        ("ingest.filters.s", "s", lower),
        ("ingest.build_profiles.s", "s", lower),
        ("ingest.lines", "count", higher),
        ("ingest.malformed", "count", lower),
        ("ingest.valid_streams", "count", higher),
        ("ingest.active_users", "count", higher),
        ("ingest.unknown_favorite_users", "count", lower),
        ("signals.build_signal_set.s", "s", lower),
        ("signals.users_per_s", "users/s", higher),
        ("storage.save.s", "s", lower),
        ("storage.load.s", "s", lower),
        ("dictionary.learn.s", "s", lower),
        ("dictionary.sparse_code_batch.cold_s", "s", lower),
        ("dictionary.sparse_code_batch.warm_s", "s", lower),
        ("dictionary.sparse_code_batch.calls", "count", lower),
        ("dictionary.update_dictionary.s", "s", lower),
        ("dictionary.objective.s", "s", lower),
        ("dictionary.objective.calls", "count", lower),
        ("dictionary.embed.s", "s", lower),
        ("dictionary.users_coded_per_s", "users/s", higher),
        ("dictionary.objective_final", "1", lower),
        ("dictionary.kkt_max", "1", lower),
        ("dictionary.active_atoms_mean", "atoms", lower),
        ("evaluate.evaluate_all.s", "s", lower),
        ("evaluate.grid_search_cv.s", "s", lower),
        ("evaluate.grid_search_cv.calls", "count", lower),
        ("evaluate.train_logreg.s", "s", lower),
        ("evaluate.train_logreg.calls", "count", lower),
        ("evaluate.parse_labels.s", "s", lower),
        ("process.cpu_s", "s", lower),
        ("process.parallelism", "ratio", higher),
        ("trace.overhead_s", "s", lower),
        ("trace.spans", "count", lower),
    ]
    return [{"name": n, "unit": u, "better": b} for n, u, b in spec]


PER_LAYER = _per_layer()


def spec() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_threads() -> int | None:
    """Threads OpenBLAS uses in a process with this environment (this one, numpy loaded)."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment(workload: Workload, seed: int, seconds: float, trace: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        blas_threads = _blas_threads()
    except OSError:
        blas_threads = None
    return {
        "git_revision": _git_revision(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version,
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads,
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": workload.name,
        "flags": workload.flags,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    path = str(ROOT / "src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    return dict(os.environ, PYTHONPATH=path)


def spawn(argv: list[str], log, deadline: float) -> tuple[int, float, float, float]:
    """Run one child to completion: exit code, wall s, peak RSS MB and CPU s of that child."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def measure_setup(deadline: float) -> tuple[float, list[str]]:
    """Median start-up time of the CLI over several spawns, after one warm-up."""
    argv = [sys.executable, "-m", "weeklisten.cli", "--version"]
    walls, errors = [], []
    for _ in range(SETUP_SPAWNS + 1):
        rc, wall, _, _ = spawn(argv, subprocess.DEVNULL, deadline)
        if rc:
            errors.append(f"'weeklisten --version' exited {rc}")
        walls.append(wall)
    return statistics.median(walls[1:]), errors


def run_rep(workload: Workload, input_seed: int, out: Path, deadline: float,
            store: checks.DigestStore, identity: str, traced: bool = False) -> dict:
    """One repetition of the workload in fresh child processes, with its checks."""
    out.mkdir(parents=True)
    commands = workload.commands(input_seed, out)
    if traced:
        (out.parent / "commands.json").write_text(json.dumps(commands), encoding="utf-8")
        argvs = [[sys.executable, str(BENCH_DIR / "tracer.py"),
                  str(out.parent / "spans.json"), str(out.parent / "commands.json")]]
    else:
        argvs = [[sys.executable, "-m", "weeklisten.cli", *c] for c in commands]
    rep = {"input_seed": input_seed, "traced": traced, "wall_s": 0.0, "peak_rss_mb": 0.0,
           "cpu_s": 0.0, "figures": {}, "errors": []}
    with open(out.parent / f"{out.name}.log", "wb") as log:
        for argv in argvs:
            rc, wall, rss, cpu = spawn(argv, log, deadline)
            rep["wall_s"] += wall
            rep["cpu_s"] += cpu
            rep["peak_rss_mb"] = max(rep["peak_rss_mb"], rss)
            if rc:
                rep["errors"].append(f"{' '.join(argv[1:4])} exited {rc}")
                return rep
    rep["figures"], rep["errors"] = checks.check_artifacts(out)
    found, missing = checks.digests(out)
    if missing:
        rep["errors"].append(f"missing artifacts: {missing}")
    key = f"{workload.shape_key};seed={input_seed};{identity}"
    differ = store.compare_and_record(key, found)
    if differ:
        rep["errors"].append(f"artifacts differ from an earlier run with the same inputs: {differ}")
    if not rep["errors"]:
        shutil.rmtree(out)  # keep a failed repetition's artifacts for inspection only
    return rep


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

def _median(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure ``workload`` and return the full record; ``record["result"]`` is the printed line."""
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    runs = WORK / "runs" / f"{workload.name}-{seed}"
    shutil.rmtree(runs, ignore_errors=True)
    runs.mkdir(parents=True)
    store = checks.DigestStore(WORK / "digests.json")
    record = {"environment": environment(workload, seed, seconds, int(trace)), "reps": []}
    # Artifacts must repeat for the same program source and BLAS thread settings
    # (thread counts change rounding).
    env = record["environment"]
    identity = f"source={env['source_sha256']};threads={json.dumps(env['thread_env'])}"
    errors = []

    values: dict[str, float | None] = {}
    if not trace:
        values["setup_s"], errors = measure_setup(deadline)
    reps = record["reps"]
    window = time.monotonic()
    while len(reps) < MAX_REPS:
        i = len(reps)
        reps.append(run_rep(workload, seed * 1000 + i, runs / f"rep{i}", deadline, store, identity))
        elapsed = time.monotonic() - window
        mean_rep = elapsed / len(reps)
        if trace or reps[-1]["errors"] or (len(reps) >= MIN_REPS and elapsed + mean_rep > seconds):
            break
    untraced_wall = _median(reps, "wall_s")
    if trace:
        traced = run_rep(workload, seed * 1000, runs / "traced", deadline, store, identity,
                         traced=True)
        reps.append(traced)
        spans_path = runs / "spans.json"
        if spans_path.is_file():
            values.update(tracer.layer_metrics(json.loads(spans_path.read_text(encoding="utf-8"))))
            figures = traced["figures"]
            values["synth.events_csv_mb"] = figures.get("events_csv_mb")
            for name in ("objective_final", "kkt_max", "active_atoms_mean"):
                values[f"dictionary.{name}"] = figures.get(name)
            values["trace.overhead_s"] = traced["wall_s"] - untraced_wall
        untraced = reps[:-1]
        values["process.cpu_s"] = _median(untraced, "cpu_s")
        values["process.parallelism"] = statistics.median(
            r["cpu_s"] / r["wall_s"] for r in untraced)
    else:
        values["wall_s"] = untraced_wall
        values["peak_rss_mb"] = max(r["peak_rss_mb"] for r in reps)
        ok = [r["figures"] for r in reps if "auc_codes_primary" in r["figures"]]
        values["auc_codes_primary"] = (statistics.median(f["auc_codes_primary"] for f in ok)
                                       if ok else None)

    wanted = PER_LAYER if trace else END_TO_END
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if values.get(m["name"]) is not None}
    record["absent"] = [m["name"] for m in wanted if m["name"] not in metrics]
    record["errors"] = errors + [e for r in reps for e in r["errors"]]
    failed = sum(1 for r in reps if r["errors"]) + (1 if errors else 0)
    attempted = len(reps) + (0 if trace else 1)
    record["result"] = {"correct": not record["errors"],
                        "attempted": attempted, "failed": failed, "metrics": metrics}
    record["elapsed_s"] = time.monotonic() - started
    return record


def _save(record: dict, name: str, seed: int, trace: int) -> None:
    """Write the full record and report failed checks and absent metrics on stderr."""
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in record["errors"]:
        print(f"check failed: {line}", file=sys.stderr)
    if record["absent"]:
        print(f"absent metrics: {record['absent']}", file=sys.stderr)
    print(f"full record: {path}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        help="'all' runs every workload untraced and traced and prints a table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from the definitions here and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "weeklisten" / "cli.py").is_file():
        print(f"error: no weeklisten source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        _save(record, args.workload, args.seed, args.trace)
        print(json.dumps(record["result"]))
        return 0
    for name, workload in WORKLOADS.items():
        for trace in (0, 1):
            record = run(workload, args.seed, args.seconds, bool(trace))
            _save(record, name, args.seed, trace)
            result = record["result"]
            print(f"{name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, value in result["metrics"].items():
                print(f"  {metric:40} {value['value']:.6g} {value['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
