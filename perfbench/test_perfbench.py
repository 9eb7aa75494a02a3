"""Self-test of the benchmark: each workload's code path at a tiny shape.

    python3 -m pytest perfbench -q

At 120 users the codes' AUC floor of 0.80 is not expected to hold, so the
AUC-floor check is the one check allowed to fail here; every other check
must pass, every metric must be emitted with its unit, and every count must
repeat exactly between runs.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import checks
import run
import tracer
from workloads import WORKLOADS

TINY = {"users": 120, "weeks": 2, "atoms": 8, "outer-iters": 6}
SEED = 3


def tiny(name: str):
    workload = WORKLOADS[name]
    return replace(workload, flags={**TINY, "threads": workload.flags["threads"]})


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Per workload: one untraced run and two traced runs, all with the same seed."""
    saved = run.WORK
    run.WORK = tmp_path_factory.mktemp("work")
    try:
        return {name: [run.run(tiny(name), SEED, 1, trace) for trace in (False, True, True)]
                for name in ("logs", "staged", "atoms")}
    finally:
        run.WORK = saved


def _only_auc_floor_failed(record):
    return all(e.startswith("codes AUC below") for e in record["errors"]) and not record["absent"]


def test_benchmark_json_matches_definitions():
    assert json.loads((run.ROOT / "BENCHMARK.json").read_text()) == run.spec()


@pytest.mark.parametrize("name", ["logs", "staged", "atoms"])
def test_end_to_end_metrics_emitted_with_units(records, name):
    record = records[name][0]
    assert _only_auc_floor_failed(record), record["errors"]
    metrics = record["result"]["metrics"]
    assert {m: v["unit"] for m, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in run.END_TO_END}
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in metrics.values())
    assert record["result"]["attempted"] >= 2


@pytest.mark.parametrize("name", ["logs", "staged", "atoms"])
def test_per_layer_metrics_emitted_and_counts_repeat(records, name):
    first, second = (r["result"]["metrics"] for r in records[name][1:])
    for record in records[name][1:]:
        assert _only_auc_floor_failed(record), record["errors"]
    assert {m: v["unit"] for m, v in first.items()} == \
        {m["name"]: m["unit"] for m in run.PER_LAYER}
    repeatable = [m for m, v in first.items() if v["unit"] in ("count", "1", "atoms", "MB")]
    assert "ingest.lines" in repeatable and "evaluate.train_logreg.calls" in repeatable
    assert {m: first[m]["value"] for m in repeatable} == {m: second[m]["value"] for m in repeatable}


def test_spans_form_one_tree_per_command(tmp_path):
    commands = tiny("logs").commands(SEED, tmp_path / "out")
    (tmp_path / "commands.json").write_text(json.dumps(commands))
    rc = subprocess.run([sys.executable, str(run.BENCH_DIR / "tracer.py"),
                         str(tmp_path / "spans.json"), str(tmp_path / "commands.json")],
                        env=run.child_env(), capture_output=True, timeout=120).returncode
    assert rc == 0
    data = json.loads((tmp_path / "spans.json").read_text())
    ids = {s[0] for s in data["spans"]}
    assert all(s[1] is None or s[1] in ids for s in data["spans"])
    assert all(s[3] <= s[4] for s in data["spans"])
    assert [s[2] for s in data["spans"] if s[1] is None] == ["cli.main"]
    spans = tracer.Spans(data)
    (ingest,) = spans.named(["cli.cmd_ingest"])
    assert spans.by_id[ingest[1]][2] == "cli.cmd_pipeline"
    assert 0 <= spans.self_s("cli.cmd_pipeline") <= spans.total_s(["cli.cmd_pipeline"])
    assert data["run_id"]


def test_missing_function_leaves_metric_absent(tmp_path):
    stage = {"wrapped": ["cli.cmd_learn", "dictionary.learn"],
             "spans": [[1, None, "cli.cmd_learn", 0.0, 2.0, None],
                       [2, 1, "dictionary.learn", 0.5, 1.5, None]]}
    metrics = tracer.layer_metrics(stage)
    assert metrics["cli.cmd_learn.s"] == 2.0 and metrics["cli.cmd_learn.self_s"] == 1.0
    assert metrics["dictionary.learn.s"] == 1.0
    assert "ingest.parse_events.s" not in metrics and "cli.cmd_synth.s" not in metrics


def test_digest_store_flags_changed_bytes(tmp_path):
    store = checks.DigestStore(tmp_path / "digests.json")
    assert store.compare_and_record("k", {"a.csv": "1", "b.csv": "2"}) == []
    assert store.compare_and_record("k", {"a.csv": "1"}) == []
    assert store.compare_and_record("k", {"a.csv": "1", "b.csv": "3"}) == ["b.csv"]
    assert store.compare_and_record("other", {"b.csv": "3"}) == []


def test_fails_without_program_source(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "logs", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
