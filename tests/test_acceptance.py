"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (run pytest with ``-s`` to see them all)
and asserts the criterion at its stated tolerance.  The default-scale run
(5000 users, 12 weeks, seed 7) is executed twice by module fixtures: once
with ``--threads 1`` and once with ``--threads 4``, which simultaneously
supplies the two-execution and thread-count determinism comparisons.
"""

import csv
import time

import numpy as np
import pytest

from weeklisten import cli, dictionary, evaluate, ingest, signals, storage, synth

from conftest import DATA_ARTIFACTS, records, sparse_code
from oracles import (best_permutation_correlations, grid_refine_lasso,
                     lasso_objective, orthonormal_lasso, pair_counting_auc,
                     planted_instance, profiles, raw_signals)

pytestmark = pytest.mark.acceptance

RUNTIME_BUDGET_SECS = 600.0
PRIMARY_ACTIVITIES = ("transport", "work", "friends", "asleep")


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f"  ({detail})" if detail else ""),
          flush=True)


def _run_pipeline(out, threads):
    started = time.monotonic()
    rc = cli.main(["pipeline", "--seed", "7", "--threads", str(threads), "--out", str(out)])
    assert rc == 0
    return time.monotonic() - started


@pytest.fixture(scope="module")
def run_a(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_a")
    duration = _run_pipeline(out, threads=1)
    return out, duration


@pytest.fixture(scope="module")
def run_b(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_b")
    duration = _run_pipeline(out, threads=4)
    return out, duration


def read_report(out):
    aucs = {}
    with open(out / "eval_report.csv", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            aucs[(row["variant"], row["activity"])] = float(row["auc"])
    return aucs


def test_criterion_01_feasibility_table(run_a):
    out, duration = run_a
    aucs = read_report(out)
    full_table = len(aucs) == 30
    primaries_strong = all(aucs[("codes", a)] >= 0.80 for a in PRIMARY_ACTIVITIES)
    beats_volume = all(aucs[("codes", a)] >= aucs[("volume", a)] + 0.10
                       for a in PRIMARY_ACTIVITIES)
    codes_by_activity = {a: aucs[("codes", a)] for a in evaluate.ACTIVITIES}
    sports_lowest = min(codes_by_activity, key=codes_by_activity.get) == "sports"
    in_budget = duration <= RUNTIME_BUDGET_SECS
    ok = full_table and primaries_strong and beats_volume and sports_lowest and in_budget
    _report("01 feasibility-table", ok,
            f"primaries {[round(codes_by_activity[a], 3) for a in PRIMARY_ACTIVITIES]}, "
            f"sports {codes_by_activity['sports']:.3f}, runtime {duration:.0f}s")
    assert full_table
    assert primaries_strong
    assert beats_volume
    assert sports_lowest
    assert in_budget


def test_criterion_02_ordering_echo(run_a):
    out, _ = run_a
    aucs = read_report(out)
    mean = {v: np.mean([aucs[(v, a)] for a in evaluate.ACTIVITIES])
            for v in ("codes", "volume", "demographics")}
    ok = mean["codes"] > mean["volume"] and mean["codes"] > mean["demographics"]
    _report("02 ordering-echo", ok,
            f"codes {mean['codes']:.3f} vs volume {mean['volume']:.3f}, "
            f"demographics {mean['demographics']:.3f}")
    assert ok


def test_criterion_03_sparse_coding_oracle():
    rng = np.random.default_rng(20240501)
    started = time.monotonic()
    worst = 0.0
    for i in range(200):
        K = (i % 3) + 1
        lam = (0.0, 0.5, 2.0)[(i // 3) % 3]
        s = rng.normal(size=8) * rng.uniform(0.5, 2.0)
        if i % 4 == 0:  # orthonormal instances get the closed-form oracle
            D, _ = np.linalg.qr(rng.normal(size=(8, K)))
            oracle_obj = lasso_objective(s, D, orthonormal_lasso(s, D, lam), lam)
        else:
            D = rng.normal(size=(8, K))
            _, oracle_obj = grid_refine_lasso(s, D, lam)
        code = sparse_code(s, D, lam)
        worst = max(worst, abs(lasso_objective(s, D, code, lam) - oracle_obj))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-5 and elapsed <= 30.0
    _report("03 sparse-coding-oracle", ok, f"worst gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-5
    assert elapsed <= 30.0


def test_criterion_04_objective_monotonicity(run_a):
    out, _ = run_a
    trace = np.loadtxt(out / "objective_trace.csv", delimiter=",", skiprows=1)[:, 1]
    big_ok = bool(np.all(np.diff(trace) <= 1e-7 * trace[:-1]))

    X, _, _ = planted_instance(np.random.default_rng(77), n=120, dim=64, n_atoms=4, noise=0.05)
    small = dictionary.learn(X, dictionary.LearnConfig(n_atoms=4, lam=0.5, outer_iters=20, seed=1))
    st = np.array(small.objective_trace)
    small_ok = bool(np.all(np.diff(st) <= 1e-7 * st[:-1]))
    ok = big_ok and small_ok
    _report("04 objective-monotonicity", ok,
            f"{len(trace)} half-steps on the default run, {len(st)} on the small run")
    assert big_ok
    assert small_ok


def test_criterion_05_planted_recovery():
    worst = 1.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(1000 + seed)
        X, basis, _ = planted_instance(rng, n=240, dim=672, n_atoms=3, noise=0.01)
        result = dictionary.learn(
            X, dictionary.LearnConfig(n_atoms=3, lam=0.4, outer_iters=40, seed=seed))
        matched = best_permutation_correlations(basis, result.dictionary.stacked)
        worst = min(worst, float(matched.min()))
    ok = worst >= 0.99
    _report("05 planted-recovery", ok, f"worst |corr| {worst:.5f} over 3 seeds")
    assert ok


def test_criterion_06_roc_auc_exhaustive():
    rng = np.random.default_rng(606)
    checked = 0
    exact = True
    for n in range(2, 13):
        for bits in range(1, 2 ** n - 1):
            labels = np.array([(bits >> i) & 1 for i in range(n)])
            # Coarse score grid forces ties; offset keeps values generic.
            scores = np.round(rng.random(n) * 4) / 4 + 0.1
            if evaluate.roc_auc(scores, labels) != pair_counting_auc(scores, labels):
                exact = False
            checked += 1
    _report("06 roc-auc-exhaustive", exact, f"{checked} instances, exact equality")
    assert exact


def test_criterion_07_logreg_gradient():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(50):
        n, f = int(rng.integers(6, 60)), int(rng.integers(1, 8))
        X = rng.normal(size=(n, f)) * rng.uniform(0.3, 3.0)
        y = rng.integers(0, 2, n)
        if len(np.unique(y)) < 2:
            y[:2] = (0, 1)
        l2 = float(rng.choice([0.0, 0.01, 1.0, 10.0]))
        params = rng.normal(size=f + 1)
        _, grad = evaluate.logistic_loss_and_grad(params, X, y, l2)
        fd = np.empty_like(grad)
        h = 1e-6
        for k in range(f + 1):
            e = np.zeros(f + 1)
            e[k] = h
            lp, _ = evaluate.logistic_loss_and_grad(params + e, X, y, l2)
            lm, _ = evaluate.logistic_loss_and_grad(params - e, X, y, l2)
            fd[k] = (lp - lm) / (2 * h)
        worst = max(worst, float(np.linalg.norm(grad - fd) / (1.0 + np.linalg.norm(grad))))
    ok = worst <= 1e-5
    _report("07 logreg-gradient", ok, f"worst relative error {worst:.2e}")
    assert ok


def test_criterion_08_signal_invariants(run_a):
    out, _ = run_a
    sset = signals.SignalSet(*storage.load_indexed_matrix(out / "signal_users.txt", out / "signals.npy"))
    channels = sset.as_channels()
    mean_ok = float(np.abs(channels.mean(axis=2)).max()) < 1e-9
    maxabs = np.abs(channels).max(axis=2)
    maxabs_ok = bool(np.all((maxabs == 0.0) | (np.abs(maxabs - 1.0) < 1e-9)))

    # Rebuild the raw signals record by record (a block of users at a time, to
    # bound memory) to check mean preservation through smoothing.
    log, _ = ingest.parse_events(out / "events.csv")
    favorites = ingest.parse_favorites(out / "favorites.csv")
    config = synth.SynthConfig()
    period = ingest.StudyPeriod(config.period_start, config.period_end)
    valid = ingest.filter_valid_streams(log)
    active = ingest.filter_active_users(valid, period)
    restricted = ingest.restrict_to_users(valid, active)
    raw = []
    for block in np.array_split(np.array(sset.user_ids), 20):
        events = records(ingest.restrict_to_users(restricted, block.tolist()))
        by_user = raw_signals(events, profiles(events, favorites), period)
        raw.extend(by_user[user] for user in block.tolist())
    raw = np.array(raw)
    smoothed = signals._smooth_values(raw)
    drift = float(np.abs(raw.mean(axis=2) - smoothed.mean(axis=2)).max())
    smooth_ok = drift < 1e-12
    ok = mean_ok and maxabs_ok and smooth_ok
    _report("08 signal-invariants", ok,
            f"{channels.shape[0]} users; worst smoothing mean drift {drift:.2e}")
    assert mean_ok
    assert maxabs_ok
    assert smooth_ok


def test_criterion_09_organic_rate(run_a):
    out, _ = run_a
    log, _ = ingest.parse_events(out / "events.csv")
    valid = ingest.filter_valid_streams(log)
    fraction = float(np.mean(valid.organic))
    ok = abs(fraction - 0.80) <= 0.02
    _report("09 organic-rate", ok, f"realized {fraction:.4f}")
    assert ok


def test_criterion_10_determinism(run_a, run_b):
    out_a, _ = run_a
    out_b, _ = run_b
    mismatched = [name for name in DATA_ARTIFACTS
                  if (out_a / name).read_bytes() != (out_b / name).read_bytes()]
    ok = not mismatched
    _report("10 determinism", ok,
            "all data artifacts byte-identical across executions and threads 1 vs 4"
            if ok else f"mismatch: {mismatched}")
    assert ok
