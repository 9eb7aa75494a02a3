
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weeklisten import evaluate
from weeklisten.errors import PipelineError

import oracles
from oracles import pair_counting_auc

from conftest import auc_of, write_lines


def make_labels(n, rng=None, answers=None):
    rng = rng or np.random.default_rng(0)
    if answers is None:
        answers = rng.integers(0, 2, (n, 6))
    demographics = rng.integers(0, [[evaluate.AGE_GROUPS], [evaluate.GENDER_CODES]], (2, n)).T
    return evaluate.Labels(tuple(f"u{i:04d}" for i in range(n)), np.asarray(answers, dtype=np.int8),
                           demographics.astype(np.int8))


# -- split_users -----------------------------------------------------------------

def test_split_100_users_gives_67_33():
    users = [f"u{i:03d}" for i in range(100)]
    test = evaluate.split_users(users, 0.33, seed=4)
    assert test.dtype == bool and test.shape == (100,)
    assert int((~test).sum()) == 67 and int(test.sum()) == 33


def test_split_deterministic_and_partitioning():
    users = [f"u{i}" for i in range(57)]
    a = evaluate.split_users(users, 0.33, seed=9)
    b = evaluate.split_users(list(reversed(users)), 0.33, seed=9)
    assert np.array_equal(a, b[::-1])  # input order is irrelevant
    train, test = set(itertools.compress(users, ~a)), set(itertools.compress(users, a))
    assert train | test == set(users)
    assert train & test == set()


@given(ids=st.lists(st.text(min_size=1), min_size=10, max_size=60, unique=True), data=st.data())
@settings(max_examples=60, deadline=None)
def test_split_test_set_ignores_input_order(ids, data):
    n_test = data.draw(st.integers(1, len(ids) - 1))
    seed = data.draw(st.integers(0, 2**32 - 1))
    shuffled = data.draw(st.permutations(ids))
    test = evaluate.split_users(ids, n_test / len(ids), seed)
    shuffled_test = evaluate.split_users(shuffled, n_test / len(ids), seed)
    chosen = set(itertools.compress(ids, test))
    assert chosen == set(itertools.compress(shuffled, shuffled_test))
    # The draw: a seeded permutation of the sorted ids, first n_test held out.
    by_id = sorted(ids)
    assert chosen == {by_id[i] for i in np.random.default_rng(seed).permutation(len(ids))[:n_test]}


def test_split_too_few_users():
    with pytest.raises(PipelineError):
        evaluate.split_users([f"u{i}" for i in range(9)], 0.33, seed=0)


# -- build_features ----------------------------------------------------------------

@pytest.fixture
def inputs_fixture():
    """Row-aligned feature inputs for 40 users: codes, answers, demographics, totals, train mask."""
    rng = np.random.default_rng(11)
    n = 40
    labels = make_labels(n, rng)
    codes = rng.normal(size=(n, 8))
    totals = rng.integers(100, 5000, n).astype(np.float64)
    return codes, labels.answers, labels.demographics, totals, np.arange(n) < 30


def test_features_other_activities_excludes_target(inputs_fixture):
    _, answers, _, _, train = inputs_fixture
    values = evaluate.build_features("other_activities", "work", *inputs_fixture)
    others = [evaluate.ACTIVITIES.index(a) for a in ("wake_up", "transport", "sports", "friends", "asleep")]
    assert values.shape == (40, 5)
    assert np.array_equal(values, evaluate.standardize(answers[:, others].astype(float), train))


def test_features_volume_is_single_column(inputs_fixture):
    *_, totals, train = inputs_fixture
    values = evaluate.build_features("volume", "work", *inputs_fixture)
    assert values.shape == (40, 1)
    assert np.array_equal(values, evaluate.standardize(totals[:, None], train))


def test_features_codes_demographics_is_k_plus_2(inputs_fixture):
    _, _, demographics, _, train = inputs_fixture
    values = evaluate.build_features("codes_demographics", "work", *inputs_fixture)
    assert values.shape == (40, 10)
    assert np.array_equal(values[:, -2:], evaluate.standardize(demographics.astype(float), train))


def test_features_unknown_variant(inputs_fixture):
    with pytest.raises(PipelineError, match="variant"):
        evaluate.build_features("pca", "work", *inputs_fixture)


def test_standardization_uses_train_stats_only(inputs_fixture):
    values = evaluate.build_features("codes", "work", *inputs_fixture)
    train_mask = inputs_fixture[-1]
    train_rows = values[train_mask]
    assert np.abs(train_rows.mean(axis=0)).max() < 1e-9
    assert np.allclose(train_rows.std(axis=0), 1.0, atol=1e-9)
    # Test rows are generally not centered: no leakage of their statistics.
    assert np.abs(values[~train_mask].mean(axis=0)).max() > 1e-6


def test_standardization_constant_column_left_zero():
    values = np.column_stack([np.full(10, 3.0), np.arange(10, dtype=float)])
    train = np.arange(10) < 6
    out = evaluate.standardize(values, train)
    assert np.all(out[:, 0] == 0.0)
    assert np.allclose(out[train, 1], (np.arange(6) - 2.5) / np.arange(6).std())


# -- logistic regression -------------------------------------------------------------

def test_logreg_separable_training_accuracy():
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(-2, 0.3, (30, 2)), rng.normal(2, 0.3, (30, 2))])
    y = np.r_[np.zeros(30), np.ones(30)]
    params = evaluate.train_logreg(X, y, l2_strength=1e-4).params[0]
    assert np.mean((X @ params[:-1] + params[-1] > 0) == y) == 1.0


def test_logreg_single_class_is_fatal():
    with pytest.raises(PipelineError, match="single-class"):
        evaluate.train_logreg(np.zeros((5, 2)), np.ones(5), 1.0)


def test_logreg_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n, f = int(rng.integers(5, 40)), int(rng.integers(1, 6))
        X = rng.normal(size=(n, f))
        y = rng.integers(0, 2, n)
        if len(np.unique(y)) < 2:
            y[0], y[1] = 0, 1
        l2 = rng.choice([0.0, 0.1, 1.0], size=1)
        params = rng.normal(size=(1, f + 1))
        every_row = np.ones((1, n), dtype=bool)
        _, grad = evaluate.logistic_loss_and_grad(params, X, y, l2, every_row)
        fd = np.empty_like(grad)
        h = 1e-6
        for k in range(f + 1):
            e = np.zeros(f + 1)
            e[k] = h
            lp, _ = evaluate.logistic_loss_and_grad(params + e, X, y, l2, every_row)
            lm, _ = evaluate.logistic_loss_and_grad(params - e, X, y, l2, every_row)
            fd[:, k] = (lp - lm) / (2 * h)
        assert np.linalg.norm(grad - fd) <= 1e-5 * (1.0 + np.linalg.norm(grad))


def test_logreg_batched_loss_matches_per_problem_oracle_and_finite_differences():
    rng = np.random.default_rng(19)
    for _ in range(30):
        n, f, P = int(rng.integers(5, 40)), int(rng.integers(1, 6)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, f))
        y = rng.integers(0, 2, n)
        rows = rng.random((P, n)) < 0.7
        rows[:, 0] = True
        l2 = rng.choice([0.0, 0.1, 1.0], size=P)
        params = rng.normal(size=(P, f + 1))
        loss, grad = evaluate.logistic_loss_and_grad(params, X, y, l2, rows)
        assert loss.shape == (P,) and grad.shape == (P, f + 1)
        for p in range(P):
            want_loss, want_grad = oracles.logistic_loss_and_grad(params[p], X[rows[p]], y[rows[p]], l2[p])
            assert loss[p] == pytest.approx(want_loss, rel=1e-12)
            assert np.allclose(grad[p], want_grad, rtol=1e-10, atol=1e-13)
        h = 1e-6
        for k in range(f + 1):
            e = np.zeros(f + 1)
            e[k] = h
            lp, _ = evaluate.logistic_loss_and_grad(params + e, X, y, l2, rows)
            lm, _ = evaluate.logistic_loss_and_grad(params - e, X, y, l2, rows)
            fd = (lp - lm) / (2 * h)
            assert np.all(np.abs(grad[:, k] - fd) <= 1e-5 * (1.0 + np.abs(grad).max(axis=1)))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 40), f=st.integers(1, 5), folds=st.integers(2, 5),
       grid=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_newton_batch_matches_scalar_oracle(seed, n, f, folds, grid):
    # One batched solve of every (l2, fold) problem equals the scalar Newton loop on each
    # problem's own rows, and each problem ends certified.
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, f)) * rng.uniform(0.3, 3.0)
    y = rng.integers(0, 2, n)
    rows = np.tile(rng.integers(0, folds, n) != np.arange(folds)[:, None], (len(grid), 1))
    assume(all(len(np.unique(y[r])) == 2 for r in rows))
    l2 = np.repeat(grid, folds)
    fit = evaluate.newton_logreg(X, y, rows, l2)
    assert fit.params.shape == (len(rows), f + 1)
    assert fit.stop.tolist() == [evaluate.STOP_CONVERGED] * len(rows)
    assert np.all(fit.grad_norm < 1e-6)
    for p, r in enumerate(rows):
        assert np.allclose(fit.params[p], oracles.train_logreg(X[r], y[r], l2[p]), rtol=0, atol=1e-6)
        _, grad = oracles.logistic_loss_and_grad(fit.params[p], X[r], y[r], l2[p])
        assert np.abs(grad).max() == pytest.approx(fit.grad_norm[p], rel=1e-6, abs=1e-12)


def test_newton_reports_the_iteration_cap():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] + rng.normal(size=60) > 0).astype(int)
    capped = evaluate.train_logreg(X, y, 0.1, max_iter=1)
    assert capped.stop.tolist() == [evaluate.STOP_MAX_ITER]
    assert capped.iterations.tolist() == [1] and capped.grad_norm[0] >= evaluate.GRAD_TOL
    full = evaluate.train_logreg(X, y, 0.1)
    assert full.stop.tolist() == [evaluate.STOP_CONVERGED]
    assert full.iterations[0] > 1 and full.grad_norm[0] < evaluate.GRAD_TOL


def test_newton_reports_when_step_halving_runs_out():
    # A negative l2 strength makes the loss concave in the weights, so the Newton step
    # climbs and so does every halving of it: after 40 halvings (scale below 1e-12) the
    # problem stops where it started.  The second problem of the batch is unaffected.
    rng = np.random.default_rng(29)
    X = rng.normal(size=(40, 2))
    X -= X.mean(axis=0)
    X *= 3.0
    y = (X[:, 0] > np.median(X[:, 0])).astype(int)
    fit = evaluate.newton_logreg(X, y, np.ones((2, 40), dtype=bool), [-20.0, 1.0])
    assert fit.stop.tolist() == [evaluate.STOP_HALVING, evaluate.STOP_CONVERGED]
    assert fit.iterations[0] == 1 and fit.halvings[0] == 40
    assert np.all(fit.params[0] == 0.0) and fit.grad_norm[0] >= evaluate.GRAD_TOL
    assert np.allclose(fit.params[1], oracles.train_logreg(X, y, 1.0), atol=1e-6)


def test_logreg_strong_l2_shrinks_to_base_rate():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(200, 3))
    y = (rng.random(200) < 0.3).astype(int)
    params = evaluate.train_logreg(X, y, l2_strength=1e6).params[0]
    assert np.abs(params[:-1]).max() < 1e-4
    assert np.allclose(1.0 / (1.0 + np.exp(-(X @ params[:-1] + params[-1]))), y.mean(), atol=1e-3)


def test_logreg_loss_nonincreasing_over_refits():
    # Newton with step halving: loss at the solution is the global optimum,
    # so it cannot exceed the zero-start loss.
    rng = np.random.default_rng(21)
    X = rng.normal(size=(50, 4))
    y = rng.integers(0, 2, 50)
    y[:2] = (0, 1)
    params = evaluate.train_logreg(X, y, 0.5).params[0]
    final, _ = oracles.logistic_loss_and_grad(params, X, y, 0.5)
    start, _ = oracles.logistic_loss_and_grad(np.zeros(5), X, y, 0.5)
    assert final <= start


# -- roc_auc ---------------------------------------------------------------------------

def test_roc_auc_pair_example():
    assert evaluate.roc_auc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]) == pytest.approx(0.75)


def test_roc_auc_perfect_and_ties():
    assert evaluate.roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert evaluate.roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_roc_auc_single_class_fatal():
    with pytest.raises(PipelineError):
        evaluate.roc_auc([0.1, 0.9], [1, 1])


def test_roc_auc_exhaustive_small_instances():
    # Every label pattern with both classes for n <= 8, scores with ties.
    rng = np.random.default_rng(100)
    for n in range(2, 9):
        for bits in range(1, 2 ** n - 1):
            labels = np.array([(bits >> i) & 1 for i in range(n)])
            scores = np.round(rng.random(n) * 4) / 4  # coarse grid forces ties
            assert evaluate.roc_auc(scores, labels) == pair_counting_auc(scores, labels)


@given(seed=st.integers(0, 99999))
@settings(max_examples=80, deadline=None)
def test_roc_auc_invariant_to_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    scores = rng.normal(size=n)
    labels = rng.integers(0, 2, n)
    if len(np.unique(labels)) < 2:
        labels[0], labels[1] = 0, 1
    base = evaluate.roc_auc(scores, labels)
    assert evaluate.roc_auc(np.exp(scores) * 3 + 1, labels) == pytest.approx(base)
    if len(np.unique(scores)) == n:  # reflection identity requires no ties
        assert evaluate.roc_auc(-scores, labels) == pytest.approx(1.0 - base)


# -- grid_search_cv ----------------------------------------------------------------------

def test_grid_search_single_value():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 2))
    y = rng.integers(0, 2, 40)
    y[:10] = 1
    y[10:20] = 0
    assert evaluate.grid_search_cv(X, y, [7.5], folds=5, seed=0).l2 == 7.5


def test_stratified_folds_contract():
    rng = np.random.default_rng(13)
    y = (rng.random(83) < 0.3).astype(int)
    fold_of = evaluate.stratified_folds(y, 5, seed=1)
    assert set(fold_of) == set(range(5))
    pos_counts = [np.sum(y[fold_of == f]) for f in range(5)]
    neg_counts = [np.sum(1 - y[fold_of == f]) for f in range(5)]
    assert max(pos_counts) - min(pos_counts) <= 1
    assert max(neg_counts) - min(neg_counts) <= 1


def test_stratified_folds_impossible_is_fatal():
    y = np.r_[np.ones(3), np.zeros(40)]
    with pytest.raises(PipelineError, match="stratify"):
        evaluate.stratified_folds(y, 5, seed=0)


def test_grid_search_tie_breaks_to_larger_l2():
    # Pure-noise features: every l2 gives statistically identical CV scores;
    # with constant-zero features the scores are exactly equal, so the largest
    # grid value must win.
    X = np.zeros((60, 2))
    y = np.r_[np.ones(30), np.zeros(30)].astype(int)
    best = evaluate.grid_search_cv(X, y, [0.01, 0.1, 1.0, 10.0], folds=5, seed=2)
    assert best.l2 == 10.0


def test_grid_search_fold_validation_disjoint():
    y = np.r_[np.ones(20), np.zeros(20)].astype(int)
    fold_of = evaluate.stratified_folds(y, 5, seed=3)
    for f in range(5):
        assert not (set(np.flatnonzero(fold_of == f)) & set(np.flatnonzero(fold_of != f)))


# -- evaluate_all -------------------------------------------------------------------------

def random_eval_setup(n_users, k=8, seed=0, planted_activity=None):
    rng = np.random.default_rng(seed)
    codes = rng.normal(size=(n_users, k))
    answers = rng.integers(0, 2, (n_users, 6))
    if planted_activity is not None:
        ai = evaluate.ACTIVITIES.index(planted_activity)
        answers[:, ai] = (codes[:, 0] + 0.3 * rng.normal(size=n_users) > 0).astype(int)
    labels = make_labels(n_users, rng, answers=answers)
    totals = {u: int(rng.integers(200, 8000)) for u in labels.user_ids}
    return labels.user_ids, codes, labels, totals


def test_evaluate_all_aligns_codes_with_sorted_users():
    users, codes, labels, totals = random_eval_setup(60, k=3, seed=4, planted_activity="work")
    test = evaluate.split_users(users, 0.33, seed=1)
    config = evaluate.EvalConfig(l2_grid=(1.0,), seed=0)
    base = evaluate.evaluate_all(users, codes, labels, totals, test, config)
    reversed_labels = evaluate.Labels(*(column[::-1] for column in labels))
    for rows, label_table in ((slice(None, None, -1), labels), (slice(None), reversed_labels)):
        report = evaluate.evaluate_all(users[rows], codes[rows], label_table, totals, test[rows], config)
        assert np.array_equal(report.auc, base.auc)
        assert np.array_equal(report.chosen_l2, base.chosen_l2)
        assert np.array_equal(report.coefficients, base.coefficients)
    # Rows are matched to users by id: reordering the ids alone changes the report.
    shuffled = evaluate.evaluate_all(users[::-1], codes, labels, totals, test, config)
    assert not np.array_equal(shuffled.auc, base.auc)
    with pytest.raises(PipelineError, match="duplicate"):
        evaluate.evaluate_all(users[:1] * 60, codes, labels, totals, test, config)
    with pytest.raises(PipelineError, match="do not match"):
        evaluate.evaluate_all(users[:5], codes, labels, totals, test, config)
    with pytest.raises(PipelineError, match="do not match"):
        evaluate.evaluate_all(users, codes, labels, totals, test[:5], config)


def test_evaluate_all_needs_labels_and_a_total_for_every_coded_user():
    users, codes, labels, totals = random_eval_setup(30, seed=2)
    test = evaluate.split_users(users, 0.33, seed=0)
    unlabeled = evaluate.Labels(*(column[1:] for column in labels))
    with pytest.raises(PipelineError, match=r"1 coded users have no labels, e\.g\. \['u0000'\]"):
        evaluate.evaluate_all(users, codes, unlabeled, totals, test)
    no_total = {u: t for u, t in totals.items() if u != "u0007"}
    with pytest.raises(PipelineError, match=r"1 coded users have no stream total, e\.g\. \['u0007'\]"):
        evaluate.evaluate_all(users, codes, labels, no_total, test)
    with pytest.raises(PipelineError, match="train or test empty"):
        evaluate.evaluate_all(users, codes, labels, totals, np.zeros(30, dtype=bool))


def test_evaluate_all_report_shape_and_determinism():
    users, codes, labels, totals = random_eval_setup(120, seed=5, planted_activity="work")
    test = evaluate.split_users(users, 0.33, seed=1)
    config = evaluate.EvalConfig(seed=3)
    rep1 = evaluate.evaluate_all(users, codes, labels, totals, test, config)
    rep2 = evaluate.evaluate_all(users, codes, labels, totals, test, config)
    assert rep1.auc.shape == (5, 6)
    assert rep1.auc.size == 30
    assert np.array_equal(rep1.auc, rep2.auc)
    assert np.array_equal(rep1.chosen_l2, rep2.chosen_l2)
    assert rep1.coefficients.shape == (8, 6)
    assert np.all((rep1.auc >= 0.0) & (rep1.auc <= 1.0))


def test_evaluate_all_planted_signal_beats_volume():
    users, codes, labels, totals = random_eval_setup(400, seed=7, planted_activity="friends")
    test = evaluate.split_users(users, 0.33, seed=2)
    rep = evaluate.evaluate_all(users, codes, labels, totals, test, evaluate.EvalConfig(seed=0))
    assert auc_of(rep, "codes", "friends") > auc_of(rep, "volume", "friends") + 0.15


def test_evaluate_all_random_labels_near_half():
    # Null oracle: with no signal anywhere, test AUC concentrates around 0.5.
    users, codes, labels, totals = random_eval_setup(3030, seed=9)
    test = evaluate.split_users(users, 0.33, seed=4)
    assert int(test.sum()) == 1000
    rep = evaluate.evaluate_all(users, codes, labels, totals, test, evaluate.EvalConfig(seed=1))
    others = [v for v in evaluate.VARIANTS if v != "other_activities"]
    for variant in others:
        for activity in evaluate.ACTIVITIES:
            assert abs(auc_of(rep, variant, activity) - 0.5) < 0.1


def test_coefficient_report_shape_and_csv(tmp_path):
    # Each coefficient column is the weight vector of the codes-variant model
    # refit on the train split with the chosen l2.
    users, codes, labels, totals = random_eval_setup(90, k=4, seed=12, planted_activity="work")
    test = evaluate.split_users(users, 0.33, seed=6)
    rep = evaluate.evaluate_all(users, codes, labels, totals, test, evaluate.EvalConfig(seed=1))
    assert rep.coefficients.shape == (4, 6)
    assert list(users) == sorted(users)  # rows are already in user-id order
    volume = np.array([float(totals[u]) for u in users])
    X = evaluate.build_features("codes", "work", codes, labels.answers, labels.demographics, volume, ~test)
    ai = evaluate.ACTIVITIES.index("work")
    l2 = rep.chosen_l2[evaluate.VARIANTS.index("codes"), ai]
    fit = evaluate.train_logreg(X[~test], labels.answers[~test, ai], l2)
    assert np.array_equal(rep.coefficients[:, ai], fit.params[0, :-1])
    path = tmp_path / "coef.csv"
    evaluate.write_coefficients_csv(rep.coefficients, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "atom,activity,coefficient"
    assert len(lines) == 1 + 4 * 6
    assert lines[1 + ai] == f"0,work,{float(rep.coefficients[0, ai])!r}"


def test_coefficient_report_planted_atom_dominates():
    users, codes, labels, totals = random_eval_setup(500, seed=3, planted_activity="asleep")
    test = evaluate.split_users(users, 0.33, seed=5)
    rep = evaluate.evaluate_all(users, codes, labels, totals, test, evaluate.EvalConfig(seed=2))
    ai = evaluate.ACTIVITIES.index("asleep")
    # The planted generator ties atom 0 to the label, so its coefficient tops the column.
    assert np.argmax(rep.coefficients[:, ai]) == 0


def test_labels_round_trip(tmp_path):
    labels = make_labels(25, np.random.default_rng(6))
    path = tmp_path / "labels.csv"
    evaluate.write_labels(path, *labels)
    text = path.read_text()
    assert text.splitlines()[1] == "u0000," + ",".join(
        str(v) for v in [*labels.answers[0], *labels.demographics[0]])
    loaded = evaluate.parse_labels(path)
    assert loaded.user_ids == labels.user_ids
    assert np.array_equal(loaded.answers, labels.answers)
    assert np.array_equal(loaded.demographics, labels.demographics)
    assert loaded.demographics.shape == (25, 2) and loaded.demographics.dtype == np.int8
    path.write_text(text.replace("\n", "\n\n"))
    assert evaluate.parse_labels(path).user_ids == labels.user_ids


def test_labels_round_trip_user_ids_holding_commas_or_quotes(tmp_path):
    labels = make_labels(12, np.random.default_rng(6))
    user_ids = ("u0,0", '"q', 'x"y', *labels.user_ids[3:])
    path = tmp_path / "labels.csv"
    evaluate.write_labels(path, user_ids, labels.answers, labels.demographics)
    loaded = evaluate.parse_labels(path)
    assert loaded.user_ids == user_ids
    assert np.array_equal(loaded.answers, labels.answers)
    assert np.array_equal(loaded.demographics, labels.demographics)


def test_labels_validation(tmp_path):
    header = ",".join(evaluate.LABELS_HEADER) + "\n"
    path = tmp_path / "labels.csv"

    def parse(*lines):
        return evaluate.parse_labels(write_lines(path, [header, *lines]))

    def line(user="u", answers=(0,) * 6, age_group=0, gender=0):
        return ",".join([user, *map(str, answers), str(age_group), str(gender)]) + "\n"

    assert parse(line()).user_ids == ("u",)
    with pytest.raises(PipelineError, match="line 2, user u: answers must be six 0/1 flags"):
        parse(line(answers=(0, 1, 2, 0, 0, 0)))
    with pytest.raises(PipelineError, match="line 2, user u: age_group"):
        parse(line(age_group=5))
    with pytest.raises(PipelineError, match="line 2, user u: age_group"):
        parse(line(age_group=-1))
    with pytest.raises(PipelineError, match="line 2, user u: gender"):
        parse(line(gender=3))
    with pytest.raises(PipelineError, match="line 5: duplicate user id w"):
        parse(line("u"), line("w"), line("v"), line("w"))
    with pytest.raises(PipelineError, match="line 2 has 8 fields"):
        parse(line(answers=(0,) * 5))
    with pytest.raises(PipelineError, match="header"):
        evaluate.parse_labels(write_lines(path, ["user_id,foo\n"]))
    with pytest.raises(PipelineError, match="line 3 is malformed"):
        parse("u1,0,0,0,0,0,0,1,1\n", "u2,0,x,0,0,0,0,1,1\n")
    with pytest.raises(PipelineError, match="line 4 is malformed"):  # a quoted id spans lines 2-3
        parse('"u\n', '1",0,0,0,0,0,0,1,1\n', "u2,0,x,0,0,0,0,1,1\n")
    with pytest.raises(PipelineError, match="line 2 has 8 fields"):
        parse("u1,0,0,0,0,0,1,1\n")
    with pytest.raises(PipelineError, match="line 3, user u2: gender"):
        parse("u1,0,0,0,0,0,0,1,1\n", "u2,0,0,0,0,0,0,1,7\n")
