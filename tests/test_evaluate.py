
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weeklisten import evaluate
from weeklisten.errors import EvaluationError

from oracles import pair_counting_auc


def make_labels(n, rng=None, answers=None):
    rng = rng or np.random.default_rng(0)
    if answers is None:
        answers = rng.integers(0, 2, (n, 6))
    return evaluate.LabelSet([f"u{i:04d}" for i in range(n)], answers,
                             rng.integers(0, 5, n), rng.integers(0, 3, n))


# -- split_users -----------------------------------------------------------------

def test_split_100_users_gives_67_33():
    users = [f"u{i:03d}" for i in range(100)]
    train, test = evaluate.split_users(users, 0.33, seed=4)
    assert len(train) == 67 and len(test) == 33


def test_split_deterministic_and_partitioning():
    users = [f"u{i}" for i in range(57)]
    a = evaluate.split_users(users, 0.33, seed=9)
    b = evaluate.split_users(list(reversed(users)), 0.33, seed=9)
    assert a == b  # input order is irrelevant
    train, test = a
    assert set(train) | set(test) == set(users)
    assert set(train) & set(test) == set()


def test_split_too_few_users():
    with pytest.raises(EvaluationError):
        evaluate.split_users([f"u{i}" for i in range(9)], 0.33, seed=0)


# -- build_features ----------------------------------------------------------------

@pytest.fixture
def inputs_fixture():
    rng = np.random.default_rng(11)
    n = 40
    labels = make_labels(n, rng)
    codes = rng.normal(size=(n, 8))
    totals = {u: int(rng.integers(100, 5000)) for u in labels.user_ids}
    return evaluate.EvalInputs(labels.user_ids, codes, labels, totals)


def test_eval_inputs_align_codes_with_sorted_users():
    labels = make_labels(12, np.random.default_rng(4))
    users = labels.user_ids[::-1]
    codes = np.arange(12.0)[:, None] * np.ones((1, 3))  # row i is all i
    totals = {u: i for i, u in enumerate(labels.user_ids)}
    inputs = evaluate.EvalInputs(users, codes, labels, totals)
    assert inputs.user_ids == labels.user_ids
    assert inputs.codes[:, 0].tolist() == list(range(11, -1, -1))
    assert inputs.totals.tolist() == list(range(12))
    with pytest.raises(EvaluationError, match="duplicate"):
        evaluate.EvalInputs(users[:1] * 12, codes, labels, totals)
    with pytest.raises(EvaluationError, match="does not match"):
        evaluate.EvalInputs(users[:5], codes, labels, totals)


def test_features_other_activities_excludes_target(inputs_fixture):
    train = inputs_fixture.user_ids[:30]
    values, names = evaluate.build_features("other_activities", "work", inputs_fixture, train)
    assert names == ("wake_up", "transport", "sports", "friends", "asleep")
    assert values.shape == (40, 5)


def test_features_volume_is_single_column(inputs_fixture):
    values, names = evaluate.build_features("volume", "work", inputs_fixture, inputs_fixture.user_ids[:30])
    assert names == ("total_streams",)
    assert values.shape == (40, 1)


def test_features_codes_demographics_is_k_plus_2(inputs_fixture):
    values, names = evaluate.build_features("codes_demographics", "work", inputs_fixture,
                                            inputs_fixture.user_ids[:30])
    assert values.shape == (40, 10)
    assert names[-2:] == ("age_group", "gender")


def test_features_unknown_variant(inputs_fixture):
    with pytest.raises(EvaluationError, match="variant"):
        evaluate.build_features("pca", "work", inputs_fixture, inputs_fixture.user_ids[:30])


def test_standardization_uses_train_stats_only(inputs_fixture):
    train = inputs_fixture.user_ids[:30]
    values, _ = evaluate.build_features("codes", "work", inputs_fixture, train)
    train_mask = np.array([u in set(train) for u in inputs_fixture.user_ids])
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
    model = evaluate.train_logreg(X, y, l2_strength=1e-4)
    assert np.mean((model.decision_scores(X) > 0) == y) == 1.0


def test_logreg_single_class_is_fatal():
    with pytest.raises(EvaluationError, match="single-class"):
        evaluate.train_logreg(np.zeros((5, 2)), np.ones(5), 1.0)


def test_logreg_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n, f = int(rng.integers(5, 40)), int(rng.integers(1, 6))
        X = rng.normal(size=(n, f))
        y = rng.integers(0, 2, n)
        if len(np.unique(y)) < 2:
            y[0], y[1] = 0, 1
        l2 = float(rng.choice([0.0, 0.1, 1.0]))
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
        assert np.linalg.norm(grad - fd) <= 1e-5 * (1.0 + np.linalg.norm(grad))


def test_logreg_strong_l2_shrinks_to_base_rate():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(200, 3))
    y = (rng.random(200) < 0.3).astype(int)
    model = evaluate.train_logreg(X, y, l2_strength=1e6)
    assert np.abs(model.weights).max() < 1e-4
    assert np.allclose(1.0 / (1.0 + np.exp(-model.decision_scores(X))), y.mean(), atol=1e-3)


def test_logreg_loss_nonincreasing_over_refits():
    # Newton with step halving: loss at the solution is the global optimum,
    # so it cannot exceed the zero-start loss.
    rng = np.random.default_rng(21)
    X = rng.normal(size=(50, 4))
    y = rng.integers(0, 2, 50)
    y[:2] = (0, 1)
    model = evaluate.train_logreg(X, y, 0.5)
    params = np.r_[model.weights, model.intercept]
    final, _ = evaluate.logistic_loss_and_grad(params, X, y, 0.5)
    start, _ = evaluate.logistic_loss_and_grad(np.zeros(5), X, y, 0.5)
    assert final <= start


# -- roc_auc ---------------------------------------------------------------------------

def test_roc_auc_pair_example():
    assert evaluate.roc_auc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]) == pytest.approx(0.75)


def test_roc_auc_perfect_and_ties():
    assert evaluate.roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert evaluate.roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_roc_auc_single_class_fatal():
    with pytest.raises(EvaluationError):
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
    assert evaluate.grid_search_cv(X, y, [7.5], folds=5, seed=0) == 7.5


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
    with pytest.raises(EvaluationError, match="stratify"):
        evaluate.stratified_folds(y, 5, seed=0)


def test_grid_search_tie_breaks_to_larger_l2():
    # Pure-noise features: every l2 gives statistically identical CV scores;
    # with constant-zero features the scores are exactly equal, so the largest
    # grid value must win.
    X = np.zeros((60, 2))
    y = np.r_[np.ones(30), np.zeros(30)].astype(int)
    best = evaluate.grid_search_cv(X, y, [0.01, 0.1, 1.0, 10.0], folds=5, seed=2)
    assert best == 10.0


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


def test_evaluate_all_report_shape_and_determinism():
    users, codes, labels, totals = random_eval_setup(120, seed=5, planted_activity="work")
    split = evaluate.split_users(users, 0.33, seed=1)
    config = evaluate.EvalConfig(seed=3)
    rep1 = evaluate.evaluate_all(users, codes, labels, totals, split, config)
    rep2 = evaluate.evaluate_all(users, codes, labels, totals, split, config)
    assert rep1.auc.shape == (5, 6)
    assert rep1.auc.size == 30
    assert np.array_equal(rep1.auc, rep2.auc)
    assert np.array_equal(rep1.chosen_l2, rep2.chosen_l2)
    assert rep1.coefficients.shape == (8, 6)
    assert np.all((rep1.auc >= 0.0) & (rep1.auc <= 1.0))


def test_evaluate_all_planted_signal_beats_volume():
    users, codes, labels, totals = random_eval_setup(400, seed=7, planted_activity="friends")
    split = evaluate.split_users(users, 0.33, seed=2)
    rep = evaluate.evaluate_all(users, codes, labels, totals, split, evaluate.EvalConfig(seed=0))
    assert rep.auc_of("codes", "friends") > rep.auc_of("volume", "friends") + 0.15


def test_evaluate_all_random_labels_near_half():
    # Null oracle: with no signal anywhere, test AUC concentrates around 0.5.
    users, codes, labels, totals = random_eval_setup(3030, seed=9)
    split = evaluate.split_users(users, 0.33, seed=4)
    assert len(split[1]) == 1000
    rep = evaluate.evaluate_all(users, codes, labels, totals, split, evaluate.EvalConfig(seed=1))
    others = [v for v in evaluate.VARIANTS if v != "other_activities"]
    for variant in others:
        for activity in evaluate.ACTIVITIES:
            assert abs(rep.auc_of(variant, activity) - 0.5) < 0.1


def test_coefficient_report_shape_and_csv(tmp_path):
    # Each coefficient column is the weight vector of the codes-variant model
    # refit on the train split with the chosen l2.
    users, codes, labels, totals = random_eval_setup(90, k=4, seed=12, planted_activity="work")
    split = evaluate.split_users(users, 0.33, seed=6)
    rep = evaluate.evaluate_all(users, codes, labels, totals, split, evaluate.EvalConfig(seed=1))
    assert rep.coefficients.shape == (4, 6)
    inputs = evaluate.EvalInputs(users, codes, labels, totals)
    train_mask = np.isin(inputs.user_ids, split[0])
    X, _ = evaluate.build_features("codes", "work", inputs, split[0])
    ai = evaluate.ACTIVITIES.index("work")
    l2 = rep.chosen_l2[evaluate.VARIANTS.index("codes"), ai]
    model = evaluate.train_logreg(X[train_mask], inputs.answers[train_mask, ai], l2)
    assert np.array_equal(rep.coefficients[:, ai], model.weights)
    path = tmp_path / "coef.csv"
    evaluate.write_coefficients_csv(rep.coefficients, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "atom,activity,coefficient"
    assert len(lines) == 1 + 4 * 6
    assert lines[1 + ai] == f"0,work,{float(rep.coefficients[0, ai])!r}"


def test_coefficient_report_planted_atom_dominates():
    users, codes, labels, totals = random_eval_setup(500, seed=3, planted_activity="asleep")
    split = evaluate.split_users(users, 0.33, seed=5)
    rep = evaluate.evaluate_all(users, codes, labels, totals, split, evaluate.EvalConfig(seed=2))
    ai = evaluate.ACTIVITIES.index("asleep")
    # The planted generator ties atom 0 to the label, so its coefficient tops the column.
    assert np.argmax(rep.coefficients[:, ai]) == 0


def test_labels_round_trip(tmp_path):
    labels = make_labels(25, np.random.default_rng(6))
    path = tmp_path / "labels.csv"
    evaluate.write_labels(labels, path)
    text = path.read_text()
    assert text.splitlines()[1] == "u0000," + ",".join(
        str(v) for v in [*labels.answers[0], labels.age_group[0], labels.gender[0]])
    loaded = evaluate.parse_labels(path)
    assert loaded.user_ids == labels.user_ids
    assert np.array_equal(loaded.answers, labels.answers)
    assert np.array_equal(loaded.age_group, labels.age_group)
    assert np.array_equal(loaded.gender, labels.gender)
    assert evaluate.parse_labels(text.replace("\n", "\n\n").splitlines(True)).user_ids == labels.user_ids


def test_labels_validation():
    def one_user(answers=(0,) * 6, age_group=0, gender=0, users=("u",)):
        n = len(users)
        return evaluate.LabelSet(users, [answers] * n, [age_group] * n, [gender] * n)

    one_user()
    with pytest.raises(EvaluationError, match="0/1 flags"):
        one_user(answers=(0, 1, 2, 0, 0, 0))
    with pytest.raises(EvaluationError, match="age_group"):
        one_user(age_group=5)
    with pytest.raises(EvaluationError, match="age_group"):
        one_user(age_group=-1)
    with pytest.raises(EvaluationError, match="gender"):
        one_user(gender=3)
    with pytest.raises(EvaluationError, match="duplicate user id w"):
        one_user(users=("u", "w", "v", "w"))
    with pytest.raises(EvaluationError, match="do not fit"):
        one_user(answers=(0,) * 5)
    with pytest.raises(EvaluationError, match="header"):
        evaluate.parse_labels(["user_id,foo\n"])
    header = ",".join(evaluate.LABELS_HEADER) + "\n"
    with pytest.raises(EvaluationError, match="line 3 is malformed"):
        evaluate.parse_labels([header, "u1,0,0,0,0,0,0,1,1\n", "u2,0,x,0,0,0,0,1,1\n"])
    with pytest.raises(EvaluationError, match="line 2 has 8 fields"):
        evaluate.parse_labels([header, "u1,0,0,0,0,0,1,1\n"])
    with pytest.raises(EvaluationError, match="user u2: gender"):
        evaluate.parse_labels([header, "u1,0,0,0,0,0,0,1,1\n", "u2,0,0,0,0,0,0,1,7\n"])
