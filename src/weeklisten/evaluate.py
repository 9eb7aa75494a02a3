"""Activity-prediction evaluation of user codes against baselines.

Six binary activity labels are predicted separately with L2-regularized
logistic regression (from-scratch Newton optimizer), model selection by
seeded stratified 5-fold grid search on ROC AUC, and final scoring by ROC AUC
on a held-out user split.  Feature variants:

* ``volume``             - total valid stream count (1 column);
* ``demographics``       - age-group and gender integer codes (2 columns);
* ``other_activities``   - the five activity flags other than the target;
* ``codes``              - the K-dimensional sparse codes;
* ``codes_demographics`` - codes plus age-group and gender.

All variants are standardized with train-row statistics only.

The data stay columnar from ``labels.csv`` to the report: :class:`LabelSet`
holds the label columns (no per-user record), :func:`build_features` returns
a plain matrix, and :func:`evaluate_all` fills the AUC, l2 and codes-model
coefficient arrays of :class:`EvalReport` job by job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import storage
from .errors import EvaluationError

ACTIVITIES = ("wake_up", "transport", "work", "sports", "friends", "asleep")
N_ACTIVITIES = len(ACTIVITIES)

VARIANT_VOLUME = "volume"
VARIANT_DEMOGRAPHICS = "demographics"
VARIANT_OTHER_ACTIVITIES = "other_activities"
VARIANT_CODES = "codes"
VARIANT_CODES_DEMOGRAPHICS = "codes_demographics"
VARIANTS = (VARIANT_VOLUME, VARIANT_DEMOGRAPHICS, VARIANT_OTHER_ACTIVITIES,
            VARIANT_CODES, VARIANT_CODES_DEMOGRAPHICS)

AGE_GROUPS = 5
GENDER_CODES = 3

LABELS_HEADER = ("user_id",) + ACTIVITIES + ("age_group", "gender")


class LabelSet:
    """Label table as columns: row ``i`` holds the labels of ``user_ids[i]``.

    ``answers`` is ``(n, 6)`` with 0/1 flags in :data:`ACTIVITIES` order;
    ``age_group`` and ``gender`` are ``(n,)`` integer codes.
    """

    def __init__(self, user_ids: Sequence[str], answers, age_group, gender):
        self.user_ids = tuple(user_ids)
        n = len(self.user_ids)
        answers, age_group, gender = np.asarray(answers), np.asarray(age_group), np.asarray(gender)
        if answers.shape != (n, N_ACTIVITIES) or age_group.shape != (n,) or gender.shape != (n,):
            raise EvaluationError(f"label columns of shapes {answers.shape}, {age_group.shape}, "
                                  f"{gender.shape} do not fit {n} users")
        for bad, rule in (((~np.isin(answers, (0, 1))).any(axis=1), "answers must be six 0/1 flags"),
                          ((age_group < 0) | (age_group >= AGE_GROUPS), f"age_group must lie in [0, {AGE_GROUPS})"),
                          ((gender < 0) | (gender >= GENDER_CODES), f"gender must lie in [0, {GENDER_CODES})")):
            if bad.any():
                i = int(np.argmax(bad))
                raise EvaluationError(f"labels of user {self.user_ids[i]}: {rule}, got answers "
                                      f"{answers[i].tolist()}, age_group {age_group[i]}, gender {gender[i]}")
        self._row = {u: i for i, u in enumerate(self.user_ids)}
        if len(self._row) != n:
            dup = next(u for i, u in enumerate(self.user_ids) if self._row[u] != i)
            raise EvaluationError(f"duplicate user id {dup} in labels")
        self.answers = answers.astype(np.int8)
        self.age_group = age_group.astype(np.int8)
        self.gender = gender.astype(np.int8)

    def __len__(self) -> int:
        return len(self.user_ids)

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._row

    def row(self, user_id: str) -> int:
        try:
            return self._row[user_id]
        except KeyError:
            raise EvaluationError(f"no labels for user {user_id}") from None


def parse_labels(source) -> LabelSet:
    """Parse the labels CSV into columns; strict (any malformed line is fatal)."""
    with storage.csv_rows(source, "labels", EvaluationError) as (header, reader):
        if tuple(header) != LABELS_HEADER:
            raise EvaluationError(f"labels header must be {','.join(LABELS_HEADER)}, got {','.join(header)}")
        user_ids, fields, line_nos = [], [], []
        for rowv in reader:
            if not rowv:
                continue
            if len(rowv) != len(LABELS_HEADER):
                raise EvaluationError(f"labels line {reader.line_num} has {len(rowv)} fields, "
                                      f"expected {len(LABELS_HEADER)}")
            user_ids.append(rowv[0])
            fields.append(rowv[1:])
            line_nos.append(reader.line_num)
    try:
        values = np.array(fields, dtype=np.int64).reshape(len(fields), len(LABELS_HEADER) - 1)
    except (ValueError, OverflowError):
        for line_no, row in zip(line_nos, fields):  # name the first line that fails
            try:
                np.array(row, dtype=np.int64)
            except (ValueError, OverflowError) as exc:
                raise EvaluationError(f"labels line {line_no} is malformed: {exc}") from exc
        raise
    return LabelSet(user_ids, values[:, :N_ACTIVITIES], values[:, N_ACTIVITIES], values[:, N_ACTIVITIES + 1])


def write_labels(labels: LabelSet, path) -> None:
    columns = np.column_stack([labels.answers, labels.age_group, labels.gender]).tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(LABELS_HEADER) + "\n")
        fh.writelines(f"{user}," + ",".join(map(str, row)) + "\n"
                      for user, row in zip(labels.user_ids, columns))


# ---------------------------------------------------------------------------
# Split and features
# ---------------------------------------------------------------------------

def split_users(user_ids: Sequence[str], test_fraction: float,
                seed=0) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Seeded uniform split into (train, test); test gets ``round(f * N)`` users.

    The same split must gate both atom learning (train only) and classifier
    evaluation.  ``learn`` and ``eval`` each derive it anew from the sorted ids,
    ``--test-frac`` and ``--seed``, so both stages must get the same values.
    """
    users = sorted(user_ids)
    n = len(users)
    if n < 10:
        raise EvaluationError(f"need at least 10 users to split, got {n}")
    n_test = int(round(test_fraction * n))
    if n_test < 1 or n_test >= n:
        raise EvaluationError(f"degenerate split: {n_test} test users of {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    test = {users[i] for i in perm[:n_test]}
    return (tuple(u for u in users if u not in test),
            tuple(u for u in users if u in test))


def standardize(values: np.ndarray, train_mask: np.ndarray) -> np.ndarray:
    """Center/scale all rows by train-row mean and population std.

    Columns constant on train rows are left identically zero.
    """
    train = values[train_mask]
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    out = values - mean
    np.divide(out, std, out=out, where=std > 0)
    out[:, std == 0] = 0.0
    return out


class EvalInputs:
    """User-aligned raw inputs for feature building.

    ``codes`` row ``i`` is the code of ``user_ids[i]``; rows are reordered by
    user id.  The evaluation universe is the coded users (labels may cover
    more, e.g. users dropped by the activity filter; those rows are ignored).
    Every coded user must come with labels and a stream total.
    """

    def __init__(self, user_ids: Sequence[str], codes: np.ndarray, labels: LabelSet,
                 total_streams: Mapping[str, int]):
        codes = np.asarray(codes, dtype=np.float64)
        if codes.ndim != 2 or codes.shape[0] != len(user_ids):
            raise EvaluationError(f"codes shape {codes.shape} does not match {len(user_ids)} users")
        order = sorted(range(len(user_ids)), key=user_ids.__getitem__)
        users = [user_ids[i] for i in order]
        if len(set(users)) != len(users):
            raise EvaluationError("duplicate user ids among the coded users")
        missing = [u for u in users if u not in labels]
        if missing:
            raise EvaluationError(f"{len(missing)} coded users have no labels, e.g. {missing[:3]}")
        missing = [u for u in users if u not in total_streams]
        if missing:
            raise EvaluationError(f"{len(missing)} coded users have no stream total, e.g. {missing[:3]}")
        self.user_ids = tuple(users)
        self.codes = codes[order]
        rows = [labels.row(u) for u in users]
        self.answers = labels.answers[rows].astype(np.float64)
        self.age_group = labels.age_group[rows].astype(np.float64)
        self.gender = labels.gender[rows].astype(np.float64)
        self.totals = np.array([float(total_streams[u]) for u in users])

    @property
    def n_atoms(self) -> int:
        return self.codes.shape[1]


def build_features(variant: str, target_activity: str, inputs: EvalInputs,
                   train_users: Iterable[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """One variant's feature matrix, standardized on train rows, and its column names.

    Rows follow ``inputs.user_ids``.
    """
    if target_activity not in ACTIVITIES:
        raise EvaluationError(f"unknown activity {target_activity!r}")
    atom_names = tuple(f"atom_{k}" for k in range(inputs.n_atoms))
    demo = np.column_stack([inputs.age_group, inputs.gender])
    if variant == VARIANT_VOLUME:
        values, names = inputs.totals[:, None], ("total_streams",)
    elif variant == VARIANT_DEMOGRAPHICS:
        values, names = demo, ("age_group", "gender")
    elif variant == VARIANT_OTHER_ACTIVITIES:
        keep = [i for i, a in enumerate(ACTIVITIES) if a != target_activity]
        values = inputs.answers[:, keep]
        names = tuple(ACTIVITIES[i] for i in keep)
    elif variant == VARIANT_CODES:
        values, names = inputs.codes, atom_names
    elif variant == VARIANT_CODES_DEMOGRAPHICS:
        values = np.column_stack([inputs.codes, demo])
        names = atom_names + ("age_group", "gender")
    else:
        raise EvaluationError(f"unknown feature variant {variant!r}")

    train_set = set(train_users)
    train_mask = np.fromiter((u in train_set for u in inputs.user_ids),
                             count=len(inputs.user_ids), dtype=bool)
    if not train_mask.any():
        raise EvaluationError("no train users present in the feature inputs")
    return standardize(np.asarray(values, dtype=np.float64), train_mask), names


# ---------------------------------------------------------------------------
# Logistic regression (full-batch Newton) and ROC AUC
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogRegModel:
    weights: np.ndarray
    intercept: float
    l2_strength: float

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.intercept


def _sigmoid(m: np.ndarray) -> np.ndarray:
    out = np.empty_like(m, dtype=np.float64)
    pos = m >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
    em = np.exp(m[~pos])
    out[~pos] = em / (1.0 + em)
    return out


def logistic_loss_and_grad(params: np.ndarray, X: np.ndarray, y01: np.ndarray,
                           l2_strength: float) -> tuple[float, np.ndarray]:
    """Mean logistic loss plus ``l2/2 * ||w||^2`` (intercept unpenalized).

    ``params`` is ``[w_0 .. w_{f-1}, intercept]``; returns (loss, gradient).
    """
    X = np.asarray(X, dtype=np.float64)
    w, b = params[:-1], params[-1]
    y = 2.0 * np.asarray(y01, dtype=np.float64) - 1.0
    m = X @ w + b
    loss = float(np.mean(np.logaddexp(0.0, -y * m)) + 0.5 * l2_strength * w @ w)
    coef = -y * _sigmoid(-y * m) / len(y)
    grad = np.empty_like(params)
    grad[:-1] = X.T @ coef + l2_strength * w
    grad[-1] = coef.sum()
    return loss, grad


def train_logreg(X: np.ndarray, y01: np.ndarray, l2_strength: float,
                 grad_tol: float = 1e-6, max_iter: int = 10000) -> LogRegModel:
    """Fit by damped Newton iterations until the gradient max-norm is tiny.

    Deterministic full-batch optimization from a zero start; steps are halved
    whenever they fail to decrease the loss, so the loss trace is
    non-increasing.
    """
    X = np.asarray(X, dtype=np.float64)
    y01 = np.asarray(y01)
    classes = np.unique(y01)
    if len(classes) < 2:
        raise EvaluationError(f"labels are single-class ({classes.tolist()}); "
                              "logistic regression needs both a positive and a negative example")
    n, f = X.shape
    params = np.zeros(f + 1)
    loss, grad = logistic_loss_and_grad(params, X, y01, l2_strength)

    for _ in range(max_iter):
        if np.max(np.abs(grad)) < grad_tol:
            break
        m = X @ params[:-1] + params[-1]
        p = _sigmoid(m)
        w_diag = p * (1.0 - p) / n
        Xw = X * w_diag[:, None]
        H = np.empty((f + 1, f + 1))
        H[:f, :f] = X.T @ Xw + l2_strength * np.eye(f)
        H[:f, f] = Xw.sum(axis=0)
        H[f, :f] = H[:f, f]
        H[f, f] = w_diag.sum()
        H[np.diag_indices_from(H)] += 1e-12  # guard against saturated probabilities
        step = np.linalg.solve(H, -grad)

        scale = 1.0
        while scale > 1e-12:
            trial = params + scale * step
            trial_loss, trial_grad = logistic_loss_and_grad(trial, X, y01, l2_strength)
            if trial_loss <= loss:
                params, loss, grad = trial, trial_loss, trial_grad
                break
            scale *= 0.5
        else:
            break  # no descent direction left at float precision

    return LogRegModel(weights=params[:-1].copy(), intercept=float(params[-1]),
                       l2_strength=float(l2_strength))


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outscores a random negative; ties count half.

    Computed via average ranks (Mann-Whitney), exactly equivalent to
    exhaustive pair counting.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("ROC AUC needs both classes present")
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    starts = np.flatnonzero(np.r_[True, np.diff(s_sorted) != 0])
    ends = np.r_[starts[1:], len(s)]
    avg_rank = (starts + ends + 1) / 2.0  # mean of 1-based ranks in each tie group
    ranks = np.empty(len(s))
    ranks[order] = np.repeat(avg_rank, ends - starts)
    pos_rank_sum = float(ranks[y].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def stratified_folds(y01: np.ndarray, folds: int, seed) -> np.ndarray:
    """Seeded fold assignment, class-balanced within one sample per fold."""
    y = np.asarray(y01).astype(bool)
    n_pos, n_neg = int(y.sum()), int((~y).sum())
    if min(n_pos, n_neg) < folds:
        raise EvaluationError(f"cannot stratify {folds} folds with class counts "
                              f"pos={n_pos}, neg={n_neg}")
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(y), dtype=np.int64)
    for mask in (y, ~y):
        idx = np.flatnonzero(mask)
        idx = idx[rng.permutation(len(idx))]
        assignment[idx] = np.arange(len(idx)) % folds
    return assignment


def grid_search_cv(X: np.ndarray, y01: np.ndarray, l2_grid: Sequence[float],
                   folds: int, seed=0) -> float:
    """Pick the l2 strength maximizing mean validation ROC AUC over seeded folds.

    Ties break toward the strongest regularization.
    """
    if folds < 2:
        raise EvaluationError(f"need at least 2 folds, got {folds}")
    grid = sorted(set(float(v) for v in l2_grid))
    if not grid:
        raise EvaluationError("l2 grid is empty")
    X = np.asarray(X, dtype=np.float64)
    y01 = np.asarray(y01)
    fold_of = stratified_folds(y01, folds, seed)

    best_l2, best_mean = None, -np.inf
    for l2 in grid:
        scores = []
        for f in range(folds):
            val = fold_of == f
            model = train_logreg(X[~val], y01[~val], l2)
            scores.append(roc_auc(model.decision_scores(X[val]), y01[val]))
        mean_auc = float(np.mean(scores))
        if mean_auc >= best_mean:  # >= on an ascending grid = ties go to larger l2
            best_l2, best_mean = l2, mean_auc
    return best_l2


# ---------------------------------------------------------------------------
# Full protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalConfig:
    l2_grid: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0, 100.0)
    cv_folds: int = 5
    seed: int = 0


@dataclass(frozen=True)
class EvalReport:
    """Test AUC and chosen l2 per (variant, activity), plus codes-model coefficients."""

    variants: tuple[str, ...]
    activities: tuple[str, ...]
    auc: np.ndarray          # (n_variants, n_activities)
    chosen_l2: np.ndarray    # (n_variants, n_activities)
    coefficients: np.ndarray  # (n_atoms, n_activities), from the codes variant
    n_train: int
    n_test: int

    def auc_of(self, variant: str, activity: str) -> float:
        return float(self.auc[self.variants.index(variant), self.activities.index(activity)])

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("variant,activity,auc,l2\n")
            for vi, v in enumerate(self.variants):
                for ai, a in enumerate(self.activities):
                    fh.write(f"{v},{a},{self.auc[vi, ai]:.6f},{self.chosen_l2[vi, ai]:g}\n")

    def to_table(self) -> str:
        width = max(len(v) for v in self.variants) + 2
        lines = [f"Test ROC AUC per activity ({self.n_train} train / {self.n_test} test users)"]
        lines.append("".ljust(width) + "".join(a.rjust(11) for a in self.activities))
        for vi, v in enumerate(self.variants):
            cells = "".join(f"{self.auc[vi, ai]:11.3f}" for ai in range(len(self.activities)))
            lines.append(v.ljust(width) + cells)
        return "\n".join(lines) + "\n"


def write_coefficients_csv(coefficients: np.ndarray, path) -> None:
    """Long-format export: ``atom,activity,coefficient``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("atom,activity,coefficient\n")
        for k in range(coefficients.shape[0]):
            for ai, activity in enumerate(ACTIVITIES):
                fh.write(f"{k},{activity},{float(coefficients[k, ai])!r}\n")


def evaluate_all(user_ids: Sequence[str], codes: np.ndarray, labels: LabelSet,
                 total_streams: Mapping[str, int],
                 split: tuple[Sequence[str], Sequence[str]],
                 config: EvalConfig = EvalConfig()) -> EvalReport:
    """Run every (variant, activity) job: grid-search on train, refit, score test.

    ``codes`` row ``i`` is the code of ``user_ids[i]``.
    """
    inputs = EvalInputs(user_ids, codes, labels, total_streams)
    train_users, test_users = split
    train_set, test_set = set(train_users), set(test_users)
    if train_set & test_set:
        raise EvaluationError("train and test user sets overlap")
    users = inputs.user_ids
    train_mask = np.fromiter((u in train_set for u in users), count=len(users), dtype=bool)
    test_mask = np.fromiter((u in test_set for u in users), count=len(users), dtype=bool)
    if not train_mask.any() or not test_mask.any():
        raise EvaluationError("split leaves train or test empty among labeled users")

    auc = np.zeros((len(VARIANTS), N_ACTIVITIES))
    chosen = np.zeros_like(auc)
    coefficients = np.zeros((inputs.n_atoms, N_ACTIVITIES))
    for ai, activity in enumerate(ACTIVITIES):
        y = inputs.answers[:, ai].astype(np.int8)
        for vi, variant in enumerate(VARIANTS):
            X, _ = build_features(variant, activity, inputs, train_users)
            X_train, y_train = X[train_mask], y[train_mask]
            job_seed = (config.seed, ai, vi)
            l2 = grid_search_cv(X_train, y_train, config.l2_grid, config.cv_folds, job_seed)
            model = train_logreg(X_train, y_train, l2)
            scores = model.decision_scores(X[test_mask])
            auc[vi, ai] = roc_auc(scores, y[test_mask])
            chosen[vi, ai] = l2
            if variant == VARIANT_CODES:
                coefficients[:, ai] = model.weights

    return EvalReport(
        variants=VARIANTS, activities=ACTIVITIES, auc=auc, chosen_l2=chosen,
        coefficients=coefficients,
        n_train=int(train_mask.sum()), n_test=int(test_mask.sum()),
    )
