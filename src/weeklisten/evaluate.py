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

The data stay columnar from ``labels.csv`` to the report: :func:`parse_labels`
returns the label columns as :class:`Labels` (no per-user record), the split
is one boolean test mask from :func:`split_users`, and :func:`evaluate_all`
aligns codes, labels and stream totals by user id once, then fills the AUC,
l2 and codes-model coefficient arrays of :class:`EvalReport` job by job from
the plain matrices :func:`build_features` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

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


class Labels(NamedTuple):
    """Label table as columns: row ``i`` holds the labels of ``user_ids[i]``.

    ``answers`` is ``(n, 6)`` with 0/1 flags in :data:`ACTIVITIES` order;
    ``age_group`` and ``gender`` are ``(n,)`` integer codes.  All three are int8.
    """

    user_ids: tuple[str, ...]
    answers: np.ndarray
    age_group: np.ndarray
    gender: np.ndarray


def parse_labels(source) -> Labels:
    """Parse the labels CSV into columns; strict (any malformed line is fatal).

    Every user id must be unique, every answer a 0/1 flag and every code in
    range; an error names the first line that breaks a rule.
    """
    with storage.csv_rows(source, "labels", EvaluationError) as (header, reader):
        if tuple(header) != LABELS_HEADER:
            raise EvaluationError(f"labels header must be {','.join(LABELS_HEADER)}, got {','.join(header)}")
        line_of, fields = {}, []  # user id -> line number, in file order
        for rowv in reader:
            if not rowv:
                continue
            if len(rowv) != len(LABELS_HEADER):
                raise EvaluationError(f"labels line {reader.line_num} has {len(rowv)} fields, "
                                      f"expected {len(LABELS_HEADER)}")
            if rowv[0] in line_of:
                raise EvaluationError(f"labels line {reader.line_num}: duplicate user id {rowv[0]}")
            line_of[rowv[0]] = reader.line_num
            fields.append(rowv[1:])
    user_ids, line_nos = tuple(line_of), tuple(line_of.values())
    try:
        values = np.array(fields, dtype=np.int64).reshape(len(fields), len(LABELS_HEADER) - 1)
    except (ValueError, OverflowError):
        for line_no, row in zip(line_nos, fields):  # name the first line that fails
            try:
                np.array(row, dtype=np.int64)
            except (ValueError, OverflowError) as exc:
                raise EvaluationError(f"labels line {line_no} is malformed: {exc}") from exc
        raise
    answers, age_group, gender = values[:, :N_ACTIVITIES], values[:, N_ACTIVITIES], values[:, N_ACTIVITIES + 1]
    for bad, rule in (((~np.isin(answers, (0, 1))).any(axis=1), "answers must be six 0/1 flags"),
                      ((age_group < 0) | (age_group >= AGE_GROUPS), f"age_group must lie in [0, {AGE_GROUPS})"),
                      ((gender < 0) | (gender >= GENDER_CODES), f"gender must lie in [0, {GENDER_CODES})")):
        if bad.any():
            i = int(np.argmax(bad))
            raise EvaluationError(f"labels line {line_nos[i]}, user {user_ids[i]}: {rule}, got answers "
                                  f"{answers[i].tolist()}, age_group {age_group[i]}, gender {gender[i]}")
    return Labels(user_ids, answers.astype(np.int8), age_group.astype(np.int8), gender.astype(np.int8))


def write_labels(path, user_ids: Sequence[str], answers, age_group, gender) -> None:
    """Write the labels CSV from the columns :func:`parse_labels` returns."""
    columns = np.column_stack([answers, age_group, gender]).tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(LABELS_HEADER) + "\n")
        fh.writelines(f"{user}," + ",".join(map(str, row)) + "\n"
                      for user, row in zip(user_ids, columns))


# ---------------------------------------------------------------------------
# Split and features
# ---------------------------------------------------------------------------

def split_users(user_ids: Sequence[str], test_fraction: float, seed=0) -> np.ndarray:
    """Seeded uniform split: a boolean test mask aligned with ``user_ids``.

    ``round(f * N)`` users are held out, drawn by a seeded permutation of the
    sorted ids, so the mask does not depend on the input order.  The split
    gates both atom learning and evaluation; ``learn`` and ``eval`` each derive
    it anew, so both must get the same ``--test-frac`` and ``--seed``.
    """
    n = len(user_ids)
    if n < 10:
        raise EvaluationError(f"need at least 10 users to split, got {n}")
    n_test = int(round(test_fraction * n))
    if n_test < 1 or n_test >= n:
        raise EvaluationError(f"degenerate split: {n_test} test users of {n}")
    by_id = np.array(sorted(range(n), key=user_ids.__getitem__), dtype=np.int64)
    test = np.zeros(n, dtype=bool)
    test[by_id[np.random.default_rng(seed).permutation(n)[:n_test]]] = True
    return test


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


def build_features(variant: str, target_activity: str, codes: np.ndarray, answers: np.ndarray,
                   demographics: np.ndarray, totals: np.ndarray,
                   train_mask: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """One variant's feature matrix, standardized on train rows, and its column names.

    The inputs are row-aligned: ``codes`` ``(n, K)``, ``answers`` ``(n, 6)``,
    ``demographics`` ``(n, 2)`` (age group, gender) and ``totals`` ``(n,)``.
    """
    if target_activity not in ACTIVITIES:
        raise EvaluationError(f"unknown activity {target_activity!r}")
    atom_names = tuple(f"atom_{k}" for k in range(codes.shape[1]))
    if variant == VARIANT_VOLUME:
        values, names = totals[:, None], ("total_streams",)
    elif variant == VARIANT_DEMOGRAPHICS:
        values, names = demographics, ("age_group", "gender")
    elif variant == VARIANT_OTHER_ACTIVITIES:
        keep = [i for i, a in enumerate(ACTIVITIES) if a != target_activity]
        values = answers[:, keep]
        names = tuple(ACTIVITIES[i] for i in keep)
    elif variant == VARIANT_CODES:
        values, names = codes, atom_names
    elif variant == VARIANT_CODES_DEMOGRAPHICS:
        values = np.column_stack([codes, demographics])
        names = atom_names + ("age_group", "gender")
    else:
        raise EvaluationError(f"unknown feature variant {variant!r}")

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


def evaluate_all(user_ids: Sequence[str], codes: np.ndarray, labels: Labels,
                 totals: Mapping[str, int], test_mask: np.ndarray,
                 config: EvalConfig = EvalConfig()) -> EvalReport:
    """Run every (variant, activity) job: grid-search on train, refit, score test.

    ``codes`` row ``i`` and ``test_mask[i]`` belong to ``user_ids[i]``.  Rows
    are put in user-id order once, so the report does not depend on the input
    order.  Labels may cover more users than the coded ones (e.g. users dropped
    by the activity filter); every coded user needs labels and a stream total.
    """
    codes = np.asarray(codes, dtype=np.float64)
    test_mask = np.asarray(test_mask, dtype=bool)
    if codes.ndim != 2 or codes.shape[0] != len(user_ids) or test_mask.shape != (len(user_ids),):
        raise EvaluationError(f"codes shape {codes.shape} and test mask shape {test_mask.shape} "
                              f"do not match {len(user_ids)} users")
    order = sorted(range(len(user_ids)), key=user_ids.__getitem__)
    users = [user_ids[i] for i in order]
    if len(set(users)) != len(users):
        raise EvaluationError("duplicate user ids among the coded users")
    label_row = {u: i for i, u in enumerate(labels.user_ids)}
    for what, known in (("labels", label_row), ("stream total", totals)):
        missing = [u for u in users if u not in known]
        if missing:
            raise EvaluationError(f"{len(missing)} coded users have no {what}, e.g. {missing[:3]}")
    rows = [label_row[u] for u in users]
    codes, answers, test_mask = codes[order], labels.answers[rows], test_mask[order]
    demographics = np.column_stack([labels.age_group[rows], labels.gender[rows]])
    volume = np.array([float(totals[u]) for u in users])
    train_mask = ~test_mask
    if not train_mask.any() or not test_mask.any():
        raise EvaluationError("split leaves train or test empty")

    auc = np.zeros((len(VARIANTS), N_ACTIVITIES))
    chosen = np.zeros_like(auc)
    coefficients = np.zeros((codes.shape[1], N_ACTIVITIES))
    for ai, activity in enumerate(ACTIVITIES):
        y = answers[:, ai]
        for vi, variant in enumerate(VARIANTS):
            X, _ = build_features(variant, activity, codes, answers, demographics, volume, train_mask)
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
