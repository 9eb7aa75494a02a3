"""Activity-prediction evaluation of user codes against baselines.

Six binary activity labels are predicted separately with L2-regularized
logistic regression, model selection by seeded stratified 5-fold grid search
on ROC AUC, and final scoring by ROC AUC on a held-out user split.  Every fit
goes through :func:`newton_logreg`, one from-scratch damped Newton that
solves a batch of row-subset problems over one feature matrix at once, each
stopping on its own gradient certificate: a job's 25 (l2, fold) problems are
one call, and :func:`train_logreg` is the one-problem case, whose
:class:`NewtonFit` holds the refit's weights.  Each problem reports its
iterations, step halvings, final gradient max-norm and stop reason;
:class:`EvalReport` carries the worst gradient and the counts of fits stopped
by ``max_iter`` or by running out of step halvings.  Feature variants:

* ``volume``             - total valid stream count (1 column);
* ``demographics``       - age-group and gender integer codes (2 columns);
* ``other_activities``   - the five activity flags other than the target;
* ``codes``              - the K-dimensional sparse codes;
* ``codes_demographics`` - codes plus age-group and gender.

All variants are standardized with train-row statistics only.

The data stay columnar from ``labels.csv`` to the report: :func:`parse_labels`
returns :class:`Labels`, the ``(n, 6)`` answers and one ``(n, 2)``
demographics column, which :func:`write_labels` also takes (no per-user
record); the split is one boolean test mask from :func:`split_users`; and
:func:`evaluate_all` aligns codes, labels and stream totals by user id once,
then fills the AUC, l2 and codes-model coefficient arrays of
:class:`EvalReport` job by job from the matrix :func:`build_features` returns
and the parameters of each refit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import storage
from .errors import PipelineError

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
    ``demographics`` is ``(n, 2)``: the age group and gender integer codes.
    Both are int8.
    """

    user_ids: tuple[str, ...]
    answers: np.ndarray
    demographics: np.ndarray


def parse_labels(path) -> Labels:
    """Parse the labels CSV at ``path`` into columns; strict (any malformed line is fatal).

    Every user id must be unique, every answer a 0/1 flag and every code in
    range; an error names the first line that breaks a rule.  The file is
    read once, through ``storage.csv_rows``.
    """
    with storage.csv_rows(path, "labels") as (header, reader):
        if tuple(header) != LABELS_HEADER:
            raise PipelineError(f"labels header must be {','.join(LABELS_HEADER)}, got {','.join(header)}")
        line_of, fields = {}, []  # user id -> line number, in file order
        for rowv in reader:
            if not rowv:
                continue
            if len(rowv) != len(LABELS_HEADER):
                raise PipelineError(f"labels line {reader.line_num} has {len(rowv)} fields, "
                                    f"expected {len(LABELS_HEADER)}")
            if rowv[0] in line_of:
                raise PipelineError(f"labels line {reader.line_num}: duplicate user id {rowv[0]}")
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
                raise PipelineError(f"labels line {line_no} is malformed: {exc}") from exc
        raise
    answers, demographics = values[:, :N_ACTIVITIES], values[:, N_ACTIVITIES:]
    age_group, gender = demographics.T
    for bad, rule in (((~np.isin(answers, (0, 1))).any(axis=1), "answers must be six 0/1 flags"),
                      ((age_group < 0) | (age_group >= AGE_GROUPS), f"age_group must lie in [0, {AGE_GROUPS})"),
                      ((gender < 0) | (gender >= GENDER_CODES), f"gender must lie in [0, {GENDER_CODES})")):
        if bad.any():
            i = int(np.argmax(bad))
            raise PipelineError(f"labels line {line_nos[i]}, user {user_ids[i]}: {rule}, got answers "
                                f"{answers[i].tolist()}, age_group {age_group[i]}, gender {gender[i]}")
    return Labels(user_ids, answers.astype(np.int8), demographics.astype(np.int8))


def write_labels(path, user_ids: Sequence[str], answers, demographics) -> None:
    """Write the labels CSV from the columns :func:`parse_labels` returns."""
    columns = np.column_stack([answers, demographics]).tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # quotes a user id holding a comma or a quote
        writer.writerow(LABELS_HEADER)
        writer.writerows([user, *row] for user, row in zip(user_ids, columns))


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
    if not 0 < test_fraction < 1:
        raise PipelineError(f"test fraction must lie in (0, 1), got {test_fraction}")
    n = len(user_ids)
    if n < 10:
        raise PipelineError(f"need at least 10 users to split, got {n}")
    n_test = int(round(test_fraction * n))
    if n_test < 1 or n_test >= n:
        raise PipelineError(f"degenerate split: {n_test} test users of {n}")
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
                   train_mask: np.ndarray) -> np.ndarray:
    """One variant's feature matrix, standardized on train rows.

    The inputs are row-aligned: ``codes`` ``(n, K)``, ``answers`` ``(n, 6)``,
    ``demographics`` ``(n, 2)`` (age group, gender) and ``totals`` ``(n,)``.
    """
    if target_activity not in ACTIVITIES:
        raise PipelineError(f"unknown activity {target_activity!r}")
    if variant == VARIANT_VOLUME:
        values = totals[:, None]
    elif variant == VARIANT_DEMOGRAPHICS:
        values = demographics
    elif variant == VARIANT_OTHER_ACTIVITIES:
        values = answers[:, [i for i, a in enumerate(ACTIVITIES) if a != target_activity]]
    elif variant == VARIANT_CODES:
        values = codes
    elif variant == VARIANT_CODES_DEMOGRAPHICS:
        values = np.column_stack([codes, demographics])
    else:
        raise PipelineError(f"unknown feature variant {variant!r}")

    return standardize(np.asarray(values, dtype=np.float64), train_mask)


# ---------------------------------------------------------------------------
# Logistic regression (one batched damped Newton) and ROC AUC
# ---------------------------------------------------------------------------

#: A fit is certified when its gradient max-norm falls below this.
GRAD_TOL = 1e-6

STOP_CONVERGED, STOP_MAX_ITER, STOP_HALVING = "converged", "max_iter", "halving"


class NewtonFit(NamedTuple):
    """What :func:`newton_logreg` returns; entry ``p`` of each column belongs to problem ``p``."""

    params: np.ndarray      # (P, f + 1): the weights, then the intercept
    iterations: np.ndarray  # (P,) Newton steps taken
    halvings: np.ndarray    # (P,) step halvings over all line searches
    grad_norm: np.ndarray   # (P,) final gradient max-norm
    stop: np.ndarray        # (P,) STOP_CONVERGED, STOP_MAX_ITER or STOP_HALVING


def _sigmoid(m: np.ndarray) -> np.ndarray:
    out = np.empty_like(m, dtype=np.float64)
    pos = m >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
    em = np.exp(m[~pos])
    out[~pos] = em / (1.0 + em)
    return out


def logistic_loss_and_grad(params: np.ndarray, X: np.ndarray, y01: np.ndarray,
                           l2_strength: np.ndarray, rows: np.ndarray):
    """Mean logistic loss plus ``l2/2 * ||w||^2`` (intercept unpenalized), and its gradient.

    ``params`` is a ``(P, f + 1)`` stack of P problems over the same ``X``,
    each ``[w_0 .. w_{f-1}, intercept]``, with the ``(P,)`` l2 strengths
    ``l2_strength``.  Problem ``p`` averages over the rows ``rows[p]`` selects
    (a ``(P, n)`` boolean mask).  Returns the ``(P,)`` losses and the
    ``(P, f + 1)`` gradients.
    """
    w, b = params[:, :-1], params[:, -1:]
    l2 = l2_strength.reshape(-1, 1)
    weight = rows / rows.sum(axis=1, keepdims=True)
    y = 2.0 * np.asarray(y01, dtype=np.float64) - 1.0
    m = w @ X.T + b
    loss = np.sum(weight * np.logaddexp(0.0, -y * m), axis=1) + 0.5 * l2[:, 0] * np.sum(w * w, axis=1)
    coef = -y * _sigmoid(-y * m) * weight
    grad = np.empty_like(params)
    grad[:, :-1] = coef @ X + l2 * w
    grad[:, -1] = coef.sum(axis=1)
    return loss, grad


def newton_logreg(X: np.ndarray, y01: np.ndarray, rows: np.ndarray, l2_strength,
                  grad_tol: float = GRAD_TOL, max_iter: int = 10000) -> NewtonFit:
    """Fit P row-subset l2 logistic problems over one feature matrix by damped Newton.

    Problem ``p`` minimizes :func:`logistic_loss_and_grad` over the rows
    ``rows[p]`` selects, with l2 strength ``l2_strength[p]`` (or one shared
    value).  All problems start at zero and step together, each on its own
    schedule, deterministically.  A step is halved whenever it fails to
    decrease the loss, so each loss trace is non-increasing, and a 1e-12
    ridge on the Hessian diagonal guards against saturated probabilities.  A
    problem stops when its gradient max-norm falls below ``grad_tol``
    (``converged``), after ``max_iter`` steps (``max_iter``), or when the
    halved step reaches 1e-12 of the Newton step without a decrease
    (``halving``: no descent direction left at float precision).
    """
    X = np.asarray(X, dtype=np.float64)
    y01 = np.asarray(y01)
    rows = np.asarray(rows, dtype=bool)
    n_problems, f = len(rows), X.shape[1]
    for mask in rows:
        classes = np.unique(y01[mask])
        if len(classes) < 2:
            raise PipelineError(f"labels are single-class ({classes.tolist()}); "
                                "logistic regression needs both a positive and a negative example")
    l2 = np.broadcast_to(np.asarray(l2_strength, dtype=np.float64), (n_problems,))
    weight = rows / rows.sum(axis=1, keepdims=True)
    params = np.zeros((n_problems, f + 1))
    loss, grad = logistic_loss_and_grad(params, X, y01, l2, rows)
    iterations = np.zeros(n_problems, dtype=np.int64)
    halvings = np.zeros(n_problems, dtype=np.int64)
    stalled = np.zeros(n_problems, dtype=bool)
    # Row i of ``pairs`` is the outer product of [x_i, 1], so one product with the
    # Hessian weights gives every problem's Hessian.
    augmented = np.column_stack([X, np.ones(len(X))])
    pairs = (augmented[:, :, None] * augmented[:, None, :]).reshape(len(X), -1)
    diagonal = np.arange(f + 1)

    live = np.arange(n_problems)  # problems still stepping
    for _ in range(max_iter):
        live = live[~(np.abs(grad[live]).max(axis=1) < grad_tol)]  # a NaN gradient keeps stepping
        if live.size == 0:
            break
        iterations[live] += 1
        p = _sigmoid(params[live, :-1] @ X.T + params[live, -1:])
        H = ((p * (1.0 - p) * weight[live]) @ pairs).reshape(live.size, f + 1, f + 1)
        H[:, diagonal[:f], diagonal[:f]] += l2[live, None]
        H[:, diagonal, diagonal] += 1e-12  # guard against saturated probabilities
        step = np.linalg.solve(H, -grad[live][:, :, None])[:, :, 0]

        scale = np.ones(live.size)
        searching = np.arange(live.size)  # positions in ``live`` whose line search goes on
        while searching.size:
            ids = live[searching]
            trial = params[ids] + scale[searching, None] * step[searching]
            trial_loss, trial_grad = logistic_loss_and_grad(trial, X, y01, l2[ids], rows[ids])
            better = trial_loss <= loss[ids]
            done = ids[better]
            params[done], loss[done], grad[done] = trial[better], trial_loss[better], trial_grad[better]
            failed = searching[~better]
            halvings[live[failed]] += 1
            scale[failed] *= 0.5
            searching = failed[scale[failed] > 1e-12]
        out = scale <= 1e-12
        stalled[live[out]] = True
        live = live[~out]

    grad_norm = np.abs(grad).max(axis=1)
    stop = np.where(stalled, STOP_HALVING, np.where(grad_norm < grad_tol, STOP_CONVERGED, STOP_MAX_ITER))
    return NewtonFit(params, iterations, halvings, grad_norm, stop)


def train_logreg(X: np.ndarray, y01: np.ndarray, l2_strength: float,
                 grad_tol: float = GRAD_TOL, max_iter: int = 10000) -> NewtonFit:
    """Fit one problem on every row of ``X``: :func:`newton_logreg` with P = 1."""
    return newton_logreg(X, y01, np.ones((1, len(X)), dtype=bool), l2_strength,
                         grad_tol=grad_tol, max_iter=max_iter)


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
        raise PipelineError("ROC AUC needs both classes present")
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
        raise PipelineError(f"cannot stratify {folds} folds with class counts "
                            f"pos={n_pos}, neg={n_neg}")
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(y), dtype=np.int64)
    for mask in (y, ~y):
        idx = np.flatnonzero(mask)
        idx = idx[rng.permutation(len(idx))]
        assignment[idx] = np.arange(len(idx)) % folds
    return assignment


class GridSearch(NamedTuple):
    """The l2 strength :func:`grid_search_cv` picks, and the fits it scored."""

    l2: float
    fits: NewtonFit  # problem ``i * folds + k``: i-th grid value (ascending), fold k held out


def grid_search_cv(X: np.ndarray, y01: np.ndarray, l2_grid: Sequence[float],
                   folds: int, seed=0) -> GridSearch:
    """Pick the l2 strength maximizing mean validation ROC AUC over seeded folds.

    Every (l2, fold) problem is fit in one :func:`newton_logreg` call.  Ties
    break toward the strongest regularization.
    """
    if folds < 2:
        raise PipelineError(f"need at least 2 folds, got {folds}")
    grid = sorted(set(float(v) for v in l2_grid))
    if not grid:
        raise PipelineError("l2 grid is empty")
    X = np.asarray(X, dtype=np.float64)
    y01 = np.asarray(y01)
    held_out = stratified_folds(y01, folds, seed) == np.arange(folds)[:, None]  # (folds, n)
    fits = newton_logreg(X, y01, np.tile(~held_out, (len(grid), 1)), np.repeat(grid, folds))

    best_l2, best_mean = None, -np.inf
    for i, l2 in enumerate(grid):
        scores = [roc_auc(X[val] @ params[:-1] + params[-1], y01[val])
                  for params, val in zip(fits.params[i * folds:(i + 1) * folds], held_out)]
        mean_auc = float(np.mean(scores))
        if mean_auc >= best_mean:  # >= on an ascending grid = ties go to larger l2
            best_l2, best_mean = l2, mean_auc
    return GridSearch(best_l2, fits)


# ---------------------------------------------------------------------------
# Full protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalConfig:
    l2_grid: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0, 100.0)
    cv_folds: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        bad = [l2 for l2 in self.l2_grid if not (np.isfinite(l2) and l2 > 0)]
        if bad:
            raise PipelineError(f"l2 strengths must be finite and positive, got {bad}")


@dataclass(frozen=True)
class EvalReport:
    """Test AUC and chosen l2 per (variant, activity), plus codes-model coefficients."""

    auc: np.ndarray          # (n_variants, n_activities), in VARIANTS and ACTIVITIES order
    chosen_l2: np.ndarray    # (n_variants, n_activities)
    coefficients: np.ndarray  # (n_atoms, n_activities), from the codes variant
    n_train: int
    n_test: int
    # Certificate over every logistic fit of the run, grid search and final fits alike.
    fits: int
    grad_max: float          # worst final gradient max-norm
    stopped_max_iter: int    # fits stopped by max_iter
    stopped_halving: int     # fits stopped because step halving ran out

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("variant,activity,auc,l2\n")
            for vi, v in enumerate(VARIANTS):
                for ai, a in enumerate(ACTIVITIES):
                    fh.write(f"{v},{a},{self.auc[vi, ai]:.6f},{self.chosen_l2[vi, ai]:g}\n")

    def to_table(self) -> str:
        width = max(len(v) for v in VARIANTS) + 2
        lines = [f"Test ROC AUC per activity ({self.n_train} train / {self.n_test} test users)"]
        lines.append("".ljust(width) + "".join(a.rjust(11) for a in ACTIVITIES))
        for vi, v in enumerate(VARIANTS):
            cells = "".join(f"{self.auc[vi, ai]:11.3f}" for ai in range(N_ACTIVITIES))
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
        raise PipelineError(f"codes shape {codes.shape} and test mask shape {test_mask.shape} "
                            f"do not match {len(user_ids)} users")
    order = sorted(range(len(user_ids)), key=user_ids.__getitem__)
    users = [user_ids[i] for i in order]
    if len(set(users)) != len(users):
        raise PipelineError("duplicate user ids among the coded users")
    label_row = {u: i for i, u in enumerate(labels.user_ids)}
    for what, known in (("labels", label_row), ("stream total", totals)):
        missing = [u for u in users if u not in known]
        if missing:
            raise PipelineError(f"{len(missing)} coded users have no {what}, e.g. {missing[:3]}")
    rows = [label_row[u] for u in users]
    codes, answers, demographics = codes[order], labels.answers[rows], labels.demographics[rows]
    test_mask = test_mask[order]
    volume = np.array([float(totals[u]) for u in users])
    train_mask = ~test_mask
    if not train_mask.any() or not test_mask.any():
        raise PipelineError("split leaves train or test empty")

    auc = np.zeros((len(VARIANTS), N_ACTIVITIES))
    chosen = np.zeros_like(auc)
    coefficients = np.zeros((codes.shape[1], N_ACTIVITIES))
    newton_fits = []
    for ai, activity in enumerate(ACTIVITIES):
        y = answers[:, ai]
        for vi, variant in enumerate(VARIANTS):
            X = build_features(variant, activity, codes, answers, demographics, volume, train_mask)
            X_train, y_train = X[train_mask], y[train_mask]
            job_seed = (config.seed, ai, vi)
            l2, grid_fits = grid_search_cv(X_train, y_train, config.l2_grid, config.cv_folds, job_seed)
            fit = train_logreg(X_train, y_train, l2)
            newton_fits += [grid_fits, fit]
            params = fit.params[0]
            auc[vi, ai] = roc_auc(X[test_mask] @ params[:-1] + params[-1], y[test_mask])
            chosen[vi, ai] = l2
            if variant == VARIANT_CODES:
                coefficients[:, ai] = params[:-1]

    grad_norm = np.concatenate([fit.grad_norm for fit in newton_fits])
    stop = np.concatenate([fit.stop for fit in newton_fits])
    return EvalReport(
        auc=auc, chosen_l2=chosen, coefficients=coefficients,
        n_train=int(train_mask.sum()), n_test=int(test_mask.sum()),
        fits=len(grad_norm), grad_max=float(grad_norm.max()),
        stopped_max_iter=int(np.count_nonzero(stop == STOP_MAX_ITER)),
        stopped_halving=int(np.count_nonzero(stop == STOP_HALVING)),
    )
