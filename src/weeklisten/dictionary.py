"""Sparse dictionary learning over stacked weekly signals.

Learns K multichannel atoms D and per-user sparse codes by alternating
minimization of

    sum_c ||S_c - D_c G||_F^2 + lam * ||G||_1

where the channel sum equals the Frobenius norm of the channel-major stacked
matrices, so everything below runs on plain ``(dim, K)`` dictionaries and
``(n, dim)`` signal rows (``dim`` is 672 in production, anything in tests).

Sparse coding is cyclic coordinate descent with closed-form soft-threshold
updates, vectorized across users, which finds each user's support and signs;
after every sweep each unsettled user takes one exact step on that support
(the reduced least-squares system solved in stacked blocks, stopped at the
first sign change, kept only if the objective does not rise).  The dictionary
half-step is block coordinate descent over atoms with unit-L2-ball projection.
Both half-steps never increase the objective, which the learner records after
every half-step from Gram statistics.  :func:`sparse_code_batch` is the one
coder (a single signal is a batch of one row) and :func:`kkt_residuals`
certifies its codes.

The dictionary persists as ``dictionary.csv``.  :func:`embed` returns the
``(n, K)`` code matrix, which hands off like signals: a user-index file plus a
``.npy`` matrix (:func:`weeklisten.storage.save_indexed_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DictionaryError
from .signals import CHANNELS, N_CHANNELS, SLOTS_PER_WEEK

STACKED_DIM = N_CHANNELS * SLOTS_PER_WEEK

#: Factor mapping the coordinate-change tolerance to the KKT certificate tolerance.
KKT_TOL_FACTOR = 10.0

#: Users per stacked exact-step solve, so the (block, K, K) systems stay a few MB.
SOLVE_BLOCK = 256


@dataclass(frozen=True)
class LearnConfig:
    """Knobs for :func:`learn`; defaults follow the pipeline defaults."""

    n_atoms: int = 32
    lam: float = 1.0
    outer_iters: int = 100
    lasso_tol: float = 1e-8
    lasso_max_sweeps: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.n_atoms < 1:
            raise DictionaryError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if self.lam < 0:
            raise DictionaryError(f"lam must be >= 0, got {self.lam}")
        if self.lasso_tol <= 0 or self.lasso_max_sweeps <= 0:
            raise DictionaryError("lasso_tol and lasso_max_sweeps must be positive")


@dataclass(frozen=True)
class Dictionary:
    """K atoms as columns of the stacked ``(dim, K)`` matrix.

    For production signals ``dim == 672`` and :attr:`atoms` exposes the
    ``(K, 4, 168)`` channel view.  Every column has L2 norm at most 1.
    """

    stacked: np.ndarray
    lam: float | None = None
    seed: int | None = None

    @property
    def n_atoms(self) -> int:
        return self.stacked.shape[1]

    @property
    def dim(self) -> int:
        return self.stacked.shape[0]

    @property
    def atoms(self) -> np.ndarray:
        if self.dim != STACKED_DIM:
            raise DictionaryError(f"channel view needs dim {STACKED_DIM}, this dictionary has {self.dim}")
        return self.stacked.T.reshape(self.n_atoms, N_CHANNELS, SLOTS_PER_WEEK)


@dataclass(frozen=True)
class LearnResult:
    dictionary: Dictionary
    codes: np.ndarray                 # (n_rows, K), aligned with the training rows
    objective_trace: tuple[float, ...]  # objective after every half-step


def _stacked(dictionary: np.ndarray) -> np.ndarray:
    mat = np.asarray(dictionary, dtype=np.float64)
    if mat.ndim != 2:
        raise DictionaryError(f"dictionary must be 2-D (dim, K), got shape {mat.shape}")
    return mat


def objective(signals: np.ndarray, dictionary: np.ndarray, codes: np.ndarray, lam: float) -> float:
    """``||S - D @ G||_F^2 + lam * ||G||_1`` on stacked matrices.

    :func:`learn` records the same value through :func:`_gram_objective`; this
    residual form stays public because the benchmark's per-layer metrics
    (``dictionary.objective.*``) look it up by name.
    """
    X = np.asarray(signals, dtype=np.float64)
    D = _stacked(dictionary)
    C = np.asarray(codes, dtype=np.float64)
    if X.ndim != 2 or C.shape != (X.shape[0], D.shape[1]):
        raise DictionaryError(f"shape mismatch: signals {X.shape}, dictionary {D.shape}, codes {C.shape}")
    residual = X - C @ D.T
    return float(np.sum(residual * residual) + lam * np.sum(np.abs(C)))


def _gram_objective(x_sq: float, XD: np.ndarray, DtD: np.ndarray, C: np.ndarray, lam: float) -> float:
    """:func:`objective` from ``||X||^2``, ``X D`` and ``D^T D``, without the (n, dim) residual."""
    return float(x_sq - 2.0 * np.sum(C * XD) + np.sum(C * (C @ DtD)) + lam * np.sum(np.abs(C)))


def _kkt_from_half_gradient(g: np.ndarray, C: np.ndarray, lam: float) -> np.ndarray:
    """Per-column KKT violation given ``g = D^T S - (D^T D) C`` (so grad = -2g)."""
    grad = -2.0 * g
    viol = np.abs(grad + lam * np.sign(C))
    np.copyto(viol, np.maximum(np.abs(grad) - lam, 0.0), where=C == 0.0)
    return viol.max(axis=0) if viol.size else np.zeros(g.shape[1])


def kkt_residuals(signals: np.ndarray, dictionary: np.ndarray, codes: np.ndarray, lam: float) -> np.ndarray:
    """Worst subgradient-optimality violation of each row's lasso code.

    The least-squares gradient is ``grad = -2 D^T (s - D c)``; optimality needs
    ``|grad_k| <= lam`` where ``c_k == 0`` and ``grad_k == -lam * sign(c_k)``
    elsewhere.  Returns the largest excess over those conditions per row.
    """
    X = np.asarray(signals, dtype=np.float64)
    D = _stacked(dictionary)
    C = np.asarray(codes, dtype=np.float64)
    if X.ndim != 2 or C.shape != (X.shape[0], D.shape[1]):
        raise DictionaryError(f"shape mismatch: signals {X.shape}, dictionary {D.shape}, codes {C.shape}")
    g = D.T @ X.T - (D.T @ D) @ C.T
    return _kkt_from_half_gradient(g, C.T, lam)


def _exact_support_step(C: np.ndarray, g: np.ndarray, H: np.ndarray, D: np.ndarray,
                        G: np.ndarray, lam: float) -> None:
    """Move each user (column) toward the exact lasso solution on its current support.

    With support ``S`` and signs fixed, the optimum solves
    ``G_SS c_S = H_S - (lam / 2) sign(c_S)``.  The step stops at the first
    support coordinate whose sign would flip (that coordinate becomes exactly
    0) and is kept only where the user's objective does not increase, so a
    singular or ill-conditioned ``G_SS`` cannot undo coordinate descent.
    ``C``, ``g = H - G C`` and ``H`` are ``(K, n)`` with one column per user;
    ``C`` and ``g`` are updated in place, ``g`` recomputed for users that moved.
    """
    for start in range(0, C.shape[1], SOLVE_BLOCK):
        cols = np.arange(start, min(start + SOLVE_BLOCK, C.shape[1]))
        c = C[:, cols].T                                   # (b, K)
        support = c != 0.0
        size = support.sum(axis=1)
        m = int(size.max())
        if m == 0:
            continue
        # Each user's support atoms first; rows past its support size are padding.
        idx = np.argsort(~support, axis=1, kind="stable")[:, :m]
        pad = np.arange(m) >= size[:, None]
        M = G[idx[:, :, None], idx[:, None, :]]
        M[pad[:, :, None] | pad[:, None, :]] = 0.0
        M[:, np.arange(m), np.arange(m)] += pad           # identity rows, rhs 0
        h = H[:, cols].T
        rhs = np.take_along_axis(h - (lam / 2.0) * np.sign(c), idx, axis=1)
        rhs[pad] = 0.0
        with np.errstate(all="ignore"):
            try:
                sol = np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:  # exactly singular G_SS, e.g. duplicate atoms
                sol = (np.linalg.pinv(M) @ rhs[:, :, None])[:, :, 0]
            sol[pad] = 0.0
            z = np.zeros_like(c)
            np.put_along_axis(z, idx, sol, axis=1)
            # A support coordinate of c + t (z - c) changes sign at t = c / (c - z).
            cross = np.where(support & (c * z <= 0.0), c / (c - z), np.inf)
            t = np.minimum(cross.min(axis=1), 1.0)[:, None]
            new = c + t * (z - c)
            new[cross <= t] = 0.0
            step = new - c
            # Objective change ||D step||^2 - 2 step.g + lam (|new|_1 - |c|_1).  The
            # quadratic term is summed in signal space: step.G.step can round negative
            # when G is near singular.
            fit = step @ D.T
            change = (np.einsum("ij,ij->i", fit, fit) - 2.0 * np.einsum("ij,ij->i", step, g[:, cols].T)
                      + lam * (np.abs(new).sum(axis=1) - np.abs(c).sum(axis=1)))
        moved = (change <= 0.0) & np.any(step != 0.0, axis=1)
        if np.any(moved):
            C[:, cols[moved]] = new[moved].T
            g[:, cols[moved]] = h[moved].T - G @ new[moved].T


def sparse_code_batch(signals: np.ndarray, dictionary: np.ndarray, lam: float,
                      tol: float = LearnConfig.lasso_tol, max_sweeps: int = LearnConfig.lasso_max_sweeps,
                      warm_codes: np.ndarray | None = None) -> np.ndarray:
    """Lasso codes for every signal row: coordinate descent plus exact support steps.

    Runs in covariance form: with ``G = D^T D`` and ``H = D^T S`` precomputed,
    a coordinate update touches K-vectors instead of dim-vectors.  Each user's
    problem is independent; they are swept together for speed.  A cyclic
    coordinate-descent sweep finds each user's support and signs; a user drops
    out once its sweep-to-sweep coordinate change is below ``tol`` and its KKT
    violation is within ``KKT_TOL_FACTOR * tol``.  Every user still active
    after a sweep then takes one exact step on its support (see
    :func:`_exact_support_step`), so a pass usually settles within a few
    sweeps.  ``max_sweeps`` caps the coordinate-descent sweeps.  Codes of
    zero-norm atoms are 0.
    """
    X = np.asarray(signals, dtype=np.float64)
    if X.ndim != 2:
        raise DictionaryError(f"signals must be 2-D (n, dim), got shape {X.shape}")
    if not np.isfinite(X).all():
        raise DictionaryError("non-finite values in signals")
    D = _stacked(dictionary)
    n, dim = X.shape
    if D.shape[0] != dim:
        raise DictionaryError(f"dictionary dim {D.shape[0]} does not match signals dim {dim}")
    K = D.shape[1]

    codes = np.zeros((K, n)) if warm_codes is None else \
        np.ascontiguousarray(warm_codes.T, dtype=np.float64).copy()
    G = D.T @ D                               # (K, K)
    atom_sq = np.diagonal(G).copy()           # ||d_j||^2
    codes[atom_sq == 0.0] = 0.0               # the penalty alone decides a zero atom's code
    threshold = lam / 2.0

    # Active users' columns, compacted as users settle; codes[:, active] is stale until then.
    active = np.arange(n)
    C = codes.copy()
    H = D.T @ X.T                             # (K, n)
    g = H - G @ C                             # half-gradient: d_j . residual per user
    for _ in range(max_sweeps):
        if active.size == 0:
            break
        max_delta = np.zeros(active.size)
        for j in range(K):
            if atom_sq[j] == 0.0:
                continue  # degenerate atom: code stays 0, gradient is zero
            c_j = C[j]
            rho = g[j] + atom_sq[j] * c_j
            new = (rho - np.clip(rho, -threshold, threshold)) / atom_sq[j]  # soft threshold
            delta = new - c_j
            changed = delta != 0.0
            if np.any(changed):
                g -= np.outer(G[:, j], delta)
                c_j[changed] = new[changed]
            np.maximum(max_delta, np.abs(delta), out=max_delta)

        settled = max_delta < tol
        if np.any(settled):
            # Promote settled users only once their KKT certificate holds.
            viol = _kkt_from_half_gradient(g[:, settled], C[:, settled], lam)
            done = settled.copy()
            done[settled] = viol <= KKT_TOL_FACTOR * tol
            if np.any(done):
                codes[:, active[done]] = C[:, done]
                keep = ~done
                active, C, g, H = active[keep], C[:, keep], g[:, keep], H[:, keep]
        _exact_support_step(C, g, H, D, G, lam)

    codes[:, active] = C
    return codes.T.copy()


def update_dictionary(signals: np.ndarray, dictionary: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """One block-coordinate-descent pass over atoms with fixed codes.

    Atoms are refit in index order against the residual and projected onto
    the unit L2 ball; atoms with zero code energy are left unchanged.  The
    reconstruction term never increases.  Returns the new ``(dim, K)`` matrix.
    """
    X = np.asarray(signals, dtype=np.float64)
    D = _stacked(dictionary).copy()
    C = np.asarray(codes, dtype=np.float64)
    if C.shape != (X.shape[0], D.shape[1]):
        raise DictionaryError(f"codes shape {C.shape} does not match signals {X.shape} x atoms {D.shape[1]}")

    A = C.T @ C                  # (K, K) code Gram
    B = X.T @ C                  # (dim, K)
    for j in range(D.shape[1]):
        if A[j, j] <= 0.0:
            continue  # unused atom: no gradient information
        d_j = (B[:, j] - D @ A[:, j] + D[:, j] * A[j, j]) / A[j, j]
        norm = float(np.linalg.norm(d_j))
        if norm > 1.0:
            d_j /= norm
        D[:, j] = d_j
    return D


def learn(signals: np.ndarray, config: LearnConfig) -> LearnResult:
    """Alternating minimization from a seeded row-sample initialization.

    Atoms start as ``n_atoms`` distinct training rows drawn uniformly without
    replacement (PCG64 generator seeded with ``config.seed``), projected onto
    the unit ball.  Sparse coding and dictionary updates then alternate for
    ``outer_iters`` rounds; the objective is recorded after every half-step.
    """
    X = np.asarray(signals, dtype=np.float64)
    if X.ndim != 2:
        raise DictionaryError(f"signals must be 2-D (n, dim), got shape {X.shape}")
    n = X.shape[0]
    if n < config.n_atoms:
        raise DictionaryError(f"need at least {config.n_atoms} training rows, got {n}")

    rng = np.random.default_rng(config.seed)
    chosen = rng.choice(n, size=config.n_atoms, replace=False)
    D = X[chosen].T.astype(np.float64).copy()
    norms = np.linalg.norm(D, axis=0)
    D /= np.maximum(norms, 1.0)

    x_sq = float(np.sum(X * X))
    XD, DtD = X @ D, D.T @ D
    codes = sparse_code_batch(X, D, config.lam, config.lasso_tol, config.lasso_max_sweeps)
    trace = [_gram_objective(x_sq, XD, DtD, codes, config.lam)]
    for _ in range(config.outer_iters):
        D = update_dictionary(X, D, codes)
        XD, DtD = X @ D, D.T @ D
        trace.append(_gram_objective(x_sq, XD, DtD, codes, config.lam))
        codes = sparse_code_batch(X, D, config.lam, config.lasso_tol,
                                  config.lasso_max_sweeps, warm_codes=codes)
        trace.append(_gram_objective(x_sq, XD, DtD, codes, config.lam))

    dictionary = Dictionary(stacked=D, lam=config.lam, seed=config.seed)
    return LearnResult(dictionary=dictionary, codes=codes, objective_trace=tuple(trace))


def embed(signals: np.ndarray, dictionary: Dictionary, lam: float,
          tol: float = LearnConfig.lasso_tol, max_sweeps: int = LearnConfig.lasso_max_sweeps) -> np.ndarray:
    """Sparse codes of arbitrary users against a fixed dictionary.

    Returns the ``(n_users, K)`` code matrix; row ``i`` is the code of signal
    row ``i``.  Pass the ``lam`` the dictionary was trained with to code
    held-out users under the same sparsity pressure as training users.
    """
    return sparse_code_batch(signals, dictionary.stacked, lam, tol, max_sweeps)


# ---------------------------------------------------------------------------
# Persistence: the documented CSV form, plus the plotting export.
# ---------------------------------------------------------------------------

_CSV_FIELDS = ["n_atoms", "channels", "slots", "lambda", "seed"]


def save_dictionary_csv(dictionary: Dictionary, path) -> None:
    """CSV form: two header lines (field names, values) then one row per atom.

    Atom rows are channel-major stacked columns written with ``%.17g``
    (lossless float64 round-trip).
    """
    D = dictionary.stacked
    # Generic dims persist as one channel of ``dim`` slots.
    channels, slots = (N_CHANNELS, SLOTS_PER_WEEK) if dictionary.dim == STACKED_DIM else (1, dictionary.dim)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_CSV_FIELDS) + "\n")
        lam = "" if dictionary.lam is None else repr(float(dictionary.lam))
        seed = "" if dictionary.seed is None else str(dictionary.seed)
        fh.write(f"{dictionary.n_atoms},{channels},{slots},{lam},{seed}\n")
        for j in range(dictionary.n_atoms):
            fh.write(",".join(f"{v:.17g}" for v in D[:, j]) + "\n")


def load_dictionary_csv(path) -> Dictionary:
    """Read :func:`save_dictionary_csv` output; any other content is a :class:`DictionaryError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            values = fh.readline().strip().split(",")
            lines = [line for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise DictionaryError(f"cannot read dictionary {path}: {exc}") from exc
    if header != _CSV_FIELDS or len(values) != len(header):
        raise DictionaryError(f"{path} is not a dictionary CSV (header {header}, values {values})")
    meta = dict(zip(header, values))
    try:
        n_atoms = int(meta["n_atoms"])
        dim = int(meta["channels"]) * int(meta["slots"])
        lam = float(meta["lambda"]) if meta["lambda"] else None
        seed = int(meta["seed"]) if meta["seed"] else None
        if len(lines) != n_atoms:
            raise DictionaryError(f"dictionary file {path} has {len(lines)} atom rows, header says {n_atoms}")
        D = np.vstack([np.array(line.split(","), dtype=np.float64) for line in lines]).T
    except ValueError as exc:
        raise DictionaryError(f"dictionary file {path} is malformed: {exc}") from exc
    if D.shape != (dim, n_atoms):
        raise DictionaryError(f"dictionary file {path} has shape {D.shape}, header says ({dim}, {n_atoms})")
    return Dictionary(stacked=D, lam=lam, seed=seed)


def export_atoms_csv(dictionary: Dictionary, path) -> None:
    """Plot-ready long format: ``atom,channel,slot,value`` rows."""
    atoms = dictionary.atoms  # validates the channel view
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("atom,channel,slot,value\n")
        for k in range(dictionary.n_atoms):
            for ci, channel in enumerate(CHANNELS):
                for t in range(SLOTS_PER_WEEK):
                    fh.write(f"{k},{channel},{t},{float(atoms[k, ci, t])!r}\n")

