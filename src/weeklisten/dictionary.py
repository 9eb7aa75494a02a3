"""Sparse dictionary learning over stacked weekly signals.

Learns K multichannel atoms D and per-user sparse codes by alternating
minimization of

    sum_c ||S_c - D_c G||_F^2 + lam * ||G||_1

where the channel sum equals the Frobenius norm of the channel-major stacked
matrices, so everything below runs on plain ``(dim, K)`` dictionaries and
``(n, dim)`` signal rows (``dim`` is 672 in production, anything in tests).

Sparse coding, vectorized across users, mixes exact steps on a user's
support (the reduced least-squares system, stacked by support size, stopped at
the first sign change, kept only if the objective does not rise) with
Gauss–Southwell steps, the closed-form soft-threshold update of each user's
most KKT-violating coordinate, which find the support and signs.  A pass
opens with an exact step on the warm start, then runs rounds of one
Gauss–Southwell step and one exact step; a user retires once its KKT residual
is within ``KKT_TOL_FACTOR * tol``, checked after every exact step, so a user
whose support and signs survive a dictionary update costs one solve and no
round (the feature-sign idea of Lee, Battle, Raina and Ng, "Efficient sparse
coding algorithms", NIPS 2007; on picking the most violated coordinate see
Nutini et al., "Coordinate descent converges faster with the Gauss-Southwell
rule than random selection", ICML 2015).  The dictionary half-step is block
coordinate descent over atoms with unit-L2-ball projection.  Both half-steps
never increase the objective, which the learner records after every half-step
from Gram statistics (:func:`objective`).  :func:`sparse_code_batch` is the one
coder (a single signal is a batch of one row) and :func:`kkt_residuals`
certifies its codes.

The dictionary persists as ``dictionary.csv``.  :func:`embed` returns the
``(n, K)`` code matrix, which hands off like signals: a user-index file plus a
``.npy`` matrix (:func:`weeklisten.storage.save_indexed_matrix`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PipelineError
from .signals import CHANNELS, N_CHANNELS, SLOTS_PER_WEEK

STACKED_DIM = N_CHANNELS * SLOTS_PER_WEEK

#: A code is certified (and its user retired) once its KKT residual is within this times ``tol``.
KKT_TOL_FACTOR = 10.0

#: Users per stacked exact-step solve, so the (block, size, size) systems stay a few MB.
SOLVE_BLOCK = 1024


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
            raise PipelineError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if self.outer_iters < 0:
            raise PipelineError(f"outer_iters must be >= 0, got {self.outer_iters}")


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
            raise PipelineError(f"channel view needs dim {STACKED_DIM}, this dictionary has {self.dim}")
        return self.stacked.T.reshape(self.n_atoms, N_CHANNELS, SLOTS_PER_WEEK)


@dataclass(frozen=True)
class LearnResult:
    dictionary: Dictionary
    codes: np.ndarray                 # (n_rows, K), aligned with the training rows
    objective_trace: tuple[float, ...]  # objective after every half-step


def _stacked(dictionary: np.ndarray) -> np.ndarray:
    mat = np.asarray(dictionary, dtype=np.float64)
    if mat.ndim != 2:
        raise PipelineError(f"dictionary must be 2-D (dim, K), got shape {mat.shape}")
    return mat


def objective(x_sq: float, XD: np.ndarray, DtD: np.ndarray, codes: np.ndarray, lam: float) -> float:
    """``||X - C D^T||_F^2 + lam * ||C||_1`` from ``||X||^2``, ``X D`` and ``D^T D``.

    No ``(n, dim)`` residual is formed.  :func:`learn` records the value after
    every half-step, from the Gram statistics its coder uses.
    """
    C = np.asarray(codes, dtype=np.float64)
    if C.ndim != 2 or XD.shape != C.shape or DtD.shape != (C.shape[1], C.shape[1]):
        raise PipelineError(f"shape mismatch: X D {XD.shape}, D^T D {DtD.shape}, codes {C.shape}")
    return float(x_sq - 2.0 * np.sum(C * XD) + np.sum(C * (C @ DtD)) + lam * np.sum(np.abs(C)))


def _kkt_violations(g: np.ndarray, C: np.ndarray, lam: float) -> np.ndarray:
    """Per-coordinate KKT violation given the half-gradient ``g = S D - C D^T D`` (so grad = -2g)."""
    grad = -2.0 * g
    viol = np.abs(grad + lam * np.sign(C))
    np.copyto(viol, np.maximum(np.abs(grad) - lam, 0.0), where=C == 0.0)
    return viol


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
        raise PipelineError(f"shape mismatch: signals {X.shape}, dictionary {D.shape}, codes {C.shape}")
    return _kkt_violations(X @ D - C @ (D.T @ D), C, lam).max(axis=1, initial=0.0)


def _exact_support_step(C: np.ndarray, g: np.ndarray, H: np.ndarray, G: np.ndarray,
                        D: np.ndarray, lam: float) -> None:
    """Move each user (row) toward the exact lasso solution on its current support.

    With support ``S`` and signs fixed, the optimum solves
    ``G_SS c_S = H_S - (lam / 2) sign(c_S)``.  The step stops at the first
    support coordinate whose sign would flip (that coordinate becomes exactly
    0) and is kept only where the user's objective does not increase, so a
    singular or ill-conditioned ``G_SS`` cannot undo coordinate descent.
    Where ``G_SS`` is singular (duplicate atoms, or more support atoms than
    ``D`` has rank), the fit is fixed along its null space and the step
    follows it the way the penalty falls, until a coordinate reaches 0.
    ``C``, ``g = H - C G`` and ``H`` are ``(n, K)`` with one row per user;
    ``C`` and ``g`` are updated in place, ``g`` recomputed from ``H``.
    """
    n, K = C.shape
    roundoff = (D.shape[0] + K) * np.finfo(np.float64).eps  # relative rounding error of G
    # Users sorted by support size, so the systems of each size stack without padding;
    # (users, atoms) lists every support coordinate, one size after another.
    nonzero = C != 0.0
    count = np.count_nonzero(nonzero, axis=1)
    order = np.argsort(count, kind="stable")
    rows, atoms = np.nonzero(nonzero[order])
    users = order[rows]
    rhs = H[users, atoms] - (lam / 2.0) * np.sign(C[users, atoms])
    sol = np.empty_like(rhs)
    start = 0
    with np.errstate(all="ignore"):
        for size, n_size in enumerate(np.bincount(count, minlength=K + 1)):
            for first in range(0, n_size if size else 0, SOLVE_BLOCK):
                end = start + min(SOLVE_BLOCK, n_size - first) * size
                idx = atoms[start:end].reshape(-1, size)
                M = G.ravel()[idx[:, :, None] * K + idx[:, None, :]]
                b = rhs[start:end].reshape(-1, size, 1)
                try:
                    sol[start:end] = np.linalg.solve(M, b).ravel()
                except np.linalg.LinAlgError:  # exactly singular G_SS, e.g. duplicate atoms
                    # A ridge at G's rounding error sends a singular system's solution
                    # far along the null space, the way the penalty falls.
                    ridge = roundoff * np.trace(M, axis1=1, axis2=2)[:, None, None] * np.eye(size)
                    sol[start:end] = (np.linalg.pinv(M + ridge) @ b).ravel()
                start = end
        z = np.zeros((n, K))
        z[users, atoms] = sol
        new, change, flat = _line_search(C, z - C, g, G, D, lam, roundoff)
        # Where the fit does not change along the step (G_SS singular to rounding, so
        # the solve's sign along the null space is arbitrary), the objective is
        # linear in the step: if it rises one way, it falls the other.
        back = np.flatnonzero(flat & (change > 0.0))
        if back.size:
            new[back], change[back], _ = _line_search(C[back], C[back] - z[back], g[back],
                                                      G, D, lam, roundoff)
    np.copyto(C, new, where=(change <= 0.0)[:, None])
    np.subtract(H, C @ G, out=g)


def _line_search(C: np.ndarray, direction: np.ndarray, g: np.ndarray, G: np.ndarray, D: np.ndarray,
                 lam: float, roundoff: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of ``C`` moved along ``direction``: at most to ``C + direction``, and only to a sign change.

    Returns the moved rows, their objective changes
    ``step.G.step - 2 step.g + lam (|new|_1 - |c|_1)`` and the rows whose
    ``step.G.step`` is within rounding of zero (``G`` near singular along the
    step, where it can round negative), summed in signal space instead.
    """
    # A support coordinate of c + t d changes sign at t = -c / d; it stops there, at 0.
    cross = np.where((C != 0.0) & (C * direction < 0.0), -C / direction, np.inf)
    t = cross.min(axis=1, initial=1.0)[:, None]
    new = C + t * direction
    new[cross <= t] = 0.0
    step = new - C
    quad = np.einsum("ij,ij->i", step @ G, step)
    flat = quad <= roundoff * (np.abs(step) @ np.sqrt(np.diagonal(G))) ** 2
    if np.any(flat):
        fit = step[flat] @ D.T
        quad[flat] = np.einsum("ij,ij->i", fit, fit)
    change = (quad - 2.0 * np.einsum("ij,ij->i", step, g)
              + lam * (np.abs(new).sum(axis=1) - np.abs(C).sum(axis=1)))
    return new, change, flat


def sparse_code_batch(signals: np.ndarray, dictionary: np.ndarray, lam: float,
                      tol: float = LearnConfig.lasso_tol, max_sweeps: int = LearnConfig.lasso_max_sweeps,
                      warm_codes: np.ndarray | None = None,
                      gram: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Lasso codes for every signal row: exact support steps plus Gauss–Southwell steps.

    Runs in covariance form: with ``H = S D`` and ``G = D^T D`` precomputed,
    every update touches K-vectors instead of dim-vectors.  Each user's
    problem is independent; they are solved together for speed.  A pass opens
    with one exact step on the warm support (see :func:`_exact_support_step`).
    Then each round gives every open user one Gauss–Southwell step, the
    closed-form soft-threshold update of its most KKT-violating coordinate,
    and another exact step.  A user retires as soon as its KKT violation is
    within ``KKT_TOL_FACTOR * tol``, checked after every exact step, so a user
    whose warm support and signs are still optimal costs one solve and no
    round.  ``max_sweeps`` caps the rounds, so a pass makes at most
    ``1 + max_sweeps`` exact steps.  Codes of zero-norm atoms are 0.

    ``warm_codes``, if given, is an ``(n, K)`` start.  ``gram``, if given, is
    ``(signals @ dictionary, dictionary.T @ dictionary)`` already computed by
    the caller, as :func:`learn` has them for its objective.
    """
    if not 0 <= lam < np.inf:
        raise PipelineError(f"lam must be finite and >= 0, got {lam}")
    if not 0 < tol < np.inf:
        raise PipelineError(f"lasso tolerance must be finite and > 0, got {tol}")
    if not max_sweeps >= 1:
        raise PipelineError(f"lasso sweep cap must be >= 1, got {max_sweeps}")
    X = np.asarray(signals, dtype=np.float64)
    if X.ndim != 2:
        raise PipelineError(f"signals must be 2-D (n, dim), got shape {X.shape}")
    if not np.isfinite(X).all():
        raise PipelineError("non-finite values in signals")
    D = _stacked(dictionary)
    if not np.isfinite(D).all():
        raise PipelineError("non-finite values in dictionary")
    n, dim = X.shape
    if D.shape[0] != dim:
        raise PipelineError(f"dictionary dim {D.shape[0]} does not match signals dim {dim}")
    K = D.shape[1]
    if warm_codes is None:
        codes = np.zeros((n, K))
    else:
        codes = np.array(warm_codes, dtype=np.float64)
        if codes.shape != (n, K):
            raise PipelineError(f"warm codes shape {codes.shape} does not match {n} signals x {K} atoms")
        if not np.isfinite(codes).all():
            raise PipelineError("non-finite values in warm codes")
    if gram is None:
        H, G = X @ D, D.T @ D
    else:
        H, G = (np.asarray(a, dtype=np.float64) for a in gram)
        if H.shape != (n, K) or G.shape != (K, K):
            raise PipelineError(f"gram shapes {H.shape}, {G.shape} do not match {n} signals x {K} atoms")

    atom_sq = np.diagonal(G)                  # ||d_j||^2
    codes[:, atom_sq == 0.0] = 0.0            # the penalty alone decides a zero atom's code
    threshold = lam / 2.0
    bound = KKT_TOL_FACTOR * tol

    # Open users' rows, compacted as users retire; codes[active] is stale until then.
    active, C = np.arange(n), codes
    g = H - C @ G                             # half-gradient: d_j . residual per user
    for round_ in range(max_sweeps + 1):
        if round_:
            # Gauss–Southwell: every open user moves its most violating coordinate (never
            # a zero atom's, whose violation is 0) to its closed-form minimizer.
            rows = np.arange(active.size)
            j = viol.argmax(axis=1)
            c_j = C[rows, j]
            rho = g[rows, j] + atom_sq[j] * c_j
            new = (rho - np.clip(rho, -threshold, threshold)) / atom_sq[j]  # soft threshold
            C[rows, j] = new
            g -= (new - c_j)[:, None] * G[j]
        _exact_support_step(C, g, H, G, D, lam)
        viol = _kkt_violations(g, C, lam)
        done = viol.max(axis=1, initial=0.0) <= bound
        codes[active[done]] = C[done]
        keep = ~done
        active, C, g, H, viol = active[keep], C[keep], g[keep], H[keep], viol[keep]
        if active.size == 0:
            break

    codes[active] = C
    return codes


def update_dictionary(signals: np.ndarray, dictionary: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """One block-coordinate-descent pass over atoms with fixed codes.

    Atoms are refit in index order against the residual and projected onto
    the unit L2 ball; atoms with zero code energy are left unchanged.  The
    reconstruction term never increases.  Returns the new ``(dim, K)`` matrix.
    """
    X = np.asarray(signals, dtype=np.float64)
    Dt = _stacked(dictionary).T.copy()   # (K, dim): one contiguous row per atom
    C = np.asarray(codes, dtype=np.float64)
    if C.shape != (X.shape[0], Dt.shape[0]):
        raise PipelineError(f"codes shape {C.shape} does not match signals {X.shape} x atoms {Dt.shape[0]}")

    A = C.T @ C                  # (K, K) code Gram
    Bt = C.T @ X                 # (K, dim)
    for j in range(Dt.shape[0]):
        a = A[j, j]
        if a <= 0.0:
            continue  # unused atom: no gradient information
        d_j = (Bt[j] - np.dot(A[j], Dt) + Dt[j] * a) / a
        norm = math.sqrt(np.dot(d_j, d_j))
        if norm > 1.0:
            d_j /= norm
        Dt[j] = d_j
    return Dt.T.copy()


def learn(signals: np.ndarray, config: LearnConfig) -> LearnResult:
    """Alternating minimization from a seeded row-sample initialization.

    Atoms start as ``n_atoms`` distinct training rows drawn uniformly without
    replacement (PCG64 generator seeded with ``config.seed``), projected onto
    the unit ball.  Sparse coding and dictionary updates then alternate for
    ``outer_iters`` rounds; the objective is recorded after every half-step.
    """
    X = np.asarray(signals, dtype=np.float64)
    if X.ndim != 2:
        raise PipelineError(f"signals must be 2-D (n, dim), got shape {X.shape}")
    n = X.shape[0]
    if n < config.n_atoms:
        raise PipelineError(f"need at least {config.n_atoms} training rows, got {n}")

    rng = np.random.default_rng(config.seed)
    chosen = rng.choice(n, size=config.n_atoms, replace=False)
    D = X[chosen].T.astype(np.float64).copy()
    norms = np.linalg.norm(D, axis=0)
    D /= np.maximum(norms, 1.0)

    x_sq = float(np.sum(X * X))
    XD, DtD = X @ D, D.T @ D
    codes = sparse_code_batch(X, D, config.lam, config.lasso_tol, config.lasso_max_sweeps,
                              gram=(XD, DtD))
    trace = [objective(x_sq, XD, DtD, codes, config.lam)]
    for _ in range(config.outer_iters):
        D = update_dictionary(X, D, codes)
        XD, DtD = X @ D, D.T @ D
        trace.append(objective(x_sq, XD, DtD, codes, config.lam))
        codes = sparse_code_batch(X, D, config.lam, config.lasso_tol, config.lasso_max_sweeps,
                                  warm_codes=codes, gram=(XD, DtD))
        trace.append(objective(x_sq, XD, DtD, codes, config.lam))

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
    """Read :func:`save_dictionary_csv` output; any other content is a :class:`PipelineError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            values = fh.readline().strip().split(",")
            lines = [line for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise PipelineError(f"cannot read dictionary {path}: {exc}") from exc
    if header != _CSV_FIELDS or len(values) != len(header):
        raise PipelineError(f"{path} is not a dictionary CSV (header {header}, values {values})")
    meta = dict(zip(header, values))
    try:
        n_atoms = int(meta["n_atoms"])
        dim = int(meta["channels"]) * int(meta["slots"])
        lam = float(meta["lambda"]) if meta["lambda"] else None
        seed = int(meta["seed"]) if meta["seed"] else None
        if len(lines) != n_atoms:
            raise PipelineError(f"dictionary file {path} has {len(lines)} atom rows, header says {n_atoms}")
        D = np.vstack([np.array(line.split(","), dtype=np.float64) for line in lines]).T
    except ValueError as exc:
        raise PipelineError(f"dictionary file {path} is malformed: {exc}") from exc
    if D.shape != (dim, n_atoms):
        raise PipelineError(f"dictionary file {path} has shape {D.shape}, header says ({dim}, {n_atoms})")
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

