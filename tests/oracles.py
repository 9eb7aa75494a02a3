"""Independent reference implementations used to check the solvers.

Nothing here shares code with the package's optimization paths: the lasso
oracle is an exhaustive box-refinement search, the KKT check walks the
coordinates one by one, the orthonormal form is the textbook closed form, and
recovery matching enumerates permutations.
"""

import itertools

import numpy as np


def lasso_objective(s, D, code, lam):
    r = s - D @ code
    return float(r @ r + lam * np.abs(code).sum())


def kkt_violation(s, D, code, lam):
    """Worst subgradient-optimality violation of one lasso code, coordinate by coordinate.

    The smooth-term gradient is ``g = -2 D^T (s - D c)``; optimality needs
    ``|g_k| <= lam`` where ``c_k == 0`` and ``g_k == -lam * sign(c_k)`` elsewhere.
    """
    g = -2.0 * D.T @ (s - D @ code)
    worst = 0.0
    for g_k, c_k in zip(g, code):
        excess = abs(g_k) - lam if c_k == 0.0 else abs(g_k + lam * np.sign(c_k))
        worst = max(worst, float(excess))
    return worst


def orthonormal_lasso(s, D, lam):
    """Closed form for orthonormal atoms: soft-threshold the correlations."""
    rho = D.T @ s
    return np.sign(rho) * np.maximum(np.abs(rho) - lam / 2.0, 0.0)


def grid_refine_lasso(s, D, lam, rounds=14, points=21):
    """Global minimum by exhaustive grid refinement (K <= 3 only).

    Each round evaluates a full points^K mesh in a box around the incumbent,
    then shrinks the box to a few steps around the best point; convexity keeps
    the optimum inside.  Returns (code, objective).
    """
    K = D.shape[1]
    assert K <= 3, "oracle is exponential in K"
    # Generous initial box around the unregularized solution.
    base = np.linalg.pinv(D) @ s
    half = 2.0 * max(1.0, float(np.abs(base).max()))
    center = np.zeros(K)

    best_code, best_obj = center.copy(), lasso_objective(s, D, center, lam)
    for _ in range(rounds):
        axes = [np.linspace(center[k] - half, center[k] + half, points) for k in range(K)]
        mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        residuals = s[None, :] - mesh @ D.T
        objs = np.einsum("ij,ij->i", residuals, residuals) + lam * np.abs(mesh).sum(axis=1)
        i = int(np.argmin(objs))
        if objs[i] < best_obj:
            best_obj, best_code = float(objs[i]), mesh[i].copy()
        center = mesh[i]
        step = 2.0 * half / (points - 1)
        half = 2.5 * step
    return best_code, best_obj


def best_permutation_correlations(true_atoms, learned_atoms):
    """Max over atom permutations of the per-pair |cosine|, as matched pairs.

    Both inputs are (dim, K) column matrices.  Returns the K matched
    |correlation| values of the best permutation (the one maximizing the
    minimum pair correlation).
    """
    def unit(M):
        norms = np.linalg.norm(M, axis=0)
        return M / np.where(norms == 0, 1.0, norms)

    corr = np.abs(unit(true_atoms).T @ unit(learned_atoms))
    K = corr.shape[0]
    best = None
    for perm in itertools.permutations(range(K)):
        matched = np.array([corr[i, perm[i]] for i in range(K)])
        if best is None or matched.min() > best.min():
            best = matched
    return best


def planted_instance(rng, n=240, dim=96, n_atoms=3, noise=0.01, single_frac=0.6):
    """Signals built from random orthonormal atoms with sparse positive codes."""
    basis, _ = np.linalg.qr(rng.normal(size=(dim, n_atoms)))
    codes = np.zeros((n, n_atoms))
    for i in range(n):
        k = 1 if rng.random() < single_frac else 2
        chosen = rng.choice(n_atoms, size=k, replace=False)
        codes[i, chosen] = rng.uniform(0.7, 1.5, size=k)
    X = codes @ basis.T + rng.normal(0, noise, size=(n, dim))
    return X, basis, codes


def pair_counting_auc(scores, labels):
    """ROC AUC by brute-force pair enumeration; ties count one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = ties = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1
            elif p == q:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))
