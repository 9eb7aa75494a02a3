import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weeklisten import cli, dictionary, storage
from weeklisten.errors import DictionaryError

from conftest import sparse_code
from oracles import (best_permutation_correlations, dictionary_objective, grid_refine_lasso,
                     kkt_violation, lasso_objective, orthonormal_lasso, planted_instance)


def unit_vector(dim, seed=0):
    v = np.random.default_rng(seed).normal(size=dim)
    return v / np.linalg.norm(v)


# -- objective -----------------------------------------------------------------

def gram_objective(X, D, C, lam):
    """The objective as ``learn`` records it, from ``||X||^2``, ``X D`` and ``D^T D``."""
    return dictionary._gram_objective(float(np.sum(X * X)), X @ D, D.T @ D, C, lam)


def test_objective_zero_codes_is_signal_energy(rng):
    X = rng.normal(size=(5, 12))
    D = rng.normal(size=(12, 3))
    C = np.zeros((5, 3))
    assert dictionary_objective(X, D, C, 1.0) == pytest.approx(np.sum(X * X))
    assert gram_objective(X, D, C, 1.0) == pytest.approx(np.sum(X * X))


def test_objective_exact_reconstruction(rng):
    d = unit_vector(10)
    gamma = rng.normal(size=6)
    X = np.outer(gamma, d)
    assert dictionary_objective(X, d[:, None], gamma[:, None], 0.0) == pytest.approx(0.0, abs=1e-22)
    # The Gram form cancels ||X||^2 against 2 tr(C^T X D), so it is exact only up to rounding of ||X||^2.
    assert gram_objective(X, d[:, None], gamma[:, None], 0.0) == pytest.approx(0.0, abs=1e-12 * np.sum(X * X))


def test_objective_linear_in_lambda(rng):
    X = rng.normal(size=(4, 8))
    D = rng.normal(size=(8, 2))
    C = rng.normal(size=(4, 2))
    lam = 0.7
    for objective in (dictionary_objective, gram_objective, dictionary.objective):
        delta = objective(X, D, C, 2 * lam) - objective(X, D, C, lam)
        assert delta == pytest.approx(lam * np.abs(C).sum())
    assert gram_objective(X, D, C, lam) == pytest.approx(dictionary_objective(X, D, C, lam), rel=1e-12)
    assert dictionary.objective(X, D, C, lam) == pytest.approx(dictionary_objective(X, D, C, lam), rel=1e-12)


def test_objective_shape_mismatch_is_fatal(rng):
    with pytest.raises(DictionaryError, match="shape"):
        dictionary.objective(rng.normal(size=(4, 8)), rng.normal(size=(8, 2)),
                             rng.normal(size=(4, 3)), 1.0)


def test_kkt_residuals_shape_mismatch_is_fatal(rng):
    with pytest.raises(DictionaryError, match="shape"):
        dictionary.kkt_residuals(rng.normal(size=(4, 8)), rng.normal(size=(8, 2)),
                                 rng.normal(size=(4, 3)), 1.0)


# -- sparse_code ----------------------------------------------------------------

def test_sparse_code_single_unit_atom_closed_form():
    d = unit_vector(16, seed=1)
    code = sparse_code(2.0 * d, d[:, None], lam=1.0)
    assert code.shape == (1,)
    assert code[0] == pytest.approx(1.5, abs=1e-9)


def test_sparse_code_zero_signal():
    D = np.random.default_rng(2).normal(size=(16, 3))
    assert np.all(sparse_code(np.zeros(16), D, lam=0.5) == 0.0)


def test_sparse_code_orthonormal_matches_closed_form(rng):
    D, _ = np.linalg.qr(rng.normal(size=(12, 4)))
    s = rng.normal(size=12)
    for lam in (0.0, 0.5, 2.0):
        code = sparse_code(s, D, lam)
        assert np.allclose(code, orthonormal_lasso(s, D, lam), atol=1e-8)


def test_sparse_code_matches_grid_oracle(rng):
    for trial in range(20):
        K = int(rng.integers(1, 4))
        D = rng.normal(size=(8, K))
        s = rng.normal(size=8)
        lam = float(rng.choice([0.0, 0.5, 2.0]))
        code = sparse_code(s, D, lam)
        _, oracle_obj = grid_refine_lasso(s, D, lam)
        assert lasso_objective(s, D, code, lam) <= oracle_obj + 1e-5


def test_sparse_code_rejects_non_finite():
    with pytest.raises(DictionaryError, match="non-finite"):
        sparse_code(np.array([1.0, np.nan]), np.eye(2), 0.1)


def test_sparse_code_batch_equals_row_wise(rng):
    D = rng.normal(size=(10, 4))
    X = rng.normal(size=(7, 10))
    batch = dictionary.sparse_code_batch(X, D, 0.8)
    for i in range(7):
        assert np.allclose(batch[i], sparse_code(X[i], D, 0.8), atol=1e-7)


@given(seed=st.integers(0, 10_000), lam=st.sampled_from([0.0, 0.3, 1.0, 4.0]))
@settings(max_examples=60, deadline=None)
def test_sparse_code_kkt_certificate(seed, lam):
    rng = np.random.default_rng(seed)
    K = int(rng.integers(1, 6))
    D = rng.normal(size=(12, K))
    s = rng.normal(size=12) * rng.uniform(0.5, 3.0)
    tol = 1e-8
    code = sparse_code(s, D, lam, tol=tol)
    assert kkt_violation(s, D, code, lam) <= dictionary.KKT_TOL_FACTOR * tol


def correlated_atoms(rng, dim=8, K=3, spread=0.3):
    """Unit atoms with pairwise correlations near 0.9, where cyclic CD crawls."""
    base = rng.normal(size=dim)
    D = np.column_stack([base + spread * rng.normal(size=dim) for _ in range(K)])
    return D / np.linalg.norm(D, axis=0)


def assert_coded_against_oracles(X, D, lam, codes):
    """KKT certificate and grid-oracle objective for every row."""
    for s, code in zip(X, codes):
        assert kkt_violation(s, D, code, lam) <= dictionary.KKT_TOL_FACTOR * 1e-8
        _, oracle_obj = grid_refine_lasso(s, D, lam)
        assert lasso_objective(s, D, code, lam) <= oracle_obj + 1e-7


def test_sparse_code_wrong_sign_warm_start_is_clipped(rng):
    # Warm codes with every sign flipped and zeros filled in: the exact support
    # step has to stop where a sign changes, and still finishes in a few sweeps
    # (cyclic CD alone needs hundreds on atoms this correlated).
    D = correlated_atoms(np.random.default_rng(12))
    X = np.random.default_rng(13).normal(size=(6, 8)) * 2
    lam = 0.5
    optimum = np.vstack([sparse_code(s, D, lam) for s in X])
    warm = -2.0 * optimum + np.where(optimum == 0.0, 1.5, 0.0)
    codes = dictionary.sparse_code_batch(X, D, lam, max_sweeps=8, warm_codes=warm)
    assert_coded_against_oracles(X, D, lam, codes)
    assert np.allclose(codes, optimum, atol=1e-7)


@pytest.mark.parametrize("gap", [0.0, 1e-10])
def test_sparse_code_duplicate_atoms_singular_support(gap):
    # Both copies of an atom in the warm support make G_SS singular (or, a
    # hair apart, singular to rounding; with this seed some rows' solves then
    # overshoot by ~1e10).  No sweep may raise the objective.  The optimum's
    # split between the copies is not unique, its objective and reconstruction are.
    rng = np.random.default_rng(17)
    D = correlated_atoms(rng, K=2, spread=1.0)
    D = np.column_stack([D[:, 0], D[:, 0] + gap * rng.normal(size=8), D[:, 1]])
    X = rng.normal(size=(40, 8)) * 2
    lam = 0.3
    warm = rng.uniform(0.1, 3.0, size=X.shape[:1] + (3,)) * rng.choice([-1.0, 1.0], size=(40, 3))
    before = [lasso_objective(s, D, c, lam) for s, c in zip(X, warm)]
    for sweeps in range(1, 6):
        codes = dictionary.sparse_code_batch(X, D, lam, max_sweeps=sweeps, warm_codes=warm)
        after = [lasso_objective(s, D, c, lam) for s, c in zip(X, codes)]
        assert np.all(np.array(after) <= np.array(before) + 1e-9)
        before = after
    codes = dictionary.sparse_code_batch(X, D, lam, warm_codes=warm)
    assert_coded_against_oracles(X, D, lam, codes)
    for s, code in zip(X, codes):
        cold = sparse_code(s, D, lam)
        assert lasso_objective(s, D, code, lam) == pytest.approx(lasso_objective(s, D, cold, lam),
                                                                 abs=1e-7)
        assert np.allclose(D @ code, D @ cold, atol=1e-7)


def test_sparse_code_zero_atom_drops_warm_code(rng):
    D = correlated_atoms(rng, K=2, spread=1.0)
    D = np.column_stack([D[:, 0], np.zeros(8), D[:, 1]])
    X = rng.normal(size=(5, 8)) * 2
    lam = 0.3
    warm = np.tile([0.2, 3.0, -0.4], (5, 1))
    codes = dictionary.sparse_code_batch(X, D, lam, warm_codes=warm)
    assert np.all(codes[:, 1] == 0.0)
    assert_coded_against_oracles(X, D, lam, codes)
    for s, code in zip(X, codes):
        assert np.allclose(code, sparse_code(s, D, lam), atol=1e-7)


def test_sparsity_monotone_in_lambda(rng):
    D = rng.normal(size=(24, 6))
    s = rng.normal(size=24) * 2
    nnz = [np.count_nonzero(sparse_code(s, D, lam))
           for lam in (0.0, 0.3, 1.0, 3.0, 10.0, 40.0)]
    assert all(a >= b for a, b in zip(nnz, nnz[1:]))
    assert nnz[-1] == 0 or nnz[0] > nnz[-1]  # strong enough penalty empties the code


# -- update_dictionary -----------------------------------------------------------

def test_update_dictionary_mean_signal_with_ball_projection(rng):
    for scale in (0.5, 3.0):
        v = unit_vector(20, seed=7) * scale
        X = np.tile(v, (9, 1))
        C = np.ones((9, 1))
        D0 = rng.normal(size=(20, 1))
        D1 = dictionary.update_dictionary(X, D0 / np.linalg.norm(D0), C)
        expected = v / max(1.0, np.linalg.norm(v))
        assert np.allclose(D1[:, 0], expected, atol=1e-12)


def test_update_dictionary_keeps_unused_atom(rng):
    X = rng.normal(size=(6, 10))
    D = rng.normal(size=(10, 3))
    D /= np.linalg.norm(D, axis=0)
    C = rng.normal(size=(6, 3))
    C[:, 1] = 0.0
    D1 = dictionary.update_dictionary(X, D, C)
    assert np.array_equal(D1[:, 1], D[:, 1])
    assert not np.array_equal(D1[:, 0], D[:, 0])


def test_update_dictionary_never_increases_reconstruction(rng):
    for _ in range(10):
        X = rng.normal(size=(15, 12))
        D = rng.normal(size=(12, 4))
        D /= np.maximum(np.linalg.norm(D, axis=0), 1.0)
        C = dictionary.sparse_code_batch(X, D, 0.5)
        before = dictionary_objective(X, D, C, 0.0)
        after = dictionary_objective(X, dictionary.update_dictionary(X, D, C), C, 0.0)
        assert after <= before + 1e-9 * max(1.0, before)


def test_update_dictionary_norm_bound(rng):
    X = rng.normal(size=(30, 16)) * 5
    D = rng.normal(size=(16, 5))
    C = dictionary.sparse_code_batch(X, D, 0.1)
    D1 = dictionary.update_dictionary(X, D, C)
    assert np.linalg.norm(D1, axis=0).max() <= 1.0 + 1e-9


# -- learn / embed ----------------------------------------------------------------

def small_planted(seed=0):
    rng = np.random.default_rng(seed)
    return planted_instance(rng, n=150, dim=64, n_atoms=3, noise=0.01)


def test_learn_recovers_planted_atoms():
    # Sparsity pressure comparable to the planted code scale; weak lambda
    # settles in rotated local optima instead.
    X, basis, _ = small_planted(4)
    config = dictionary.LearnConfig(n_atoms=3, lam=0.4, outer_iters=40, seed=11)
    result = dictionary.learn(X, config)
    matched = best_permutation_correlations(basis, result.dictionary.stacked)
    assert matched.min() >= 0.99


def test_learn_objective_trace_monotone():
    X, _, _ = small_planted(5)
    result = dictionary.learn(X, dictionary.LearnConfig(n_atoms=4, lam=0.3, outer_iters=12, seed=2))
    trace = np.array(result.objective_trace)
    assert len(trace) == 1 + 2 * 12
    assert np.all(np.diff(trace) <= 1e-7 * trace[:-1])


def test_learn_trace_agrees_with_objective(rng):
    # learn records the objective from ||X||^2, X D and D^T D instead of the residual.
    X = rng.normal(size=(60, 20))
    result = dictionary.learn(X, dictionary.LearnConfig(n_atoms=5, lam=0.5, outer_iters=3, seed=4))
    direct = dictionary_objective(X, result.dictionary.stacked, result.codes, 0.5)
    assert result.objective_trace[-1] == pytest.approx(direct, rel=1e-10)


def test_learn_zero_outer_iters_returns_initialization():
    X, _, _ = small_planted(6)
    config = dictionary.LearnConfig(n_atoms=3, lam=0.2, outer_iters=0, seed=9)
    result = dictionary.learn(X, config)
    assert len(result.objective_trace) == 1
    # Initial atoms are ball-projected training rows chosen with the seed.
    rng = np.random.default_rng(9)
    chosen = rng.choice(len(X), size=3, replace=False)
    expected = X[chosen].T / np.maximum(np.linalg.norm(X[chosen].T, axis=0), 1.0)
    assert np.array_equal(result.dictionary.stacked, expected)
    # Memory layout of `expected` differs from learn's internal copy, so the
    # recomputed codes can drift by BLAS ulps; the contract is semantic.
    codes = dictionary.sparse_code_batch(X, expected, 0.2)
    assert np.allclose(result.codes, codes, atol=1e-9)


def test_learn_is_deterministic():
    X, _, _ = small_planted(7)
    config = dictionary.LearnConfig(n_atoms=3, lam=0.4, outer_iters=5, seed=3)
    a = dictionary.learn(X, config)
    b = dictionary.learn(X, config)
    assert np.array_equal(a.dictionary.stacked, b.dictionary.stacked)
    assert np.array_equal(a.codes, b.codes)
    assert a.objective_trace == b.objective_trace


def test_learn_needs_enough_rows():
    with pytest.raises(DictionaryError, match="at least"):
        dictionary.learn(np.zeros((2, 8)), dictionary.LearnConfig(n_atoms=3))


def test_learn_atom_norms_bounded():
    X, _, _ = small_planted(8)
    result = dictionary.learn(X, dictionary.LearnConfig(n_atoms=5, lam=0.1, outer_iters=8, seed=1))
    assert np.linalg.norm(result.dictionary.stacked, axis=0).max() <= 1.0 + 1e-9


def test_embed_training_rows_match_learned_codes():
    # Cold-start coding against the final dictionary lands on the warm-started
    # codes the learner returned (same convex problem instance).
    X, _, _ = small_planted(9)
    result = dictionary.learn(X, dictionary.LearnConfig(n_atoms=3, lam=0.2, outer_iters=20, seed=5))
    codes = dictionary.sparse_code_batch(X, result.dictionary.stacked, 0.2)
    assert np.allclose(codes, result.codes, atol=1e-6)


def test_embed_zero_row_and_duplicates():
    X, _, _ = small_planted(10)
    result = dictionary.learn(X, dictionary.LearnConfig(n_atoms=3, lam=0.2, outer_iters=5, seed=5))
    rows = np.vstack([np.zeros(X.shape[1]), X[0], X[0]])
    codes = dictionary.sparse_code_batch(rows, result.dictionary.stacked, 0.2)
    assert np.all(codes[0] == 0.0)
    assert np.array_equal(codes[1], codes[2])


def test_embed_uses_dictionary_lambda(rng, tmp_path, capsys):
    # The embed command codes under the dictionary's training lambda unless
    # --lambda overrides it; a dictionary that records none needs the flag.
    matrix = rng.normal(size=(4, 672))
    dct = dictionary.Dictionary(stacked=rng.normal(size=(672, 6)), lam=0.7, seed=0)
    users = tuple(f"u{i:03d}" for i in range(len(matrix)))
    storage.save_indexed_matrix(users, matrix, tmp_path / "users.txt", tmp_path / "signals.npy")
    dictionary.save_dictionary_csv(dct, tmp_path / "dictionary.csv")
    dictionary.save_dictionary_csv(dictionary.Dictionary(stacked=dct.stacked), tmp_path / "bare.csv")
    argv = ["embed", "--out", str(tmp_path), "--signal-users", str(tmp_path / "users.txt"),
            "--signals", str(tmp_path / "signals.npy")]

    assert cli.main([*argv, "--dictionary", str(tmp_path / "dictionary.csv")]) == 0
    codes = np.load(tmp_path / "codes.npy")
    assert codes.shape == (len(users), 6)  # row i codes users[i]
    loaded = dictionary.load_dictionary_csv(tmp_path / "dictionary.csv")
    explicit = dictionary.sparse_code_batch(matrix, loaded.stacked, 0.7)
    assert np.array_equal(codes, explicit)
    assert np.array_equal(dictionary.embed(matrix, loaded, 0.7), explicit)

    capsys.readouterr()
    assert cli.main([*argv, "--dictionary", str(tmp_path / "bare.csv")]) == 1
    assert "error: no --lambda given and dictionary" in capsys.readouterr().err
    assert cli.main([*argv, "--dictionary", str(tmp_path / "bare.csv"), "--lambda", "0.7"]) == 0
    assert np.array_equal(np.load(tmp_path / "codes.npy"), explicit)


# -- persistence -------------------------------------------------------------------

def test_dictionary_csv_round_trip(tmp_path, rng):
    dct = dictionary.Dictionary(stacked=rng.normal(size=(672, 4)), lam=1.5, seed=42)
    path = tmp_path / "dict.csv"
    dictionary.save_dictionary_csv(dct, path)
    loaded = dictionary.load_dictionary_csv(path)
    assert np.array_equal(loaded.stacked, dct.stacked)
    assert loaded.lam == 1.5 and loaded.seed == 42

    generic = dictionary.Dictionary(stacked=rng.normal(size=(30, 5)), lam=None, seed=None)
    dictionary.save_dictionary_csv(generic, path)
    loaded = dictionary.load_dictionary_csv(path)
    assert np.array_equal(loaded.stacked, generic.stacked)
    assert loaded.lam is None and loaded.seed is None


@pytest.mark.parametrize("damage, message", [
    (lambda text: "", "not a dictionary CSV"),
    (lambda text: text.replace("n_atoms", "atoms", 1), "not a dictionary CSV"),
    (lambda text: text.rsplit("\n", 2)[0] + "\n", "2 atom rows, header says 3"),
    (lambda text: text + "1,2\n", "4 atom rows, header says 3"),
    (lambda text: text.replace("\n3,", "\nthree,", 1), "malformed"),
    (lambda text: text.rsplit("\n", 2)[0] + "\n1,2\n", "malformed"),
])
def test_load_dictionary_csv_rejects_damaged_file(tmp_path, rng, damage, message):
    path = tmp_path / "dict.csv"
    dictionary.save_dictionary_csv(dictionary.Dictionary(stacked=rng.normal(size=(10, 3)), lam=1.0), path)
    path.write_text(damage(path.read_text()))
    with pytest.raises(DictionaryError, match=message):
        dictionary.load_dictionary_csv(path)


def test_export_atoms_long_csv(tmp_path, rng):
    dct = dictionary.Dictionary(stacked=rng.normal(size=(672, 2)), lam=1.0, seed=0)
    path = tmp_path / "atoms.csv"
    dictionary.export_atoms_csv(dct, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "atom,channel,slot,value"
    assert len(lines) == 1 + 2 * 4 * 168
    atom, channel, slot, value = lines[1].split(",")
    assert (atom, channel, slot) == ("0", "volume", "0")
    assert float(value) == dct.atoms[0, 0, 0]


def test_codes_round_trip(tmp_path, rng):
    users = ("a", "b", "c")
    codes = rng.normal(size=(3, 8))
    idx, mat = tmp_path / "users.txt", tmp_path / "c.npy"
    storage.save_indexed_matrix(users, codes, idx, mat)
    got_users, got_codes = storage.load_indexed_matrix(idx, mat)
    assert got_users == users
    assert np.array_equal(got_codes, codes)
