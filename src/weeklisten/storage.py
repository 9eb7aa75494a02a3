"""Shared on-disk formats: user-index files and float matrix files.

Matrix files come in two interchangeable forms, selected by extension or an
explicit ``fmt``:

* ``npy`` - numpy's binary format, float64, no pickling;
* ``csv`` - one row per line, ``%.17g`` fields (lossless float64 round-trip).

Index files hold one user id per line, UTF-8, in row order.  Every writer
here is byte-deterministic for identical inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import PipelineError


def save_index(user_ids, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(str(u) + "\n" for u in user_ids)


def load_index(path) -> tuple[str, ...]:
    try:
        with open(path, encoding="utf-8") as fh:
            return tuple(line.rstrip("\n") for line in fh if line.strip())
    except (OSError, UnicodeDecodeError) as exc:
        raise PipelineError(f"cannot read user index {path}: {exc}") from exc


def save_matrix(matrix: np.ndarray, path, fmt: str = "npy") -> None:
    if fmt == "npy":
        np.save(path, np.ascontiguousarray(matrix, dtype=np.float64), allow_pickle=False)
    elif fmt == "csv":
        np.savetxt(path, np.atleast_2d(matrix), fmt="%.17g", delimiter=",")
    else:
        raise PipelineError(f"unknown matrix format {fmt!r} (expected npy or csv)")


def load_matrix(path) -> np.ndarray:
    try:
        if str(path).endswith(".npy"):
            return np.load(path, allow_pickle=False)
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise PipelineError(f"cannot read matrix {path}: {exc}") from exc


def matrix_filename(stem: str, fmt: str) -> str:
    return f"{stem}.{'npy' if fmt == 'npy' else 'csv'}"
