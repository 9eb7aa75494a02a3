"""Shared on-disk formats: CSV sources, user-index files and ``.npy`` matrix files.

The favorites, labels and user summary CSVs, and events given as lines, are
read through :func:`csv_rows`, which streams the open file rather than
loading it whole.  ``events.csv`` itself is read in byte blocks by
``ingest.parse_events``, which turns to ``csv.reader`` only where a block
needs it.  Either way a source that cannot be opened, is not UTF-8 text, is
not valid CSV or has no header line is the calling stage's error naming the
file, worded in one place.

Signals and codes hand off as a user-index file (one user id per line,
UTF-8, in row order) plus a matrix file in numpy's ``.npy`` format (float64,
no pickling); :func:`save_indexed_matrix` and :func:`load_indexed_matrix`
write and read the pair.  Every writer here is byte-deterministic for
identical inputs.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from .errors import PipelineError


@contextmanager
def csv_rows(source, kind: str, error: type[PipelineError] = PipelineError):
    """Stripped header and row reader of a CSV source: a path, or an iterable of lines.

    A path is opened as UTF-8 with ``newline=""``, streamed while the block
    runs and closed when it exits.  A source that cannot be opened, decoded
    or split into CSV fields (also partway through the block) or that has no
    header raises ``error`` naming ``kind``; for a path that is not UTF-8 the
    message names the line and byte column of the first bad byte.
    """
    is_path = isinstance(source, (str, Path))
    with (_read_errors(source, kind, error),
          open(source, encoding="utf-8", newline="") if is_path else nullcontext(source) as lines):
        reader = csv.reader(lines)
        header = next(reader, None)
        if header is None:
            raise error(f"{kind} source{_named(source)} is empty (missing header)")
        yield [h.strip() for h in header], reader


@contextmanager
def _read_errors(source, kind: str, error: type[PipelineError]):
    """Turn a failure to open, decode or split ``source`` into ``error`` naming ``kind`` and the path.

    Shared by :func:`csv_rows` and the block parse of ``events.csv``, so both
    word these failures alike.
    """
    try:
        yield
    except UnicodeDecodeError as exc:
        where = _undecodable_line(source) if isinstance(source, (str, Path)) else None
        raise error(f"cannot read {kind} source{_named(source)}: {where or exc}") from exc
    except (OSError, csv.Error) as exc:
        raise error(f"cannot read {kind} source{_named(source)}: {exc}") from exc


def _named(source) -> str:
    return f" {source}" if isinstance(source, (str, Path)) else ""


def _undecodable_line(path) -> str | None:
    """Where the first non-UTF-8 byte of ``path`` is, as ``line N, byte column C: reason``.

    The text decoder reports a position inside its current chunk, so the file
    is scanned again in binary.  No UTF-8 multibyte sequence contains a
    newline byte, so decoding line by line finds the same byte.
    """
    try:
        with open(path, "rb") as fh:
            for line_no, line in enumerate(fh, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    return (f"line {line_no}, byte column {exc.start + 1}: not UTF-8 "
                            f"(byte 0x{line[exc.start]:02x}, {exc.reason})")
    except OSError:
        pass
    return None


def save_index(user_ids, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(str(u) + "\n" for u in user_ids)


def save_indexed_matrix(user_ids, matrix: np.ndarray, index_path, matrix_path) -> None:
    """Persist a matrix whose row ``i`` belongs to ``user_ids[i]``: index file plus float64 ``.npy``."""
    save_index(user_ids, index_path)
    np.save(matrix_path, np.ascontiguousarray(matrix, dtype=np.float64), allow_pickle=False)


def load_indexed_matrix(index_path, matrix_path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a :func:`save_indexed_matrix` pair; the ``.npy`` matrix has one row per distinct user id."""
    try:
        with open(index_path, encoding="utf-8") as fh:
            users = tuple(line.rstrip("\n") for line in fh if line.strip())
    except (OSError, UnicodeDecodeError) as exc:
        raise PipelineError(f"cannot read user index {index_path}: {exc}") from exc
    try:
        with open(matrix_path, "rb") as fh:
            matrix = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise PipelineError(f"cannot read matrix {matrix_path}: {exc}") from exc
    seen = set()
    for user in users:
        if user in seen:
            raise PipelineError(f"user index {index_path} lists user {user} more than once")
        seen.add(user)
    if matrix.ndim != 2 or matrix.shape[0] != len(users):
        raise PipelineError(f"matrix {matrix_path} of shape {matrix.shape} does not match "
                            f"the {len(users)} users of {index_path}")
    return users, matrix
