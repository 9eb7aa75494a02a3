"""Shared on-disk formats: CSV sources, user-index files and ``.npy`` matrix files.

Every CSV input is a path, opened once in binary and read once in byte
blocks of whole lines, each decoded once.  :func:`csv_rows` feeds
``csv.reader`` from them (favorites, labels, user summary);
``ingest.parse_events`` parses them with numpy and hands ``csv.reader`` the
rest of the same blocks from the first one that needs it.  A source that
cannot be opened, is not UTF-8 (named by the line and byte column of its
first bad byte), is not valid CSV or has no header line raises a
:class:`PipelineError` naming the file, worded in one place.  A pipe reads
as a file.

Signals and codes hand off as a user-index file (one user id per line,
UTF-8, in row order) plus a matrix file in numpy's ``.npy`` format (float64,
no pickling); :func:`save_indexed_matrix` and :func:`load_indexed_matrix`
write and read the pair, and :func:`load_index` reads an index file alone.
:func:`save_arrays` and :func:`load_arrays` write and read several arrays
as one file of ``.npy`` records, back to back (the ingest front end that
``signals`` reads), and :func:`file_sha256` digests an input file.  Every
writer here is byte-deterministic for identical inputs.
"""

from __future__ import annotations

import csv
import io
import os
from contextlib import contextmanager
from itertools import chain

import numpy as np

from .errors import PipelineError

#: Bytes read at a time from a CSV source; a block ends after its last newline.
_BLOCK_BYTES = 1 << 20


@contextmanager
def csv_rows(path, kind: str):
    """Stripped header and row reader of the CSV file at ``path``.

    The file is read in blocks while the ``with`` block runs and closed when
    it exits.  A file that cannot be opened, decoded or split into CSV fields
    (also partway through the block) or that has no header raises
    :class:`PipelineError` naming ``kind``.
    """
    with _opened(path, kind) as fh:
        reader = _csv_reader(_blocks(fh))
        yield _header(reader, path, kind), reader


@contextmanager
def _opened(path, kind: str):
    """The file at ``path`` opened in binary; failing to read, decode or split it is a :class:`PipelineError`."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except (OSError, UnicodeError, csv.Error) as exc:
        raise PipelineError(f"cannot read {kind} source {path}: {exc}") from exc


def _blocks(fh):
    """Blocks of about :data:`_BLOCK_BYTES` bytes of a binary file, each ending after a newline.

    A last line without a newline gets one.
    """
    parts = []
    while chunk := fh.read(_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join([*parts, chunk[:cut]])
            parts = []
        parts.append(chunk[cut:])
    if any(parts):
        yield b"".join([*parts, b"\n"])


def _decoded(block: bytes, line_base: int) -> str:
    """A block of whole lines, after ``line_base`` lines, as UTF-8 text.

    A byte that is not UTF-8 raises ``UnicodeError`` naming its line and
    byte column.  No UTF-8 multibyte sequence contains a newline byte, so
    the block's first bad byte is its first bad line's.
    """
    try:
        return block.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = block.rfind(b"\n", 0, exc.start) + 1
        line_no = line_base + block.count(b"\n", 0, line_start) + 1
        raise UnicodeError(f"line {line_no}, byte column {exc.start - line_start + 1}: not UTF-8 "
                           f"(byte 0x{block[exc.start]:02x}, {exc.reason})") from None


def _csv_reader(blocks, line_base: int = 0):
    """A ``csv.reader`` over byte blocks of whole lines that follow ``line_base`` lines.

    Each block is decoded once; its lines reach the reader through a chain
    of per-block ``StringIO`` iterators, so they pass in C.
    """
    def texts(line_base):
        for block in blocks:
            yield io.StringIO(_decoded(block, line_base), newline="")
            line_base += block.count(b"\n")

    return csv.reader(chain.from_iterable(texts(line_base)))


def _header(reader, path, kind: str) -> list[str]:
    """The stripped header row of a :func:`_csv_reader`; none raises :class:`PipelineError`."""
    header = next(reader, None)
    if header is None:
        raise PipelineError(f"{kind} source {path} is empty (missing header)")
    return [h.strip() for h in header]


def file_sha256(path, kind: str) -> str | None:
    """Hex sha256 of the bytes of the file at ``path``, read in blocks.

    A pipe or other file that is not regular gives None and is not opened,
    since reading it would consume it.  A file that cannot be read raises
    :class:`PipelineError` naming ``kind``, as its parse would.
    """
    import hashlib  # only the stages that key a handoff load it

    if os.path.exists(path) and not os.path.isfile(path):
        return None
    digest = hashlib.sha256()
    with _opened(path, kind) as fh:
        while chunk := fh.read(_BLOCK_BYTES):
            digest.update(chunk)
    return digest.hexdigest()


def save_arrays(arrays, path) -> None:
    """Write ``arrays`` into one file as ``.npy`` records, one after another, without pickling."""
    with open(path, "wb") as fh:
        for array in arrays:
            np.lib.format.write_array(fh, np.asarray(array), allow_pickle=False)


def load_arrays(path):
    """The arrays of a :func:`save_arrays` file, in order, each read when the iterator reaches it.

    A missing file raises ``FileNotFoundError``, and a damaged record
    ``ValueError``, at the first ``next`` that needs them.
    """
    with open(path, "rb") as fh:
        while fh.peek(1):
            yield np.lib.format.read_array(fh, allow_pickle=False)


def save_index(user_ids, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(str(u) + "\n" for u in user_ids)


def save_indexed_matrix(user_ids, matrix: np.ndarray, index_path, matrix_path) -> None:
    """Persist a matrix whose row ``i`` belongs to ``user_ids[i]``: index file plus float64 ``.npy``."""
    save_index(user_ids, index_path)
    np.save(matrix_path, np.ascontiguousarray(matrix, dtype=np.float64), allow_pickle=False)


def load_index(path) -> tuple[str, ...]:
    """The user ids of a :func:`save_index` file, in order; an id listed twice is an error."""
    try:
        with open(path, encoding="utf-8") as fh:
            users = tuple(line.rstrip("\n") for line in fh if line.strip())
    except (OSError, UnicodeDecodeError) as exc:
        raise PipelineError(f"cannot read user index {path}: {exc}") from exc
    seen = set()
    for user in users:
        if user in seen:
            raise PipelineError(f"user index {path} lists user {user} more than once")
        seen.add(user)
    return users


def load_indexed_matrix(index_path, matrix_path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a :func:`save_indexed_matrix` pair; the ``.npy`` matrix has one row per distinct user id."""
    users = load_index(index_path)
    try:
        with open(matrix_path, "rb") as fh:
            matrix = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise PipelineError(f"cannot read matrix {matrix_path}: {exc}") from exc
    if matrix.ndim != 2 or matrix.shape[0] != len(users):
        raise PipelineError(f"matrix {matrix_path} of shape {matrix.shape} does not match "
                            f"the {len(users)} users of {index_path}")
    return users, matrix
