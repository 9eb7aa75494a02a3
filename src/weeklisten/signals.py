"""Weekly multichannel listening signals.

Each user's valid streams are folded onto the 168 hour-of-week slots
(Monday 00:00 is slot 0) as a 4-channel series:

* ``volume``      - streams per 1-hour window, averaged over all windows of
                    the study period mapping to the slot (empty windows count
                    as zero and stay in the divisor);
* ``repetition``  - per-window fraction of streams whose track the user played
                    more than 3 times over the whole period;
* ``organicity``  - per-window fraction of streams with organic origin;
* ``liked``       - per-window fraction of streams of liked content.

Raw series are smoothed with a circular length-3 moving average and then
normalized per channel to mean 0 and maximum absolute value 1.  Slots are
computed in local time: each event's explicit minute offset wins, otherwise a
configurable default applies.  Only 1-hour windows fully inside the study
period are aggregated, so ragged period edges never skew the per-slot divisor.

:func:`build_signal_set` runs all three steps for every user at once from a
:class:`Front`: the restricted log of ingest packed to what signals reads
(each event's signal row, timestamp, tz offset and organic, repeated and
liked flags in one byte), the sorted row user ids and the study period.
:func:`front_of` packs it from the :class:`~weeklisten.ingest.Profiles`;
:func:`save_front` and :func:`load_front` keep it in one file of ``.npy``
records under a key that names what it was made from, which is how a
staged ``signals`` builds from ``ingest``'s work instead of parsing again.
It returns a :class:`SignalSet`, the ``(user_ids, matrix)`` pair that
enforces the ``(n, 672)`` shape, with rows in the order of
``user_summary.csv``; there is no per-user signal object.  One sort of the
in-period events' ``(row, window)`` keys groups them into windows, and
smoothing and normalization run in one buffer next to the raw aggregate
(:func:`_smooth_values` and :func:`_normalize_values`, which ``synth``
shares).  The pair hands off to the learning stage as a user-index file
plus a ``.npy`` matrix (:func:`weeklisten.storage.save_indexed_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import storage
from .errors import SignalError
from .ingest import Profiles, StudyPeriod, _local_timestamps, _starts_of_runs

CHANNELS = ("volume", "repetition", "organicity", "liked")
N_CHANNELS = len(CHANNELS)
SLOTS_PER_WEEK = 168

# 1970-01-01 was a Thursday; Monday = 0.
_EPOCH_WEEKDAY = 3

#: The file ``ingest`` writes its front end to, next to ``user_summary.csv``.
FRONT_FILE = "ingest_front.bin"
#: Names the layout of :data:`FRONT_FILE`; part of every key saved in it.
FRONT_FORMAT = "weeklisten-front-1"
#: Bits of :attr:`Front.flags`.
ORGANIC, REPEATED, LIKED = 1, 2, 4
_FRONT_DTYPES = (np.int32, np.int64, np.int32, np.uint8)


def slot_of_hour_index(hour_index):
    """Weekly slot of an absolute local hour index (hours since epoch)."""
    day_of_week = (hour_index // 24 + _EPOCH_WEEKDAY) % 7
    return day_of_week * 24 + hour_index % 24


@dataclass(frozen=True)
class SignalSet:
    """Stacked normalized signals, one row per user, channel-major columns.

    Row layout: ``[volume slots 0..167, repetition 0..167, organicity 0..167,
    liked 0..167]``; rows follow ``user_ids`` (lexicographic).
    """

    user_ids: tuple[str, ...]
    matrix: np.ndarray  # (n_users, N_CHANNELS * SLOTS_PER_WEEK)

    def __post_init__(self):
        if self.matrix.shape != (len(self.user_ids), N_CHANNELS * SLOTS_PER_WEEK):
            raise SignalError(f"signal matrix shape {self.matrix.shape} does not match "
                              f"{len(self.user_ids)} users x {N_CHANNELS * SLOTS_PER_WEEK}")


def _window_range(period: StudyPeriod, default_tz_offset_min: int) -> tuple[int, int]:
    """First and one-past-last absolute hour index fully inside the period."""
    shift = default_tz_offset_min * 60
    local_start = period.start + shift
    local_end = period.end + shift
    k_first = -((-local_start) // 3600)   # ceil
    k_excl = local_end // 3600            # window k needs 3600*(k+1) <= local_end
    if k_excl - k_first < SLOTS_PER_WEEK:
        raise SignalError(f"study period covers {max(k_excl - k_first, 0)} whole hours; "
                          f"at least one week ({SLOTS_PER_WEEK}) is required")
    return int(k_first), int(k_excl)


def _slot_divisors(k_first: int, k_excl: int) -> np.ndarray:
    """How many in-period windows map to each weekly slot, without enumerating them.

    Every slot gets one window per whole week; the leftover hours at the start add one each.
    """
    weeks, extra = divmod(k_excl - k_first, SLOTS_PER_WEEK)
    divisor = np.full(SLOTS_PER_WEEK, float(weeks))
    divisor[slot_of_hour_index(k_first + np.arange(extra, dtype=np.int64))] += 1.0
    return divisor


def _smooth_values(values: np.ndarray) -> np.ndarray:
    """Circular moving average with kernel (1/3, 1/3, 1/3) along the last axis, into one new array.

    Each entry is ``(v[t] + v[t-1]) + v[t+1]``, divided by 3.
    """
    out = np.empty(values.shape)
    out[..., 1:] = values[..., :-1]
    out[..., :1] = values[..., -1:]
    np.add(values, out, out=out)
    out[..., :-1] += values[..., 1:]
    out[..., -1:] += values[..., :1]
    out /= 3.0
    return out


def _max_abs(values: np.ndarray) -> np.ndarray:
    """Largest magnitude along the last axis (keepdims), without an ``abs`` copy of ``values``."""
    return np.maximum(values.max(axis=-1, keepdims=True), -values.min(axis=-1, keepdims=True))


def _normalize_values(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-channel mean-0 / maxabs-1 along the last axis; constant channels go to zero.

    The result goes to ``out``, which may be ``values`` itself, or to a new
    array.  A channel whose centered spread sits at roundoff level relative to
    its input is constant in exact arithmetic and is snapped to zero rather
    than having float noise blown up to maxabs 1.  Centering and rescaling
    then run twice so the mean-0 / maxabs-1 invariants hold to well under
    1e-9 even on near-constant channels.
    """
    roundoff = _max_abs(values) * 1e-13
    out = np.subtract(values, values.mean(axis=-1, keepdims=True), out=out)
    np.copyto(out, 0.0, where=_max_abs(out) <= roundoff)
    for _ in range(2):
        scale = _max_abs(out)
        np.divide(out, scale, out=out, where=scale > 0)
        out -= out.mean(axis=-1, keepdims=True)
    scale = _max_abs(out)
    np.divide(out, scale, out=out, where=scale > 0)
    return out


class Front(NamedTuple):
    """What signals reads of the ingest front end: the restricted log, packed.

    ``row`` (int32), ``timestamps`` (int64), ``tz_offset_min`` (int32,
    ``ingest.TZ_UNSET`` for no offset) and ``flags`` (uint8, the bits
    :data:`ORGANIC`, :data:`REPEATED` and :data:`LIKED`) hold one entry per
    event: its row of ``user_ids``, the sorted users, and its clock and
    flags.  ``period`` is the resolved study period.
    """

    user_ids: tuple[str, ...]
    period: StudyPeriod
    row: np.ndarray
    timestamps: np.ndarray
    tz_offset_min: np.ndarray
    flags: np.ndarray


def front_of(profiles: Profiles, period: StudyPeriod) -> Front:
    """The :class:`Front` of ingest's profiles; it shares their timestamp and tz columns."""
    log = profiles.log
    flags = log.organic * np.uint8(ORGANIC)
    flags |= profiles.repeated * np.uint8(REPEATED)
    flags |= profiles.liked * np.uint8(LIKED)
    return Front(profiles.user_ids, period, profiles.row_of_user.astype(np.int32)[log.user_idx],
                 log.timestamps, log.tz_offset_min, flags)


def save_front(front: Front, key: str, path) -> None:
    """Write ``front`` and its ``key`` (UTF-8 text) to ``path``; equal fronts and keys give equal bytes.

    The records, in order: the key, the user ids joined by newlines (an id
    holds none), the period's start and end, and the four event columns.
    """
    storage.save_arrays([
        np.frombuffer(key.encode("utf-8"), dtype=np.uint8),
        np.frombuffer("\n".join(front.user_ids).encode("utf-8"), dtype=np.uint8),
        np.array([front.period.start, front.period.end], dtype=np.int64),
        *(np.asarray(column, dtype=dtype) for column, dtype in zip(front[2:], _FRONT_DTYPES)),
    ], path)


def load_front(path, key: str) -> Front | None:
    """The front :func:`save_front` wrote to ``path``, or None when it was saved under another key.

    A missing file raises ``FileNotFoundError``; an unreadable or damaged
    one ``OSError`` or ``ValueError``.
    """
    arrays = storage.load_arrays(path)
    if len(arrays) != 3 + len(_FRONT_DTYPES):
        raise ValueError(f"{path} holds {len(arrays)} arrays, not a front")
    saved_key, users, period, *columns = arrays
    if saved_key.tobytes() != key.encode("utf-8"):
        return None
    user_ids = tuple(users.tobytes().decode("utf-8").split("\n"))
    row = columns[0]
    if ([c.dtype for c in columns] != list(map(np.dtype, _FRONT_DTYPES)) or period.shape != (2,)
            or row.ndim != 1 or any(c.shape != row.shape for c in columns)
            or row.size and not 0 <= row.min() <= row.max() < len(user_ids)):
        raise ValueError(f"{path} is not a front")
    return Front(user_ids, StudyPeriod(int(period[0]), int(period[1])), *columns)


def build_signal_set(front: Front, default_tz_offset_min: int = 0) -> SignalSet:
    """Aggregated, smoothed and normalized weekly signals of every user of ``front``, stacked channel-major.

    Rows follow ``front.user_ids``; a user without in-period events gets an
    all-zero row.
    """
    n_rows = len(front.user_ids)

    # Each in-period event's window, counted from the first one, and its key
    # ``row * n_windows + window``.
    window = _local_timestamps(front.timestamps, front.tz_offset_min, default_tz_offset_min)
    k_first, k_excl = _window_range(front.period, default_tz_offset_min)
    n_windows = k_excl - k_first
    if n_rows * n_windows > np.iinfo(np.int64).max:
        raise SignalError(f"{n_rows} users x {n_windows} hour windows of the study period "
                          "overflow the 64-bit (user, window) key; shorten the period")
    divisor = _slot_divisors(k_first, k_excl)
    window //= 3600
    window -= k_first
    in_scope = (window >= 0) & (window < n_windows)
    key = front.row[in_scope].astype(np.int64)
    key *= n_windows
    key += window[in_scope]
    del window

    # One sort groups the events by (row, window): each sorted event's window
    # index, and each window's key, volume and flag counts.
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    flags = front.flags[in_scope][by_key]
    del by_key, in_scope
    new_window = _starts_of_runs(key)
    cell = key[new_window]  # each window's key, made its (row, slot) cell in place
    del key
    group = np.cumsum(new_window)
    group -= 1
    volume = np.bincount(group)
    hour = cell % n_windows
    hour += k_first
    cell //= n_windows
    cell *= SLOTS_PER_WEEK
    cell += slot_of_hour_index(hour)
    del hour

    # Every (row, slot) cell sums its windows' volumes and flag fractions.
    def per_cell(values):
        return np.bincount(cell, weights=values, minlength=n_rows * SLOTS_PER_WEEK).reshape(n_rows, -1)

    raw = np.empty((n_rows, N_CHANNELS, SLOTS_PER_WEEK))
    raw[:, 0, :] = per_cell(volume)
    for ci, bit in enumerate((REPEATED, ORGANIC, LIKED), start=1):
        raw[:, ci, :] = per_cell(np.bincount(group, weights=(flags & bit) != 0) / volume)
    del cell, group, volume, flags
    raw /= divisor
    if not np.isfinite(raw).all():
        raise SignalError("non-finite values in aggregated signals")
    norm = _smooth_values(raw)
    _normalize_values(norm, out=norm)
    return SignalSet(user_ids=front.user_ids, matrix=norm.reshape(n_rows, -1))
