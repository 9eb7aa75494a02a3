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
on the local clock ``ingest`` set.  Only 1-hour windows fully inside the
study period are aggregated, so ragged period edges never skew the per-slot
divisor.

:func:`build_signal_set` runs all three steps for every user at once from
ingest's front end, :class:`~weeklisten.ingest.Profiles` (each event's
signal row, local timestamp and organic, repeated and liked bits, the
sorted row user ids and the study period), and returns a
:class:`SignalSet`, the ``(user_ids, matrix)`` pair that enforces the
``(n, 672)`` shape, with rows in the order of ``user_summary.csv``; there is
no per-user signal object.  One sort of the in-period events'
``(row, window)`` keys groups them into windows, and smoothing and
normalization run in one buffer next to the raw aggregate (``synth``
shares :func:`_smooth_values`; :func:`_normalize_values` is this module's
own).  The pair hands off to the learning stage as a user-index file
plus a ``.npy`` matrix (:func:`weeklisten.storage.save_indexed_matrix`).
:func:`save_front` and :func:`load_front` keep every profiles field in one
file of ``.npy`` records under a key that names what it was made from;
that file is the only way ``signals`` gets ``ingest``'s work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import storage
from .errors import PipelineError
from .ingest import LIKED_BIT, ORGANIC_BIT, REPEATED_BIT, Profiles, StudyPeriod, _starts_of_runs

CHANNELS = ("volume", "repetition", "organicity", "liked")
N_CHANNELS = len(CHANNELS)
SLOTS_PER_WEEK = 168

# 1970-01-01 was a Thursday; Monday = 0.
_EPOCH_WEEKDAY = 3

#: The file ``ingest`` writes its front end to, next to ``user_summary.csv``.
FRONT_FILE = "ingest_front.bin"
#: Names the layout of :data:`FRONT_FILE`; part of every key saved in it.
FRONT_FORMAT = "weeklisten-front-3"
#: The dtype and shape of the record :func:`save_front` writes for each :class:`Profiles`
#: field; the user ids are one UTF-8 text, joined by newlines (an id holds none).
_FRONT_RECORDS = {
    "user_ids": (np.uint8, ("bytes",)),
    "period": (np.int64, (2,)),
    "row": (np.int32, ("events",)),
    "timestamps": (np.int64, ("events",)),
    "flags": (np.uint8, ("events",)),
    "summary": (np.int64, ("users", 4)),
    "unknown_user_warnings": (np.int64, ()),
}


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
            raise PipelineError(f"signal matrix shape {self.matrix.shape} does not match "
                                f"{len(self.user_ids)} users x {N_CHANNELS * SLOTS_PER_WEEK}")


def _window_range(period: StudyPeriod) -> tuple[int, int]:
    """First and one-past-last absolute hour index fully inside the period."""
    k_first = -((-period.start) // 3600)  # ceil
    k_excl = period.end // 3600           # window k needs 3600*(k+1) <= period.end
    if k_excl - k_first < SLOTS_PER_WEEK:
        raise PipelineError(f"study period covers {max(k_excl - k_first, 0)} whole hours; "
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


def save_front(profiles: Profiles, key: str, path) -> None:
    """Write ``profiles`` and its ``key`` (UTF-8 text) to ``path``; equal profiles and keys give equal bytes.

    The records, in order: the key, then one per :class:`Profiles` field as
    :data:`_FRONT_RECORDS` gives it.
    """
    values = profiles._replace(user_ids=np.frombuffer("\n".join(profiles.user_ids).encode("utf-8"), np.uint8),
                               period=(profiles.period.start, profiles.period.end))
    storage.save_arrays([np.frombuffer(key.encode("utf-8"), dtype=np.uint8),
                         *(np.asarray(getattr(values, name), dtype=_FRONT_RECORDS[name][0])
                           for name in Profiles._fields)], path)


def load_front(path, key: str) -> Profiles:
    """The profiles :func:`save_front` wrote to ``path`` under ``key``.

    The key record is read first, and the rest only when it matches.  No
    file, a file saved under another key and an unreadable or damaged one,
    whatever record is damaged, raise :class:`PipelineError` naming ``path``,
    the reason and how to make the file again.
    """
    records = storage.load_arrays(path)
    try:
        saved_key = next(records, None)
        if saved_key is None:
            raise ValueError("it is empty")
        if saved_key.tobytes() == key.encode("utf-8"):
            return _front_of(list(records))
        reason = "was made from other inputs or flags"  # another key names its format: other layouts get here
    except FileNotFoundError:
        reason = "does not exist"
    except (OSError, ValueError) as exc:
        reason = f"is damaged ({exc})"
    finally:
        records.close()
    raise PipelineError(f"ingest's handoff {path} {reason}; run ingest with the same --out, inputs and flags "
                        "before signals")


def _front_of(arrays: list[np.ndarray]) -> Profiles:
    """The profiles of a front's records after its key; a wrong type, shape or range raises ``ValueError``."""
    if len(arrays) != len(Profiles._fields):
        raise ValueError(f"{len(arrays)} records follow its key, not {len(Profiles._fields)}")
    fields = dict(zip(Profiles._fields, arrays))
    text = fields["user_ids"].tobytes().decode("utf-8")
    user_ids = tuple(text.split("\n")) if text else ()
    count = {"bytes": fields["user_ids"].size, "users": len(user_ids), "events": fields["row"].size}
    for name, (dtype, shape) in _FRONT_RECORDS.items():
        if fields[name].dtype != dtype or fields[name].shape != tuple(count.get(n, n) for n in shape):
            raise ValueError(f"its {name} record has the wrong type or shape")
    start, end = fields["period"].tolist()
    row = fields["row"]
    if end <= start or row.size and not 0 <= row.min() <= row.max() < len(user_ids):
        raise ValueError("its period is empty, or a row names none of its users")
    return Profiles(**{**fields, "user_ids": user_ids, "period": StudyPeriod(start, end),
                       "unknown_user_warnings": int(fields["unknown_user_warnings"])})


def build_signal_set(profiles: Profiles) -> SignalSet:
    """Aggregated, smoothed and normalized weekly signals of every user of ``profiles``, stacked channel-major.

    Rows follow ``profiles.user_ids``; a user without in-period events gets an
    all-zero row.
    """
    n_rows = len(profiles.user_ids)

    # Each in-period event's window, counted from the first one, and its key
    # ``row * n_windows + window``.
    window = profiles.timestamps // 3600
    k_first, k_excl = _window_range(profiles.period)
    n_windows = k_excl - k_first
    if n_rows * n_windows > np.iinfo(np.int64).max:
        raise PipelineError(f"{n_rows} users x {n_windows} hour windows of the study period "
                            "overflow the 64-bit (user, window) key; shorten the period")
    divisor = _slot_divisors(k_first, k_excl)
    window -= k_first
    in_scope = (window >= 0) & (window < n_windows)
    key = profiles.row[in_scope].astype(np.int64)
    key *= n_windows
    key += window[in_scope]
    del window

    # One sort groups the events by (row, window): each sorted event's window
    # index, and each window's key, volume and flag counts.
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    flags = profiles.flags[in_scope][by_key]
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
    for ci, bit in enumerate((REPEATED_BIT, ORGANIC_BIT, LIKED_BIT), start=1):
        raw[:, ci, :] = per_cell(np.bincount(group, weights=(flags & bit) != 0) / volume)
    del cell, group, volume, flags
    raw /= divisor
    if not np.isfinite(raw).all():
        raise PipelineError("non-finite values in aggregated signals")
    norm = _smooth_values(raw)
    _normalize_values(norm, out=norm)
    return SignalSet(user_ids=profiles.user_ids, matrix=norm.reshape(n_rows, -1))
