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

:func:`build_signal_set` runs all three steps for every user at once from the
:class:`~weeklisten.ingest.Profiles` of ingest, which carry the filtered log,
the per-event repetition and liked flags and the sorted user order.  It
returns a :class:`SignalSet`, the ``(user_ids, matrix)`` pair that enforces
the ``(n, 672)`` shape, with rows in the order of ``user_summary.csv``; there
is no per-user signal object.  The pair hands off to the learning stage as a
user-index file plus a ``.npy`` matrix
(:func:`weeklisten.storage.save_indexed_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SignalError
from .ingest import Profiles, StudyPeriod

CHANNELS = ("volume", "repetition", "organicity", "liked")
N_CHANNELS = len(CHANNELS)
SLOTS_PER_WEEK = 168

# 1970-01-01 was a Thursday; Monday = 0.
_EPOCH_WEEKDAY = 3


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
    """Circular moving average with kernel (1/3, 1/3, 1/3) along the last axis."""
    return (values + np.roll(values, 1, axis=-1) + np.roll(values, -1, axis=-1)) / 3.0


def _normalize_values(values: np.ndarray) -> np.ndarray:
    """Per-channel mean-0 / maxabs-1 along the last axis; constant channels go to zero.

    A channel whose centered spread sits at roundoff level relative to its
    input is constant in exact arithmetic and is snapped to zero rather than
    having float noise blown up to maxabs 1.  Centering and rescaling then run
    twice so the mean-0 / maxabs-1 invariants hold to well under 1e-9 even on
    near-constant channels.
    """
    out = values - values.mean(axis=-1, keepdims=True)
    spread = np.abs(out).max(axis=-1, keepdims=True)
    roundoff = np.abs(values).max(axis=-1, keepdims=True) * 1e-13
    out = np.where(spread <= roundoff, 0.0, out)
    for _ in range(2):
        scale = np.abs(out).max(axis=-1, keepdims=True)
        np.divide(out, scale, out=out, where=scale > 0)
        out -= out.mean(axis=-1, keepdims=True)
    scale = np.abs(out).max(axis=-1, keepdims=True)
    np.divide(out, scale, out=out, where=scale > 0)
    return out


def build_signal_set(profiles: Profiles, period: StudyPeriod, default_tz_offset_min: int = 0) -> SignalSet:
    """Aggregated, smoothed and normalized weekly signals of every profiled user, stacked channel-major.

    Rows follow ``profiles.user_ids``; a user without in-period events gets
    an all-zero row.
    """
    log = profiles.log
    n_rows = len(profiles.user_ids)

    k = log.local_timestamps(default_tz_offset_min) // 3600
    k_first, k_excl = _window_range(period, default_tz_offset_min)
    n_windows = k_excl - k_first
    if n_rows * n_windows > np.iinfo(np.int64).max:
        raise SignalError(f"{n_rows} users x {n_windows} hour windows of the study period "
                          "overflow the 64-bit (user, window) key; shorten the period")
    divisor = _slot_divisors(k_first, k_excl)
    in_scope = (k >= k_first) & (k < k_excl)

    k = k[in_scope]
    rows = profiles.row_of_user[log.user_idx[in_scope]]
    repeated = profiles.repeated[in_scope]
    liked = profiles.liked[in_scope]
    organic = log.organic[in_scope]

    # Group events by (row, window) to get per-window counts and fractions.
    key = rows * n_windows + (k - k_first)
    uw_key, inverse, volume = np.unique(key, return_inverse=True, return_counts=True)
    frac_rep = np.bincount(inverse, weights=repeated) / volume
    frac_org = np.bincount(inverse, weights=organic) / volume
    frac_lik = np.bincount(inverse, weights=liked) / volume

    uw_row = uw_key // n_windows
    uw_slot = slot_of_hour_index(k_first + uw_key % n_windows)
    cell = uw_row * SLOTS_PER_WEEK + uw_slot
    size = n_rows * SLOTS_PER_WEEK

    raw = np.empty((n_rows, N_CHANNELS, SLOTS_PER_WEEK))
    for ci, values in enumerate((volume.astype(np.float64), frac_rep, frac_org, frac_lik)):
        raw[:, ci, :] = np.bincount(cell, weights=values, minlength=size).reshape(n_rows, SLOTS_PER_WEEK)
    raw /= divisor
    if not np.isfinite(raw).all():
        raise SignalError("non-finite values in aggregated signals")
    norm = _normalize_values(_smooth_values(raw))
    return SignalSet(user_ids=profiles.user_ids, matrix=norm.reshape(n_rows, -1))

