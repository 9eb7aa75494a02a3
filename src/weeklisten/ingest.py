"""Event-log ingestion: the events format, parsing, validity filters, and per-user profiles.

This module owns the ``events.csv`` format: line-delimited CSV with header
``user_id,timestamp,track_id,album_id,origin,listen_duration[,tz_offset_min]``.
Timestamps are integer epoch seconds (UTC); ``origin`` is ``organic`` or
``algorithmic``; ``tz_offset_min`` is an optional signed minute offset used to
move an event into the user's local clock.  Columns are found by their header
names.  A duration or offset must fit in int32 (an offset above the int32
minimum, the no-offset sentinel), and a timestamp in
``[TIMESTAMP_MIN, TIMESTAMP_MAX]``, which keeps the largest offset from
wrapping its local clock in int64; an integer out of its range makes the
line malformed.  Malformed lines are counted and
reported by physical line number; more than :data:`MAX_MALFORMED_FRACTION`
(1%) of them fails the parse.
:func:`write_events` is the one writer of the format: it takes blocks of
columns and writes the six required columns.  The favorites format
(``user_id,kind,item_id``, kind ``track`` or ``album``) lives here too, with
its writer :func:`write_favorites`.

Events are stored columnar (:class:`EventLog`): string identifiers are interned
into lookup tables and each event carries int32 indexes, which keeps multi-million
row logs small and makes the downstream grouping operations plain numpy.
Favorites parse to columns as well (:func:`parse_favorites`).

The activity filter keeps users with at least one valid stream whose daily
average meets the threshold, so every active user gets a profile.
:func:`build_profiles` returns :class:`Profiles`, plain columns next to the log
they were built from; ``user_summary.csv`` and the signal rows share its one
sorted user order, and no per-user record is ever built.  One liked-track set
per user (favorited tracks plus tracks streamed under a favorited album)
drives both the ``liked`` flag of an event and the ``liked_tracks`` count.
One stable sort of the ``(user, track)`` pair keys gives the distinct pairs,
their play counts and each event's pair, and favorites are found by binary
search in their sorted keys.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import storage
from .errors import IngestError

ORGANIC = "organic"
ALGORITHMIC = "algorithmic"
ORIGIN_TOKENS = (ORGANIC, ALGORITHMIC)

#: Sentinel stored in the tz column for events without an explicit offset.
TZ_UNSET = np.iinfo(np.int32).min
#: Bounds of the integer columns; a value outside them makes its line malformed.
#: A tz offset, from the column or the default, lies in ``(TZ_UNSET, _INT32_MAX]``
#: minutes, and timestamps keep that many minutes from the int64 limits, so
#: no local clock can wrap.
_INT32_MAX = np.iinfo(np.int32).max
TIMESTAMP_MIN = np.iinfo(np.int64).min + 60 * _INT32_MAX
TIMESTAMP_MAX = np.iinfo(np.int64).max - 60 * _INT32_MAX

#: Lifetime play count above which a track counts as repeat listening.
REPEAT_PLAY_THRESHOLD = 3

#: Streams shorter than this many seconds are not considered valid.
MIN_LISTEN_SECS = 30

#: Users averaging fewer valid streams per day than this are dropped.
MIN_DAILY_STREAMS = 6.0

EVENT_COLUMNS = ("user_id", "timestamp", "track_id", "album_id", "origin", "listen_duration")
TZ_COLUMN = "tz_offset_min"

FAVORITES_COLUMNS = ("user_id", "kind", "item_id")
#: The favorites ``kind`` tokens.
TRACK = "track"
ALBUM = "album"

#: How many malformed-line details are kept verbatim (all are still counted).
MAX_REPORTED_DETAILS = 50

#: A parse fails when more than this fraction of its data lines is malformed.
MAX_MALFORMED_FRACTION = 0.01


@dataclass(frozen=True)
class StudyPeriod:
    """Half-open observation window ``[start, end)`` in epoch seconds."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise IngestError(f"study period must have positive length, got [{self.start}, {self.end})")

    @property
    def days(self) -> float:
        return (self.end - self.start) / 86400.0

    @classmethod
    def covering(cls, log: "EventLog") -> "StudyPeriod":
        """Smallest hour-aligned period containing every event in ``log``."""
        if len(log) == 0:
            raise IngestError("cannot derive a study period from an empty event log")
        lo = int(log.timestamps.min())
        hi = int(log.timestamps.max())
        start = (lo // 3600) * 3600
        end = (hi // 3600 + 1) * 3600
        return cls(start, end)


@dataclass(frozen=True)
class ParseReport:
    """Outcome of one parse: line counts plus a capped sample of bad lines."""

    total_lines: int
    parsed: int
    malformed_count: int
    details: tuple[tuple[int, str], ...] = ()

    def summary(self) -> str:
        head = f"{self.parsed} events parsed, {self.malformed_count} malformed of {self.total_lines} lines"
        if not self.details:
            return head
        shown = "; ".join(f"line {no}: {why}" for no, why in self.details[:5])
        return f"{head} ({shown}{', ...' if self.malformed_count > 5 else ''})"


@dataclass(eq=False, slots=True)
class EventLog:
    """Columnar event log: one array per field, one entry per event.

    ``users``, ``tracks`` and ``albums`` are interning tables (numpy object
    arrays of str); the per-event columns hold indexes into them.  Filtered
    views created by :meth:`select` share the tables, so indexes stay
    comparable across a filter chain.
    """

    users: np.ndarray
    tracks: np.ndarray
    albums: np.ndarray
    user_idx: np.ndarray
    track_idx: np.ndarray
    album_idx: np.ndarray
    timestamps: np.ndarray
    durations: np.ndarray
    organic: np.ndarray
    tz_offset_min: np.ndarray

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])

    def select(self, mask: np.ndarray) -> "EventLog":
        """Row-filtered view sharing the string tables; order preserved."""
        return EventLog(
            self.users, self.tracks, self.albums,
            self.user_idx[mask], self.track_idx[mask], self.album_idx[mask],
            self.timestamps[mask], self.durations[mask], self.organic[mask],
            self.tz_offset_min[mask],
        )

    def local_timestamps(self, default_tz_offset_min: int = 0) -> np.ndarray:
        """Epoch seconds shifted into each event's local clock.

        ``default_tz_offset_min`` applies to events without an offset and must
        lie in the tz column's range.
        """
        if not TZ_UNSET < default_tz_offset_min <= _INT32_MAX:
            raise IngestError(f"default tz offset {default_tz_offset_min} minutes does not fit in 32 bits")
        offsets = np.where(self.tz_offset_min == TZ_UNSET, default_tz_offset_min, self.tz_offset_min)
        return self.timestamps + offsets.astype(np.int64) * 60


def parse_events(source) -> tuple[EventLog, ParseReport]:
    """Parse an events stream into an :class:`EventLog`.

    ``source`` is a path or an iterable of CSV lines (header required; the
    columns are found by name).  Malformed lines are counted and reported by
    the physical line on which their record ends, never silently dropped; if
    they exceed :data:`MAX_MALFORMED_FRACTION` of the data lines the whole
    parse fails.  A user id that is blank or holds a line break is malformed,
    since user index files hold one id per line.  Identifiers are interned in
    order of first appearance.

    Returns the log plus a :class:`ParseReport`.
    """
    with storage.csv_rows(source, "events", IngestError) as (header, reader):
        positions = {}
        for col in EVENT_COLUMNS:
            if col not in header:
                raise IngestError(f"events header is missing required column {col!r}; got {header}")
            positions[col] = header.index(col)
        tz_pos = header.index(TZ_COLUMN) if TZ_COLUMN in header else None
        n_cols = len(header)

        u_pos, ts_pos, tr_pos, al_pos, or_pos, du_pos = (positions[c] for c in EVENT_COLUMNS)
        users: dict[str, int] = {}
        tracks: dict[str, int] = {}
        albums: dict[str, int] = {}
        user_idx, track_idx, album_idx = array("i"), array("i"), array("i")
        timestamps, durations, organic, tz_offsets = array("q"), array("i"), array("b"), array("i")
        total = 0
        malformed = 0
        details: list[tuple[int, str]] = []

        def reject(why: str) -> None:
            nonlocal malformed
            malformed += 1
            if len(details) < MAX_REPORTED_DETAILS:
                details.append((reader.line_num, why))

        for row in reader:
            if not row:
                continue  # blank line, not a record
            total += 1
            if len(row) != n_cols:
                reject(f"expected {n_cols} fields, got {len(row)}")
                continue
            user, track, album = row[u_pos], row[tr_pos], row[al_pos]
            if not user or not track or not album:
                reject("empty identifier field")
                continue
            origin = row[or_pos]
            if origin not in ORIGIN_TOKENS:
                reject(f"unknown origin token {origin!r}")
                continue
            try:
                ts = int(row[ts_pos])
            except ValueError:
                reject(f"timestamp {row[ts_pos]!r} is not an integer")
                continue
            if not TIMESTAMP_MIN <= ts <= TIMESTAMP_MAX:
                reject(f"timestamp {ts} is not between {TIMESTAMP_MIN} and {TIMESTAMP_MAX}")
                continue
            try:
                duration = int(row[du_pos])
            except ValueError:
                reject(f"listen_duration {row[du_pos]!r} is not an integer")
                continue
            if not 0 <= duration <= _INT32_MAX:
                reject(f"listen_duration {duration} "
                       + ("is negative" if duration < 0 else "does not fit in 32 bits"))
                continue
            tz = TZ_UNSET
            if tz_pos is not None and row[tz_pos] != "":
                try:
                    tz = int(row[tz_pos])
                except ValueError:
                    reject(f"tz_offset_min {row[tz_pos]!r} is not an integer")
                    continue
                if not TZ_UNSET < tz <= _INT32_MAX:  # TZ_UNSET itself is the no-offset sentinel
                    reject(f"tz_offset_min {tz} does not fit in 32 bits")
                    continue
            u = users.get(user)
            if u is None:  # a new user id: it must fit on one line of a user index file
                if not user.strip() or "\n" in user or "\r" in user:
                    reject(f"user id {user!r} is blank or holds a line break")
                    continue
                u = users[user] = len(users)
            user_idx.append(u)
            track_idx.append(tracks.setdefault(track, len(tracks)))
            album_idx.append(albums.setdefault(album, len(albums)))
            timestamps.append(ts)
            durations.append(duration)
            organic.append(origin == ORGANIC)
            tz_offsets.append(tz)

    report = ParseReport(total_lines=total, parsed=total - malformed,
                         malformed_count=malformed, details=tuple(details))
    if total > 0 and malformed > MAX_MALFORMED_FRACTION * total:
        raise IngestError(f"too many malformed lines: {report.summary()}")
    # Interning numbers ids in insertion order, so each table lists its dict's keys.
    log = EventLog(
        np.array(list(users), dtype=object), np.array(list(tracks), dtype=object),
        np.array(list(albums), dtype=object),
        np.asarray(user_idx, dtype=np.int32), np.asarray(track_idx, dtype=np.int32),
        np.asarray(album_idx, dtype=np.int32), np.asarray(timestamps, dtype=np.int64),
        np.asarray(durations, dtype=np.int32), np.asarray(organic, dtype=bool),
        np.asarray(tz_offsets, dtype=np.int32),
    )
    return log, report


def write_events(path, blocks: Iterable[tuple[np.ndarray, ...]]) -> int:
    """Write ``events.csv`` from blocks of columns; returns the number of event lines.

    Each block holds one equal-length numpy array per :data:`EVENT_COLUMNS`
    entry, in that order: user ids, epoch-second timestamps, track ids, album
    ids, an ``organic`` boolean and listen durations.  Each column goes
    through ``.tolist()`` once and each block is written as one string.  No
    tz column is written.  Identifiers are written unquoted, so they must not
    hold a comma, a quote or a line break.
    """
    tokens = (ALGORITHMIC, ORGANIC)
    origin = EVENT_COLUMNS.index("origin")
    row = ",".join(["%s"] * len(EVENT_COLUMNS)) + "\n"
    lines = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(EVENT_COLUMNS) + "\n")
        for block in blocks:
            columns = [col.tolist() for col in block]
            columns[origin] = [tokens[o] for o in columns[origin]]
            fh.write("".join([row % fields for fields in zip(*columns)]))
            lines += len(columns[0])
    return lines


def write_favorites(path, user_ids: list[str], kinds: list[str], item_ids: list[str]) -> None:
    """Write the favorites CSV from the three columns :func:`parse_favorites` returns.

    Identifiers are written unquoted, as in :func:`write_events`.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(FAVORITES_COLUMNS) + "\n")
        fh.writelines(",".join(fields) + "\n" for fields in zip(user_ids, kinds, item_ids))


def parse_favorites(source) -> tuple[list[str], list[str], list[str]]:
    """Parse the favorites CSV (header ``user_id,kind,item_id``) into those three columns; strict."""
    with storage.csv_rows(source, "favorites", IngestError) as (header, reader):
        expected = list(FAVORITES_COLUMNS)
        if header != expected:
            raise IngestError(f"favorites header must be {expected}, got {header}")
        users, kinds, items = [], [], []
        for row in reader:
            if not row:
                continue
            if len(row) != 3 or not row[0] or not row[2]:
                raise IngestError(f"favorites line {reader.line_num} is malformed: {row}")
            if row[1] not in (TRACK, ALBUM):
                raise IngestError(f"favorites line {reader.line_num} has unknown kind {row[1]!r}")
            users.append(row[0])
            kinds.append(row[1])
            items.append(row[2])
    return users, kinds, items


def filter_valid_streams(log: EventLog, min_listen_secs: int = MIN_LISTEN_SECS) -> EventLog:
    """Keep events with ``listen_duration >= min_listen_secs``; order preserved."""
    return log.select(log.durations >= min_listen_secs)


def filter_active_users(log: EventLog, period: StudyPeriod,
                        min_daily_streams: float = MIN_DAILY_STREAMS) -> list[str]:
    """Users averaging at least ``min_daily_streams`` valid streams per day.

    ``log`` must already be duration-filtered.  Only users with an event in
    ``log`` count, so a threshold of 0 keeps exactly the users with a valid
    stream.  Returns sorted user ids.
    """
    days = period.days
    if days <= 0:
        raise IngestError("study period has zero length")
    counts = np.bincount(log.user_idx, minlength=len(log.users))
    keep = (counts > 0) & (counts / days >= min_daily_streams)
    return sorted(str(u) for u in log.users[keep])


def restrict_to_users(log: EventLog, user_ids: Iterable[str]) -> EventLog:
    """View of ``log`` containing only events of the given users; ``log`` itself when that is all of them."""
    keep = _members(log.users, set(user_ids))[log.user_idx]
    return log if keep.all() else log.select(keep)


def _members(table: np.ndarray, wanted: set[str]) -> np.ndarray:
    """Boolean mask of the ids of an interning ``table`` that are in ``wanted``; one scan."""
    return np.fromiter((t in wanted for t in table), count=len(table), dtype=bool)


class Profiles(NamedTuple):
    """Per-user lookups over one filtered log, as plain columns.

    ``repeated`` and ``liked`` flag each event of ``log``: its track is repeat
    listening for its user, or is in the user's liked-track set.  ``user_ids``
    holds the users with an event in ``log``, sorted; row ``i`` of ``summary``
    (the int64 ``total_valid_streams``, ``active_days``, ``distinct_tracks``
    and ``liked_tracks`` of ``user_summary.csv``) and of the signal matrix is
    ``user_ids[i]``, and ``row_of_user`` maps each ``log.users`` index to that
    row (-1 for a user of the shared table without events).
    """

    log: EventLog
    repeated: np.ndarray
    liked: np.ndarray
    user_ids: tuple[str, ...]
    row_of_user: np.ndarray
    summary: np.ndarray
    unknown_user_warnings: int


def build_profiles(log: EventLog, favorites=()) -> Profiles:
    """Profiles of a duration-filtered, user-restricted log and favorites columns (``()`` for none).

    Each step frees its per-event temporaries before the next one starts.
    """
    n_users = len(log.users)
    n_tracks = len(log.tracks)
    totals = np.bincount(log.user_idx, minlength=n_users)

    # Only users with at least one event are profiled; the shared string
    # table may hold more (filtered-out users of a select view).
    present = np.flatnonzero(totals)
    names = log.users[present].tolist()
    order = sorted(range(len(names)), key=names.__getitem__)
    row_of_user = np.full(n_users, -1, dtype=np.int64)
    row_of_user[present[order]] = np.arange(len(order))

    # Distinct (user, local day) pairs, found by sorting on both columns so
    # that no day number has to fit in a packed key.
    day = log.local_timestamps()
    day //= 86400
    by_day = np.lexsort((day, log.user_idx))
    day = day[by_day]
    user_sorted = log.user_idx[by_day]
    del by_day
    new_day = _starts_of_runs(day)
    new_day[1:] |= user_sorted[1:] != user_sorted[:-1]
    active_days = np.bincount(user_sorted[new_day], minlength=n_users)
    del day, user_sorted, new_day

    # Favorites are looked up only among the favorited ids, each kind in its
    # own table, as sorted keys ``user_idx * len(table) + item_idx``.
    user_pos = dict(zip(names, present.tolist()))
    rows = list(zip(*favorites))
    fav_keys = {}
    for kind, table in ((TRACK, log.tracks), (ALBUM, log.albums)):
        hits = np.flatnonzero(_members(table, {item for _, k, item in rows if k == kind}))
        pos = dict(zip(table[hits].tolist(), hits.tolist()))
        fav_keys[kind] = np.unique(np.array([user_pos[user] * len(table) + pos[item] for user, k, item in rows
                                             if k == kind and user in user_pos and item in pos], dtype=np.int64))
    album_liked = _in_sorted(_pair_keys(log.user_idx, log.album_idx, len(log.albums)), fav_keys[ALBUM])

    # One stable sort of the (user, track) pair keys groups the events of each
    # pair: it gives the distinct pairs, their lifetime play counts and, through
    # ``by_pair``, each event's pair.
    pair_key = _pair_keys(log.user_idx, log.track_idx, n_tracks)
    by_pair = np.argsort(pair_key, kind="stable")
    pair_key = pair_key[by_pair]
    first = np.flatnonzero(_starts_of_runs(pair_key))
    pair_keys = pair_key[first]
    del pair_key
    pair_counts = np.diff(first, append=len(by_pair))

    # The liked-track set: the user's favorited tracks plus every track
    # they streamed under a favorited album.  An event is liked when its
    # (user, track) pair is in that set, whatever album it came under.
    pair_liked = _in_sorted(pair_keys, fav_keys[TRACK])
    pair_liked |= np.logical_or.reduceat(album_liked[by_pair], first)
    repeated = np.empty(len(by_pair), dtype=bool)
    repeated[by_pair] = np.repeat(pair_counts > REPEAT_PLAY_THRESHOLD, pair_counts)
    liked = np.empty(len(by_pair), dtype=bool)
    liked[by_pair] = np.repeat(pair_liked, pair_counts)

    summary = np.column_stack([
        totals,
        active_days,
        np.bincount(pair_keys // n_tracks, minlength=n_users),
        np.bincount(pair_keys[pair_liked] // n_tracks, minlength=n_users),
    ])
    return Profiles(
        log=log,
        repeated=repeated,
        liked=liked,
        user_ids=tuple(names[i] for i in order),
        row_of_user=row_of_user,
        summary=summary[present[order]],
        unknown_user_warnings=sum(user not in user_pos for user, _, _ in rows),
    )


def _pair_keys(user_idx: np.ndarray, item_idx: np.ndarray, n_items: int) -> np.ndarray:
    """int64 keys ``user_idx * n_items + item_idx``, built in one buffer."""
    key = user_idx.astype(np.int64)
    key *= n_items
    key += item_idx
    return key


def _starts_of_runs(sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask of the entries of ``sorted_keys`` that differ from their predecessor (the first always)."""
    new = np.empty(len(sorted_keys), dtype=bool)
    new[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    return new


def _in_sorted(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Boolean mask of the ``keys`` found in the sorted int64 ``table``; one binary search each."""
    if not len(table):
        return np.zeros(len(keys), dtype=bool)
    pos = np.searchsorted(table, keys)
    np.minimum(pos, len(table) - 1, out=pos)
    return table[pos] == keys
