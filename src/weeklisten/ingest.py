"""Event-log ingestion: the events format, parsing, validity filters, and per-user profiles.

This module owns the ``events.csv`` format: line-delimited CSV with header
``user_id,timestamp,track_id,album_id,origin,listen_duration[,tz_offset_min]``.
Timestamps are integer epoch seconds (UTC); ``origin`` is ``organic`` or
``algorithmic``; ``tz_offset_min`` is an optional signed minute offset used to
move an event into the user's local clock.  Columns are found by their header
names.  Malformed lines are counted and reported by physical line number;
more than :data:`MAX_MALFORMED_FRACTION` (1%) of them fails the parse.
:func:`write_events` is the one writer of the format: it takes blocks of
columns and writes the six required columns.  The favorites format
(``user_id,kind,item_id``, kind ``track`` or ``album``) lives here too, with
its writer :func:`write_favorites`.

Events are stored columnar (:class:`EventLog`): string identifiers are interned
into lookup tables and each event carries int32 indexes, which keeps multi-million
row logs small and makes the downstream grouping operations plain numpy.
Favorites parse to columns as well (:func:`parse_favorites`).

The activity filter keeps users with at least one valid stream whose daily
average meets the threshold, so every active user gets a profile.  Profiles
(:class:`ProfileSet`) stay columnar too: the signal builder reads per-event
flags from them and ``user_summary.csv`` reads whole columns, so no per-user
record is ever built.  One liked-track set per user (favorited tracks plus
tracks streamed under a favorited album) drives both the ``liked`` flag of an
event and the ``liked_tracks`` count.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import storage
from .errors import IngestError

ORGANIC = "organic"
ALGORITHMIC = "algorithmic"
ORIGIN_TOKENS = (ORGANIC, ALGORITHMIC)

#: Sentinel stored in the tz column for events without an explicit offset.
TZ_UNSET = np.iinfo(np.int32).min

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


class EventLog:
    """Columnar event log: one array per field, one entry per event.

    ``users``, ``tracks`` and ``albums`` are interning tables (numpy object
    arrays of str); the per-event columns hold indexes into them.  Filtered
    views created by :meth:`select` share the tables, so indexes stay
    comparable across a filter chain.
    """

    __slots__ = ("users", "tracks", "albums", "user_idx", "track_idx",
                 "album_idx", "timestamps", "durations", "organic", "tz_offset_min")

    def __init__(self, users, tracks, albums, user_idx, track_idx, album_idx,
                 timestamps, durations, organic, tz_offset_min):
        self.users = users
        self.tracks = tracks
        self.albums = albums
        self.user_idx = user_idx
        self.track_idx = track_idx
        self.album_idx = album_idx
        self.timestamps = timestamps
        self.durations = durations
        self.organic = organic
        self.tz_offset_min = tz_offset_min

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
        """Epoch seconds shifted into each event's local clock."""
        offsets = np.where(self.tz_offset_min == TZ_UNSET, default_tz_offset_min, self.tz_offset_min)
        return self.timestamps + offsets.astype(np.int64) * 60

    def user_ids_present(self) -> list[str]:
        """Sorted ids of users that have at least one event in this view."""
        present = np.unique(self.user_idx)
        return sorted(str(self.users[i]) for i in present)


def parse_events(source) -> tuple[EventLog, ParseReport]:
    """Parse an events stream into an :class:`EventLog`.

    ``source`` is a path or an iterable of CSV lines (header required; the
    columns are found by name).  Malformed lines are counted and reported by
    the physical line on which their record ends, never silently dropped; if
    they exceed :data:`MAX_MALFORMED_FRACTION` of the data lines the whole
    parse fails.  Identifiers are interned in order of first appearance.

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
            try:
                duration = int(row[du_pos])
            except ValueError:
                reject(f"listen_duration {row[du_pos]!r} is not an integer")
                continue
            if duration < 0:
                reject(f"listen_duration {duration} is negative")
                continue
            tz = TZ_UNSET
            if tz_pos is not None and row[tz_pos] != "":
                try:
                    tz = int(row[tz_pos])
                except ValueError:
                    reject(f"tz_offset_min {row[tz_pos]!r} is not an integer")
                    continue
            user_idx.append(users.setdefault(user, len(users)))
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
    """View of ``log`` containing only events of the given users."""
    wanted = set(user_ids)
    mask = np.fromiter((str(u) in wanted for u in log.users), count=len(log.users), dtype=bool)
    return log.select(mask[log.user_idx])


class ProfileSet:
    """Per-user lookups over one filtered log, held columnar as sorted pair keys.

    A (user, track) pair key is ``user_idx * n_tracks + track_idx``.  The
    signal builder reads two per-event flags (:meth:`event_flags`): whether
    the event's track is repeat listening for that user, and whether it is
    liked content (its track is in the user's liked-track set: favorited
    tracks plus tracks the user streamed under a favorited album).
    ``user_summary.csv`` reads :meth:`summary_columns`.  ``favorites`` holds
    the ``(user_ids, kinds, item_ids)`` columns of :func:`parse_favorites`
    (``()`` for none).
    """

    def __init__(self, log: EventLog, favorites=()):
        self._log = log
        n_users = len(log.users)
        n_tracks = len(log.tracks)
        self._n_tracks = n_tracks

        # Lifetime (user, track) play counts over the whole log.
        pair_key = log.user_idx.astype(np.int64) * n_tracks + log.track_idx
        self._pair_keys, pair_counts = np.unique(pair_key, return_counts=True)

        self._totals = np.bincount(log.user_idx, minlength=n_users)

        # Only users with at least one event are profiled; the shared string
        # table may hold more (filtered-out users of a select view).
        user_pos = {str(log.users[i]): int(i) for i in np.unique(log.user_idx)}
        track_pos = {str(t): i for i, t in enumerate(log.tracks)}
        album_pos = {str(a): i for i, a in enumerate(log.albums)}

        fav_track_keys: list[int] = []
        fav_album_keys: list[int] = []
        self.unknown_user_warnings = 0
        for user, kind, item in zip(*favorites):
            ui = user_pos.get(user)
            if ui is None:
                self.unknown_user_warnings += 1
                continue
            if kind == TRACK:
                ti = track_pos.get(item)
                if ti is not None:
                    fav_track_keys.append(ui * n_tracks + ti)
            else:
                ai = album_pos.get(item)
                if ai is not None:
                    fav_album_keys.append(ui * len(log.albums) + ai)

        # The liked-track set: the user's favorited tracks plus every track
        # they streamed under a favorited album.  An event is liked when its
        # (user, track) pair is in that set, whatever album it came under.
        album_key = log.user_idx.astype(np.int64) * len(log.albums) + log.album_idx
        album_liked = np.isin(album_key, np.asarray(fav_album_keys, dtype=np.int64))
        track_liked = np.isin(pair_key, np.asarray(fav_track_keys, dtype=np.int64))
        self._liked_pair_keys = np.unique(pair_key[album_liked | track_liked])
        self._event_liked = np.isin(pair_key, self._liked_pair_keys)

        repeated_pairs = self._pair_keys[pair_counts > REPEAT_PLAY_THRESHOLD]
        self._event_repeated = np.isin(pair_key, repeated_pairs)

        # Offset keeps pre-1970 days from bleeding into the previous user's block.
        day = log.local_timestamps() // 86400 + (1 << 31)
        day_key = log.user_idx.astype(np.int64) * (1 << 32) + day
        active_day_users = np.unique(day_key) >> 32
        self._active_days = np.bincount(active_day_users, minlength=n_users)

    def event_flags(self, log: EventLog) -> tuple[np.ndarray, np.ndarray]:
        """Per-event (repeated, liked) booleans of the profiled ``log``."""
        if log is not self._log:
            raise IngestError("event_flags requires the log the profiles were built from")
        return self._event_repeated, self._event_liked

    def summary_columns(self) -> tuple[tuple[str, ...], np.ndarray]:
        """Profiled user ids (sorted) and their ``user_summary.csv`` columns.

        The ``(n_users, 4)`` int64 matrix holds ``total_valid_streams``,
        ``active_days``, ``distinct_tracks`` and ``liked_tracks`` per user.
        """
        n_users = len(self._log.users)
        distinct = np.bincount(self._pair_keys // self._n_tracks, minlength=n_users)
        liked = np.bincount(self._liked_pair_keys // self._n_tracks, minlength=n_users)
        columns = np.column_stack([self._totals, self._active_days, distinct, liked])
        present = np.flatnonzero(self._totals)
        names = [str(u) for u in self._log.users[present]]
        order = sorted(range(len(names)), key=names.__getitem__)
        return tuple(names[i] for i in order), columns[present[order]]


def build_profiles(log: EventLog, favorites=()) -> ProfileSet:
    """Build per-user profiles from a duration-filtered, user-restricted log and favorites columns."""
    return ProfileSet(log, favorites)
