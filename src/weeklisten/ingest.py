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
columns, builds each block as one NUL-padded byte matrix and writes the six
required columns with the NULs dropped; an id the format cannot hold
unquoted is an error.  The favorites format
(``user_id,kind,item_id``, kind ``track`` or ``album``) lives here too, with
its writer :func:`write_favorites`.

Events are stored columnar (:class:`EventLog`): identifiers are interned
into lookup tables and each event carries int32 indexes, which keeps multi-million
row logs small and makes the downstream grouping operations plain numpy.
Every id table stays bytes (:class:`IdTable`); user ids become ``str`` once,
in :func:`build_profiles`, for the profiled users only.
:func:`parse_events` reads a file or pipe once, in the byte blocks of whole
lines that ``storage`` cuts, and parses each block with numpy: comma and
newline positions give the fields, plain integers are read by digit
arithmetic, origins, empty ids and ranges are checked as masks, and each id
column's distinct ids come from one ``np.unique`` per block, which numbers
them in sorted order, so the tables do not depend on line order.  A line may
end in ``\n`` or ``\r\n``.  One row checker decides every line the block parse
cannot accept, and every row of the ``csv.reader`` path, which takes the
rest of the same blocks from the first one that needs it (a quote, NUL, a
``\r`` not followed by ``\n``, or an overlong line); both paths give the
same log and report.
Favorites parse to columns as well (:func:`parse_favorites`).

The activity filter keeps users with at least one valid stream whose daily
average meets the threshold, so every active user gets a profile.
:func:`build_profiles` returns :class:`Profiles`, the one front-end record:
each event's signal row, clock and organic, repeated and liked bits, the
sorted user ids, the study period and the summary columns.
``user_summary.csv`` and the signal rows share its one sorted user order,
and no per-user record is ever built.  One liked-track set per user
(favorited tracks plus tracks streamed under a favorited album) drives both
the liked bit of an event and the ``liked_tracks`` count.  One stable sort
of the ``(user, track)`` pair keys gives the distinct pairs, their play
counts and each event's pair, and favorites are found by binary search in
their sorted keys.
"""

from __future__ import annotations

import csv
import os
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import storage
from .errors import PipelineError

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
            raise PipelineError(f"study period must have positive length, got [{self.start}, {self.end})")

    @property
    def days(self) -> float:
        return (self.end - self.start) / 86400.0

    @classmethod
    def covering(cls, log: "EventLog") -> "StudyPeriod":
        """Smallest hour-aligned period containing every event in ``log``."""
        if len(log) == 0:
            raise PipelineError("cannot derive a study period from an empty event log")
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

    ``users``, ``tracks`` and ``albums`` are interning tables, each in sorted
    order, and the per-event columns hold indexes into them.  All three are
    byte tables (:class:`IdTable`) that never make a ``str`` of an id.
    Filtered views created by :meth:`select` share the tables, so indexes
    stay comparable across a filter chain.
    """

    users: "IdTable"
    tracks: "IdTable"
    albums: "IdTable"
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


def _local_timestamps(timestamps: np.ndarray, tz_offset_min: np.ndarray, default_tz_offset_min: int) -> np.ndarray:
    """Epoch seconds shifted into each event's local clock.

    ``default_tz_offset_min`` applies to events without an offset and must
    lie in the tz column's range.
    """
    if not TZ_UNSET < default_tz_offset_min <= _INT32_MAX:
        raise PipelineError(f"default tz offset {default_tz_offset_min} minutes does not fit in 32 bits")
    offsets = np.where(tz_offset_min == TZ_UNSET, default_tz_offset_min, tz_offset_min)
    return timestamps + offsets.astype(np.int64) * 60


def parse_events(path) -> tuple[EventLog, ParseReport]:
    """Parse the events file at ``path`` into an :class:`EventLog`.

    The header is required and the columns are found by name.  Malformed
    lines are counted and reported by the physical line on which their
    record ends, never silently dropped; if they exceed
    :data:`MAX_MALFORMED_FRACTION` of the data lines the whole parse fails.
    A user id that is blank or holds a line break is malformed, since user
    index files hold one id per line.  Identifiers are interned in sorted
    order (:class:`IdTable`).

    The file is opened once and read once, in blocks of whole lines, which
    numpy splits at commas and line ends (``\\n`` or ``\\r\\n``) and whose
    plain integers, origins and ids it checks and reads; a line it cannot
    accept goes to the one row checker.  From the first block holding a
    quote, NUL, a ``\\r`` not followed by ``\\n`` or a line longer than
    ``csv.field_size_limit()`` to the end of the file, ``csv.reader`` splits
    the rows for that checker instead.  Either way the log and the report are
    the same; a pipe parses as a file does.

    Returns the log plus a :class:`ParseReport`.
    """
    parsed = None
    line_base = 0
    with storage._opened(path, "events") as fh:
        blocks = storage._blocks(fh)
        for block in blocks:
            data = np.frombuffer(block, dtype=np.uint8)
            newlines = np.flatnonzero(data == ord("\n"))
            # A line ending in "\r\n" ends before its "\r".  The block ends with a
            # newline, so the first line's look-back (index -1) reads a newline.
            crlf = data[newlines - 1] == ord("\r")
            if (any(byte in block for byte in _CSV_ONLY)
                    or block.count(b"\r") != np.count_nonzero(crlf)
                    or np.diff(newlines, prepend=-1).max() > csv.field_size_limit()):
                blocks = chain([block], blocks)
                break
            if not block.isascii():
                storage._decoded(block, line_base)  # raises at the first byte that is not UTF-8
            starts = np.concatenate(([0], newlines[:-1] + 1))
            ends = newlines - crlf
            skip = 0
            if parsed is None:  # the header line
                header = block[:ends[0]].decode("utf-8")
                # A pipe reports size 0: its columns start small and grow.
                parsed = _EventColumns([h.strip() for h in header.split(",")] if header else [],
                                       os.fstat(fh.fileno()).st_size or None)
                skip = 1
            parsed.add_lines(block, starts[skip:], ends[skip:], line_base + skip)
            line_base += len(newlines)
        else:
            if parsed is not None:  # no block needed csv.reader
                return parsed.result()
        reader = storage._csv_reader(blocks, line_base)
        if parsed is None:  # the first block needs csv.reader, or the file is empty
            parsed = _EventColumns(storage._header(reader, path, "events"))
        parsed.add_rows(reader, line_base)
    return parsed.result()


#: A block holding one of these bytes, or a ``\r`` that ends a line on its own,
#: and every block after it, is split by ``csv.reader``: a quote may open a
#: field holding commas or line breaks, and the reader of Python 3.10 rejects NUL.
_CSV_ONLY = (b'"', b"\0")
#: Items taken at a time where each one becomes a Python object: the rows the
#: ``csv.reader`` path collects before interning, and ids made ``str``.
_CHUNK = 1 << 16
#: Digits of an integer the block parse reads itself; 18 cannot overflow int64.
_MAX_DIGITS = 18
_POW10 = 10 ** np.arange(_MAX_DIGITS - 1, -1, -1, dtype=np.int64)
#: First bytes of a user id that may be all whitespace: ASCII whitespace and non-ASCII bytes.
_MAY_BE_BLANK = np.zeros(256, dtype=bool)
_MAY_BE_BLANK[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True
_MAY_BE_BLANK[0x80:] = True
#: Per-event column dtypes: user, track and album indexes, timestamp, duration, organic, tz offset.
_DTYPES = (np.int32, np.int32, np.int32, np.int64, np.int32, bool, np.int32)
#: The byte that ends each id inside an :class:`_Interner`.
_END = 1


class _EventColumns:
    """A parse in progress: the event columns, the id interners and the malformed-line report."""

    def __init__(self, header: list[str], size: int | None = None):
        """``size`` is the source's byte count, when known; the columns then never grow."""
        for col in EVENT_COLUMNS:
            if col not in header:
                raise PipelineError(f"events header is missing required column {col!r}; got {header}")
        self.n_cols = len(header)
        self.positions = [header.index(col) for col in EVENT_COLUMNS]
        self.tz_pos = header.index(TZ_COLUMN) if TZ_COLUMN in header else None
        self.interners = (_Interner(), _Interner(), _Interner())  # users, tracks, albums
        # An event line holds n_cols - 1 commas, a line end, an origin token
        # and five nonempty fields, so no source holds more events than this.
        capacity = _CHUNK if size is None else size // (self.n_cols + len(ORGANIC) + 5) + 1
        #: One column per :data:`_DTYPES` entry; the id columns hold sequence
        #: numbers of their :class:`_Interner` until :meth:`result`.
        self.columns = tuple(_Column(dtype, capacity) for dtype in _DTYPES)
        self.total = 0
        self.malformed = 0
        self.details: list[tuple[int, str]] = []

    def check(self, row: list[str]):
        """The row checker: why a CSV row is malformed, or its event values.

        The values are ``(user, track, album, timestamp, duration, organic, tz)``,
        with ``tz`` :data:`TZ_UNSET` when the row gives no offset.
        """
        if len(row) != self.n_cols:
            return f"expected {self.n_cols} fields, got {len(row)}"
        u_pos, ts_pos, tr_pos, al_pos, or_pos, du_pos = self.positions
        user, track, album = row[u_pos], row[tr_pos], row[al_pos]
        if not user or not track or not album:
            return "empty identifier field"
        origin = row[or_pos]
        if origin not in ORIGIN_TOKENS:
            return f"unknown origin token {origin!r}"
        try:
            ts = int(row[ts_pos])
        except ValueError:
            return f"timestamp {row[ts_pos]!r} is not an integer"
        if not TIMESTAMP_MIN <= ts <= TIMESTAMP_MAX:
            return f"timestamp {ts} is not between {TIMESTAMP_MIN} and {TIMESTAMP_MAX}"
        try:
            duration = int(row[du_pos])
        except ValueError:
            return f"listen_duration {row[du_pos]!r} is not an integer"
        if not 0 <= duration <= _INT32_MAX:
            return f"listen_duration {duration} " + ("is negative" if duration < 0 else "does not fit in 32 bits")
        tz = TZ_UNSET
        if self.tz_pos is not None and row[self.tz_pos] != "":
            try:
                tz = int(row[self.tz_pos])
            except ValueError:
                return f"tz_offset_min {row[self.tz_pos]!r} is not an integer"
            if not TZ_UNSET < tz <= _INT32_MAX:  # TZ_UNSET itself is the no-offset sentinel
                return f"tz_offset_min {tz} does not fit in 32 bits"
        if user.isspace() or "\n" in user or "\r" in user:  # it must fit on one line of a user index file
            return f"user id {user!r} is blank or holds a line break"
        return user, track, album, ts, duration, origin == ORGANIC, tz

    def add_rows(self, reader, line_base: int = 0) -> None:
        """Check and add the rows of a ``csv.reader``, after ``line_base`` physical lines."""
        ids = user_ids, track_ids, album_ids = [], [], []
        values = timestamps, durations, organic, tz_offsets = tuple(array(code) for code in "qibi")
        for row in reader:
            if not row:
                continue  # blank line, not a record
            self.total += 1
            checked = self.check(row)
            if isinstance(checked, str):
                self._reject(line_base + reader.line_num, checked)
                continue
            user, track, album, ts, duration, is_organic, tz = checked
            user_ids.append(user)
            track_ids.append(track)
            album_ids.append(album)
            timestamps.append(ts)
            durations.append(duration)
            organic.append(is_organic)
            tz_offsets.append(tz)
            if len(user_ids) == _CHUNK:
                self._append_rows(ids, values)
        self._append_rows(ids, values)

    def _append_rows(self, ids, values) -> None:
        """Add and clear the columns that :meth:`add_rows` collects."""
        self._append([interner.add_strings(column) for interner, column in zip(self.interners, ids)]
                     + [np.frombuffer(column, dtype=column.typecode) for column in values])
        for column in ids + values:
            del column[:]

    def add_lines(self, block: bytes, starts: np.ndarray, ends: np.ndarray, line_base: int) -> None:
        """Check and add the lines ``block[starts:ends]``, with numpy.

        ``block`` is free of :data:`_CSV_ONLY` bytes; its lines, without their
        line ends, follow ``line_base`` physical lines.  Fields are found
        between commas and line ends, plain integers read by digit arithmetic,
        and ids interned by :class:`_Interner`; every line that this cannot
        accept goes to :meth:`check`, in line order.
        """
        if len(starts) == 0:
            return
        # A zero-padded copy of the block keeps every fixed-width window of a field inside it.
        pad = _MAX_DIGITS
        padded = np.zeros(pad + len(block) + 2 * int((ends - starts).max()) + 8, dtype=np.uint8)
        padded[pad:pad + len(block)] = np.frombuffer(block, dtype=np.uint8)
        starts = starts + pad
        ends = ends + pad
        commas = np.flatnonzero(padded == ord(","))
        first = np.searchsorted(commas, starts)
        good = np.flatnonzero(np.searchsorted(commas, ends) - first == self.n_cols - 1)
        first = first[good]

        def field(k):
            lo = starts[good] if k == 0 else commas[first + (k - 1)] + 1
            return lo, ends[good] if k == self.n_cols - 1 else commas[first + k]

        (us, ue), (ts_s, ts_e), (trs, tre), (als, ale), (ors, ore), (dus, due) = map(field, self.positions)
        timestamps, ok = _plain_ints(padded, ts_s, ts_e)  # at most 18 digits: always in range
        durations, plain = _plain_ints(padded, dus, due)
        ok &= plain & (durations >= 0) & (durations <= _INT32_MAX)
        if self.tz_pos is None:
            tz = np.full(len(good), TZ_UNSET, dtype=np.int64)
        else:
            tzs, tze = field(self.tz_pos)
            tz, plain = _plain_ints(padded, tzs, tze)
            unset = tzs == tze
            tz[unset] = TZ_UNSET
            ok &= unset | (plain & (tz > TZ_UNSET) & (tz <= _INT32_MAX))
        organic = _equals(padded, ors, ore, ORGANIC)
        ok &= organic | _equals(padded, ors, ore, ALGORITHMIC)
        ok &= (ue > us) & (tre > trs) & (ale > als) & ~_MAY_BE_BLANK[padded[us]]

        slow = starts != ends  # every line but a blank one, which is not a record
        self.total += int(np.count_nonzero(slow))
        slow[good[ok]] = False
        for i in np.flatnonzero(slow).tolist():
            checked = self.check(block[starts[i] - pad:ends[i] - pad].decode("utf-8").split(","))
            if isinstance(checked, str):
                self._reject(line_base + i + 1, checked)
                continue
            j = int(np.searchsorted(good, i))  # the row has all its fields, so its line is good
            ok[j] = True
            _, _, _, timestamps[j], durations[j], organic[j], tz[j] = checked
        kept = np.flatnonzero(ok)
        users, tracks, albums = self.interners
        self._append((users.add(padded, us[kept], ue[kept]), tracks.add(padded, trs[kept], tre[kept]),
                      albums.add(padded, als[kept], ale[kept]),
                      timestamps[kept], durations[kept], organic[kept], tz[kept]))

    def _reject(self, line_no: int, why: str) -> None:
        self.malformed += 1
        if len(self.details) < MAX_REPORTED_DETAILS:
            self.details.append((line_no, why))

    def _append(self, columns) -> None:
        for column, values in zip(self.columns, columns):
            column.extend(values)

    def result(self) -> tuple[EventLog, ParseReport]:
        """The log and report; raises when too many lines were malformed."""
        report = ParseReport(total_lines=self.total, parsed=self.total - self.malformed,
                             malformed_count=self.malformed, details=tuple(self.details))
        if self.total > 0 and self.malformed > MAX_MALFORMED_FRACTION * self.total:
            raise PipelineError(f"too many malformed lines: {report.summary()}")
        columns = [column.finish() for column in self.columns]
        tables = []
        for seqs, interner in zip(columns, self.interners):
            table, index_of_seq = interner.table()
            tables.append(table)
            np.take(index_of_seq, seqs, out=seqs)
        return EventLog(*tables, *columns), report


def _plain_ints(padded: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int64 values of the fields ``padded[starts:ends]``, and which fields are plain integers.

    A plain integer is an optional ``-`` and 1 to :data:`_MAX_DIGITS` ASCII
    digits.  Other fields, which Python's ``int`` may still read, are not.
    """
    negative = padded[starts] == ord("-")
    n_digits = ends - starts - negative
    plain = (n_digits >= 1) & (n_digits <= _MAX_DIGITS)
    width = int(np.clip(n_digits.max(initial=1), 1, _MAX_DIGITS))
    digits = sliding_window_view(padded, width)[ends - width]  # right-aligned on each field's end
    digits -= ord("0")  # other bytes wrap to values above 9
    digits[np.arange(width) < (width - n_digits)[:, None]] = 0  # the bytes before the digits
    not_digit = digits > 9
    plain &= ~not_digit.any(axis=1)
    digits[not_digit] = 0
    values = digits.astype(np.int64) @ _POW10[-width:]
    np.negative(values, out=values, where=negative)
    return values, plain


def _equals(padded: np.ndarray, starts: np.ndarray, ends: np.ndarray, token: str) -> np.ndarray:
    """Which fields ``padded[starts:ends]`` equal the ASCII ``token``."""
    expected = np.frombuffer(token.encode("ascii"), dtype=np.uint8)
    windows = sliding_window_view(padded, len(expected))[starts]
    return (ends - starts == len(expected)) & (windows == expected).all(axis=1)


class _Interner:
    """Interns one id column block by block, and numbers its ids in sorted order.

    Ids are kept as bytes with an end marker (so that an id ending in NUL
    stays distinct), zero-padded to a width class of 8, 16, 32, ... bytes,
    which keeps every fixed-width array within twice the bytes of its ids.
    One ``np.unique`` per class finds a block's distinct ids, and each gets
    the next sequence number in that sorted order.  :meth:`table` merges the
    blocks the same way into an :class:`IdTable`, still as bytes.
    """

    def __init__(self):
        self.distinct: dict[int, _Column] = {}  # width -> the blocks' distinct ids
        self.seqs: dict[int, _Column] = {}  # width -> their sequence numbers
        self.count = 0

    def add(self, padded: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Sequence numbers of the UTF-8 ids ``padded[starts:ends]``, in order.

        ``padded`` must reach at least ``max(8, 2 * length)`` bytes past each
        id's start, the widest window an id of that length is read through.
        """
        lengths = ends - starts
        widths = _width_class(lengths)
        seq = np.empty(len(starts), dtype=np.int64)
        for width in np.flatnonzero(np.bincount(widths)).tolist():
            rows = np.flatnonzero(widths == width)
            ids = sliding_window_view(padded, width)[starts[rows]]
            ids *= np.arange(width) < lengths[rows, None]
            ids[np.arange(len(rows)), lengths[rows]] = _END
            distinct, inverse = np.unique(ids.view(f"S{width}").reshape(-1), return_inverse=True)
            seq[rows] = inverse + self.count
            if width not in self.distinct:  # first capacity: 512 kB of ids, so a long id reserves little
                self.distinct[width] = _Column(f"S{width}", 8 * _CHUNK // width)
                self.seqs[width] = _Column(np.int64, 8 * _CHUNK // width)
            self.distinct[width].extend(distinct)
            self.seqs[width].extend(np.arange(self.count, self.count + len(distinct)))
            self.count += len(distinct)
        return seq

    def add_strings(self, ids: list[str]) -> np.ndarray:
        """Sequence numbers of ``ids``, as :meth:`add` gives them."""
        joined = "".join(ids).encode("utf-8", "surrogatepass")
        lengths = np.fromiter(map(len, ids), dtype=np.int64, count=len(ids))
        if len(joined) != lengths.sum():  # not all ASCII: count bytes, not characters
            lengths = np.fromiter((len(i.encode("utf-8", "surrogatepass")) for i in ids), dtype=np.int64,
                                  count=len(ids))
        ends = np.cumsum(lengths)
        joined = np.frombuffer(joined, dtype=np.uint8)
        padded = np.zeros(len(joined) + 2 * int(lengths.max(initial=0)) + 8, dtype=np.uint8)
        padded[:len(joined)] = joined
        return self.add(padded, ends - lengths, ends)

    def table(self) -> tuple["IdTable", np.ndarray]:
        """The ids as an :class:`IdTable`, and the table index of each sequence number."""
        keys = []
        index_of_seq = np.empty(self.count, dtype=np.int32)
        for width in sorted(self.distinct):
            ids = self.distinct.pop(width).finish()
            # The stable sort merges the blocks' sorted runs fastest; the index itself is not needed.
            distinct, _, inverse = np.unique(ids, return_index=True, return_inverse=True)
            del ids
            index_of_seq[self.seqs.pop(width).finish()] = inverse + sum(map(len, keys))
            keys.append(distinct)
        return IdTable(tuple(keys)), index_of_seq


def _width_class(lengths):
    """The width class of ids of ``lengths`` bytes: the least of 8, 16, 32, ... above each length."""
    return np.left_shift(1, np.frexp(np.maximum(lengths, 7))[1])


@dataclass(frozen=True, eq=False)
class IdTable:
    """The distinct ids of an id column, kept as bytes: no id table holds a ``str``.

    ``keys[c]`` lists the ids of one width class (8, 16, 32, ... bytes) in
    sorted order, each as its UTF-8 bytes, an end marker and NUL padding.
    Table indexes number the ids in that order, narrowest class first, so the
    table is the same whatever order its ids were read in.
    """

    keys: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return sum(map(len, self.keys))

    def find(self, ids: list[str]) -> np.ndarray:
        """The table index of each of ``ids`` (int64), -1 for an id not in the table; one binary search each."""
        found = np.full(len(ids), -1, dtype=np.int64)
        wanted = [i.encode("utf-8", "surrogatepass") + bytes([_END]) for i in ids]
        widths = _width_class(np.fromiter(map(len, wanted), dtype=np.int64, count=len(wanted)) - 1)
        offset = 0
        for keys in self.keys:
            rows = np.flatnonzero(widths == keys.dtype.itemsize)
            if len(rows):
                sought = np.array([wanted[row] for row in rows.tolist()], dtype=keys.dtype)
                pos = np.minimum(np.searchsorted(keys, sought), len(keys) - 1)
                hit = keys[pos] == sought
                found[rows[hit]] = pos[hit] + offset
            offset += len(keys)
        return found

    def decoded(self, indexes: np.ndarray | None = None) -> np.ndarray:
        """The ids as ``str`` in table order (an object array), or only those at the ascending table ``indexes``."""
        bounds = np.cumsum([0, *map(len, self.keys)])
        picked = [keys if indexes is None else keys[indexes[(indexes >= lo) & (indexes < hi)] - lo]
                  for keys, lo, hi in zip(self.keys, bounds.tolist(), bounds[1:].tolist())]
        return np.fromiter((key[:-1].decode("utf-8", "surrogatepass")  # less the end marker
                            for keys in picked
                            for i in range(0, len(keys), _CHUNK)
                            for key in keys[i:i + _CHUNK].tolist()),
                           dtype=object, count=sum(map(len, picked)))


class _Column:
    """A 1-D array filled at its end; ``ndarray.resize`` grows it in place when full."""

    def __init__(self, dtype, capacity: int):
        self.data = np.empty(capacity, dtype=dtype)
        self.size = 0

    def extend(self, values: np.ndarray) -> None:
        end = self.size + len(values)
        if end > len(self.data):
            self.data.resize(max(end, 2 * len(self.data)), refcheck=False)
        self.data[self.size:end] = values
        self.size = end

    def finish(self) -> np.ndarray:
        """The filled part, as the array itself (no copy)."""
        self.data.resize(self.size, refcheck=False)
        return self.data


class IdPatterns(NamedTuple):
    """An id column of :func:`write_events` given as patterns over the row's user id.

    Id ``i`` is ``heads[kind[i]]``, the user id of row ``i``,
    ``tails[kind[i]]`` and then ``counter[i]`` in decimal, which a negative
    counter leaves out.
    """

    heads: tuple[str, ...]
    tails: tuple[str, ...]
    kind: np.ndarray
    counter: np.ndarray


#: Characters an id may not hold: the writers write ids unquoted, and the events writer drops NUL.
_NOT_IN_IDS = (",", '"', "\r", "\n", "\0")


def write_events(path, blocks: Iterable[tuple]) -> int:
    """Write ``events.csv`` from blocks of columns; returns the number of event lines.

    Each block holds one equal-length column per :data:`EVENT_COLUMNS` entry,
    in that order: user ids, epoch-second timestamps, track ids, album ids,
    an ``organic`` boolean and listen durations.  An id column is an array of
    ``str`` or of UTF-8 ``bytes`` (numpy ``S``), and a track or album column
    may instead be :class:`IdPatterns` over the user ids.  Each block becomes
    one NUL-padded ``uint8`` matrix with a row per line and fixed columns
    (ids as bytes, integers as digits from ``np.divmod``, origin tokens from
    a byte table), written with its NUL bytes dropped.  No tz column is
    written.  Ids are written unquoted, so an id holding a comma, a quote, a
    line break or NUL raises :class:`PipelineError`, naming it.
    """
    origins = _utf8_rows([ALGORITHMIC, ORGANIC])
    lines = 0
    with open(path, "wb") as fh:
        fh.write((",".join(EVENT_COLUMNS) + "\n").encode("ascii"))
        for users, timestamps, tracks, albums, organic, durations in blocks:
            user = _id_bytes("user", users)
            fields = [[user], [_digits(timestamps)], _id_pieces("track", tracks, user),
                      _id_pieces("album", albums, user), [origins[np.asarray(organic, dtype=np.intp)]],
                      [_digits(durations)]]
            widths = [piece.shape[1] for field in fields for piece in field]
            rows = np.zeros((len(user), sum(widths) + len(fields)), dtype=np.uint8)
            col = 0
            for field in fields:
                for piece in field:
                    rows[:, col:col + piece.shape[1]] = piece
                    col += piece.shape[1]
                rows[:, col] = ord(",")
                col += 1
            rows[:, -1] = ord("\n")
            fh.write(rows[rows != 0])
            lines += len(rows)
    return lines


def _utf8_rows(strings: list[str]) -> np.ndarray:
    """``strings`` in UTF-8, one NUL-padded ``uint8`` row each."""
    encoded = np.array([string.encode("utf-8") for string in strings], dtype=bytes)
    return encoded.view(np.uint8).reshape(len(encoded), encoded.dtype.itemsize)


def _check_ids(name: str, ids: list[str]) -> None:
    """Raise naming the first of ``ids`` that holds one of :data:`_NOT_IN_IDS`."""
    joined = "".join(ids)
    if any(char in joined for char in _NOT_IN_IDS):
        bad = next(i for i in ids if any(char in i for char in _NOT_IN_IDS))
        raise PipelineError(f"{name} id {bad!r} holds a comma, quote, line break or NUL, "
                            "which an id written unquoted cannot hold")


def _id_bytes(name: str, ids: np.ndarray) -> np.ndarray:
    """The ids of a ``str`` or ``bytes`` column as UTF-8, one NUL-padded ``uint8`` row each."""
    if ids.dtype.kind != "S":
        strings = ids.tolist()
        _check_ids(name, strings)
        return _utf8_rows(strings)
    rows = ids.view(np.uint8).reshape(len(ids), ids.dtype.itemsize)
    bad = np.isin(rows, np.frombuffer(b',"\r\n', dtype=np.uint8)).any(axis=1)
    bad |= ((rows[:, :-1] == 0) & (rows[:, 1:] != 0)).any(axis=1)  # a NUL before a byte of the id
    if bad.any():
        _check_ids(name, [ids[np.argmax(bad)].decode("utf-8", "replace")])
    return rows


def _id_pieces(name: str, ids, user: np.ndarray) -> list[np.ndarray]:
    """The ``uint8`` row pieces that spell out a track or album column, given the user id rows."""
    if not isinstance(ids, IdPatterns):
        return [_id_bytes(name, ids)]
    _check_ids(f"{name} pattern", [*ids.heads, *ids.tails])
    kind = np.asarray(ids.kind, dtype=np.intp)
    counter = np.asarray(ids.counter)
    digits = _digits(np.maximum(counter, 0))
    digits[counter < 0] = 0
    return [_utf8_rows(ids.heads)[kind], user, _utf8_rows(ids.tails)[kind], digits]


def _digits(values) -> np.ndarray:
    """Integers in decimal ASCII, one right-aligned ``uint8`` row each, NUL before the sign or first digit."""
    values = np.asarray(values, dtype=np.int64)
    negative = values < 0
    magnitude = np.abs(values).view(np.uint64)  # the int64 minimum too
    largest = int(magnitude.max(initial=0))
    if largest <= _INT32_MAX:
        magnitude = magnitude.astype(np.int32)
    sign = int(negative.any())
    rows = np.zeros((len(values), sign + len(str(largest))), dtype=np.uint8)
    last = rows.shape[1] - 1
    for k in range(last, sign - 1, -1):
        shown = (magnitude != 0) | (k == last)
        magnitude, digit = np.divmod(magnitude, 10)
        rows[:, k] = np.where(shown, digit + ord("0"), 0)
    if sign:
        neg = np.flatnonzero(negative)
        rows[neg, last - np.count_nonzero(rows[neg], axis=1)] = ord("-")
    return rows


def write_favorites(path, user_ids: list[str], kinds: list[str], item_ids: list[str]) -> None:
    """Write the favorites CSV from the three columns :func:`parse_favorites` returns.

    Identifiers are written unquoted, so a user or item id holding a comma, a
    quote, a line break or NUL raises :class:`PipelineError`, naming it.
    """
    _check_ids("user", user_ids)
    _check_ids("item", item_ids)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(FAVORITES_COLUMNS) + "\n")
        fh.writelines(",".join(fields) + "\n" for fields in zip(user_ids, kinds, item_ids))


def parse_favorites(path) -> tuple[list[str], list[str], list[str]]:
    """Parse the favorites CSV at ``path`` (header ``user_id,kind,item_id``) into those three columns.

    Strict: a malformed line or an unknown kind is an error naming its line.
    The file is read once, through ``storage.csv_rows``.
    """
    with storage.csv_rows(path, "favorites") as (header, reader):
        expected = list(FAVORITES_COLUMNS)
        if header != expected:
            raise PipelineError(f"favorites header must be {expected}, got {header}")
        users, kinds, items = [], [], []
        for row in reader:
            if not row:
                continue
            if len(row) != 3 or not row[0] or not row[2]:
                raise PipelineError(f"favorites line {reader.line_num} is malformed: {row}")
            if row[1] not in (TRACK, ALBUM):
                raise PipelineError(f"favorites line {reader.line_num} has unknown kind {row[1]!r}")
            users.append(row[0])
            kinds.append(row[1])
            items.append(row[2])
    return users, kinds, items


def filter_valid_streams(log: EventLog, min_listen_secs: int = MIN_LISTEN_SECS) -> EventLog:
    """Keep events with ``listen_duration >= min_listen_secs``; order preserved."""
    return log.select(log.durations >= min_listen_secs)


def filter_active_users(log: EventLog, period: StudyPeriod,
                        min_daily_streams: float = MIN_DAILY_STREAMS) -> np.ndarray:
    """Users averaging at least ``min_daily_streams`` valid streams per day.

    ``log`` must already be duration-filtered.  Only users with an event in
    ``log`` count, so a threshold of 0 keeps exactly the users with a valid
    stream.  Returns their indexes into ``log.users``, ascending.
    """
    counts = np.bincount(log.user_idx, minlength=len(log.users))
    return np.flatnonzero((counts > 0) & (counts / period.days >= min_daily_streams))


def restrict_to_users(log: EventLog, users: np.ndarray) -> EventLog:
    """View of ``log`` holding the events of the users at table indexes ``users``; ``log`` itself if that is all."""
    wanted = np.zeros(len(log.users), dtype=bool)
    wanted[users] = True
    keep = wanted[log.user_idx]
    return log if keep.all() else log.select(keep)


#: Bits of :attr:`Profiles.flags`: the event is organic, its track is repeat
#: listening for its user, its track is in the user's liked-track set.
ORGANIC_BIT, REPEATED_BIT, LIKED_BIT = 1, 2, 4


class Profiles(NamedTuple):
    """The ingest front end: the restricted log packed to what ``signals`` reads, and the user summary.

    ``row`` (int32), ``timestamps`` (int64), ``tz_offset_min`` (int32,
    :data:`TZ_UNSET` for no offset) and ``flags`` (uint8 bits) hold one entry
    per event of the log, in its order.  ``row`` indexes ``user_ids``, the
    users with an event, sorted, which are also the rows of ``summary`` (the
    int64 ``total_valid_streams``, ``active_days``, ``distinct_tracks`` and
    ``liked_tracks`` of ``user_summary.csv``) and of the signal matrix.
    ``unknown_user_warnings`` counts the favorites of users without an event.
    """

    user_ids: tuple[str, ...]
    period: StudyPeriod
    row: np.ndarray
    timestamps: np.ndarray
    tz_offset_min: np.ndarray
    flags: np.ndarray
    summary: np.ndarray
    unknown_user_warnings: int


def build_profiles(log: EventLog, period: StudyPeriod, favorites=()) -> Profiles:
    """Profiles of a duration-filtered, user-restricted log over ``period`` and favorites columns (``()`` for none).

    They share only the log's timestamp and tz columns.  Each step frees its
    per-event temporaries before the next one starts.
    """
    n_users = len(log.users)
    n_tracks = len(log.tracks)
    totals = np.bincount(log.user_idx, minlength=n_users)

    # Only users with at least one event are profiled, and only their ids become
    # ``str``; the shared table may hold more (filtered-out users of a select view).
    present = np.flatnonzero(totals)
    names = log.users.decoded(present).tolist()
    order = sorted(range(len(names)), key=names.__getitem__)
    row_of_user = np.full(n_users, -1, dtype=np.int32)
    row_of_user[present[order]] = np.arange(len(order))

    # Distinct (user, local day) pairs, found by sorting on both columns so
    # that no day number has to fit in a packed key.
    day = _local_timestamps(log.timestamps, log.tz_offset_min, 0)
    day //= 86400
    by_day = np.lexsort((day, log.user_idx))
    day = day[by_day]
    user_sorted = log.user_idx[by_day]
    del by_day
    new_day = _starts_of_runs(day)
    new_day[1:] |= user_sorted[1:] != user_sorted[:-1]
    active_days = np.bincount(user_sorted[new_day], minlength=n_users)
    del day, user_sorted, new_day

    # Favorites' users and items are found by binary search in the byte tables
    # (a user without an event here is unknown), and kept as sorted keys
    # ``user_idx * len(table) + item_idx``.
    fav_users, fav_kinds, fav_items = favorites or ((), (), ())
    fav_user = log.users.find(fav_users)
    fav_user[~_in_sorted(fav_user, present)] = -1
    fav_keys = {}
    for kind, table in ((TRACK, log.tracks), (ALBUM, log.albums)):
        rows = [i for i, k in enumerate(fav_kinds) if k == kind]
        user, item = fav_user[rows], table.find([fav_items[i] for i in rows])
        found = (user >= 0) & (item >= 0)
        fav_keys[kind] = np.unique(user[found] * len(table) + item[found])
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
    # Each pair's repeat and liked bits reach its events' flags in one scatter.
    pair_flags = (pair_counts > REPEAT_PLAY_THRESHOLD) * np.uint8(REPEATED_BIT)
    pair_flags |= pair_liked * np.uint8(LIKED_BIT)
    flags = log.organic * np.uint8(ORGANIC_BIT)
    flags[by_pair] |= np.repeat(pair_flags, pair_counts)
    del by_pair, pair_flags

    summary = np.column_stack([
        totals,
        active_days,
        np.bincount(pair_keys // n_tracks, minlength=n_users),
        np.bincount(pair_keys[pair_liked] // n_tracks, minlength=n_users),
    ])
    return Profiles(
        user_ids=tuple(names[i] for i in order),
        period=period,
        row=row_of_user[log.user_idx],
        timestamps=log.timestamps,
        tz_offset_min=log.tz_offset_min,
        flags=flags,
        summary=summary[present[order]],
        unknown_user_warnings=int(np.count_nonzero(fav_user < 0)),
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
