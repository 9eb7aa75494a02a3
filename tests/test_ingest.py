import csv
import io
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from weeklisten import ingest, storage
from weeklisten.errors import PipelineError

from conftest import (DAY, EVENTS_HEADER, MONDAY, events_csv_lines, favorites_of, log_of, make_event, records,
                      user_indexes, write_lines)


def quoted_header_copy(path):
    """A copy of the events file at ``path`` whose header quotes its first column name.

    The quote sends the copy through ``csv.reader`` from its first block.
    """
    copy = path.with_name("quoted_" + path.name)
    copy.write_bytes(b'"' + path.read_bytes().replace(b",", b'",', 1))
    return copy


def test_parse_two_valid_lines(tmp_path):
    lines = events_csv_lines([
        f"u1,{MONDAY},t1,a1,organic,120",
        f"u2,{MONDAY + 60},t2,a2,algorithmic,45",
    ])
    log, report = ingest.parse_events(write_lines(tmp_path / "events.csv", lines))
    assert len(log) == 2
    assert report.malformed_count == 0
    assert records(log)[0] == make_event(user="u1", timestamp=MONDAY, duration=120)
    assert records(log)[1].origin == "algorithmic"


def test_parse_origin_enum_mapping(tmp_path):
    lines = events_csv_lines([f"u1,{MONDAY},t1,a1,organic,120"])
    log, _ = ingest.parse_events(write_lines(tmp_path / "events.csv", lines))
    assert records(log)[0].origin == ingest.ORGANIC


def test_parse_negative_duration_is_record_level_error(tmp_path):
    good = [f"u{i},{MONDAY + i},t,a,organic,60" for i in range(100)]
    lines = events_csv_lines(good + [f"ubad,{MONDAY},t,a,organic,-5"])
    log, report = ingest.parse_events(write_lines(tmp_path / "events.csv", lines))
    assert len(log) == 100
    assert report.malformed_count == 1
    assert report.details[0][1].startswith("listen_duration -5")
    assert all(ev.listen_duration >= 0 for ev in records(log))


def test_parse_unknown_origin_reports_line_number(tmp_path):
    good = [f"u{i},{MONDAY + i},t,a,organic,60" for i in range(100)]
    lines = events_csv_lines(good[:50] + [f"ux,{MONDAY},t,a,paid,60"] + good[50:])
    _, report = ingest.parse_events(write_lines(tmp_path / "events.csv", lines))
    assert report.malformed_count == 1
    line_no, reason = report.details[0]
    assert line_no == 52  # header is line 1
    assert "paid" in reason


def test_malformed_lines_are_numbered_by_physical_line(tmp_path):
    # A quoted field spanning two lines must not shift the line numbers after it.
    good = [f"u{i},{MONDAY + i},t,a,organic,60" for i in range(150)]
    lines = events_csv_lines([f'u0,{MONDAY},"two\nlines",a,organic,60'] + good + [f"ux,{MONDAY},t,a,paid,60"])
    _, report = ingest.parse_events(write_lines(tmp_path / "events.csv", lines))
    assert report.details == ((154, "unknown origin token 'paid'"),)  # header 1, quoted record 2-3
    favorites = ["user_id,kind,item_id\n", 'u1,track,"t\n9"\n', "u1,artist,x\n"]
    with pytest.raises(PipelineError, match="favorites line 4 has unknown kind"):
        ingest.parse_favorites(write_lines(tmp_path / "favorites.csv", favorites))


def test_non_utf8_source_names_line_and_byte_column(tmp_path):
    path = tmp_path / "events.csv"
    lines = events_csv_lines([f"u{i},{MONDAY + i},t{i},a,organic,60" for i in range(5000)])
    lines[4000] = lines[4000].replace(",a,", ",a\udcff,")
    path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
    column = len(lines[4000].split("\udcff")[0].encode()) + 1
    with pytest.raises(PipelineError, match=f"cannot read events source .*: line 4001, byte column {column}: "
                                          r"not UTF-8 \(byte 0xff, invalid start byte\)"):
        ingest.parse_events(path)


def test_user_ids_that_do_not_fit_one_index_line_are_malformed(tmp_path):
    # User index files hold one id per line: a blank id or one holding a line break is malformed,
    # named by the physical line on which its record ends.  Other whitespace is kept.
    good = [f"u{i},{MONDAY + i},t,a,organic,60" for i in range(300)]
    bad = [f"  ,{MONDAY},t,a,organic,60", f'"x\ny",{MONDAY},t,a,organic,60', f'"x\ry",{MONDAY},t,a,organic,60']
    lines = events_csv_lines(good[:100] + bad[:1] + good[100:200] + bad[1:2] + good[200:] + bad[2:]
                             + [f" u1 ,{MONDAY},t,a,organic,60"])
    log, report = ingest.parse_events(write_lines(tmp_path / "events.csv", lines))
    assert report.details == ((102, "user id '  ' is blank or holds a line break"),
                              (204, "user id 'x\\ny' is blank or holds a line break"),
                              (306, "user id 'x\\ry' is blank or holds a line break"))
    assert len(log) == 301 and log.users.decoded()[log.user_idx[-1]] == " u1 "


def test_parse_too_many_malformed_is_fatal(tmp_path):
    lines = events_csv_lines([
        f"u1,{MONDAY},t,a,organic,60",
        "garbage",
        "more,garbage",
    ])
    path = write_lines(tmp_path / "events.csv", lines)
    for source in (path, quoted_header_copy(path)):
        with pytest.raises(PipelineError, match="too many malformed"):
            ingest.parse_events(source)


OUT_OF_RANGE = f"not between {ingest.TIMESTAMP_MIN} and {ingest.TIMESTAMP_MAX}"


@pytest.mark.parametrize("row, reason", [
    (f"ux,{MONDAY},t,a,organic,{2**31},", f"listen_duration {2**31} does not fit in 32 bits"),
    (f"ux,{MONDAY},t,a,organic,60,{-2**31 - 1}", f"tz_offset_min {-2**31 - 1} does not fit in 32 bits"),
    (f"ux,{MONDAY},t,a,organic,60,{-2**31}", f"tz_offset_min {-2**31} does not fit in 32 bits"),
    (f"ux,{MONDAY},t,a,organic,60,{2**31}", f"tz_offset_min {2**31} does not fit in 32 bits"),
    (f"ux,{2**63},t,a,organic,60,", f"timestamp {2**63} is {OUT_OF_RANGE}"),
    (f"ux,{ingest.TIMESTAMP_MAX + 1},t,a,organic,60,",
     f"timestamp {ingest.TIMESTAMP_MAX + 1} is {OUT_OF_RANGE}"),
    (f"ux,{ingest.TIMESTAMP_MIN - 1},t,a,organic,60,",
     f"timestamp {ingest.TIMESTAMP_MIN - 1} is {OUT_OF_RANGE}"),
    (f"ux,{-2**63},t,a,organic,60,", f"timestamp {-2**63} is {OUT_OF_RANGE}"),
], ids=["listen_duration", "tz_offset_min", "tz_offset_min-sentinel", "tz_offset_min-above",
        "timestamp", "timestamp-above-bound", "timestamp-below-bound", "timestamp-int64-min"])
def test_out_of_range_integer_is_a_malformed_line(tmp_path, row, reason):
    # The int32 minimum is the no-offset sentinel of the tz column, so it is out of range too.
    # A timestamp keeps 2**31 - 1 minutes from the int64 limits, so no offset can wrap its local clock.
    # The block parse and csv.reader (from a quoted header on) give the same report.
    good = [f"u{i},{MONDAY + i},t,a,organic,60,{i}" for i in range(150)]
    header = EVENTS_HEADER + ",tz_offset_min"
    path = write_lines(tmp_path / "events.csv", events_csv_lines(good[:70] + [row] + good[70:], header=header))
    for source in (path, quoted_header_copy(path)):
        log, report = ingest.parse_events(source)
        assert report.details == ((72, reason),)
        assert len(log) == 150 and "ux" not in log.users.decoded()
    write_lines(path, events_csv_lines([row], header=header))
    for source in (path, quoted_header_copy(path)):
        with pytest.raises(PipelineError, match=f"too many malformed lines: .*line 2: {reason}"):
            ingest.parse_events(source)


def test_in_range_integer_extremes_parse(tmp_path):
    header = EVENTS_HEADER + ",tz_offset_min"
    lo, hi = ingest.TIMESTAMP_MIN, ingest.TIMESTAMP_MAX
    rows = [f"u1,{lo},t,a,organic,{2**31 - 1},{-2**31 + 1}", f"u2,{hi},t,a,organic,0,{2**31 - 1}",
            f"u3,{lo},t,a,organic,60,", f"u3,{hi},t,a,organic,60,"]
    path = write_lines(tmp_path / "events.csv", events_csv_lines(rows, header=header))
    log, report = ingest.parse_events(path)
    assert parse_outcome(ingest.parse_events, path) == parse_outcome(ingest.parse_events, quoted_header_copy(path))
    assert report.malformed_count == 0
    assert log.timestamps.tolist() == [lo, hi, lo, hi]
    assert log.durations.tolist() == [2**31 - 1, 0, 60, 60]
    assert log.tz_offset_min.tolist() == [-2**31 + 1, 2**31 - 1, ingest.TZ_UNSET, ingest.TZ_UNSET]
    # The extreme offsets take the extreme timestamps exactly to the int64 limits, never past them.
    def local(default=0):
        return ingest._local_timestamps(log.timestamps, log.tz_offset_min, default)

    assert local().tolist() == [-2**63, 2**63 - 1, lo, hi]
    assert local(-2**31 + 1)[2] == -2**63
    assert local(2**31 - 1)[3] == 2**63 - 1
    for default in (ingest.TZ_UNSET, 2**31):
        with pytest.raises(PipelineError, match=f"default tz offset {default} minutes does not fit in 32 bits"):
            local(default)


def test_parse_unreadable_source_is_fatal(tmp_path):
    with pytest.raises(PipelineError, match="cannot read"):
        ingest.parse_events(tmp_path / "missing.csv")
    oversized = tmp_path / "oversized.csv"  # a field past the csv module's size limit
    oversized.write_text("".join(events_csv_lines([f"u1,{MONDAY},{'t' * 200_000},a,organic,60"])))
    with pytest.raises(PipelineError, match="cannot read events source .*field larger than field limit"):
        ingest.parse_events(oversized)


def test_parse_missing_header_column_is_fatal(tmp_path):
    path = write_lines(tmp_path / "events.csv",
                       ["user_id,timestamp,track_id,album_id,origin\n", f"u1,{MONDAY},t,a,organic\n"])
    for source in (path, quoted_header_copy(path)):
        with pytest.raises(PipelineError, match="listen_duration"):
            ingest.parse_events(source)


def test_parse_tz_offset_column(tmp_path):
    header = "user_id,timestamp,track_id,album_id,origin,listen_duration,tz_offset_min"
    lines = events_csv_lines(
        [f"u1,{MONDAY},t,a,organic,60,-120", f"u1,{MONDAY},t,a,organic,60,"],
        header=header)
    log, report = ingest.parse_events(write_lines(tmp_path / "events.csv", lines))
    assert report.malformed_count == 0
    assert records(log)[0].tz_offset_min == -120
    assert records(log)[1].tz_offset_min is None


def test_filter_valid_streams_boundary_at_30():
    log = log_of(make_event(duration=29), make_event(duration=30), make_event(duration=31))
    kept = ingest.filter_valid_streams(log)
    assert [ev.listen_duration for ev in records(kept)] == [30, 31]


def test_filter_valid_streams_empty_and_identity():
    assert len(ingest.filter_valid_streams(log_of())) == 0
    log = log_of(*[make_event(duration=1000, timestamp=MONDAY + i) for i in range(5)])
    kept = ingest.filter_valid_streams(log)
    assert [ev.timestamp for ev in records(kept)] == [ev.timestamp for ev in records(log)]


def test_filter_active_users_six_per_day_boundary():
    period = ingest.StudyPeriod(MONDAY, MONDAY + 100 * DAY)
    events = [make_event(user="kept", timestamp=MONDAY + i * 14000) for i in range(600)]
    events += [make_event(user="dropped", timestamp=MONDAY + i * 14000) for i in range(599)]
    log = log_of(*events)
    active = ingest.filter_active_users(log, period)
    assert log.users.decoded()[active].tolist() == ["kept"]


def test_filter_active_users_empty():
    period = ingest.StudyPeriod(MONDAY, MONDAY + DAY)
    assert len(ingest.filter_active_users(log_of(), period)) == 0


def profiles_of(log, favorites=()):
    """The profiles of ``log`` over the hour-aligned period covering it."""
    return ingest.build_profiles(log, ingest.StudyPeriod.covering(log), favorites)


def flagged(profiles, bit):
    """Which events of ``profiles`` have ``bit`` set in their flags."""
    return (profiles.flags & bit) != 0


def test_build_profiles_play_counts():
    events = [make_event(track="t7", album="a7", timestamp=MONDAY + i) for i in range(4)]
    log = log_of(*events)
    profiles = profiles_of(log)
    assert oracles.profiles(records(log))["u1"].play_count_per_track["t7"] == 4
    assert profiles.user_ids == ("u1",)
    assert profiles.summary.tolist() == [[4, 1, 1, 0]]  # streams, active days, distinct tracks, liked tracks
    assert flagged(profiles, ingest.REPEATED_BIT).all()  # 4 plays is above the repeat threshold


def test_build_profiles_album_expansion():
    events = [
        make_event(track="t1", album="alb", timestamp=MONDAY),
        make_event(track="t2", album="alb", timestamp=MONDAY + 1),
        make_event(track="t3", album="other", timestamp=MONDAY + 2),
    ]
    favorites = favorites_of(("u1", "album", "alb"))
    log = log_of(*events)
    profiles = profiles_of(log, favorites)
    assert flagged(profiles, ingest.LIKED_BIT).tolist() == [True, True, False]
    assert profiles.summary[0, 3] == 2
    oracle = oracles.profiles(records(log), favorites)["u1"]
    assert oracle.liked_tracks >= {"t1", "t2"}
    assert "t3" not in oracle.liked_tracks


def test_liked_flags_follow_the_liked_track_set():
    # t1 is streamed under a1 (a favorited album) and under a2: both events
    # are of a liked track, which liked_tracks counts once.
    events = [make_event(track="t1", album="a1", timestamp=MONDAY),
              make_event(track="t1", album="a2", timestamp=MONDAY + 1)]
    favorites = favorites_of(("u1", "album", "a1"))
    log = log_of(*events)
    profiles = profiles_of(log, favorites)
    assert flagged(profiles, ingest.LIKED_BIT).tolist() == [True, True]
    assert profiles.summary[0, 3] == 1
    oracle = oracles.profiles(records(log), favorites)["u1"]
    assert [oracle.is_liked(e) for e in events] == [True, True]
    assert oracle.liked_tracks == {"t1"}


def test_build_profiles_no_favorites():
    log = log_of(make_event())
    profiles = profiles_of(log)
    assert not flagged(profiles, ingest.LIKED_BIT).any()
    assert profiles.summary[0, 3] == 0
    assert oracles.profiles(records(log))["u1"].liked_tracks == frozenset()


def test_build_profiles_unknown_user_warning():
    favorites = favorites_of(("ghost", "track", "t1"))
    profiles = profiles_of(log_of(make_event()), favorites)
    assert profiles.unknown_user_warnings == 1


def test_profiles_total_equals_sum_of_play_counts():
    events = [make_event(track=f"t{i % 3}", timestamp=MONDAY + i) for i in range(10)]
    events += [make_event(user="u2", track="t0", timestamp=MONDAY + i) for i in range(3)]
    log = log_of(*events)
    profiles = profiles_of(log)
    profile_of = oracles.profiles(records(log))
    for user, total in zip(profiles.user_ids, profiles.summary[:, 0]):
        assert total == sum(profile_of[user].play_count_per_track.values())
    assert profiles.summary[:, 0].sum() == 13


def test_parse_favorites(tmp_path):
    path = write_lines(tmp_path / "favorites.csv", ["user_id,kind,item_id\n", "u1,track,t9\n", "u1,album,a3\n"])
    columns = ingest.parse_favorites(path)
    assert columns == (["u1", "u1"], ["track", "album"], ["t9", "a3"])
    assert columns == favorites_of(("u1", "track", "t9"), ("u1", "album", "a3"))
    with pytest.raises(PipelineError, match="unknown kind"):
        ingest.parse_favorites(write_lines(path, ["user_id,kind,item_id\n", "u1,artist,x\n"]))


def test_study_period_validation():
    with pytest.raises(PipelineError):
        ingest.StudyPeriod(10, 10)
    period = ingest.StudyPeriod.covering(log_of(make_event(timestamp=MONDAY + 17)))
    assert period.start == MONDAY and period.end == MONDAY + 3600


event_strategy = st.builds(
    make_event,
    user=st.sampled_from(["u1", "u2", "u3"]),
    timestamp=st.integers(min_value=MONDAY, max_value=MONDAY + 13 * DAY),
    track=st.sampled_from(["t1", "t2", "t3", "t4"]),
    album=st.sampled_from(["a1", "a2"]),
    origin=st.sampled_from(["organic", "algorithmic"]),
    duration=st.integers(min_value=0, max_value=400),
)


@given(st.lists(event_strategy, max_size=40))
@settings(max_examples=50, deadline=None)
def test_filter_valid_streams_idempotent(events):
    log = log_of(*events)
    once = ingest.filter_valid_streams(log)
    twice = ingest.filter_valid_streams(once)
    assert records(once) == records(twice)


@given(st.lists(event_strategy, min_size=1, max_size=40), st.lists(event_strategy, max_size=10))
@settings(max_examples=50, deadline=None)
def test_filter_active_users_monotone_in_events(events, extra):
    # Adding events never removes a user from the active set.
    period = ingest.StudyPeriod(MONDAY, MONDAY + 14 * DAY)
    base, grown = (set(log.users.decoded()[ingest.filter_active_users(log, period, min_daily_streams=0.1)])
                   for log in (log_of(*events), log_of(*(events + extra))))
    assert base <= grown


identifier = st.text(st.characters(whitelist_categories=("L", "N"), whitelist_characters="_-.:"),
                     min_size=1, max_size=6)


@given(blocks=st.lists(st.lists(st.tuples(
    identifier, st.integers(-2**62, 2**62), identifier, identifier, st.booleans(),
    st.integers(0, 2**31 - 1)), max_size=12), max_size=4))
@settings(max_examples=50, deadline=None)
def test_events_round_trip(tmp_path_factory, blocks):
    # Columns -> the one writer -> parse_events -> the same columns.
    columns = [[np.array(col, dtype=object) for col in zip(*rows)] for rows in blocks if rows]
    path = tmp_path_factory.mktemp("rt") / "events.csv"
    assert ingest.write_events(path, columns) == sum(map(len, blocks))
    log, report = ingest.parse_events(path)
    assert report.malformed_count == 0
    rows = [row for block in blocks for row in block]
    assert list(zip(log.users.decoded()[log.user_idx].tolist(), log.timestamps.tolist(),
                    log.tracks.decoded()[log.track_idx].tolist(), log.albums.decoded()[log.album_idx].tolist(),
                    log.organic.tolist(), log.durations.tolist())) == rows
    assert np.all(log.tz_offset_min == ingest.TZ_UNSET)
    assert path.read_text(encoding="utf-8").splitlines()[0] == EVENTS_HEADER


#: Ids the events format can hold: any text without a comma, quote, line break or NUL.
writable_ids = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n\0'),
                       min_size=1, max_size=50)


@st.composite
def writer_blocks(draw):
    """Blocks for ``ingest.write_events`` and the str columns of each, for the oracle writer.

    Users come as str or UTF-8 bytes, tracks and albums as str or as ``IdPatterns``.
    """
    blocks, oracle_blocks = [], []
    for n in draw(st.lists(st.sampled_from([0, 1]) | st.integers(2, 12), max_size=4)):
        def column(values):
            return draw(st.lists(values, min_size=n, max_size=n))

        users = column(writable_ids)
        user_column = (np.array([u.encode("utf-8") for u in users], dtype=bytes) if draw(st.booleans())
                       else np.array(users, dtype=object))
        timestamps, organic, durations = (column(st.integers(-2**63, 2**63 - 1)), column(st.booleans()),
                                          column(st.integers(0, 2**31 - 1) | st.just(0)))
        ids, oracle_ids = [], []
        for _ in range(2):  # tracks, then albums
            if draw(st.booleans()):
                heads, tails = (tuple(draw(st.lists(writable_ids | st.just(""), min_size=3, max_size=3)))
                                for _ in range(2))
                kind, counter = column(st.integers(0, 2)), column(st.integers(-1, 10**18))
                ids.append(ingest.IdPatterns(heads, tails, np.array(kind, dtype=np.int8),
                                             np.array(counter, dtype=np.int64)))
                oracle_ids.append([heads[k] + u + tails[k] + (str(c) if c >= 0 else "")
                                   for k, c, u in zip(kind, counter, users)])
            else:
                oracle_ids.append(column(writable_ids))
                ids.append(np.array(oracle_ids[-1], dtype=object))
        blocks.append((user_column, np.array(timestamps, dtype=np.int64), *ids, np.array(organic, dtype=bool),
                       np.array(durations, dtype=np.int64)))
        oracle_blocks.append((users, timestamps, *oracle_ids, organic, durations))
    return blocks, oracle_blocks


@given(writer_blocks())
@settings(max_examples=100, deadline=None)
def test_the_writer_writes_the_bytes_of_the_row_oracle(tmp_path_factory, blocks):
    # Non-ASCII ids of 1 to 200 bytes, 19-digit and negative integers, a duration of 0, and
    # empty and one-row blocks: the byte matrix writes exactly what one %-line per row writes.
    ours, oracle_blocks = blocks
    directory = tmp_path_factory.mktemp("writer")
    n = sum(len(block[0]) for block in oracle_blocks)
    assert ingest.write_events(directory / "ours.csv", ours) == n
    assert oracles.write_events(directory / "oracle.csv", oracle_blocks) == n
    assert (directory / "ours.csv").read_bytes() == (directory / "oracle.csv").read_bytes()


@pytest.mark.parametrize("char", [",", '"', "\r", "\n", "\0"])
@pytest.mark.parametrize("name, position", [("user", 0), ("track", 2), ("album", 3)])
def test_an_id_the_format_cannot_hold_is_an_error_naming_it(tmp_path, name, position, char):
    block = [np.array(["u1", "u2"], dtype=object), np.array([1, 2]), np.array(["t1", "t2"], dtype=object),
             np.array(["a1", "a2"], dtype=object), np.array([True, False]), np.array([30, 40])]
    bad = f"x{char}y"
    block[position] = np.array([block[position][0], bad], dtype=object)
    with pytest.raises(PipelineError, match=f"^{name} id {re.escape(repr(bad))} holds"):
        ingest.write_events(tmp_path / "events.csv", [block])
    if name == "user":  # the same id as UTF-8 bytes
        block[position] = np.array([b"u1", bad.encode("utf-8")], dtype=bytes)
    else:  # a pattern whose tail holds the byte
        block[position] = ingest.IdPatterns(("",), (f"_{char}",), np.array([0, 0]), np.array([1, 2]))
        bad = f"_{char}"
    with pytest.raises(PipelineError, match=re.escape(repr(bad))):
        ingest.write_events(tmp_path / "events.csv", [block])


@pytest.mark.parametrize("char", [",", '"', "\r", "\n", "\0"])
@pytest.mark.parametrize("name", ["user", "item"])
def test_a_favorite_id_the_format_cannot_hold_is_an_error_naming_it(tmp_path, name, char):
    columns = {"user": ["u1", "u2"], "item": ["t1", "a1"]}
    bad = columns[name][1] = f"x{char}y"
    with pytest.raises(PipelineError, match=f"^{name} id {re.escape(repr(bad))} holds"):
        ingest.write_favorites(tmp_path / "favorites.csv", columns["user"], ["track", "album"], columns["item"])


def parse_outcome(parse, source):
    """The columns (dtype and values) and report of a parse, or its error message.

    An id table gives its sorted ids, and an index column the ids its events
    name, so parses that number their ids in different orders compare equal.
    A byte table of ids is decoded to str, and each of its ids must be found
    at its own index.
    """
    try:
        log, report = parse(source)
    except (PipelineError, csv.Error) as exc:
        return str(exc)
    columns, tables = [], {}
    for name in ingest.EventLog.__slots__:
        column = getattr(log, name)
        if isinstance(column, ingest.IdTable):
            ids = column.decoded()
            assert column.find(ids.tolist()).tolist() == list(range(len(ids)))
            column = ids
        if name in ("users", "tracks", "albums"):
            tables[name] = column
            columns.append((column.dtype, sorted(column.tolist())))
        elif name.endswith("_idx"):
            columns.append((column.dtype, tables[name.replace("_idx", "s")][column].tolist()))
        else:
            columns.append((column.dtype, column.tolist()))
    return columns, report


def edges(lo, hi):
    return [str(lo - 1), str(lo), str(hi), str(hi + 1)]


#: Field values the block parse must read, or hand to the row checker, as the per-row parse does.
ODD_INTS = ["", "-", "-0", "007", "+5", "1_000", "\u0663", "\uff11\uff12", " 7", "7 ", "5.0", "--1", "0x1f", "x",
            "9" * 18, "-" + "9" * 18, "1" + "0" * 18, "0" * 20 + "5"]
ODD_IDS = ["", " ", "  ", "\u3000", "\x1c", "\x85", "\x0b", " u1 ", "u1 ", "\xe9", "\xfc1", "x\ty", "x y", "it's",
           "t" * 40]
ODD_FIELDS = {
    "user_id": ODD_IDS, "track_id": ODD_IDS, "album_id": ODD_IDS,
    "timestamp": ODD_INTS + edges(ingest.TIMESTAMP_MIN, ingest.TIMESTAMP_MAX),
    "origin": ["paid", "Organic", "organic ", "", "organi", "organicx", "algorithmic"],
    "listen_duration": ODD_INTS + edges(0, 2**31 - 1),
    "tz_offset_min": ODD_INTS + edges(-2**31 + 1, 2**31 - 1),
}


def test_block_parse_reads_each_odd_field_as_the_row_oracle_does(tmp_path):
    names = list(ingest.EVENT_COLUMNS) + [ingest.TZ_COLUMN]
    good = [f"u{i % 3},{MONDAY + i},t{i % 4},a{i % 2},organic,{i},{i % 5}" for i in range(150)]
    path = tmp_path / "events.csv"
    for k, name in enumerate(names):
        for value in ODD_FIELDS[name]:
            row = good[0].split(",")
            row[k] = value
            lines = events_csv_lines(good[:70] + [",".join(row)] + good[70:], header=",".join(names))
            path.write_text("".join(lines), encoding="utf-8")
            assert parse_outcome(ingest.parse_events, path) == parse_outcome(oracles.parse_events, lines), (name, value)


def int_token(lo, hi):
    """Integer fields that the block parse leaves to the row checker, or that sit on a range edge."""
    return st.one_of(
        st.sampled_from(edges(lo, hi) + ODD_INTS),
        st.integers(-2**70, 2**70).map(str),  # 19 digits and more, mostly out of range
        st.integers(0, 10**6).map(lambda v: "0" * 20 + str(v)),  # 19 digits and more, in range
    )


parse_id = st.one_of(
    st.sampled_from(ODD_IDS + ["x\x00"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=12),
)

#: For each column, the well-formed values of a generated row, and the values it may take instead.
parse_fields = {
    "user_id": (st.sampled_from(["u1", "u2", "u3"]), parse_id),
    "timestamp": (st.integers(MONDAY, MONDAY + 13 * DAY).map(str), int_token(ingest.TIMESTAMP_MIN,
                                                                           ingest.TIMESTAMP_MAX)),
    "track_id": (st.sampled_from(["t1", "t2", "t3"]), parse_id),
    "album_id": (st.sampled_from(["a1", "a2"]), parse_id),
    "origin": (st.sampled_from(["organic", "algorithmic"]), st.sampled_from(ODD_FIELDS["origin"])),
    "listen_duration": (st.integers(0, 400).map(str), int_token(0, 2**31 - 1)),
    "tz_offset_min": (st.sampled_from(["", "-120", "60"]), int_token(-2**31 + 1, 2**31 - 1)),
}


@st.composite
def parse_rows(draw, names):
    """One line of an events file with these header names: a record with one or two odd fields, maybe quoted."""
    row = [draw(parse_fields[name][0]) for name in names]
    for k in draw(st.lists(st.integers(0, len(names) - 1), min_size=1, max_size=2)):
        row[k] = draw(parse_fields[names[k]][1])
    if draw(st.integers(0, 9)) == 0:  # a quoted field, which may hold a comma, a quote or a line break
        k = draw(st.integers(0, len(row) - 1))
        row[k] = '"' + (row[k] + draw(st.sampled_from(["", ",", '""', "\n"]))).replace('"', '""') + '"'
    return ",".join(draw(st.sampled_from([row] * 4 + [row[:-1], row + ["x"], [], ["   "]])))


@given(data=st.data(), tz=st.booleans(), block_bytes=st.integers(1, 512) | st.just(1 << 20),
       line_ends=st.sampled_from([("\n",), ("\n",), ("\r\n",), ("\r\n", "\n"), ("\n", "\n", "\r")]),
       final_end=st.booleans())
@settings(max_examples=150, deadline=None)
def test_parse_paths_agree_with_the_row_oracle(tmp_path_factory, data, tz, block_bytes, line_ends, final_end):
    # The block parse of a file, the csv.reader parse of a copy whose header is quoted and the
    # per-row oracle agree on the log, the report or the error, whatever the blocks cut and
    # however malformed the lines.
    names = list(ingest.EVENT_COLUMNS) + [ingest.TZ_COLUMN] * tz
    names = data.draw(st.permutations(names))
    lines = [",".join(names)]
    for item in data.draw(st.lists(st.integers(1, 150) | parse_rows(names), max_size=12)):
        if isinstance(item, str):
            lines.append(item)
            continue
        for _ in range(item):  # a run of good records over a handful of ids
            n = len(lines)
            good = {"user_id": f"u{n % 7}", "timestamp": str(MONDAY + n), "track_id": f"t{n % 13}",
                    "album_id": f"a{n % 5}", "origin": ("organic", "algorithmic")[n % 2],
                    "listen_duration": str(n % 400), "tz_offset_min": ("", str(n % 900 - 450))[n % 2]}
            lines.append(",".join(good[name] for name in names))
    # Lines end in turn with each of line_ends: "\n", "\r\n" or a lone "\r".
    text = "".join(line + line_ends[i % len(line_ends)] for i, line in enumerate(lines))
    if not final_end:
        text = text.rstrip("\r\n")
    path = tmp_path_factory.mktemp("blocks") / "events.csv"
    path.write_bytes(text.encode("utf-8"))
    sources = (path, quoted_header_copy(path))

    expected = parse_outcome(oracles.parse_events, list(io.StringIO(text, newline="")))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(storage, "_BLOCK_BYTES", block_bytes)
        got = [parse_outcome(ingest.parse_events, source) for source in sources]
    for source, result in zip(sources, got):
        if isinstance(expected, str):
            # The package names the path in a csv error; the oracle raises the bare csv.Error.
            assert isinstance(result, str) and result.endswith(expected), (source, result, expected)
        else:
            assert result == expected


def test_an_id_of_70000_bytes_parses_as_the_row_oracle_reads_it(tmp_path):
    long_id = "x" * 70_000
    lines = events_csv_lines([f"u1,{MONDAY + i},{track},{long_id},organic,60"
                              for i, track in enumerate([long_id, "t1", long_id])])
    path = tmp_path / "events.csv"
    path.write_text("".join(lines))
    assert parse_outcome(ingest.parse_events, path) == parse_outcome(oracles.parse_events, lines)
    tracemalloc.start()  # numpy reports its array buffers to tracemalloc
    try:
        log, _ = ingest.parse_events(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(log.tracks.decoded().tolist()) == ["t1", long_id] and log.albums.decoded().tolist() == [long_id]
    assert peak < 64 << 20  # no id column is reserved for thousands of such ids


def test_id_tables_do_not_depend_on_line_order(tmp_path, monkeypatch):
    # Ids are numbered in sorted order, so the tables are the same whichever block an id first appears in.
    monkeypatch.setattr(storage, "_BLOCK_BYTES", 1024)
    rows = [f"u{i % 37},{MONDAY + i},{'track-of-some-length-' * (i % 3)}t{i * 7 % 101},a{i % 11},organic,60"
            for i in range(400)]
    logs = [ingest.parse_events(write_lines(tmp_path / f"events{k}.csv", events_csv_lines(lines)))[0]
            for k, lines in enumerate([rows, rows[::-1]])]
    forward, backward = logs
    assert forward.users.decoded().tolist() == backward.users.decoded().tolist()
    assert forward.tracks.decoded().tolist() == backward.tracks.decoded().tolist()
    assert forward.albums.decoded().tolist() == backward.albums.decoded().tolist()
    tracks = [log.tracks.decoded()[log.track_idx].tolist() for log in logs]
    assert tracks[0] == tracks[1][::-1]


def test_crlf_line_ends_stay_in_the_block_parse(tmp_path, monkeypatch):
    lines = events_csv_lines([f"u{i % 3},{MONDAY + i},t{i % 4},a{i % 2},organic,{i}" for i in range(300)]
                             + ["", "u1,bad,t1,a1,organic,5"])
    path = tmp_path / "events.csv"
    path.write_bytes("".join(lines).replace("\n", "\r\n").encode("utf-8"))
    expected = parse_outcome(oracles.parse_events, lines)

    def no_csv_rows(*args):
        raise AssertionError("csv.reader path taken")

    monkeypatch.setattr(ingest._EventColumns, "add_rows", no_csv_rows)
    assert parse_outcome(ingest.parse_events, path) == expected


def test_a_pipe_is_read_once(tmp_path, monkeypatch):
    # A file that cannot seek, such as a shell's <(zcat events.csv.gz), parses as the file does:
    # the blocks before the one holding a quote go through the block parse, the rest through csv.reader.
    monkeypatch.setattr(storage, "_BLOCK_BYTES", 1024)
    good = [f"u{i % 3},{MONDAY + i},t{i % 4},a{i % 2},organic,{i}" for i in range(300)]
    good[200] = f'"u1",{MONDAY},t1,a1,organic,7'
    path = write_lines(tmp_path / "events.csv", events_csv_lines(good))
    fifo = tmp_path / "events.fifo"
    os.mkfifo(fifo)
    block_lines = []
    add_lines = ingest._EventColumns.add_lines

    def counted(self, block, starts, ends, line_base):
        block_lines.append(len(starts))
        add_lines(self, block, starts, ends, line_base)

    monkeypatch.setattr(ingest._EventColumns, "add_lines", counted)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()))
    writer.start()
    try:
        got = parse_outcome(ingest.parse_events, fifo)
    finally:
        writer.join()
    assert 150 < sum(block_lines) < 201  # the quote is on line 202
    assert got == parse_outcome(ingest.parse_events, path)


FIFO_PARSE = """
import sys, threading
from weeklisten import ingest
from weeklisten.errors import PipelineError
parse, fifo, data = getattr(ingest, sys.argv[1]), sys.argv[2], sys.argv[3].encode("latin-1")
def write():
    with open(fifo, "wb") as fh:
        fh.write(data)
threading.Thread(target=write, daemon=True).start()
try:
    parse(fifo)
except PipelineError as exc:
    print(exc)
"""


@pytest.mark.parametrize("parse, text", [
    ("parse_events", events_csv_lines([f"u1,{MONDAY + i},t{i},a,organic,60" for i in range(3)])),
    ("parse_favorites", ["user_id,kind,item_id\n", "u1,track,t1\n", "u2,track,t2\n", "u3,album,a1\n"]),
])
def test_a_non_utf8_pipe_fails_at_once_naming_the_byte(tmp_path, parse, text):
    # The bad byte is located in the block already read: the pipe is not opened a second time,
    # which would wait for a writer that never comes.  A subprocess bounds that wait.
    fifo = tmp_path / "source.fifo"
    os.mkfifo(fifo)
    data = "".join(text[:2] + ["\xff" + text[2]] + text[3:])
    done = subprocess.run([sys.executable, "-c", FIFO_PARSE, parse, str(fifo), data], capture_output=True,
                          text=True, timeout=30, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.stdout.strip() == (f"cannot read {parse.removeprefix('parse_')} source {fifo}: line 3, "
                                   "byte column 1: not UTF-8 (byte 0xff, invalid start byte)"), done.stderr


@given(triples=st.lists(st.tuples(identifier, st.sampled_from([ingest.TRACK, ingest.ALBUM]), identifier),
                        min_size=1, max_size=12))
@settings(max_examples=50, deadline=None)
def test_favorites_round_trip(tmp_path_factory, triples):
    # Columns -> write_favorites -> parse_favorites -> the same columns.
    path = tmp_path_factory.mktemp("fav") / "favorites.csv"
    ingest.write_favorites(path, *favorites_of(*triples))
    assert ingest.parse_favorites(path) == favorites_of(*triples)
    assert path.read_text(encoding="utf-8").splitlines()[0] == "user_id,kind,item_id"


def test_round_trip_preserves_tz():
    events = [make_event(tz=90), make_event(tz=None, timestamp=MONDAY + 5)]
    assert records(log_of(*events)) == events


def test_restrict_to_users():
    log = log_of(make_event(user="a"), make_event(user="b"), make_event(user="a", timestamp=MONDAY + 9))
    only_a = ingest.restrict_to_users(log, user_indexes(log, ["a"]))
    assert len(only_a) == 2
    assert {e.user_id for e in records(only_a)} == {"a"}
    assert ingest.restrict_to_users(log, user_indexes(log, ["a", "b", "c"])) is log  # nothing to drop, nothing to copy


summary_event = st.builds(
    make_event,
    user=st.sampled_from(["u1", "u2", "u3"]),
    # Far and negative timestamps too: day numbers past 2**31 once overflowed a packed (user, day) key.
    timestamp=st.integers(min_value=MONDAY - DAY, max_value=MONDAY + 13 * DAY)
    | st.integers(min_value=ingest.TIMESTAMP_MIN, max_value=ingest.TIMESTAMP_MAX)
    | st.sampled_from([ingest.TIMESTAMP_MIN, -2**62, -1, 2**62, ingest.TIMESTAMP_MAX]),
    track=st.sampled_from(["t1", "t2", "t3", "t4"]),
    album=st.sampled_from(["t1", "a1", "a2"]),  # "t1" names a track and an album
    tz=st.one_of(st.none(), st.integers(min_value=-720, max_value=840), st.sampled_from([-2**31 + 1, 2**31 - 1])),
)

summary_favorite = st.tuples(
    st.sampled_from(["u1", "u2", "u3", "ghost"]),
    st.sampled_from(["track", "album"]),
    st.sampled_from(["t1", "t2", "t3", "t4", "a1", "a2"]),
)


def night_events():
    """Two streams of one user on one local day that straddle UTC midnight."""
    return [make_event(user="night", timestamp=MONDAY + DAY - 1800, tz=60),
            make_event(user="night", timestamp=MONDAY + DAY + 1800)]


@given(events=st.lists(summary_event, max_size=60), favorites=st.lists(summary_favorite, max_size=8))
@settings(max_examples=60, deadline=None)
def test_summary_columns_match_oracle(events, favorites):
    events = events + night_events()
    log = log_of(*events)
    profiles = profiles_of(log, favorites_of(*favorites))
    rows = oracles.summary_rows(oracles.profiles(records(log), favorites_of(*favorites)))
    assert [(u, *c) for u, c in zip(profiles.user_ids, profiles.summary.tolist())] == rows
    listeners = {e.user_id for e in events}
    assert profiles.unknown_user_warnings == sum(user not in listeners for user, _, _ in favorites)


@given(events=st.lists(summary_event, max_size=40), favorites=st.lists(summary_favorite, max_size=6),
       plays=st.integers(min_value=ingest.REPEAT_PLAY_THRESHOLD + 1, max_value=8), split=st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_event_flags_match_oracle_when_repeated_and_liked_share_a_pair(events, favorites, plays, split):
    # u1 streams t1 under a1 more often than the repeat threshold and favorites both
    # the track and the album, so one (user, track) pair is repeated, track-liked
    # and album-liked at once; other events may interleave with its streams.
    shared = [make_event(user="u1", track="t1", album="a1", timestamp=MONDAY + i) for i in range(plays)]
    start = min(split, len(events))
    events = events[:start] + shared + events[start:]
    favorites = favorites_of(*favorites, ("u1", "track", "t1"), ("u1", "album", "a1"))
    log = log_of(*events)
    profiles = profiles_of(log, favorites)
    profile_of = oracles.profiles(records(log), favorites)
    expected_repeated = [profile_of[e.user_id].play_count_per_track[e.track_id] > ingest.REPEAT_PLAY_THRESHOLD
                         for e in records(log)]
    repeated, liked = flagged(profiles, ingest.REPEATED_BIT), flagged(profiles, ingest.LIKED_BIT)
    assert repeated.tolist() == expected_repeated
    assert liked.tolist() == [profile_of[e.user_id].is_liked(e) for e in records(log)]
    assert flagged(profiles, ingest.ORGANIC_BIT).tolist() == [e.origin == ingest.ORGANIC for e in records(log)]
    assert repeated[start:start + plays].all() and liked[start:start + plays].all()
    assert [profiles.user_ids[r] for r in profiles.row.tolist()] == [e.user_id for e in records(log)]
