import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from weeklisten import ingest
from weeklisten.errors import IngestError

from conftest import DAY, MONDAY, events_csv_lines, log_of, make_event


def test_parse_two_valid_lines():
    lines = events_csv_lines([
        f"u1,{MONDAY},t1,a1,organic,120",
        f"u2,{MONDAY + 60},t2,a2,algorithmic,45",
    ])
    log, report = ingest.parse_events(lines)
    assert len(log) == 2
    assert report.malformed_count == 0
    assert log[0] == make_event(user="u1", timestamp=MONDAY, duration=120)
    assert log[1].origin == "algorithmic"


def test_parse_origin_enum_mapping():
    log, _ = ingest.parse_events(events_csv_lines([f"u1,{MONDAY},t1,a1,organic,120"]))
    assert log[0].origin == ingest.ORGANIC


def test_parse_negative_duration_is_record_level_error():
    good = [f"u{i},{MONDAY + i},t,a,organic,60" for i in range(100)]
    lines = events_csv_lines(good + [f"ubad,{MONDAY},t,a,organic,-5"])
    log, report = ingest.parse_events(lines)
    assert len(log) == 100
    assert report.malformed_count == 1
    assert report.details[0][1].startswith("listen_duration -5")
    assert all(ev.listen_duration >= 0 for ev in log)


def test_parse_unknown_origin_reports_line_number():
    good = [f"u{i},{MONDAY + i},t,a,organic,60" for i in range(100)]
    lines = events_csv_lines(good[:50] + [f"ux,{MONDAY},t,a,paid,60"] + good[50:])
    _, report = ingest.parse_events(lines)
    assert report.malformed_count == 1
    line_no, reason = report.details[0]
    assert line_no == 52  # header is line 1
    assert "paid" in reason


def test_parse_too_many_malformed_is_fatal():
    lines = events_csv_lines([
        f"u1,{MONDAY},t,a,organic,60",
        "garbage",
        "more,garbage",
    ])
    with pytest.raises(IngestError, match="too many malformed"):
        ingest.parse_events(lines)


def test_parse_unreadable_source_is_fatal(tmp_path):
    with pytest.raises(IngestError, match="cannot read"):
        ingest.parse_events(tmp_path / "missing.csv")


def test_parse_missing_header_column_is_fatal():
    lines = ["user_id,timestamp,track_id,album_id,origin\n", f"u1,{MONDAY},t,a,organic\n"]
    with pytest.raises(IngestError, match="listen_duration"):
        ingest.parse_events(lines)


def test_parse_tz_offset_column():
    header = "user_id,timestamp,track_id,album_id,origin,listen_duration,tz_offset_min"
    lines = events_csv_lines(
        [f"u1,{MONDAY},t,a,organic,60,-120", f"u1,{MONDAY},t,a,organic,60,"],
        header=header)
    log, report = ingest.parse_events(lines)
    assert report.malformed_count == 0
    assert log[0].tz_offset_min == -120
    assert log[1].tz_offset_min is None


def test_filter_valid_streams_boundary_at_30():
    log = log_of(make_event(duration=29), make_event(duration=30), make_event(duration=31))
    kept = ingest.filter_valid_streams(log)
    assert [ev.listen_duration for ev in kept] == [30, 31]


def test_filter_valid_streams_empty_and_identity():
    assert len(ingest.filter_valid_streams(log_of())) == 0
    log = log_of(*[make_event(duration=1000, timestamp=MONDAY + i) for i in range(5)])
    kept = ingest.filter_valid_streams(log)
    assert [ev.timestamp for ev in kept] == [ev.timestamp for ev in log]


def test_filter_active_users_six_per_day_boundary():
    period = ingest.StudyPeriod(MONDAY, MONDAY + 100 * DAY)
    events = [make_event(user="kept", timestamp=MONDAY + i * 14000) for i in range(600)]
    events += [make_event(user="dropped", timestamp=MONDAY + i * 14000) for i in range(599)]
    active = ingest.filter_active_users(log_of(*events), period)
    assert active == ["kept"]


def test_filter_active_users_empty():
    period = ingest.StudyPeriod(MONDAY, MONDAY + DAY)
    assert ingest.filter_active_users(log_of(), period) == []


def test_build_profiles_play_counts():
    events = [make_event(track="t7", album="a7", timestamp=MONDAY + i) for i in range(4)]
    log = log_of(*events)
    profiles = ingest.build_profiles(log)
    assert oracles.profiles(log)["u1"].play_count_per_track["t7"] == 4
    users, columns = profiles.summary_columns()
    assert users == ("u1",)
    assert columns.tolist() == [[4, 1, 1, 0]]  # streams, active days, distinct tracks, liked tracks
    repeated, _ = profiles.event_flags(log)
    assert repeated.all()  # 4 plays is above the repeat threshold


def test_build_profiles_album_expansion():
    events = [
        make_event(track="t1", album="alb", timestamp=MONDAY),
        make_event(track="t2", album="alb", timestamp=MONDAY + 1),
        make_event(track="t3", album="other", timestamp=MONDAY + 2),
    ]
    favorites = [ingest.FavoritesRecord("u1", "album", "alb")]
    log = log_of(*events)
    profiles = ingest.build_profiles(log, favorites)
    _, liked = profiles.event_flags(log)
    assert liked.tolist() == [True, True, False]
    assert profiles.summary_columns()[1][0, 3] == 2
    oracle = oracles.profiles(log, favorites)["u1"]
    assert oracle.liked_tracks >= {"t1", "t2"}
    assert "t3" not in oracle.liked_tracks


def test_liked_flags_follow_the_liked_track_set():
    # t1 is streamed under a1 (a favorited album) and under a2: both events
    # are of a liked track, which liked_tracks counts once.
    events = [make_event(track="t1", album="a1", timestamp=MONDAY),
              make_event(track="t1", album="a2", timestamp=MONDAY + 1)]
    favorites = [ingest.FavoritesRecord("u1", "album", "a1")]
    log = log_of(*events)
    profiles = ingest.build_profiles(log, favorites)
    assert profiles.event_flags(log)[1].tolist() == [True, True]
    assert profiles.summary_columns()[1][0, 3] == 1
    oracle = oracles.profiles(log, favorites)["u1"]
    assert [oracle.is_liked(e) for e in events] == [True, True]
    assert oracle.liked_tracks == {"t1"}


def test_build_profiles_no_favorites():
    log = log_of(make_event())
    profiles = ingest.build_profiles(log)
    assert not profiles.event_flags(log)[1].any()
    assert profiles.summary_columns()[1][0, 3] == 0
    assert oracles.profiles(log)["u1"].liked_tracks == frozenset()


def test_build_profiles_unknown_user_warning():
    favorites = [ingest.FavoritesRecord("ghost", "track", "t1")]
    profiles = ingest.build_profiles(log_of(make_event()), favorites)
    assert profiles.unknown_user_warnings == 1


def test_profiles_total_equals_sum_of_play_counts():
    events = [make_event(track=f"t{i % 3}", timestamp=MONDAY + i) for i in range(10)]
    events += [make_event(user="u2", track="t0", timestamp=MONDAY + i) for i in range(3)]
    log = log_of(*events)
    users, columns = ingest.build_profiles(log).summary_columns()
    profile_of = oracles.profiles(log)
    for user, total in zip(users, columns[:, 0]):
        assert total == sum(profile_of[user].play_count_per_track.values())
    assert columns[:, 0].sum() == 13


def test_event_flags_needs_the_profiled_log():
    log = log_of(make_event(), make_event(timestamp=MONDAY + 5))
    profiles = ingest.build_profiles(log)
    with pytest.raises(IngestError, match="profiles were built from"):
        profiles.event_flags(log.select(np.array([True, False])))


def test_parse_favorites():
    recs = ingest.parse_favorites(["user_id,kind,item_id\n", "u1,track,t9\n", "u1,album,a3\n"])
    assert recs == [ingest.FavoritesRecord("u1", "track", "t9"),
                    ingest.FavoritesRecord("u1", "album", "a3")]
    with pytest.raises(IngestError, match="unknown kind"):
        ingest.parse_favorites(["user_id,kind,item_id\n", "u1,artist,x\n"])


def test_study_period_validation():
    with pytest.raises(IngestError):
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
    assert [e for e in once] == [e for e in twice]


@given(st.lists(event_strategy, min_size=1, max_size=40), st.lists(event_strategy, max_size=10))
@settings(max_examples=50, deadline=None)
def test_filter_active_users_monotone_in_events(events, extra):
    # Adding events never removes a user from the active set.
    period = ingest.StudyPeriod(MONDAY, MONDAY + 14 * DAY)
    base = set(ingest.filter_active_users(log_of(*events), period, min_daily_streams=0.1))
    grown = set(ingest.filter_active_users(log_of(*(events + extra)), period, min_daily_streams=0.1))
    assert base <= grown


@given(events=st.lists(event_strategy, max_size=40))
@settings(max_examples=50, deadline=None)
def test_events_round_trip(tmp_path_factory, events):
    log = log_of(*events)
    path = tmp_path_factory.mktemp("rt") / "events.csv"
    ingest.write_events_csv(log, path)
    reparsed, report = ingest.parse_events(path)
    assert report.malformed_count == 0
    assert list(reparsed) == list(log)


def test_round_trip_preserves_tz(tmp_path):
    log = log_of(make_event(tz=90), make_event(tz=None, timestamp=MONDAY + 5))
    path = tmp_path / "events.csv"
    ingest.write_events_csv(log, path)
    reparsed, _ = ingest.parse_events(path)
    assert list(reparsed) == list(log)


def test_restrict_to_users():
    log = log_of(make_event(user="a"), make_event(user="b"), make_event(user="a", timestamp=MONDAY + 9))
    only_a = ingest.restrict_to_users(log, ["a"])
    assert len(only_a) == 2
    assert {e.user_id for e in only_a} == {"a"}


summary_event = st.builds(
    make_event,
    user=st.sampled_from(["u1", "u2", "u3"]),
    timestamp=st.integers(min_value=MONDAY - DAY, max_value=MONDAY + 13 * DAY),
    track=st.sampled_from(["t1", "t2", "t3", "t4"]),
    album=st.sampled_from(["a1", "a2"]),
    tz=st.one_of(st.none(), st.integers(min_value=-720, max_value=840)),
)

summary_favorite = st.builds(
    ingest.FavoritesRecord,
    user_id=st.sampled_from(["u1", "u2", "u3", "ghost"]),
    kind=st.sampled_from(["track", "album"]),
    item_id=st.sampled_from(["t1", "t2", "t3", "t4", "a1", "a2"]),
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
    profiles = ingest.build_profiles(log, favorites)
    users, columns = profiles.summary_columns()
    rows = oracles.summary_rows(oracles.profiles(log, favorites))
    assert [(u, *c) for u, c in zip(users, columns.tolist())] == rows
    listeners = {e.user_id for e in events}
    assert profiles.unknown_user_warnings == sum(rec.user_id not in listeners for rec in favorites)
