import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from weeklisten import ingest, signals, storage
from weeklisten.errors import PipelineError

from conftest import DAY, HOUR, MONDAY, WEEK, favorites_of, log_of, make_event, records, user_indexes


def front_for(log, period, favorites=(), default_tz=0):
    return ingest.build_profiles(log, period, favorites, default_tz)


def raw_of(log, period, favorites=()):
    """Oracle raw signal of the log's one user; the package's row must be its smoothed, normalized form."""
    (profile,) = oracles.profiles(records(log), favorites).values()
    raw = oracles.aggregate(records(log), profile, period)
    sset = signals.build_signal_set(front_for(log, period, favorites))
    assert np.allclose(sset.matrix[0], oracles.normalize(oracles.smooth(raw)).ravel(), rtol=0, atol=1e-12)
    return raw


def channel(values, name):
    return values[oracles.SIGNAL_CHANNELS.index(name)]


# -- weekly_slot -------------------------------------------------------------

def test_weekly_slot_monday_origin():
    assert oracles.weekly_slot(MONDAY + 30 * 60) == 0


def test_weekly_slot_tuesday_morning():
    # Tuesday 10:15 local = day 1, hour 10
    assert oracles.weekly_slot(MONDAY + DAY + 10 * HOUR + 15 * 60) == 34


def test_weekly_slot_sunday_last_hour():
    assert oracles.weekly_slot(MONDAY + 6 * DAY + 23 * HOUR + 59 * 60) == 167


def test_weekly_slot_uses_local_offset():
    # Monday 00:30 UTC seen from UTC-1 is still Sunday 23:30.
    assert oracles.weekly_slot(MONDAY + 30 * 60, tz_offset_min=-60) == 167
    assert oracles.weekly_slot(MONDAY + 30 * 60, tz_offset_min=+60) == 1


def test_slot_of_hour_index_matches_calendar():
    hours = np.arange(-200_000, 200_000, 97, dtype=np.int64)
    assert signals.slot_of_hour_index(hours).tolist() == [oracles.weekly_slot(3600 * int(k)) for k in hours]


# -- window_features ----------------------------------------------------------

def window_profile(events, favorites=()):
    return oracles.profiles(records(log_of(*events)), favorites)


def test_window_features_organicity_ratio():
    events = [make_event(track=f"t{i}", origin="organic", timestamp=MONDAY + i) for i in range(3)]
    events.append(make_event(track="t9", origin="algorithmic", timestamp=MONDAY + 9))
    profile = window_profile(events)["u1"]
    volume, repetition, organicity, liked = oracles.window_features(profile, events)
    assert volume == 4.0
    assert organicity == 0.75


def test_window_features_repetition_threshold():
    # Track played 4 times overall counts as repeat listening (> 3).
    all_events = [make_event(track="t1", timestamp=MONDAY + i) for i in range(4)]
    profile = window_profile(all_events)["u1"]
    window = all_events[:2]
    _, repetition, _, _ = oracles.window_features(profile, window)
    assert repetition == 1.0

    three = [make_event(track="t2", timestamp=MONDAY + i) for i in range(3)]
    profile3 = window_profile(three)["u1"]
    assert oracles.window_features(profile3, three)[1] == 0.0


def test_window_features_empty_window():
    profile = window_profile([make_event()])["u1"]
    assert oracles.window_features(profile, []) == (0.0, 0.0, 0.0, 0.0)


def test_window_features_liked():
    events = [make_event(track="fav", timestamp=MONDAY), make_event(track="other", timestamp=MONDAY + 1)]
    profile = window_profile(events, favorites_of(("u1", "track", "fav")))["u1"]
    assert oracles.window_features(profile, events)[3] == 0.5


# -- aggregate ----------------------------------------------------------------

def test_aggregate_two_week_mean():
    period = ingest.StudyPeriod(MONDAY, MONDAY + 2 * WEEK)
    slot34 = MONDAY + DAY + 10 * HOUR
    events = [make_event(track=f"t{i}", timestamp=slot34 + 60 * i) for i in range(4)]
    raw = raw_of(log_of(*events), period)
    assert channel(raw, "volume")[34] == pytest.approx(2.0)
    assert channel(raw, "volume")[35] == 0.0


def test_aggregate_no_events_is_zero():
    # The user's only event lies before the period: a profiled user with an all-zero row.
    log = log_of(make_event(timestamp=MONDAY - HOUR))
    period = ingest.StudyPeriod(MONDAY, MONDAY + WEEK)
    row_sig = signals.build_signal_set(front_for(log, period))
    assert row_sig.user_ids == ("u1",)
    assert np.all(row_sig.matrix == 0.0)
    assert np.all(raw_of(log, period) == 0.0)


def test_aggregate_constant_slot_mean_one():
    period = ingest.StudyPeriod(MONDAY, MONDAY + 3 * WEEK)
    events = [make_event(track=f"t{w}", timestamp=MONDAY + w * WEEK + 8 * HOUR) for w in range(3)]
    raw = raw_of(log_of(*events), period)
    assert channel(raw, "volume")[8] == pytest.approx(1.0)


def test_aggregate_partial_week_divisor():
    # 10-day period starting Monday: Mon-Wed slots occur twice, Thu-Sun once.
    period = ingest.StudyPeriod(MONDAY, MONDAY + 10 * DAY)
    thursday_noon = MONDAY + 3 * DAY + 12 * HOUR
    monday_noon = MONDAY + 12 * HOUR
    events = [make_event(track="a", timestamp=thursday_noon),
              make_event(track="b", timestamp=monday_noon)]
    raw = raw_of(log_of(*events), period)
    assert channel(raw, "volume")[3 * 24 + 12] == pytest.approx(1.0)   # 1 event / 1 window
    assert channel(raw, "volume")[12] == pytest.approx(0.5)            # 1 event / 2 windows


@given(first=st.integers(-10**6, 10**6), n_hours=st.integers(0, 2000))
@settings(max_examples=60, deadline=None)
def test_slot_divisors_match_window_count(first, n_hours):
    counts = Counter(oracles.weekly_slot(3600 * k) for k in range(first, first + n_hours))
    expected = [counts[slot] for slot in range(signals.SLOTS_PER_WEEK)]
    assert signals._slot_divisors(first, first + n_hours).tolist() == expected


def test_slot_divisors_of_a_huge_span_are_immediate():
    span = 2**40 // 3600
    start = time.perf_counter()
    divisor = signals._slot_divisors(-7, span - 7)
    assert time.perf_counter() - start < 0.5
    assert divisor.sum() == span
    assert divisor.max() - divisor.min() <= 1


def test_aggregate_rejects_short_period():
    log = log_of(make_event())
    short = ingest.StudyPeriod(MONDAY, MONDAY + 3 * DAY)
    with pytest.raises(PipelineError, match="at least one week"):
        signals.build_signal_set(front_for(log, short))
    with pytest.raises(PipelineError, match="at least one week"):
        oracles.aggregate(records(log), oracles.profiles(records(log))["u1"], short)


def test_aggregate_rejects_multi_user_log():
    log = log_of(make_event(user="a"), make_event(user="b"))
    with pytest.raises(PipelineError, match="exactly one user"):
        oracles.aggregate(records(log), oracles.profiles(records(log))["a"],
                          ingest.StudyPeriod(MONDAY, MONDAY + WEEK))


def test_aggregate_volume_linearity():
    period = ingest.StudyPeriod(MONDAY, MONDAY + 2 * WEEK)
    events = [make_event(track=f"t{i}", timestamp=MONDAY + i * 7000) for i in range(40)]
    raw1 = raw_of(log_of(*events), period)
    raw2 = raw_of(log_of(*(events + events)), period)  # duplicate every event
    assert np.allclose(channel(raw2, "volume"), 2 * channel(raw1, "volume"))
    assert np.allclose(channel(raw2, "organicity"), channel(raw1, "organicity"))


# -- smooth / normalize --------------------------------------------------------

def smoothed(values):
    """Oracle smoothing, checked against the package's."""
    out = oracles.smooth(values)
    assert np.allclose(signals._smooth_values(np.asarray(values, dtype=float)), out, rtol=0, atol=1e-12)
    return out


def normalized(values):
    """Oracle normalization, checked against the package's."""
    out = oracles.normalize(values)
    assert np.allclose(signals._normalize_values(np.asarray(values, dtype=float)), out, rtol=0, atol=1e-12)
    return out


def test_smooth_impulse():
    values = np.zeros((4, 168))
    values[0, 0] = 1.0
    vol = channel(smoothed(values), "volume")
    assert vol[167] == pytest.approx(1 / 3)
    assert vol[0] == pytest.approx(1 / 3)
    assert vol[1] == pytest.approx(1 / 3)
    assert np.all(vol[2:167] == 0)


def test_smooth_zeros_and_constant():
    assert np.all(smoothed(np.zeros((4, 168))) == 0)
    const = smoothed(np.full((4, 168), 3.7))
    assert np.allclose(const, 3.7)


def test_normalize_three_point_toy():
    out = signals._normalize_values(np.array([0.0, 1.0, 2.0]))
    assert np.allclose(out, [-1.0, 0.0, 1.0])


def test_normalize_constant_channel_goes_to_zero():
    values = np.full((4, 168), 0.1)
    assert np.all(normalized(values) == 0.0)


def test_normalize_mean_and_maxabs():
    rng = np.random.default_rng(3)
    values = rng.normal(0, 1, (4, 168))
    out = normalized(values)
    assert np.abs(out.mean(axis=1)).max() < 1e-9
    assert np.allclose(np.abs(out).max(axis=1), 1.0, atol=1e-9)


def test_normalize_rejects_non_finite():
    values = np.zeros((4, 168))
    values[1, 5] = np.nan
    with pytest.raises(PipelineError, match="non-finite"):
        oracles.normalize(values)


finite_channel = hnp.arrays(np.float64, (168,),
                            elements=st.floats(-1e6, 1e6, allow_nan=False, width=64))


@given(channel=finite_channel)
@settings(max_examples=100, deadline=None)
def test_smooth_preserves_channel_mean(channel):
    sm = signals._smooth_values(channel)
    assert sm.mean() == pytest.approx(channel.mean(), abs=1e-9 * (1 + np.abs(channel).max()))


@given(channel=finite_channel)
@settings(max_examples=100, deadline=None)
def test_normalize_invariants_and_idempotence(channel):
    out = signals._normalize_values(channel)
    assert np.isfinite(out).all()
    assert abs(out.mean()) < 1e-9
    maxabs = np.abs(out).max()
    assert maxabs == 0.0 or abs(maxabs - 1.0) < 1e-9
    again = signals._normalize_values(out)
    assert np.allclose(again, out, atol=1e-9)


normal_channel = hnp.arrays(np.float64, (168,),
                            elements=st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False, width=64))


@given(channel=normal_channel, alpha=st.floats(1e-6, 1e6))
@settings(max_examples=100, deadline=None)
def test_normalize_scale_invariance(channel, alpha):
    # Scaling is only exact while no element underflows into the subnormal range.
    scaled = alpha * channel
    assume(np.all(np.abs(scaled[channel != 0]) >= np.finfo(float).tiny))
    a = signals._normalize_values(channel)
    b = signals._normalize_values(scaled)
    assert np.allclose(a, b, atol=1e-7)


def test_normalize_underflowed_channel_goes_to_zero():
    # Half of the smallest subnormal rounds to 0, so the scaled channel is all zeros.
    channel = np.zeros(168)
    channel[0] = 5e-324
    spike = np.zeros(168)
    spike[0] = 1.0
    assert np.allclose(signals._normalize_values(channel), signals._normalize_values(spike), rtol=0, atol=1e-12)
    assert signals._normalize_values(channel)[0] == 1.0
    assert np.all(0.5 * channel == 0.0)
    assert np.all(signals._normalize_values(0.5 * channel) == 0.0)


def test_normalize_near_constant_channel_is_safe():
    # Variation at roundoff scale must not be amplified to maxabs 1.
    values = np.full(168, 1.0)
    values[3] += 1e-14
    out = signals._normalize_values(values)
    assert np.all(out == 0.0)


# -- build_signal_set ----------------------------------------------------------

def two_user_log():
    events = [make_event(user="zeta", track=f"t{i}", timestamp=MONDAY + i * 3000) for i in range(30)]
    events += [make_event(user="alpha", track=f"s{i}", timestamp=MONDAY + i * 5000,
                          origin="algorithmic") for i in range(25)]
    return log_of(*events)


def test_build_signal_set_shape_and_order():
    log = two_user_log()
    period = ingest.StudyPeriod(MONDAY, MONDAY + WEEK)
    sset = signals.build_signal_set(front_for(log, period))
    assert sset.matrix.shape == (2, 672)
    assert sset.user_ids == ("alpha", "zeta")  # lexicographic, not input order


def test_build_signal_set_row_layout():
    log = two_user_log()
    period = ingest.StudyPeriod(MONDAY, MONDAY + WEEK)
    sset = signals.build_signal_set(front_for(log, period))

    zeta = records(ingest.restrict_to_users(log, user_indexes(log, ["zeta"])))
    raw = oracles.aggregate(zeta, oracles.profiles(records(log))["zeta"], period)
    sig = oracles.normalize(oracles.smooth(raw))
    row = oracles.signal_row(sset, "zeta")
    assert np.allclose(row[0:168], channel(sig, "volume"), rtol=0, atol=1e-12)
    assert np.allclose(row[168:336], channel(sig, "repetition"), rtol=0, atol=1e-12)
    assert np.allclose(row.reshape(4, 168), sig, rtol=0, atol=1e-12)


def test_signal_set_round_trip(tmp_path):
    log = two_user_log()
    period = ingest.StudyPeriod(MONDAY, MONDAY + WEEK)
    sset = signals.build_signal_set(front_for(log, period))
    index, matrix = tmp_path / "users.txt", tmp_path / "m.npy"
    storage.save_indexed_matrix(sset.user_ids, sset.matrix, index, matrix)
    loaded = signals.SignalSet(*storage.load_indexed_matrix(index, matrix))
    assert loaded.user_ids == sset.user_ids
    assert np.array_equal(loaded.matrix, sset.matrix)


def test_front_round_trips_under_its_key_only(tmp_path):
    log = log_of(*fixed_events(), make_event(user='"u,2"', origin="algorithmic", tz=-90))
    favorites = favorites_of(("u1", "track", "t_three"), ("ghost", "track", "t_four"))
    front = front_for(log, ingest.StudyPeriod(MONDAY, MONDAY + WEEK), favorites)
    path = tmp_path / signals.FRONT_FILE
    signals.save_front(front, "key", path)
    loaded = signals.load_front(path, "key")
    assert loaded.user_ids == front.user_ids == ("idle", "u,2", "u1") and loaded.unknown_user_warnings == 1
    assert set(front.flags.tolist()) == {0, ingest.ORGANIC_BIT, ingest.ORGANIC_BIT | ingest.REPEATED_BIT,
                                         ingest.ORGANIC_BIT | ingest.LIKED_BIT}
    with pytest.raises(PipelineError, match="was made from other inputs or flags; run ingest"):
        signals.load_front(path, "other key")
    path.write_bytes(b"")
    with pytest.raises(PipelineError, match=r"is damaged \(it is empty\)"):
        signals.load_front(path, "key")
    with pytest.raises(PipelineError, match="does not exist"):
        signals.load_front(tmp_path / "none", "key")


def test_load_front_gives_back_every_field_save_front_wrote(tmp_path):
    log = log_of(*fixed_events(), make_event(user="ü", tz=60))
    front = front_for(log, ingest.StudyPeriod(MONDAY, MONDAY + WEEK), favorites_of(("u1", "album", "a1")))
    path = tmp_path / signals.FRONT_FILE
    signals.save_front(front, "key", path)
    loaded = signals.load_front(path, "key")
    assert loaded._fields == front._fields
    for name, saved, read in zip(front._fields, front, loaded):
        if isinstance(saved, np.ndarray):
            assert saved.dtype == read.dtype and np.array_equal(saved, read), name
        else:
            assert type(saved) is type(read) and saved == read, name


@pytest.mark.parametrize("field, damage", [
    ("period", lambda record: np.array([5, 5], dtype=np.int64)),
    ("summary", lambda record: record[:-1]),
    ("row", lambda record: record + 3),
    ("flags", lambda record: record.astype(np.int32)),
], ids=["empty-period", "summary-rows", "row-range", "flags-dtype"])
def test_load_front_rejects_a_damaged_record(tmp_path, field, damage):
    front = front_for(log_of(*fixed_events()), ingest.StudyPeriod(MONDAY, MONDAY + WEEK))
    path = tmp_path / signals.FRONT_FILE
    signals.save_front(front, "key", path)
    arrays = list(storage.load_arrays(path))
    at = 1 + ingest.Profiles._fields.index(field)
    arrays[at] = damage(arrays[at])
    storage.save_arrays(arrays, path)
    with pytest.raises(PipelineError, match=f"{signals.FRONT_FILE} is damaged"):
        signals.load_front(path, "key")


TRACKS = ("t0", "t1", "t2", "t3", "t4")
ALBUMS = ("a0", "a1", "a2")

signal_event = st.builds(
    make_event,
    user=st.sampled_from(["u1", "u2", "u3"]),
    timestamp=st.integers(min_value=MONDAY - DAY, max_value=MONDAY + 2 * WEEK + DAY),
    track=st.sampled_from(TRACKS),
    album=st.sampled_from(ALBUMS),
    origin=st.sampled_from(["organic", "algorithmic"]),
    tz=st.one_of(st.none(), st.integers(min_value=-720, max_value=840)),
)

favorite = st.tuples(
    st.sampled_from(["u1", "u2", "u3", "ghost"]), st.just("track"), st.sampled_from(TRACKS),
) | st.tuples(
    st.sampled_from(["u1", "u2", "u3"]), st.just("album"), st.sampled_from(ALBUMS),
)


def fixed_events():
    """A track on each side of the repeat threshold, and a user with no in-period events."""
    noon = MONDAY + 12 * HOUR
    events = [make_event(user="u1", track="t_four", timestamp=noon + i * DAY) for i in range(4)]
    events += [make_event(user="u1", track="t_three", timestamp=noon + i * DAY + HOUR) for i in range(3)]
    events.append(make_event(user="idle", timestamp=MONDAY - 2 * DAY))
    return events


@given(events=st.lists(signal_event, max_size=80), favorites=st.lists(favorite, max_size=8),
       default_tz=st.sampled_from([-90, 0, 60]))
@settings(max_examples=60, deadline=None)
def test_build_signal_set_matches_oracle(events, favorites, default_tz):
    log = log_of(*(events + fixed_events()))
    favorites = favorites_of(*favorites)
    period = ingest.StudyPeriod(MONDAY, MONDAY + 2 * WEEK)
    sset = signals.build_signal_set(front_for(log, period, favorites, default_tz))
    users, matrix = oracles.signal_rows(records(log), favorites, period, default_tz)
    assert sset.user_ids == users
    assert np.allclose(sset.matrix, matrix, rtol=0, atol=1e-12)
    assert np.all(oracles.signal_row(sset, "idle") == 0.0)


order_user = st.sampled_from(["zeta", "Alpha", "u10", "u2", "_x"])


@given(events=st.lists(st.builds(make_event, user=order_user,
                                 timestamp=st.integers(MONDAY - DAY, MONDAY + 2 * WEEK + DAY),
                                 track=st.sampled_from(TRACKS)), max_size=40),
       kept=st.sets(order_user))
@settings(max_examples=60, deadline=None)
def test_signal_rows_and_summary_share_one_user_order(events, kept):
    # "idle" streams only before the period; the restricted view shares a user table
    # that also names the users left out.
    log = log_of(*(events + fixed_events()))
    log = ingest.restrict_to_users(log, user_indexes(log, kept | {"idle"}))
    profiles = ingest.build_profiles(log, ingest.StudyPeriod(MONDAY, MONDAY + 2 * WEEK))
    sset = signals.build_signal_set(profiles)
    listeners = tuple(sorted({e.user_id for e in records(log)}))
    assert sset.user_ids == profiles.user_ids == listeners
    rows = oracles.summary_rows(oracles.profiles(records(log)))
    assert [(u, *c) for u, c in zip(profiles.user_ids, profiles.summary.tolist())] == rows
    assert [listeners[r] for r in profiles.row.tolist()] == [e.user_id for e in records(log)]
    assert "idle" in listeners and np.all(oracles.signal_row(sset, "idle") == 0.0)
