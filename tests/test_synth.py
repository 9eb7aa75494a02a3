import json
import re

import numpy as np
import pytest

import oracles
from weeklisten import dictionary, evaluate, ingest, signals, synth
from weeklisten.errors import PipelineError

from conftest import auc_of


@pytest.fixture(scope="module")
def thousand_users(tmp_path_factory):
    config = synth.SynthConfig(n_users=1000, weeks=8, seed=42)
    out = tmp_path_factory.mktemp("synth1000")
    result = synth.generate(config, out)
    return config, result


def test_generate_is_byte_deterministic(tmp_path):
    config = synth.SynthConfig(n_users=40, weeks=3, seed=7)
    r1 = synth.generate(config, tmp_path / "a")
    r2 = synth.generate(config, tmp_path / "b")
    for p1, p2 in [(r1.events_path, r2.events_path),
                   (r1.favorites_path, r2.favorites_path),
                   (r1.labels_path, r2.labels_path)]:
        assert p1.read_bytes() == p2.read_bytes()
    r3 = synth.generate(synth.SynthConfig(n_users=40, weeks=3, seed=8), tmp_path / "c")
    assert r3.events_path.read_bytes() != r1.events_path.read_bytes()


def test_organic_rate_hits_target(thousand_users):
    _, result = thousand_users
    assert result.organic_fraction_valid == pytest.approx(0.80, abs=0.02)


def test_label_rates_match_base_rates(thousand_users):
    _, result = thousand_users
    answers = evaluate.parse_labels(result.labels_path).answers
    for activity, column, rate in zip(evaluate.ACTIVITIES, answers.T, synth.BASE_RATES):
        assert column.mean() == pytest.approx(rate, abs=0.03), activity


def test_generated_files_round_trip_ingest(thousand_users):
    _, result = thousand_users
    log, report = ingest.parse_events(result.events_path)
    assert report.malformed_count == 0
    assert len(log) == result.n_events
    favorites = ingest.parse_favorites(result.favorites_path)
    assert favorites[0]  # non-empty
    labels = evaluate.parse_labels(result.labels_path)
    assert len(labels.user_ids) == 1000
    valid = ingest.filter_valid_streams(log)
    assert len(valid) == result.n_valid_events
    organic = float(np.mean(valid.organic))
    assert organic == pytest.approx(result.organic_fraction_valid, abs=1e-12)


def test_synth_events_are_what_the_row_oracle_writes_of_their_parse(tmp_path):
    # The byte writer over id patterns spells every id and line as one %-line per row would.
    result = synth.generate(synth.SynthConfig(n_users=70, weeks=2, seed=3), tmp_path)
    log, report = ingest.parse_events(result.events_path)
    assert report.malformed_count == 0
    columns = (log.users.decoded()[log.user_idx], log.timestamps, log.tracks.decoded()[log.track_idx],
               log.albums.decoded()[log.album_idx], log.organic, log.durations)
    assert oracles.write_events(tmp_path / "oracle.csv", [columns]) == result.n_events
    assert (tmp_path / "oracle.csv").read_bytes() == result.events_path.read_bytes()


def test_each_users_tracks_and_albums_are_numbered_by_kind(tmp_path):
    result = synth.generate(synth.SynthConfig(n_users=70, weeks=2, seed=3), tmp_path)
    numbers = {}
    for line in result.events_path.read_text().splitlines()[1:]:
        user, _, track, album, _, _ = line.split(",")
        head, tail = track.split("_t_")
        kind = tail.rstrip("0123456789")
        assert head == user and album == {"fav": f"{user}_al_{tail}", "alb": f"{user}_alb", "h": f"{user}_al_{tail}",
                                          "f": f"{user}_al_{tail}", "s": f"al_{track}"}[kind]
        numbers.setdefault((user, kind), []).append(int(tail[len(kind):]))
    for (user, kind), seen in numbers.items():
        if kind in ("f", "s"):
            assert sorted(seen) == list(range(len(seen))), (user, kind)
        else:  # one of 6 favorited tracks, 4 tracks of the favorited album or 12 heavy-rotation tracks
            assert max(seen) < {"fav": 6, "alb": 4, "h": 12}[kind], (user, kind)
    assert {user for user, _ in numbers} == {f"u{i:05d}" for i in range(70)}


def test_pure_commuter_concentrates_on_commute_slots(tmp_path):
    commuter = synth.build_archetypes({"archetypes": synth.STOCK_ARCHETYPES["archetypes"][:1]}, 0.80)
    assert commuter.names == ("commuter",)
    config = synth.SynthConfig(n_users=30, weeks=4, seed=5, noise=0.0, archetypes=commuter)
    result = synth.generate(config, tmp_path)
    log, _ = ingest.parse_events(result.events_path)
    valid = ingest.filter_valid_streams(log)
    slots = np.array([oracles.weekly_slot(int(ts)) for ts in valid.timestamps])
    commute_hours = {d * 24 + h for d in range(5) for h in (7, 8, 9, 17, 18, 19)}
    frac = np.mean([s in commute_hours for s in slots])
    assert frac >= 0.60


def test_planted_truth_shapes_and_links():
    config = synth.SynthConfig(n_users=10, weeks=2, seed=0)
    truth = oracles.planted_truth(config)
    assert len(truth.archetype_names) == len(synth.STOCK_ARCHETYPES["archetypes"])
    assert truth.profiles.shape == (4, 4, 168)
    assert truth.primary_activities() == ("transport", "work", "friends", "asleep")


def test_planted_truth_normalization_invariants():
    truth = oracles.planted_truth(synth.SynthConfig(n_users=10, weeks=2, seed=0))
    norm = signals._normalize_values(signals._smooth_values(truth.profiles))
    assert np.abs(norm.mean(axis=-1)).max() < 1e-9
    maxabs = np.abs(norm).max(axis=-1)
    assert np.all((maxabs == 0.0) | (np.abs(maxabs - 1.0) < 1e-9))


def test_planted_commuter_volume_peaks():
    truth = oracles.planted_truth(synth.SynthConfig(n_users=10, weeks=2, seed=0))
    commuter = truth.profiles[truth.archetype_names.index("commuter")]
    volume = commuter[0]
    commute_hours = [d * 24 + h for d in range(5) for h in (7, 8, 9, 17, 18, 19)]
    others = sorted(set(range(168)) - set(commute_hours))
    assert volume[commute_hours].min() > volume[others].max()


def test_config_validation():
    with pytest.raises(PipelineError, match="weeks"):
        synth.SynthConfig(weeks=1)
    with pytest.raises(PipelineError, match="n_users"):
        synth.SynthConfig(n_users=0)
    with pytest.raises(PipelineError, match="organic rate"):
        synth.SynthConfig(organic_rate=1.0)
    with pytest.raises(PipelineError, match="noise"):
        synth.SynthConfig(noise=1.5)


def test_archetype_json_loading(tmp_path):
    spec = {"archetypes": [
        {"name": "tester", "base_rate": 0.1,
         "volume_peaks": [{"days": [0, 1], "hours": [10, 11], "level": 2.0}],
         "repetition": {"base": 0.6},
         "activity_links": {"work": 1.0}},
    ]}
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(spec))
    table = synth.load_archetypes(path, organic_target=0.8)
    assert table.names == ("tester",)
    assert all(column.shape == (1, 168) for column in table[1:5])
    rate = table.rates[0]
    assert rate.sum() == pytest.approx(synth.WEEKLY_VOLUME)
    assert rate[10] > rate[9]
    assert np.all(table.repetition == 0.6)
    assert table.links.tolist() == [[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]]  # work, in ACTIVITIES order
    # Organicity is recentered to the target under the volume weighting.
    weighted = (rate * table.organicity[0]).sum() / rate.sum()
    assert weighted == pytest.approx(0.8, abs=1e-9)


def test_stock_archetypes_survive_a_json_round_trip(tmp_path):
    path = tmp_path / "stock.json"
    path.write_text(json.dumps(synth.STOCK_ARCHETYPES))
    for rate in (0.01, 0.3, 0.8, 0.95, 0.99):
        stock = synth.SynthConfig(organic_rate=rate).resolved_archetypes()
        loaded = synth.load_archetypes(path, rate)
        assert loaded.names == ("commuter", "office", "partygoer", "night_owl")
        for built, read in zip(stock, loaded):
            assert np.array_equal(built, read)


@pytest.mark.parametrize("spec, message", [
    ({"archetypes": []}, "no archetypes"),
    ({"archetypes": [{"name": "x"}]}, "KeyError 'base_rate'"),
    ({"archetypes": [{"name": "x", "base_rate": 0.0, "volume_peaks": []}]}, "positive weekly volume"),
    ({"archetypes": [{"name": "x", "base_rate": 0.1,
                      "volume_peaks": [{"days": [0], "hours": [24], "level": 1.0}]}]}, "day 0 hour 24"),
    ({"archetypes": [{"name": "x", "base_rate": 0.1, "volume_peaks": [], "liked": 0.3}]}, "AttributeError"),
    ({"archetypes": [{"name": "x", "base_rate": "high", "volume_peaks": []}]}, "schema"),
    ({"archetypes": [{"name": "x", "base_rate": 0.1, "volume_peaks": [],
                      "activity_links": {"work": 2.0}}]}, "outside [0, 1]"),
    ({"archetypes": [{"name": "x", "base_rate": 0.1,
                      "volume_peaks": [{"days": [0], "hours": [0], "level": -1.0}]}]}, "x has negative rates"),
    ({"archetypes": [{"name": "x", "base_rate": 0.1, "volume_peaks": [],
                      "liked": {"base": float("nan")}}]}, "x.liked must lie in [0, 1]"),
    ({"archetypes": [{"name": "x", "base_rate": 0.1, "volume_peaks": [],
                      "activity_links": {"dancing": 1.0}}]}, "x links unknown activity 'dancing'"),
])
def test_build_archetypes_checks_the_schema(spec, message):
    with pytest.raises(PipelineError, match=re.escape(message)):
        synth.build_archetypes(spec, 0.8)


def _downstream_auc(noise, seed, tmp_path):
    """Mean codes-variant AUC over the four primary activities, small pipeline."""
    config = synth.SynthConfig(n_users=250, weeks=5, seed=seed, noise=noise)
    result = synth.generate(config, tmp_path)
    log, _ = ingest.parse_events(result.events_path)
    favorites = ingest.parse_favorites(result.favorites_path)
    valid = ingest.filter_valid_streams(log)
    period = ingest.StudyPeriod(synth.PERIOD_START, config.period_end)
    active = ingest.filter_active_users(valid, period)
    profiles = ingest.build_profiles(ingest.restrict_to_users(valid, active), period, favorites)
    sset = signals.build_signal_set(profiles)
    test = evaluate.split_users(sset.user_ids, 0.33, seed=seed)
    learned = dictionary.learn(sset.matrix[~test],
                               dictionary.LearnConfig(n_atoms=6, lam=1.0, outer_iters=12, seed=seed))
    codes = dictionary.embed(sset.matrix, learned.dictionary, learned.dictionary.lam)
    labels = evaluate.parse_labels(result.labels_path)
    totals = dict(zip(profiles.user_ids, profiles.summary[:, 0].tolist()))
    report = evaluate.evaluate_all(sset.user_ids, codes, labels, totals, test,
                                   evaluate.EvalConfig(seed=seed))
    primaries = oracles.planted_truth(config).primary_activities()
    return float(np.mean([auc_of(report, "codes", a) for a in primaries]))


@pytest.mark.slow
def test_noise_monotonically_degrades_downstream_auc(tmp_path):
    means = []
    for noise in (0.2, 0.5, 0.8):
        aucs = [_downstream_auc(noise, seed, tmp_path / f"n{noise}_{seed}")
                for seed in (1, 2, 3)]
        means.append(float(np.mean(aucs)))
    assert means[0] > means[1] > means[2]
