import json

import numpy as np
import pytest

import oracles
from weeklisten import dictionary, evaluate, ingest, signals, synth
from weeklisten.errors import SynthesisError


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
    config, result = thousand_users
    for activity, rate in zip(evaluate.ACTIVITIES, config.base_rates):
        assert result.label_rates[activity] == pytest.approx(rate, abs=0.03)


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


def test_pure_commuter_concentrates_on_commute_slots(tmp_path):
    config = synth.SynthConfig(n_users=30, weeks=4, seed=5, noise=0.0,
                               archetype_weights=(1.0, 0.0, 0.0, 0.0),
                               mixture_concentration=1e6)  # pin mixtures to the commuter
    result = synth.generate(config, tmp_path)
    log, _ = ingest.parse_events(result.events_path)
    valid = ingest.filter_valid_streams(log)
    slots = np.array([oracles.weekly_slot(int(ts)) for ts in valid.timestamps])
    commute_hours = {d * 24 + h for d in range(5) for h in (7, 8, 9, 17, 18, 19)}
    frac = np.mean([s in commute_hours for s in slots])
    assert frac >= 0.60


def test_planted_truth_shapes_and_links():
    config = synth.SynthConfig(n_users=10, weeks=2, seed=0)
    truth = synth.planted_truth(config)
    assert len(truth.archetype_names) == len(config.archetype_weights)
    assert truth.profiles.shape == (4, 4, 168)
    assert truth.primary_activities() == ("transport", "work", "friends", "asleep")


def test_planted_truth_normalization_invariants():
    truth = synth.planted_truth(synth.SynthConfig(n_users=10, weeks=2, seed=0))
    norm = truth.normalized_profiles()
    assert np.abs(norm.mean(axis=-1)).max() < 1e-9
    maxabs = np.abs(norm).max(axis=-1)
    assert np.all((maxabs == 0.0) | (np.abs(maxabs - 1.0) < 1e-9))


def test_planted_commuter_volume_peaks():
    truth = synth.planted_truth(synth.SynthConfig(n_users=10, weeks=2, seed=0))
    commuter = truth.profiles[truth.archetype_names.index("commuter")]
    volume = commuter[0]
    commute_hours = [d * 24 + h for d in range(5) for h in (7, 8, 9, 17, 18, 19)]
    others = sorted(set(range(168)) - set(commute_hours))
    assert volume[commute_hours].min() > volume[others].max()


def test_config_validation():
    with pytest.raises(SynthesisError, match="weeks"):
        synth.SynthConfig(weeks=1)
    with pytest.raises(SynthesisError, match="base rates"):
        synth.SynthConfig(base_rates=(0.5,) * 5 + (1.5,))
    with pytest.raises(SynthesisError, match="weights"):
        synth.SynthConfig(archetype_weights=(0.5, 0.5, 0.5, 0.5))
    with pytest.raises(SynthesisError, match="noise"):
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
    (arch,) = synth.load_archetypes(path, weekly_volume=40.0, organic_target=0.8)
    assert arch.name == "tester"
    assert arch.rate_profile.sum() == pytest.approx(40.0)
    assert arch.rate_profile[10] > arch.rate_profile[9]
    assert np.all(arch.repetition == 0.6)
    # Organicity is recentered to the target under the volume weighting.
    weighted = (arch.rate_profile * arch.organicity).sum() / arch.rate_profile.sum()
    assert weighted == pytest.approx(0.8, abs=1e-9)


def _downstream_auc(noise, seed, tmp_path):
    """Mean codes-variant AUC over the four primary activities, small pipeline."""
    config = synth.SynthConfig(n_users=250, weeks=5, seed=seed, noise=noise)
    result = synth.generate(config, tmp_path)
    log, _ = ingest.parse_events(result.events_path)
    favorites = ingest.parse_favorites(result.favorites_path)
    valid = ingest.filter_valid_streams(log)
    period = ingest.StudyPeriod(config.period_start, config.period_end)
    active = ingest.filter_active_users(valid, period)
    profiles = ingest.build_profiles(ingest.restrict_to_users(valid, active), favorites)
    sset = signals.build_signal_set(profiles, period)
    test = evaluate.split_users(sset.user_ids, 0.33, seed=seed)
    learned = dictionary.learn(sset.matrix[~test],
                               dictionary.LearnConfig(n_atoms=6, lam=1.0, outer_iters=12, seed=seed))
    codes = dictionary.embed(sset.matrix, learned.dictionary, learned.dictionary.lam)
    labels = evaluate.parse_labels(result.labels_path)
    totals = dict(zip(profiles.user_ids, profiles.summary[:, 0].tolist()))
    report = evaluate.evaluate_all(sset.user_ids, codes, labels, totals, test,
                                   evaluate.EvalConfig(seed=seed))
    primaries = synth.planted_truth(config).primary_activities()
    return float(np.mean([report.auc_of("codes", a) for a in primaries]))


@pytest.mark.slow
def test_noise_monotonically_degrades_downstream_auc(tmp_path):
    means = []
    for noise in (0.2, 0.5, 0.8):
        aucs = [_downstream_auc(noise, seed, tmp_path / f"n{noise}_{seed}")
                for seed in (1, 2, 3)]
        means.append(float(np.mean(aucs)))
    assert means[0] > means[1] > means[2]
