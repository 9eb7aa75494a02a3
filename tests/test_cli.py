import argparse
import json
import tracemalloc

import numpy as np
import pytest

from weeklisten import cli, dictionary, evaluate, ingest, signals, synth

from conftest import DATA_ARTIFACTS, MONDAY, WEEK, events_csv_lines

SMALL = ["--users", "120", "--weeks", "2", "--atoms", "8", "--outer-iters", "6"]


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    assert run(["pipeline", "--seed", "7", "--out", str(out)] + SMALL) == 0
    return out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "weeklisten" in capsys.readouterr().out


def test_no_subcommand_exits_2(capsys):
    assert run([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--does-not-exist", "1"])
    assert exc.value.code == 2


def test_eval_without_labels_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--code-users", "x", "--codes", "y", "--summary", "z"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_synth_archetype_file_follows_organic_rate(tmp_path, capsys):
    spec = {"archetypes": [
        {"name": f"a{i}", "base_rate": 0.1,
         "volume_peaks": [{"days": [i], "hours": [8, 9, 10], "level": 2.0}],
         "organicity": {"base": 0.9, "peaks": [{"days": [i], "hours": [9], "level": -0.5}]},
         "activity_links": {"work": 1.0}} for i in range(4)]}
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(spec))
    args = cli.build_parser().parse_args(["synth", "--archetypes", str(path), "--organic-rate", "0.6"])
    table = cli._synth_config(args).resolved_archetypes()
    assert (table.rates * table.organicity).sum(axis=1) / table.rates.sum(axis=1) == pytest.approx([0.6] * 4)
    assert run(["synth", "--seed", "3", "--out", str(tmp_path), "--users", "100", "--weeks", "2",
                "--archetypes", str(path), "--organic-rate", "0.6"]) == 0
    fraction = float(capsys.readouterr().out.split("organic fraction ")[1].split(")")[0])
    assert fraction == pytest.approx(0.6, abs=0.03)


@pytest.mark.parametrize("count", [1, 3])
def test_synth_runs_with_any_archetype_count(tmp_path, count):
    path = tmp_path / "arch.json"
    path.write_text(json.dumps({"archetypes": synth.STOCK_ARCHETYPES["archetypes"][:count]}))
    assert run(["synth", "--seed", "3", "--out", str(tmp_path), "--users", "40", "--weeks", "2",
                "--archetypes", str(path)]) == 0
    labels = evaluate.parse_labels(tmp_path / "labels.csv")
    assert len(labels.user_ids) == 40
    log, _ = ingest.parse_events(tmp_path / "events.csv")
    assert len(set(log.users[log.user_idx])) == 40


def test_zero_activity_threshold_counts_only_users_with_valid_streams(tmp_path, capsys):
    assert run(["synth", "--seed", "5", "--out", str(tmp_path), "--users", "30", "--weeks", "2"]) == 0
    config = synth.SynthConfig(weeks=2)
    with open(tmp_path / "events.csv", "a", encoding="utf-8") as fh:
        fh.write(f"skipper,{synth.PERIOD_START + 60},t_skip,al_skip,organic,5\n")
    capsys.readouterr()
    assert run(["ingest", "--out", str(tmp_path), "--events", str(tmp_path / "events.csv"),
                "--period-start", str(synth.PERIOD_START), "--period-end", str(config.period_end),
                "--min-daily-streams", "0"]) == 0
    assert "30 active users" in capsys.readouterr().out
    rows = (tmp_path / "user_summary.csv").read_text().splitlines()[1:]
    assert len(rows) == 30 and not any(r.startswith("skipper,") for r in rows)


def test_front_end_memory_is_bounded_by_the_restricted_log(tmp_path, monkeypatch):
    # Measured from the end of the parse, whose own peak is set by the interned id
    # strings: the filters, profiles and signals must stay under 3 copies of the
    # restricted log's event columns.  Keeping the parsed, valid and restricted logs
    # alive together and sorting copies of the keys with np.unique and np.isin took 5.8.
    config = synth.SynthConfig(n_users=300, weeks=4, seed=3)
    result = synth.generate(config, tmp_path)
    args = argparse.Namespace(
        events=result.events_path, favorites=result.favorites_path,
        min_listen_secs=ingest.MIN_LISTEN_SECS, min_daily_streams=ingest.MIN_DAILY_STREAMS,
        period_start=synth.PERIOD_START, period_end=config.period_end)
    parse, parsed = ingest.parse_events, {}

    def parse_then_reset_peak(source):
        out = parse(source)
        parsed["traced"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(ingest, "parse_events", parse_then_reset_peak)
    tracemalloc.start()
    try:
        profiles, period, *_ = cli._load_filtered(args)
        signals.build_signal_set(profiles, period)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    log = profiles.log
    columns = sum(c.nbytes for c in (log.user_idx, log.track_idx, log.album_idx, log.timestamps,
                                     log.durations, log.organic, log.tz_offset_min))
    assert len(log) > 50_000
    assert peak - parsed["traced"] < 3 * columns, (peak - parsed["traced"]) / columns


def test_far_future_timestamps_ingest_and_signal(tmp_path, capsys):
    # Day numbers past 2**31 once overflowed a packed (user, day) key and crashed ingest.
    events = tmp_path / "events.csv"
    events.write_text("".join(events_csv_lines([f"u1,{2**62 + i},t{i},a{i},organic,60" for i in range(700)])))
    argv = ["--events", str(events), "--period-start", str(MONDAY), "--period-end", str(MONDAY + WEEK),
            "--out", str(tmp_path)]
    assert run(["ingest", *argv]) == 0
    assert (tmp_path / "user_summary.csv").read_text().splitlines()[1] == "u1,700,1,700,0"
    assert run(["signals", *argv]) == 0
    assert (tmp_path / "signal_users.txt").read_text().split() == ["u1"]
    capsys.readouterr()
    assert run(["signals", *argv, f"--tz-offset-min={-2**31}"]) == 1
    assert f"error: default tz offset {-2**31} minutes does not fit in 32 bits" in capsys.readouterr().err


def test_user_ids_holding_commas_or_quotes_survive_the_user_summary(tmp_path):
    users = ["a,b", '"q', 'x"y']
    quoted = ['"' + user.replace('"', '""') + '"' for user in users]
    events = tmp_path / "events.csv"
    events.write_text("".join(events_csv_lines([f"{user},{MONDAY + 60 * i},t{i},a{i},organic,60"
                                                for k, user in enumerate(quoted) for i in range(10 + k)])))
    assert run(["ingest", "--events", str(events), "--min-daily-streams", "0", "--out", str(tmp_path)]) == 0
    assert cli._read_summary_totals(tmp_path / "user_summary.csv") == {"a,b": 10, '"q': 11, 'x"y': 12}


def test_far_apart_timestamps_signal_without_a_period(tmp_path, capsys):
    # Without --period-start/--period-end the period covers the event span, here
    # 2**40 s (about 300 million hours); the slot divisors once took memory per hour.
    events = tmp_path / "events.csv"
    events.write_text("".join(events_csv_lines([f"u1,{ts},t{i},a{i},organic,60"
                                                for i, ts in enumerate((0, 3600, 2**40))])))
    argv = ["--events", str(events), "--min-daily-streams", "0", "--out", str(tmp_path)]
    assert run(["signals", *argv]) == 0
    assert "built 1 signals of 672 columns" in capsys.readouterr().out
    signal = np.load(tmp_path / "signals.npy")
    assert signal.shape == (1, 672) and np.isfinite(signal).all()


def test_window_key_overflow_is_an_error_line(tmp_path, capsys):
    # 4096 users over the widest timestamp span need more (user, hour) keys than int64 holds.
    rows = [f"u{i:04d},{ts},t{i},a{i},organic,60"
            for i in range(4096) for ts in (ingest.TIMESTAMP_MIN, ingest.TIMESTAMP_MAX)]
    events = tmp_path / "events.csv"
    events.write_text("".join(events_csv_lines(rows)))
    assert run(["signals", "--events", str(events), "--min-daily-streams", "0", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 4096 users x ") and "overflow the 64-bit (user, window) key" in err


def test_module_error_exits_1(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    rc = run(["ingest", "--events", str(missing), "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def _bad_summary(tmp_path, pipe):
    path = tmp_path / "summary.csv"
    lines = (pipe / "user_summary.csv").read_text().splitlines()
    lines[2] = lines[2].split(",")[0] + ",many,1,1,1"
    path.write_text("\n".join(lines) + "\n")
    return path


def _empty_file(tmp_path, pipe):
    path = tmp_path / "empty.csv"
    path.write_text("")
    return path


def _short_dictionary(tmp_path, pipe):
    path = tmp_path / "dictionary.csv"
    path.write_text("\n".join((pipe / "dictionary.csv").read_text().splitlines()[:-1]) + "\n")
    return path


def _garbage_npy(tmp_path, pipe):
    path = tmp_path / "garbage.npy"
    path.write_text("not an array\n")
    return path


def _missing(tmp_path, pipe):
    return tmp_path / "nope.npy"


def _short_index(tmp_path, pipe):
    path = tmp_path / "signal_users.txt"
    path.write_text("".join((pipe / "signal_users.txt").read_text().splitlines(True)[:-1]))
    return path


def _csv_signals(tmp_path, pipe):
    path = tmp_path / "signals.csv"
    np.savetxt(path, np.load(pipe / "signals.npy"), fmt="%.17g", delimiter=",")
    return path


def _non_utf8(name, line, col):
    """``name`` with byte 0xff after field ``col`` of line ``line`` (mid-stream for events.csv)."""
    def damage(tmp_path, pipe):
        lines = (pipe / name).read_bytes().splitlines(True)
        fields = lines[line - 1].split(b",")
        fields[col] += b"\xff"
        lines[line - 1] = b",".join(fields)
        path = tmp_path / name
        path.write_bytes(b"".join(lines))
        return path
    return damage


def _line_2_repeated(name):
    """``name`` with line 3 replaced by a copy of line 2, so one user id appears twice."""
    def damage(tmp_path, pipe):
        lines = (pipe / name).read_text().splitlines(True)
        lines[2] = lines[1]
        path = tmp_path / name
        path.write_text("".join(lines))
        return path
    return damage


def _overflowing_duration(tmp_path, pipe):
    """A one-line events file whose listen_duration does not fit in 32 bits."""
    path = tmp_path / "events.csv"
    path.write_text(",".join(ingest.EVENT_COLUMNS) + "\nu1,1641168000,t1,a1,organic,99999999999\n")
    return path


def _nan_dictionary(tmp_path, pipe):
    path = tmp_path / "dictionary.csv"
    lines = (pipe / "dictionary.csv").read_text().splitlines(True)
    lines[2] = "nan," + lines[2].split(",", 1)[1]
    path.write_text("".join(lines))
    return path


def _archetype_file(text):
    def damage(tmp_path, pipe):
        path = tmp_path / "arch.json"
        path.write_text(text)
        return path
    return damage


# (argv builder over the pipeline dir and the damaged file, damage, expected message or messages)
BAD_HANDOFFS = {
    "export-atoms-empty-dictionary": (
        lambda p, bad: ["export-atoms", "--dictionary", bad], _empty_file, "not a dictionary CSV"),
    "embed-short-dictionary": (
        lambda p, bad: ["embed", "--signal-users", p / "signal_users.txt", "--signals", p / "signals.npy",
                        "--dictionary", bad], _short_dictionary, "7 atom rows, header says 8"),
    "learn-missing-signals": (
        lambda p, bad: ["learn", "--signal-users", p / "signal_users.txt", "--signals", bad],
        _missing, "cannot read matrix"),
    "learn-garbage-signals": (
        lambda p, bad: ["learn", "--signal-users", p / "signal_users.txt", "--signals", bad],
        _garbage_npy, "cannot read matrix"),
    "learn-csv-signals": (
        lambda p, bad: ["learn", "--signal-users", p / "signal_users.txt", "--signals", bad],
        _csv_signals, "cannot read matrix"),
    "learn-short-index": (
        lambda p, bad: ["learn", "--signal-users", bad, "--signals", p / "signals.npy"],
        _short_index, "of shape (120, 672) does not match the 119 users"),
    "embed-missing-index": (
        lambda p, bad: ["embed", "--signal-users", bad, "--signals", p / "signals.npy",
                        "--dictionary", p / "dictionary.csv"], _missing, "cannot read user index"),
    "eval-non-integer-total": (
        lambda p, bad: ["eval", "--code-users", p / "code_users.txt", "--codes", p / "codes.npy",
                        "--labels", p / "labels.csv", "--summary", bad], _bad_summary, "line 3"),
    "ingest-missing-favorites": (
        lambda p, bad: ["ingest", "--events", p / "events.csv", "--favorites", bad],
        _missing, "cannot read favorites source"),
    "ingest-non-utf8-events": (
        lambda p, bad: ["ingest", "--events", bad, "--favorites", p / "favorites.csv"],
        _non_utf8("events.csv", 5001, 2), ("cannot read events source", ": line 5001, byte column ")),
    "eval-non-utf8-labels": (
        lambda p, bad: ["eval", "--code-users", p / "code_users.txt", "--codes", p / "codes.npy",
                        "--labels", bad, "--summary", p / "user_summary.csv"],
        _non_utf8("labels.csv", 61, 0), ("cannot read labels source", ": line 61, byte column 7: ")),
    "learn-duplicate-index-user": (
        lambda p, bad: ["learn", "--signal-users", bad, "--signals", p / "signals.npy"],
        _line_2_repeated("signal_users.txt"), "lists user u00001 more than once"),
    "eval-duplicate-summary-user": (
        lambda p, bad: ["eval", "--code-users", p / "code_users.txt", "--codes", p / "codes.npy",
                        "--labels", p / "labels.csv", "--summary", bad],
        _line_2_repeated("user_summary.csv"), "line 3: duplicate user id u00000"),
    "ingest-overflowing-duration": (
        lambda p, bad: ["ingest", "--events", bad], _overflowing_duration,
        ("too many malformed lines", "line 2: listen_duration 99999999999 does not fit in 32 bits")),
    "embed-nan-dictionary": (
        lambda p, bad: ["embed", "--signal-users", p / "signal_users.txt", "--signals", p / "signals.npy",
                        "--dictionary", bad], _nan_dictionary, "non-finite values in dictionary"),
    "synth-missing-archetypes": (
        lambda p, bad: ["synth", "--archetypes", bad], _missing, ("cannot read archetypes", "nope.npy")),
    "synth-non-json-archetypes": (
        lambda p, bad: ["synth", "--archetypes", bad], _archetype_file("{archetypes: commuter}"),
        ("cannot read archetypes", "arch.json")),
    "synth-schema-breaking-archetypes": (
        lambda p, bad: ["synth", "--archetypes", bad], _archetype_file('{"archetypes": [{"name": "x"}]}'),
        ("cannot read archetypes", "arch.json", "do not follow the schema", "KeyError 'base_rate'")),
}


@pytest.mark.parametrize("case", sorted(BAD_HANDOFFS))
def test_bad_handoff_file_is_an_error_line(pipeline_dir, tmp_path, capsys, case):
    argv, damage, messages = BAD_HANDOFFS[case]
    args = [str(a) for a in argv(pipeline_dir, damage(tmp_path, pipeline_dir))]
    assert run(args + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: "), err
    for message in (messages,) if isinstance(messages, str) else messages:
        assert message in err, err


def test_pipeline_outputs_exist(pipeline_dir):
    for name in DATA_ARTIFACTS + ("manifest_pipeline.json", "manifest_ingest.json", "manifest_signals.json"):
        assert (pipeline_dir / name).exists(), name
    assert not (pipeline_dir / "dictionary.bin").exists()


def test_pipeline_parses_each_input_once(tmp_path, monkeypatch):
    calls = {"parse_events": 0, "parse_favorites": 0}
    for name in calls:
        def counted(source, _parse=getattr(ingest, name), _name=name):
            calls[_name] += 1
            return _parse(source)
        monkeypatch.setattr(ingest, name, counted)
    assert run(["pipeline", "--seed", "7", "--out", str(tmp_path)] + SMALL) == 0
    assert calls == {"parse_events": 1, "parse_favorites": 1}


def test_pipeline_help_shows_the_shared_flag_help(capsys):
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    helps = {flag: action.help for stage in ("ingest", "signals")
             for action in subparsers.choices[stage]._actions for flag in action.option_strings}
    with pytest.raises(SystemExit):
        run(["pipeline", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for flag in ("--min-listen-secs", "--min-daily-streams", "--tz-offset-min"):
        assert helps[flag] and " ".join(helps[flag].split()) in text, flag


def test_manifest_contents(pipeline_dir):
    manifest = json.loads((pipeline_dir / "manifest_learn.json").read_text())
    assert manifest["command"] == "learn"
    assert manifest["seed"] == 7
    assert manifest["config"]["atoms"] == 8
    assert "duration_secs" in manifest
    assert manifest["outputs"]["dictionary_csv"].endswith("dictionary.csv")


def test_manifests_record_peak_rss_and_ingest_gate_counts(pipeline_dir, tmp_path, capsys):
    manifests = sorted(pipeline_dir.glob("manifest_*.json"))
    assert len(manifests) == 8
    for path in manifests:
        assert json.loads(path.read_text())["peak_rss_mb"] > 0, path.name

    # One malformed line and one favorite of an unknown user, so that every gate count shows.
    events = tmp_path / "events.csv"
    lines = (pipeline_dir / "events.csv").read_text().splitlines()
    events.write_text("\n".join(lines + ["not,an,event"]) + "\n")
    favorites = tmp_path / "favorites.csv"
    favorites.write_text((pipeline_dir / "favorites.csv").read_text() + "ghost,track,t1\n")
    config = synth.SynthConfig(n_users=120, weeks=2)
    capsys.readouterr()
    assert run(["ingest", "--out", str(tmp_path), "--events", str(events), "--favorites", str(favorites),
                "--period-start", str(synth.PERIOD_START), "--period-end", str(config.period_end)]) == 0
    out = capsys.readouterr().out
    gates = {k: v for k, v in json.loads((tmp_path / "manifest_ingest.json").read_text()).items()
             if k in ("lines", "malformed", "valid_streams", "active_users", "unknown_favorite_users")}
    assert gates == {
        "lines": len(lines),
        "malformed": 1,
        "valid_streams": sum(int(line.rsplit(",", 1)[1]) >= 30 for line in lines[1:]),
        "active_users": len((tmp_path / "user_summary.csv").read_text().splitlines()) - 1,
        "unknown_favorite_users": 1,
    }
    assert f"{gates['lines'] - 1} events parsed, 1 malformed of {gates['lines']} lines" in out
    assert f"{gates['valid_streams']} valid streams; {gates['active_users']} active users over" in out
    assert "warning: 1 favorites referenced unknown users" in out


def test_synth_manifest_records_the_event_counts(pipeline_dir):
    manifest = json.loads((pipeline_dir / "manifest_synth.json").read_text())
    rows = [line.split(",") for line in (pipeline_dir / "events.csv").read_text().splitlines()[1:]]
    valid = [row[4] == "organic" for row in rows if int(row[5]) >= ingest.MIN_LISTEN_SECS]
    assert manifest["events"] == len(rows)
    assert manifest["valid_events"] == len(valid)
    assert manifest["organic_fraction_valid"] == sum(valid) / len(valid)


def test_stages_that_parse_record_the_parse_time(pipeline_dir, tmp_path):
    # pipeline parses once, in ingest; a staged signals parses for itself and says so.
    def manifest(directory, name):
        return json.loads((directory / f"manifest_{name}.json").read_text())

    assert isinstance(manifest(pipeline_dir, "ingest")["parse_s"], float)
    assert "parse_s" not in manifest(pipeline_dir, "signals")
    config = synth.SynthConfig(n_users=120, weeks=2)
    assert run(["signals", "--out", str(tmp_path), "--events", str(pipeline_dir / "events.csv"),
                "--period-start", str(synth.PERIOD_START), "--period-end", str(config.period_end)]) == 0
    assert manifest(tmp_path, "signals")["parse_s"] >= 0


def test_eval_report_well_formed(pipeline_dir):
    lines = (pipeline_dir / "eval_report.csv").read_text().splitlines()
    assert lines[0] == "variant,activity,auc,l2"
    assert len(lines) == 1 + 30
    table = (pipeline_dir / "eval_table.txt").read_text()
    assert "codes" in table and "wake_up" in table


def test_staged_run_matches_pipeline_bytes(pipeline_dir, tmp_path):
    staged = tmp_path / "staged"
    seed = ["--seed", "7"]
    config = synth.SynthConfig(n_users=120, weeks=2)
    period = ["--period-start", str(synth.PERIOD_START),
              "--period-end", str(config.period_end)]
    src = ["--events", str(staged / "events.csv"), "--favorites", str(staged / "favorites.csv")]
    out = ["--out", str(staged)]

    assert run(["synth", *out, *seed, "--users", "120", "--weeks", "2"]) == 0
    assert run(["ingest", *out, *seed, *src, *period]) == 0
    assert run(["signals", *out, *seed, *src, *period]) == 0
    assert run(["learn", *out, *seed, "--signal-users", str(staged / "signal_users.txt"),
                "--signals", str(staged / "signals.npy"), "--atoms", "8", "--outer-iters", "6"]) == 0
    assert run(["embed", *out, *seed, "--signal-users", str(staged / "signal_users.txt"),
                "--signals", str(staged / "signals.npy"),
                "--dictionary", str(staged / "dictionary.csv")]) == 0
    assert run(["eval", *out, *seed, "--code-users", str(staged / "code_users.txt"),
                "--codes", str(staged / "codes.npy"), "--labels", str(staged / "labels.csv"),
                "--summary", str(staged / "user_summary.csv")]) == 0
    assert run(["export-atoms", *out, *seed, "--dictionary", str(staged / "dictionary.csv")]) == 0

    for name in DATA_ARTIFACTS:
        assert (staged / name).read_bytes() == (pipeline_dir / name).read_bytes(), name


@pytest.mark.parametrize("stage, flags, message", [
    ("embed", ["--lambda", "-1"], "lam must be finite and >= 0, got -1.0"),
    ("embed", ["--lasso-tol", "-1"], "lasso tolerance must be finite and > 0, got -1.0"),
    ("embed", ["--lasso-max-sweeps", "0"], "lasso sweep cap must be >= 1, got 0"),
    ("learn", ["--lambda", "nan", "--atoms", "8", "--outer-iters", "2"], "lam must be finite and >= 0, got nan"),
    ("synth", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("learn", ["--test-frac", "nan"], "test fraction must lie in (0, 1), got nan"),
    ("learn", ["--test-frac", "inf"], "test fraction must lie in (0, 1), got inf"),
    ("eval", ["--test-frac", "nan"], "test fraction must lie in (0, 1), got nan"),
    ("learn", ["--outer-iters", "-4"], "outer_iters must be >= 0, got -4"),
    ("ingest", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("signals", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("embed", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("export-atoms", ["--seed", "-1"], "seed must be >= 0, got -1"),
])
def test_bad_coder_arguments_are_error_lines(pipeline_dir, tmp_path, capsys, stage, flags, message):
    # Bad argument values of any stage, coder arguments among them.
    out = tmp_path / "out"
    signal_files = ["--signal-users", str(pipeline_dir / "signal_users.txt"),
                    "--signals", str(pipeline_dir / "signals.npy")]
    events = ["--events", str(pipeline_dir / "events.csv"), "--favorites", str(pipeline_dir / "favorites.csv")]
    inputs = {"synth": [], "learn": signal_files, "ingest": events, "signals": events,
              "embed": signal_files + ["--dictionary", str(pipeline_dir / "dictionary.csv")],
              "export-atoms": ["--dictionary", str(pipeline_dir / "dictionary.csv")],
              "eval": ["--code-users", str(pipeline_dir / "code_users.txt"),
                       "--codes", str(pipeline_dir / "codes.npy"), "--labels", str(pipeline_dir / "labels.csv"),
                       "--summary", str(pipeline_dir / "user_summary.csv")]}
    assert run([stage, "--out", str(out), *inputs[stage], *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / f"manifest_{stage.replace('-', '_')}.json").exists()


@pytest.mark.parametrize("stage, flags, message", [
    ("ingest", ["--min-daily-streams", "1000"], "none has 1000 valid streams (of at least 30 s) per day"),
    ("signals", ["--min-daily-streams", "1e9"], "none has 1e+09 valid streams (of at least 30 s) per day"),
    ("pipeline", ["--min-listen-secs", "100000"], "none has 6 valid streams (of at least 100000 s) per day"),
])
def test_no_active_user_is_an_error_line(pipeline_dir, tmp_path, capsys, stage, flags, message):
    if stage == "pipeline":
        argv = ["pipeline", "--seed", "7", *SMALL]
    else:
        argv = [stage, "--events", str(pipeline_dir / "events.csv"),
                "--favorites", str(pipeline_dir / "favorites.csv")]
    assert run([*argv, "--out", str(tmp_path), *flags]) == 1
    assert capsys.readouterr().err == f"error: no active users: {message}\n"
    assert not (tmp_path / "user_summary.csv").exists() and not (tmp_path / "signals.npy").exists()


def test_nan_residuals_are_not_certified(capsys):
    dct = dictionary.Dictionary(stacked=np.eye(3), lam=1.0)
    codes = np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]])
    certificate = cli._certify_codes(np.zeros((3, 3)), dct, codes, 1.0, 1e-8)
    assert certificate["users_uncertified"] == 1
    assert "1 of 3 codes miss the KKT certificate" in capsys.readouterr().out


def test_sweep_cap_is_reported(pipeline_dir, tmp_path, capsys):
    for name in ("learn", "embed"):
        manifest = json.loads((pipeline_dir / f"manifest_{name}.json").read_text())
        assert manifest["users_uncertified"] == 0
        assert manifest["kkt_max"] <= dictionary.KKT_TOL_FACTOR * 1e-8

    out = tmp_path / "capped"
    signals = ["--signal-users", str(pipeline_dir / "signal_users.txt"),
               "--signals", str(pipeline_dir / "signals.npy")]
    capped = ["--out", str(out), "--seed", "7", "--lasso-max-sweeps", "1"]
    assert run(["learn", *capped, *signals, "--atoms", "8", "--outer-iters", "2"]) == 0
    assert run(["embed", *capped, *signals, "--dictionary", str(out / "dictionary.csv")]) == 0
    assert capsys.readouterr().out.count("miss the KKT certificate") == 2
    for name in ("learn", "embed"):
        manifest = json.loads((out / f"manifest_{name}.json").read_text())
        assert manifest["users_uncertified"] > 0
        assert manifest["kkt_max"] > dictionary.KKT_TOL_FACTOR * 1e-8


def test_newton_certificate_is_reported(pipeline_dir, tmp_path, capsys, monkeypatch):
    manifest = json.loads((pipeline_dir / "manifest_eval.json").read_text())
    assert manifest["newton_fits"] == 30 * (5 * 5 + 1)  # per job: 25 (l2, fold) fits and the refit
    assert manifest["newton_grad_max"] < evaluate.GRAD_TOL
    assert manifest["newton_stopped_max_iter"] == manifest["newton_stopped_halving"] == 0

    newton = evaluate.newton_logreg
    monkeypatch.setattr(evaluate, "newton_logreg", lambda *args, **kw: newton(*args, **{**kw, "max_iter": 1}))
    out = tmp_path / "capped"
    capsys.readouterr()
    assert run(["eval", "--out", str(out), "--seed", "7", "--code-users", str(pipeline_dir / "code_users.txt"),
                "--codes", str(pipeline_dir / "codes.npy"), "--labels", str(pipeline_dir / "labels.csv"),
                "--summary", str(pipeline_dir / "user_summary.csv")]) == 0
    manifest = json.loads((out / "manifest_eval.json").read_text())
    capped = manifest["newton_stopped_max_iter"]
    assert manifest["newton_fits"] == 780 and 700 < capped <= 780  # a few fits converge in one step
    assert manifest["newton_stopped_halving"] == 0
    assert manifest["newton_grad_max"] >= evaluate.GRAD_TOL
    warnings = [line for line in capsys.readouterr().out.splitlines() if line.startswith("warning:")]
    assert warnings == [f"warning: {capped} of 780 logistic fits stopped with gradient above 1e-06 "
                        f"({capped} at max_iter, 0 when step halving ran out; "
                        f"worst {manifest['newton_grad_max']:.3g})"]


@pytest.mark.parametrize("l2", ["-20", "0", "nan", "inf"])
def test_eval_rejects_an_l2_that_is_not_finite_and_positive(pipeline_dir, tmp_path, capsys, l2):
    assert run(["eval", "--out", str(tmp_path), "--seed", "7", "--code-users", str(pipeline_dir / "code_users.txt"),
                "--codes", str(pipeline_dir / "codes.npy"), "--labels", str(pipeline_dir / "labels.csv"),
                "--summary", str(pipeline_dir / "user_summary.csv"), "--l2-grid", l2, "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: l2 strengths must be finite and positive, got ["), err
    assert not (tmp_path / "manifest_eval.json").exists()


def test_user_ids_that_break_index_files_are_malformed(tmp_path, capsys):
    # A blank user id, or one holding a line break, cannot be written as one line of
    # signal_users.txt; such lines once ran through signals and embed gave users each
    # other's codes.  They are malformed lines now, reported by physical line.
    users = [" ", '"a\nb"', "c"]
    rows = [f"{user},{MONDAY + 60 * i},t{i},al{i},organic,60" for user in users for i in range(400)]
    events = tmp_path / "events.csv"
    events.write_text("".join(events_csv_lines(rows)))
    capsys.readouterr()
    assert run(["signals", "--events", str(events), "--min-daily-streams", "0", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: too many malformed lines: 400 events parsed, 800 malformed of 1200 lines")
    assert "line 2: user id ' ' is blank or holds a line break" in err
    assert not (tmp_path / "signal_users.txt").exists()


def test_learn_atoms_flag_sets_dictionary_header(pipeline_dir, tmp_path):
    out = tmp_path / "k32"
    rc = run(["learn", "--out", str(out), "--seed", "7",
              "--signal-users", str(pipeline_dir / "signal_users.txt"),
              "--signals", str(pipeline_dir / "signals.npy"),
              "--atoms", "32", "--outer-iters", "1"])
    assert rc == 0
    lines = (out / "dictionary.csv").read_text().splitlines()
    assert lines[0] == "n_atoms,channels,slots,lambda,seed"
    assert lines[1].startswith("32,4,168,")
    dct = dictionary.load_dictionary_csv(out / "dictionary.csv")
    assert dct.n_atoms == 32


def test_threads_flag_does_not_change_outputs(pipeline_dir, tmp_path):
    out = tmp_path / "threads4"
    src = ["--events", str(pipeline_dir / "events.csv"),
           "--favorites", str(pipeline_dir / "favorites.csv")]
    config = synth.SynthConfig(n_users=120, weeks=2)
    period = ["--period-start", str(synth.PERIOD_START), "--period-end", str(config.period_end)]
    rc = run(["signals", "--out", str(out), "--seed", "7", "--threads", "4", *src, *period])
    assert rc == 0
    assert (out / "signals.npy").read_bytes() == (pipeline_dir / "signals.npy").read_bytes()


def test_split_files_partition_users(pipeline_dir):
    train = (pipeline_dir / "train_users.txt").read_text().split()
    test = (pipeline_dir / "test_users.txt").read_text().split()
    users = (pipeline_dir / "signal_users.txt").read_text().split()
    assert not set(train) & set(test)
    assert set(train) | set(test) == set(users)
    assert len(test) == round(0.33 * len(users))


def test_codes_cover_all_signal_users(pipeline_dir):
    users = (pipeline_dir / "signal_users.txt").read_text().split()
    code_users = (pipeline_dir / "code_users.txt").read_text().split()
    assert code_users == users
    codes = np.load(pipeline_dir / "codes.npy")
    assert codes.shape == (len(users), 8)
