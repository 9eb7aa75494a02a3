import argparse
import csv
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import oracles
from weeklisten import cli, dictionary, evaluate, ingest, signals, storage, synth

from conftest import DATA_ARTIFACTS, MONDAY, WEEK, events_csv_lines, make_event

SMALL = ["--users", "120", "--weeks", "2", "--atoms", "8", "--outer-iters", "6"]
#: The study period of SMALL's synthetic inputs.
PERIOD = ["--period-start", str(synth.PERIOD_START),
          "--period-end", str(synth.SynthConfig(n_users=120, weeks=2).period_end)]


def run(argv):
    return cli.main(argv)


#: Why signals refuses a handoff made under another key.
OTHER_KEY = "was made from other inputs or flags"


def assert_refused(err, out, reason):
    """``err`` is signals' one error line: the handoff in ``out`` ``reason``, so run ingest first."""
    assert err.startswith(f"error: ingest's handoff {out / signals.FRONT_FILE} {reason}"), err
    assert err.endswith("; run ingest with the same --out, inputs and flags before signals\n"), err
    assert err.count("\n") == 1, err


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


def test_threads_below_one_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["export-atoms", "--dictionary", "x", "--threads", "0"])
    assert exc.value.code == 2
    assert "--threads must be >= 1" in capsys.readouterr().err


def test_every_declared_flag_is_taken():
    # A (command, flag) entry is that command's own flag, taken instead of the plain one.
    taken = {(command, flag) if (command, flag) in cli.FLAGS else flag
             for command, (_, flags) in cli.SUBCOMMANDS.items() for flag in (*cli.COMMON, *flags)}
    assert taken == set(cli.FLAGS)


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
    assert len(set(log.users.decoded()[log.user_idx])) == 40


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
    # Measured from the end of the parse, whose own peak is set by the interned
    # ids: the filters, profiles, handoff and signals must stay under 3 copies of the
    # restricted log's event columns.  Keeping the parsed, valid and restricted logs
    # alive together and sorting copies of the keys with np.unique and np.isin took 5.8.
    config = synth.SynthConfig(n_users=300, weeks=4, seed=3)
    result = synth.generate(config, tmp_path)
    args = cli.build_parser().parse_args([
        "ingest", "--out", str(tmp_path), "--events", str(result.events_path),
        "--favorites", str(result.favorites_path),
        "--period-start", str(synth.PERIOD_START), "--period-end", str(config.period_end)])
    parse, parsed = ingest.parse_events, {}

    def parse_then_reset_peak(source):
        out = parse(source)
        parsed["traced"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(ingest, "parse_events", parse_then_reset_peak)
    tracemalloc.start()
    try:
        cli._run("ingest", args)
        profiles = signals.load_front(tmp_path / signals.FRONT_FILE, cli._front_key(args)[0])
        signals.build_signal_set(profiles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The restricted log's seven columns: user, track and album indexes (int32), timestamp
    # (int64), duration (int32), organic (bool) and tz offset (int32), 29 bytes per event.
    columns = 29 * len(profiles.row)
    assert len(profiles.row) > 50_000
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
    assert run(["ingest", *argv, f"--tz-offset-min={-2**31}"]) == 1
    assert f"error: default tz offset {-2**31} minutes does not fit in 32 bits" in capsys.readouterr().err


def test_periods_at_the_timestamp_limits_fit_or_are_error_lines(tmp_path, capsys):
    # The latest offset moves a period ending at TIMESTAMP_MAX exactly to the int64 limit; the
    # period covering an event at TIMESTAMP_MAX ends up to an hour later, which cannot move.
    hi = ingest.TIMESTAMP_MAX
    events = tmp_path / "events.csv"
    events.write_text("".join(events_csv_lines([f"u1,{hi - 1000 * i},t{i},a{i},organic,60" for i in range(700)])))
    src = ["--events", str(events), "--min-daily-streams", "0", "--out", str(tmp_path)]
    period = ["--period-start", str(hi - 2 * WEEK), "--period-end", str(hi)]
    latest = f"--tz-offset-min={2**31 - 1}"
    assert run(["ingest", *src, *period, latest]) == 0
    assert run(["signals", *src, *period]) == 0
    assert np.isfinite(np.load(tmp_path / "signals.npy")).all()
    capsys.readouterr()
    assert run(["ingest", *src, latest]) == 1
    start, end = (hi - 699_000) // 3600 * 3600, hi // 3600 * 3600 + 3600  # the covering period
    shift = 60 * (2**31 - 1)
    err = capsys.readouterr().err
    assert err == f"error: study period must be a non-empty int64 range, got [{start + shift}, {end + shift})\n"


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
    assert run(["ingest", *argv]) == 0
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
    argv = ["--events", str(events), "--min-daily-streams", "0", "--out", str(tmp_path)]
    assert run(["ingest", *argv]) == 0
    capsys.readouterr()
    assert run(["signals", *argv]) == 1
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


def _dictionary_without_lambda(tmp_path, pipe):
    path = tmp_path / "dictionary.csv"
    stacked = dictionary.load_dictionary_csv(pipe / "dictionary.csv").stacked
    dictionary.save_dictionary_csv(dictionary.Dictionary(stacked=stacked), path)
    return path


def _test_users_with(extra):
    """learn's ``test_users.txt`` plus the id ``extra``, in the ``--out`` the case runs eval in."""
    def damage(tmp_path, pipe):
        path = tmp_path / "out" / "test_users.txt"
        path.parent.mkdir()
        path.write_text((pipe / "test_users.txt").read_text() + extra + "\n")
        return path
    return damage


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
    "eval-no-test-users": (
        lambda p, bad: ["eval", "--code-users", p / "code_users.txt", "--codes", p / "codes.npy",
                        "--labels", p / "labels.csv", "--summary", p / "user_summary.csv"],
        _missing, ("out/test_users.txt does not exist", "run learn with the same --out")),
    "eval-test-user-without-code": (
        lambda p, bad: ["eval", "--code-users", p / "code_users.txt", "--codes", p / "codes.npy",
                        "--labels", p / "labels.csv", "--summary", p / "user_summary.csv"],
        _test_users_with("nobody"), "out/test_users.txt lists users without a code, e.g. ['nobody']"),
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
    "embed-dictionary-without-lambda": (
        lambda p, bad: ["embed", "--signal-users", p / "signal_users.txt", "--signals", p / "signals.npy",
                        "--dictionary", bad], _dictionary_without_lambda,
        ("error: no --lambda given and dictionary /", "/dictionary.csv records no lambda\n")),
    "synth-missing-archetypes": (
        lambda p, bad: ["synth", "--archetypes", bad], _missing, ("cannot read archetypes", "nope.npy")),
    "synth-non-json-archetypes": (
        lambda p, bad: ["synth", "--archetypes", bad], _archetype_file("{archetypes: commuter}"),
        ("cannot read archetypes", "arch.json")),
    "synth-schema-breaking-archetypes": (
        lambda p, bad: ["synth", "--archetypes", bad], _archetype_file('{"archetypes": [{"name": "x"}]}'),
        ("cannot read archetypes", "arch.json", "do not follow the schema", "KeyError 'base_rate'")),
    "signals-no-handoff": (
        lambda p, bad: ["signals", "--events", p / "events.csv", "--favorites", p / "favorites.csv"],
        _missing, ("ingest's handoff", f"{signals.FRONT_FILE} does not exist", "run ingest with the same --out")),
    "signals-missing-events": (
        lambda p, bad: ["signals", "--events", bad, "--favorites", p / "favorites.csv"],
        _missing, ("cannot read events source", "nope.npy")),
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
    assert not list((tmp_path / "out").glob("manifest_*.json"))


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
    # A staged signals builds from the pipeline's handoff and parses nothing.
    src = ["--events", str(tmp_path / "events.csv"), "--favorites", str(tmp_path / "favorites.csv"), *PERIOD]
    assert run(["signals", "--out", str(tmp_path), *src]) == 0
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
        recorded = json.loads(path.read_text())
        assert recorded["peak_rss_mb"] > 0, path.name
        # The stage's own resident set at its start and end, which a peak so far cannot show.
        if sys.platform.startswith("linux"):
            for key in ("rss_start_mb", "rss_end_mb"):
                assert 0 < recorded[key] <= recorded["peak_rss_mb"], (path.name, key)
        else:
            assert recorded["rss_start_mb"] is None and recorded["rss_end_mb"] is None, path.name

    # One malformed line and favorites of unknown users, so that every gate count shows: "ghost"
    # has no event, "dropout" is under the activity bar and "skipper" has no valid stream.
    events = tmp_path / "events.csv"
    lines = (pipeline_dir / "events.csv").read_text().splitlines()
    lines += [f"dropout,{synth.PERIOD_START + 60},t_drop,al_drop,organic,120",
              f"skipper,{synth.PERIOD_START + 60},t_skip,al_skip,organic,5"]
    events.write_text("\n".join(lines + ["not,an,event"]) + "\n")
    favorites = tmp_path / "favorites.csv"
    favorites.write_text((pipeline_dir / "favorites.csv").read_text()
                         + "ghost,track,t1\ndropout,track,t_drop\nskipper,album,al_skip\n")
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
        "unknown_favorite_users": 3,
    }
    assert f"{gates['lines'] - 1} events parsed, 1 malformed of {gates['lines']} lines" in out
    assert f"{gates['valid_streams']} valid streams; {gates['active_users']} active users over" in out
    assert "warning: 3 favorites referenced unknown users" in out
    # The filtered-out users' favorites add no liked track to any row.
    assert (tmp_path / "user_summary.csv").read_bytes() == (pipeline_dir / "user_summary.csv").read_bytes()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss crosses exec on Linux")
def test_peak_rss_is_the_stage_process_own(pipeline_dir, tmp_path):
    # Linux carries the spawning process's ru_maxrss across exec into the child's; a
    # child spawned while this process holds a touched 128 MB buffer would report that.
    held = np.ones(128 << 20, dtype=np.uint8)
    done = subprocess.run([sys.executable, "-m", "weeklisten.cli", "export-atoms", "--out", str(tmp_path),
                           "--dictionary", str(pipeline_dir / "dictionary.csv")], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
    assert manifest(tmp_path, "export_atoms")["peak_rss_mb"] < held.nbytes / (1 << 20)


def test_synth_manifest_records_the_event_counts(pipeline_dir):
    manifest = json.loads((pipeline_dir / "manifest_synth.json").read_text())
    rows = [line.split(",") for line in (pipeline_dir / "events.csv").read_text().splitlines()[1:]]
    valid = [row[4] == "organic" for row in rows if int(row[5]) >= ingest.MIN_LISTEN_SECS]
    assert manifest["events"] == len(rows)
    assert manifest["valid_events"] == len(valid)
    assert manifest["organic_fraction_valid"] == sum(valid) / len(valid)


def manifest(directory, name):
    return json.loads((directory / f"manifest_{name}.json").read_text())


def test_stages_that_parse_record_the_parse_time(pipeline_dir, tmp_path, capsys):
    # Only ingest parses, in pipeline as in a staged run; a staged signals without
    # ingest's handoff fails, and with it builds what a parse of its inputs gives.
    assert isinstance(manifest(pipeline_dir, "ingest")["parse_s"], float)
    assert "parse_s" not in manifest(pipeline_dir, "signals")
    assert manifest(pipeline_dir, "signals")["inputs_sha256"] == manifest(pipeline_dir, "ingest")["inputs_sha256"]
    src = ["--events", str(pipeline_dir / "events.csv"), *PERIOD]
    fresh, handed = tmp_path / "fresh", tmp_path / "handed"
    assert run(["signals", "--out", str(fresh), *src]) == 1
    assert_refused(capsys.readouterr().err, fresh, "does not exist")
    assert not (fresh / "manifest_signals.json").exists()
    assert run(["ingest", "--out", str(handed), *src]) == 0
    assert run(["signals", "--out", str(handed), *src]) == 0
    assert manifest(handed, "ingest")["parse_s"] >= 0
    assert "parse_s" not in manifest(handed, "signals")
    valid = ingest.filter_valid_streams(ingest.parse_events(pipeline_dir / "events.csv")[0])
    period = ingest.StudyPeriod(int(PERIOD[1]), int(PERIOD[3]))
    profiles = ingest.build_profiles(ingest.restrict_to_users(valid, ingest.filter_active_users(valid, period)), period)
    assert np.array_equal(np.load(handed / "signals.npy"), signals.build_signal_set(profiles).matrix)


def test_ingest_writes_the_same_handoff_bytes_each_run(pipeline_dir, tmp_path):
    src = ["--events", str(pipeline_dir / "events.csv"), "--favorites", str(pipeline_dir / "favorites.csv")]
    for out in ("a", "b"):
        assert run(["ingest", "--out", str(tmp_path / out), *src, *PERIOD]) == 0
    handoff = (tmp_path / "a" / signals.FRONT_FILE).read_bytes()
    assert handoff == (tmp_path / "b" / signals.FRONT_FILE).read_bytes()
    assert handoff == (pipeline_dir / signals.FRONT_FILE).read_bytes()
    ingested = manifest(tmp_path / "a", "ingest")
    assert ingested["outputs"]["handoff"] == str(tmp_path / "a" / signals.FRONT_FILE)
    assert ingested["inputs_sha256"] == {
        name: hashlib.sha256((pipeline_dir / f"{name}.csv").read_bytes()).hexdigest()
        for name in ("events", "favorites")}


def _changed_event_byte(staged, src):
    """One timestamp digit of events.csv changed in place; its size and times are restored."""
    events = staged / "events.csv"
    before = events.stat()
    data = bytearray(events.read_bytes())
    at = data.index(b",", data.index(b"\n")) + 6  # the 10**4 s digit of the first event's timestamp
    data[at] = ord("0") + (data[at] - ord("0") + 1) % 10
    events.write_bytes(data)
    os.utime(events, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert events.stat().st_size == before.st_size and events.stat().st_mtime_ns == before.st_mtime_ns
    return src


def _moved(flag, secs):
    """The change that moves ``flag``'s value in ``src`` by ``secs``."""
    def change(staged, src):
        at = src.index(flag) + 1
        return [*src[:at], str(int(src[at]) + secs), *src[at + 1:]]
    return change


def _truncated_handoff(staged, src):
    handoff = staged / signals.FRONT_FILE
    handoff.write_bytes(handoff.read_bytes()[:-100])
    return src


def _empty_period_handoff(staged, src):
    """The handoff rewritten under its own key with the empty study period [5, 5)."""
    handoff = staged / signals.FRONT_FILE
    arrays = list(storage.load_arrays(handoff))
    arrays[1 + ingest.Profiles._fields.index("period")] = np.array([5, 5], dtype=np.int64)
    storage.save_arrays(arrays, handoff)
    return src


@pytest.mark.parametrize("change, reason", [
    (_changed_event_byte, OTHER_KEY),
    (lambda staged, src: [*src, "--min-listen-secs", "31"], OTHER_KEY),
    (lambda staged, src: [*src, "--min-daily-streams", "5"], OTHER_KEY),
    (_moved("--period-start", 3600), OTHER_KEY),
    (_moved("--period-end", 3600), OTHER_KEY),
    (lambda staged, src: [arg for arg in src if "favorites" not in arg], OTHER_KEY),
    (_truncated_handoff, "is damaged"),
    (_empty_period_handoff, "is damaged"),
    # Only the key record is read when it differs, so damage after it is not reached.
    (lambda staged, src: _truncated_handoff(staged, [*src, "--min-listen-secs", "31"]), OTHER_KEY),
], ids=["event-byte", "min-listen-secs", "min-daily-streams", "period-start", "period-end", "no-favorites",
        "truncated-handoff", "empty-period", "truncated-stale-handoff"])
def test_signals_fails_unless_the_handoff_matches_its_inputs(pipeline_dir, tmp_path, capsys, change, reason):
    staged = tmp_path / "staged"
    staged.mkdir()
    for name in ("events.csv", "favorites.csv"):
        shutil.copy(pipeline_dir / name, staged / name)
    src = ["--events", str(staged / "events.csv"), "--favorites", str(staged / "favorites.csv"), *PERIOD]
    assert run(["ingest", "--out", str(staged), *src]) == 0
    src = change(staged, src)
    capsys.readouterr()
    assert run(["signals", "--out", str(staged), *src]) == 1
    assert_refused(capsys.readouterr().err, staged, reason)
    assert not (staged / "signals.npy").exists() and not (staged / "manifest_signals.json").exists()


def test_a_handoff_of_the_first_format_is_a_miss(pipeline_dir, tmp_path, capsys):
    # The first format's file: a key naming that format, then no summary records.
    src = ["--events", str(pipeline_dir / "events.csv"), "--favorites", str(pipeline_dir / "favorites.csv"), *PERIOD]
    assert run(["ingest", "--out", str(tmp_path), *src]) == 0
    handoff = tmp_path / signals.FRONT_FILE
    key, *records = storage.load_arrays(handoff)
    old_key = {**json.loads(key.tobytes()), "format": "weeklisten-front-1"}
    storage.save_arrays([np.frombuffer(json.dumps(old_key, sort_keys=True).encode(), dtype=np.uint8),
                         *records[:6]], handoff)
    capsys.readouterr()
    assert run(["signals", "--out", str(tmp_path), *src]) == 1
    assert_refused(capsys.readouterr().err, tmp_path, OTHER_KEY)
    assert not (tmp_path / "signals.npy").exists() and not (tmp_path / "manifest_signals.json").exists()


def test_a_piped_input_makes_no_handoff(pipeline_dir, tmp_path, capsys):
    # A pipe cannot be read twice, once to digest it and once to parse it.
    fifo = tmp_path / "events.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes((pipeline_dir / "events.csv").read_bytes()))
    writer.start()
    try:
        assert run(["ingest", "--out", str(tmp_path), "--events", str(fifo), *PERIOD]) == 0
    finally:
        writer.join()
    assert manifest(tmp_path, "ingest")["inputs_sha256"] == {"events": None}
    assert not (tmp_path / signals.FRONT_FILE).exists()
    capsys.readouterr()
    # signals fails before it opens the pipe, which has no writer left.
    assert run(["signals", "--out", str(tmp_path), "--events", str(fifo), *PERIOD]) == 1
    assert capsys.readouterr().err == (f"error: --events {fifo} must be a regular file: signals checks "
                                       "ingest's handoff against its digest\n")
    assert not (tmp_path / "signals.npy").exists() and not (tmp_path / "manifest_signals.json").exists()


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
    assert manifest(staged, "signals")["inputs"]["handoff"] == str(staged / signals.FRONT_FILE)
    # Each stage's manifest says the same as the pipeline's, but for paths, flags and measurements.
    apart = {"config", "inputs", "outputs", "duration_secs", "peak_rss_mb", "rss_start_mb", "rss_end_mb", "parse_s"}
    for name in ("synth", "ingest", "signals", "learn", "embed", "eval", "export_atoms"):
        alone, piped = manifest(staged, name), manifest(pipeline_dir, name)
        assert alone.keys() == piped.keys(), name
        assert {k: v for k, v in alone.items() if k not in apart} == {
            k: v for k, v in piped.items() if k not in apart}, name


@pytest.fixture(scope="module")
def tz_pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe_tz")
    assert run(["pipeline", "--seed", "7", "--tz-offset-min", "600", "--out", str(out)] + SMALL) == 0
    return out


def test_pipeline_counts_active_days_on_its_local_clock(tz_pipeline_dir, pipeline_dir):
    # No synthetic event has an offset of its own, so each valid stream of an active user
    # counts on the --tz-offset-min clock.
    with open(tz_pipeline_dir / "events.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    summary = [line.split(",") for line in (tz_pipeline_dir / "user_summary.csv").read_text().splitlines()[1:]]
    active = {user for user, *_ in summary}
    events = [make_event(user=r["user_id"], timestamp=int(r["timestamp"]), duration=int(r["listen_duration"]))
              for r in rows if r["user_id"] in active and int(r["listen_duration"]) >= ingest.MIN_LISTEN_SECS]
    expected = [(user, str(p.active_days)) for user, p in sorted(oracles.profiles(events, (), 600).items())]
    assert [(user, days) for user, _, days, *_ in summary] == expected
    assert (tz_pipeline_dir / "user_summary.csv").read_bytes() != (pipeline_dir / "user_summary.csv").read_bytes()


def test_staged_ingest_sets_the_clock_signals_builds_on(tz_pipeline_dir, tmp_path):
    src = ["--out", str(tmp_path), "--seed", "7", "--events", str(tz_pipeline_dir / "events.csv"),
           "--favorites", str(tz_pipeline_dir / "favorites.csv"), *PERIOD]
    assert run(["ingest", *src, "--tz-offset-min", "600"]) == 0
    assert run(["signals", *src]) == 0
    for name in ("user_summary.csv", "signals.npy", signals.FRONT_FILE):
        assert (tmp_path / name).read_bytes() == (tz_pipeline_dir / name).read_bytes(), name


def test_only_ingest_takes_the_clock_flag(capsys):
    for command, listed in (("ingest", True), ("signals", False), ("pipeline", True)):
        with pytest.raises(SystemExit):
            run([command, "--help"])
        assert ("--tz-offset-min" in capsys.readouterr().out) == listed, command
    with pytest.raises(SystemExit) as exc:
        run(["signals", "--events", "x", "--tz-offset-min", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags, lam", [([], dictionary.LearnConfig.lam), (["--lambda", "0.5"], 0.5)])
def test_embed_records_the_lambda_it_coded_with(pipeline_dir, tmp_path, flags, lam):
    # Without --lambda, embed codes with the lambda dictionary.csv records, learn's default here.
    dct = pipeline_dir / "dictionary.csv"
    assert dictionary.load_dictionary_csv(dct).lam == dictionary.LearnConfig.lam != 0.5
    assert run(["embed", "--out", str(tmp_path), "--signal-users", str(pipeline_dir / "signal_users.txt"),
                "--signals", str(pipeline_dir / "signals.npy"), "--dictionary", str(dct), *flags]) == 0
    assert manifest(tmp_path, "embed")["lambda"] == lam


@pytest.mark.parametrize("stage, flags, message", [
    ("embed", ["--lambda", "-1"], "lam must be finite and >= 0, got -1.0"),
    ("embed", ["--lasso-tol", "-1"], "lasso tolerance must be finite and > 0, got -1.0"),
    ("embed", ["--lasso-max-sweeps", "0"], "lasso sweep cap must be >= 1, got 0"),
    ("learn", ["--lambda", "nan", "--atoms", "8", "--outer-iters", "2"], "lam must be finite and >= 0, got nan"),
    ("synth", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("learn", ["--test-frac", "nan"], "test fraction must lie in (0, 1), got nan"),
    ("learn", ["--test-frac", "inf"], "test fraction must lie in (0, 1), got inf"),
    ("eval", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("learn", ["--outer-iters", "-4"], "outer_iters must be >= 0, got -4"),
    ("ingest", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("signals", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("embed", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("export-atoms", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("ingest", ["--period-start", "0"], "--period-start and --period-end must be given together"),
    # A half period is refused before either command opens an input.
    ("ingest", ["--period-start", "0", "--events", "no/such/events.csv"],
     "--period-start and --period-end must be given together"),
    ("signals", ["--period-end", "0", "--events", "no/such/events.csv"],
     "--period-start and --period-end must be given together"),
    # So is one the handoff cannot hold.
    ("ingest", ["--period-start", "9223372036854775000", "--period-end", "9223372036854775900",
                "--events", "no/such/events.csv"],
     f"--period-start and --period-end must lie between {ingest.TIMESTAMP_MIN} and {ingest.TIMESTAMP_MAX}, "
     "got [9223372036854775000, 9223372036854775900)"),
    ("signals", ["--period-start", str(ingest.TIMESTAMP_MIN - 1), "--period-end", "0",
                 "--events", "no/such/events.csv"],
     f"--period-start and --period-end must lie between {ingest.TIMESTAMP_MIN} and {ingest.TIMESTAMP_MAX}, "
     f"got [{ingest.TIMESTAMP_MIN - 1}, 0)"),
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
    source = ["--events", str(pipeline_dir / "events.csv"), "--favorites", str(pipeline_dir / "favorites.csv")]
    # A staged signals takes the same flags as ingest, whose error it is; signals then finds no handoff.
    argv = ["pipeline", "--seed", "7", *SMALL] if stage == "pipeline" else ["ingest", *source]
    assert run([*argv, "--out", str(tmp_path), *flags]) == 1
    assert capsys.readouterr().err == f"error: no active users: {message}\n"
    if stage == "signals":
        assert run(["signals", *source, "--out", str(tmp_path), *flags]) == 1
        assert_refused(capsys.readouterr().err, tmp_path, "does not exist")
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


def test_learn_reports_recent_objective_decrease(pipeline_dir, tmp_path):
    # SMALL learns 6 rounds, fewer than DECREASE_ROUNDS: the decrease spans all of them.
    long = tmp_path / "long"
    rounds = cli.DECREASE_ROUNDS + 5
    assert run(["learn", "--out", str(long), "--seed", "7", "--atoms", "4", "--outer-iters", str(rounds),
                "--signal-users", str(pipeline_dir / "signal_users.txt"),
                "--signals", str(pipeline_dir / "signals.npy")]) == 0
    for out, spanned in ((pipeline_dir, 6), (long, cli.DECREASE_ROUNDS)):
        manifest = json.loads((out / "manifest_learn.json").read_text())
        lines = (out / "objective_trace.csv").read_text().splitlines()
        trace = [float(line.split(",")[1]) for line in lines[1:]]
        assert manifest["objective_decrease_rounds"] == spanned
        before, after = trace[-1 - 2 * spanned], trace[-1]
        assert manifest["objective_rel_decrease"] == (before - after) / before
        assert manifest["objective_rel_decrease"] > 0.0


def test_newton_certificate_is_reported(pipeline_dir, tmp_path, capsys, monkeypatch):
    manifest = json.loads((pipeline_dir / "manifest_eval.json").read_text())
    assert manifest["newton_fits"] == 30 * (5 * 5 + 1)  # per job: 25 (l2, fold) fits and the refit
    assert manifest["newton_grad_max"] < evaluate.GRAD_TOL
    assert manifest["newton_stopped_max_iter"] == manifest["newton_stopped_halving"] == 0

    newton = evaluate.newton_logreg
    monkeypatch.setattr(evaluate, "newton_logreg", lambda *args, **kw: newton(*args, **{**kw, "max_iter": 1}))
    out = tmp_path / "capped"
    out.mkdir()
    shutil.copy(pipeline_dir / "test_users.txt", out)  # eval holds out the users learn held out
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
    argv = ["--events", str(events), "--min-daily-streams", "0", "--out", str(tmp_path)]
    assert run(["ingest", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: too many malformed lines: 400 events parsed, 800 malformed of 1200 lines")
    assert "line 2: user id ' ' is blank or holds a line break" in err
    assert run(["signals", *argv]) == 1
    assert_refused(capsys.readouterr().err, tmp_path, "does not exist")
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
    for stage in ("ingest", "signals"):
        assert run([stage, "--out", str(out), "--seed", "7", "--threads", "4", *src, *period]) == 0
    assert (out / "signals.npy").read_bytes() == (pipeline_dir / "signals.npy").read_bytes()


def test_split_files_partition_users(pipeline_dir):
    train = (pipeline_dir / "train_users.txt").read_text().split()
    test = (pipeline_dir / "test_users.txt").read_text().split()
    users = (pipeline_dir / "signal_users.txt").read_text().split()
    assert not set(train) & set(test)
    assert set(train) | set(test) == set(users)
    assert len(test) == round(0.33 * len(users))


def test_eval_tests_the_users_learn_held_out(pipeline_dir, tmp_path, monkeypatch):
    # eval draws no split of its own: whatever its seed, it tests the users of learn's
    # test_users.txt in its --out, here half of them rather than the default 33%.
    assert run(["learn", "--out", str(tmp_path), "--seed", "7", "--test-frac", "0.5", "--atoms", "4",
                "--outer-iters", "1", "--signal-users", str(pipeline_dir / "signal_users.txt"),
                "--signals", str(pipeline_dir / "signals.npy")]) == 0
    held_out = (tmp_path / "test_users.txt").read_text().split()
    assert len(held_out) == 60
    tested = []
    evaluate_all = evaluate.evaluate_all
    def spy(users, codes, labels, totals, test, config):
        tested.append(sorted(itertools.compress(users, test)))
        return evaluate_all(users, codes, labels, totals, test, config)
    monkeypatch.setattr(evaluate, "evaluate_all", spy)
    for seed in ("7", "8"):
        assert run(["eval", "--out", str(tmp_path), "--seed", seed,
                    "--code-users", str(pipeline_dir / "code_users.txt"), "--codes", str(pipeline_dir / "codes.npy"),
                    "--labels", str(pipeline_dir / "labels.csv"), "--summary", str(pipeline_dir / "user_summary.csv")]) == 0
        assert tested.pop() == held_out
        table = (tmp_path / "eval_table.txt").read_text()
        assert table.startswith("Test ROC AUC per activity (60 train / 60 test users)\n"), table
        assert manifest(tmp_path, "eval")["inputs"]["test_users"] == str(tmp_path / "test_users.txt")


def test_eval_takes_no_test_frac(capsys):
    with pytest.raises(SystemExit):
        run(["eval", "--help"])
    assert "--test-frac" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--code-users", "x", "--codes", "y", "--labels", "z", "--summary", "w", "--test-frac", "0.5"])
    assert exc.value.code == 2


def test_codes_cover_all_signal_users(pipeline_dir):
    users = (pipeline_dir / "signal_users.txt").read_text().split()
    code_users = (pipeline_dir / "code_users.txt").read_text().split()
    assert code_users == users
    codes = np.load(pipeline_dir / "codes.npy")
    assert codes.shape == (len(users), 8)
