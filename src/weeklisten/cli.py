"""Command-line pipeline driver.

Subcommands mirror the stages: ``synth``, ``ingest``, ``signals``, ``learn``,
``embed``, ``eval``, ``export-atoms`` and ``pipeline`` (all stages in order,
byte-identical to a staged run).  Stages hand off a user-index file plus a
``.npy`` matrix file (signals, codes; there is no other matrix format) or
``dictionary.csv``; in memory they pass the same ``(user_ids, matrix)``
arrays.  ``pipeline`` uses those file handoffs too, with one exception: it
parses ``events.csv`` and ``favorites.csv`` once, in ``ingest``, and hands the
ingest front end (the profiles, which carry the filtered log, and the study
period) to ``signals`` in memory; a staged ``signals`` parses the files itself.
The front end keeps one live copy of the event columns: each filter's input
is released once its output exists, and only the restricted log is alive
while profiles and signals are built.

Stage commands signal failure only by raising :class:`PipelineError`, which
:func:`main` turns into an ``error: ...`` line and exit status 1 (a missing,
malformed or non-UTF-8 input or handoff file among them); a usage error exits
with status 2 and a finished command with 0.

All randomness flows from one ``--seed``: each stage derives its own seed as
``SeedSequence(entropy=seed, spawn_key=(STAGE_ID,))``, so running a stage
standalone with the base seed reproduces exactly what ``pipeline`` did.
Every successful run writes a ``manifest_<command>.json`` next to its outputs
with the resolved configuration, paths, seed, version, wall-clock duration and
``peak_rss_mb``, its process's peak resident set size so far (the manifest is
the only artifact carrying timing and memory, hence the only one that differs
between byte-identical runs).  ``synth`` also records the counts it prints:
``events``, ``valid_events`` and ``organic_fraction_valid``.  ``ingest``
records the gate counts it prints: ``lines``, ``malformed``,
``valid_streams``, ``active_users`` and ``unknown_favorite_users``, plus
``parse_s``, the seconds its parse of
``events.csv`` took; a staged ``signals``, which parses for itself, records
``parse_s`` too.  ``learn`` and ``embed`` also record the
codes' worst KKT residual (``kkt_max``) and the number of users above the
certificate tolerance (``users_uncertified``), and warn when that is not 0;
``eval`` records its logistic fits' worst final gradient max-norm
(``newton_grad_max``) and how many of them stopped at ``max_iter`` or when step
halving ran out, and warns when either count is not 0.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, dictionary, evaluate, ingest, signals, storage, synth
from .errors import IngestError, PipelineError

STAGE_IDS = {"synth": 0, "split": 1, "learn": 2, "eval": 3}


def stage_seed(base_seed: int, stage: str) -> int:
    """Per-stage seed derived from the base seed (documented, reproducible); :func:`main` checks it is >= 0."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(STAGE_IDS[stage],))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace,
                    inputs: dict, outputs: dict, started: float, diagnostics: dict | None = None) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    manifest = {
        "command": command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config": {k: (str(v) if isinstance(v, Path) else v) for k, v in config.items()},
        "inputs": {k: str(v) for k, v in inputs.items()},
        "outputs": {k: str(v) for k, v in outputs.items()},
        "duration_secs": round(time.monotonic() - started, 3),
        "peak_rss_mb": _peak_rss_mb(),
        **(diagnostics or {}),
    }
    path = out_dir / f"manifest_{command.replace('-', '_')}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB (``ru_maxrss`` is KiB on Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (1 << 20 if sys.platform == "darwin" else 1 << 10), 1)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _certify_codes(matrix, dct, codes, lam, lasso_tol) -> dict:
    """Worst KKT residual of the codes and how many exceed the certificate; warns if any do."""
    residuals = dictionary.kkt_residuals(matrix, dct.stacked, codes, lam)
    bound = dictionary.KKT_TOL_FACTOR * lasso_tol
    uncertified = int(np.count_nonzero(~(residuals <= bound)))  # a NaN residual is not certified
    worst = float(residuals.max()) if residuals.size else 0.0
    if uncertified:
        print(f"warning: {uncertified} of {residuals.size} codes miss the KKT certificate "
              f"{bound:g} (worst {worst:.3g}); raise --lasso-max-sweeps")
    return {"kkt_max": worst, "users_uncertified": uncertified}


def _certify_fits(report: evaluate.EvalReport) -> dict:
    """The logistic fits' worst gradient and stop counts; warns if any fit stopped uncertified."""
    stopped = report.stopped_max_iter + report.stopped_halving
    if stopped:
        print(f"warning: {stopped} of {report.fits} logistic fits stopped with gradient above "
              f"{evaluate.GRAD_TOL:g} ({report.stopped_max_iter} at max_iter, {report.stopped_halving} "
              f"when step halving ran out; worst {report.grad_max:.3g})")
    return {"newton_fits": report.fits, "newton_grad_max": report.grad_max,
            "newton_stopped_max_iter": report.stopped_max_iter,
            "newton_stopped_halving": report.stopped_halving}


def _resolve_period(args, valid_log) -> ingest.StudyPeriod:
    if args.period_start is not None and args.period_end is not None:
        return ingest.StudyPeriod(args.period_start, args.period_end)
    if (args.period_start is None) != (args.period_end is None):
        raise PipelineError("--period-start and --period-end must be given together")
    return ingest.StudyPeriod.covering(valid_log)


def _load_filtered(args):
    """Shared ingest front end: parse, filter and profile.

    Returns ``(profiles, period, report, valid_streams, parse_s)``, the last
    the seconds ``parse_events`` took.  Each filter's input is released as
    soon as its output exists, so at most two copies of the event columns are
    ever alive, and only the restricted log, which the profiles carry, is
    alive while they are built.
    """
    started = time.perf_counter()
    log, report = ingest.parse_events(args.events)
    parse_s = round(time.perf_counter() - started, 3)
    favorites = ingest.parse_favorites(args.favorites) if args.favorites else ()
    log = ingest.filter_valid_streams(log, args.min_listen_secs)
    valid_streams = len(log)
    period = _resolve_period(args, log)
    active = ingest.filter_active_users(log, period, args.min_daily_streams)
    if not active:
        raise IngestError(f"no active users: none has {args.min_daily_streams:g} valid streams "
                          f"(of at least {args.min_listen_secs} s) per day")
    log = ingest.restrict_to_users(log, active)
    return ingest.build_profiles(log, favorites), period, report, valid_streams, parse_s


def _synth_config(args) -> synth.SynthConfig:
    return synth.SynthConfig(
        n_users=args.users, weeks=args.weeks, seed=stage_seed(args.seed, "synth"),
        noise=args.noise, organic_rate=args.organic_rate,
        archetypes=synth.load_archetypes(args.archetypes, args.organic_rate) if args.archetypes else None,
    )


def cmd_synth(args) -> synth.SynthConfig:
    """Write the synthetic inputs; returns the config so ``pipeline`` knows the study period."""
    started = time.monotonic()
    out = _out_dir(args)
    config = _synth_config(args)
    result = synth.generate(config, out)
    print(f"generated {result.n_events} events for {result.n_users} users "
          f"({result.n_valid_events} valid, organic fraction {result.organic_fraction_valid:.4f})")
    print(f"study period: [{synth.PERIOD_START}, {config.period_end})")
    _write_manifest(out, "synth", args, {}, {
        "events": result.events_path, "favorites": result.favorites_path,
        "labels": result.labels_path,
    }, started, {"events": result.n_events, "valid_events": result.n_valid_events,
                 "organic_fraction_valid": result.organic_fraction_valid})
    return config


def cmd_ingest(args) -> tuple:
    """Write ``user_summary.csv``; returns the front end so ``pipeline`` can hand it to signals."""
    started = time.monotonic()
    out = _out_dir(args)
    front = _load_filtered(args)
    profiles, period, report, valid_streams, parse_s = front
    gates = {"parse_s": parse_s, "lines": report.total_lines, "malformed": report.malformed_count,
             "valid_streams": valid_streams, "active_users": len(profiles.user_ids),
             "unknown_favorite_users": profiles.unknown_user_warnings}
    print(report.summary())
    print(f"{valid_streams} valid streams; {len(profiles.user_ids)} active users over {period.days:g} days")
    if profiles.unknown_user_warnings:
        print(f"warning: {profiles.unknown_user_warnings} favorites referenced unknown users")
    summary_path = out / "user_summary.csv"
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # quotes a user id holding a comma or a quote
        writer.writerow(["user_id", "total_valid_streams", "active_days", "distinct_tracks", "liked_tracks"])
        writer.writerows([user, *counts] for user, counts in zip(profiles.user_ids, profiles.summary.tolist()))
    _write_manifest(out, "ingest", args,
                    {"events": args.events, "favorites": args.favorites or ""},
                    {"user_summary": summary_path}, started, gates)
    return front


def cmd_signals(args, front=None) -> None:
    """Write the signal matrix, from ``front`` (see :func:`cmd_ingest`) or a parse of its own."""
    started = time.monotonic()
    out = _out_dir(args)
    parses = front is None
    profiles, period, _, _, parse_s = front or _load_filtered(args)
    sset = signals.build_signal_set(profiles, period, args.tz_offset_min)
    index_path = out / "signal_users.txt"
    matrix_path = out / "signals.npy"
    storage.save_indexed_matrix(sset.user_ids, sset.matrix, index_path, matrix_path)
    print(f"built {len(sset.user_ids)} signals of {sset.matrix.shape[1]} columns")
    _write_manifest(out, "signals", args,
                    {"events": args.events, "favorites": args.favorites or ""},
                    {"signal_users": index_path, "signals": matrix_path}, started,
                    {"parse_s": parse_s} if parses else None)


def cmd_learn(args) -> None:
    started = time.monotonic()
    out = _out_dir(args)
    sset = signals.SignalSet(*storage.load_indexed_matrix(args.signal_users, args.signals))
    test = evaluate.split_users(sset.user_ids, args.test_frac, stage_seed(args.seed, "split"))
    config = dictionary.LearnConfig(
        n_atoms=args.atoms, lam=args.lam, outer_iters=args.outer_iters,
        lasso_tol=args.lasso_tol, lasso_max_sweeps=args.lasso_max_sweeps,
        seed=stage_seed(args.seed, "learn"))
    train_matrix = sset.matrix[~test]
    result = dictionary.learn(train_matrix, config)
    certificate = _certify_codes(train_matrix, result.dictionary, result.codes, args.lam, args.lasso_tol)

    csv_path = out / "dictionary.csv"
    dictionary.save_dictionary_csv(result.dictionary, csv_path)
    for name, side in (("train_users.txt", ~test), ("test_users.txt", test)):
        storage.save_index(sorted(itertools.compress(sset.user_ids, side)), out / name)
    trace_path = out / "objective_trace.csv"
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write("half_step,objective\n")
        fh.writelines(f"{i},{v!r}\n" for i, v in enumerate(result.objective_trace))
    print(f"learned {config.n_atoms} atoms on {len(train_matrix)} train users; "
          f"objective {result.objective_trace[0]:.4f} -> {result.objective_trace[-1]:.4f}")
    _write_manifest(out, "learn", args,
                    {"signal_users": args.signal_users, "signals": args.signals},
                    {"dictionary_csv": csv_path,
                     "train_users": out / "train_users.txt", "test_users": out / "test_users.txt",
                     "objective_trace": trace_path}, started, certificate)


def cmd_embed(args) -> None:
    started = time.monotonic()
    out = _out_dir(args)
    sset = signals.SignalSet(*storage.load_indexed_matrix(args.signal_users, args.signals))
    dct = dictionary.load_dictionary_csv(args.dictionary)
    lam = args.lam if args.lam is not None else dct.lam
    if lam is None:
        raise PipelineError(f"no --lambda given and dictionary {args.dictionary} records no lambda")
    codes = dictionary.embed(sset.matrix, dct, lam, args.lasso_tol, args.lasso_max_sweeps)
    certificate = _certify_codes(sset.matrix, dct, codes, lam, args.lasso_tol)
    index_path = out / "code_users.txt"
    matrix_path = out / "codes.npy"
    storage.save_indexed_matrix(sset.user_ids, codes, index_path, matrix_path)
    nonzero = float(np.mean(np.sum(codes != 0, axis=1)))
    print(f"embedded {len(sset.user_ids)} users; mean active atoms per code {nonzero:.2f}")
    _write_manifest(out, "embed", args,
                    {"signal_users": args.signal_users, "signals": args.signals,
                     "dictionary": args.dictionary},
                    {"code_users": index_path, "codes": matrix_path}, started, certificate)


def _read_summary_totals(path) -> dict[str, int]:
    with storage.csv_rows(path, "user summary") as (header, rows):
        try:
            u_col = header.index("user_id")
            t_col = header.index("total_valid_streams")
        except ValueError:
            raise PipelineError(f"{path} is not a user summary (header {header})") from None
        totals = {}
        for row in rows:
            if not row:
                continue
            try:
                user, total = row[u_col], int(row[t_col])
            except (IndexError, ValueError):
                raise PipelineError(f"{path} line {rows.line_num}: no integer total_valid_streams "
                                    f"in {','.join(row)!r}") from None
            if user in totals:
                raise PipelineError(f"{path} line {rows.line_num}: duplicate user id {user}")
            totals[user] = total
    return totals


def cmd_eval(args) -> None:
    started = time.monotonic()
    config = evaluate.EvalConfig(l2_grid=tuple(args.l2_grid), cv_folds=args.cv_folds,
                                 seed=stage_seed(args.seed, "eval"))
    out = _out_dir(args)
    users, codes = storage.load_indexed_matrix(args.code_users, args.codes)
    labels = evaluate.parse_labels(args.labels)
    totals = _read_summary_totals(args.summary)
    test = evaluate.split_users(users, args.test_frac, stage_seed(args.seed, "split"))
    report = evaluate.evaluate_all(users, codes, labels, totals, test, config)
    certificate = _certify_fits(report)

    report_path = out / "eval_report.csv"
    table_path = out / "eval_table.txt"
    coef_path = out / "coefficients.csv"
    report.to_csv(report_path)
    table_path.write_text(report.to_table(), encoding="utf-8")
    evaluate.write_coefficients_csv(report.coefficients, coef_path)
    print(report.to_table(), end="")
    _write_manifest(out, "eval", args,
                    {"code_users": args.code_users, "codes": args.codes,
                     "labels": args.labels, "summary": args.summary},
                    {"report": report_path, "table": table_path, "coefficients": coef_path},
                    started, certificate)


def cmd_export_atoms(args) -> None:
    started = time.monotonic()
    out = _out_dir(args)
    dct = dictionary.load_dictionary_csv(args.dictionary)
    atoms_path = out / "atoms.csv"
    dictionary.export_atoms_csv(dct, atoms_path)
    print(f"exported {dct.n_atoms} atoms to {atoms_path}")
    _write_manifest(out, "export-atoms", args, {"dictionary": args.dictionary},
                    {"atoms": atoms_path}, started)


def cmd_pipeline(args) -> None:
    started = time.monotonic()
    out = _out_dir(args)
    config = cmd_synth(_ns(args, out=out))
    stage_args = _ns(
        args, out=out, events=out / "events.csv", favorites=out / "favorites.csv",
        period_start=synth.PERIOD_START, period_end=config.period_end)
    # The ingest front end lives only as this argument, so it is freed before learn.
    cmd_signals(stage_args, cmd_ingest(stage_args))
    learn_args = _ns(stage_args, signal_users=out / "signal_users.txt",
                     signals=out / "signals.npy")
    cmd_learn(learn_args)
    embed_args = _ns(learn_args, dictionary=out / "dictionary.csv", lam=None)
    cmd_embed(embed_args)
    eval_args = _ns(embed_args, code_users=out / "code_users.txt",
                    codes=out / "codes.npy",
                    labels=out / "labels.csv", summary=out / "user_summary.csv")
    cmd_eval(eval_args)
    cmd_export_atoms(_ns(eval_args, dictionary=out / "dictionary.csv"))
    _write_manifest(out, "pipeline", args, {}, {"directory": out}, started)
    print(f"pipeline finished in {time.monotonic() - started:.1f}s")


def _ns(base: argparse.Namespace, **overrides) -> argparse.Namespace:
    return argparse.Namespace(**{**vars(base), **overrides})


#: Flags that several subcommands take, each declared once; :func:`_add` adds them by name.
SHARED_FLAGS = {
    "--min-listen-secs": dict(type=int, default=ingest.MIN_LISTEN_SECS,
                              help=f"validity cutoff in seconds (default {ingest.MIN_LISTEN_SECS})"),
    "--min-daily-streams": dict(type=float, default=ingest.MIN_DAILY_STREAMS,
                                help=f"activity cutoff in valid streams per day "
                                     f"(default {ingest.MIN_DAILY_STREAMS:g})"),
    "--tz-offset-min": dict(type=int, default=0,
                            help="default local-time offset for events without one"),
    "--signal-users": dict(required=True, help="signal user index file"),
    "--signals": dict(required=True, help="signal matrix file"),
    "--dictionary": dict(required=True, help="dictionary CSV"),
    "--lasso-tol": dict(type=float, default=dictionary.LearnConfig.lasso_tol,
                        help="coding tolerance; codes are certified to KKT residual "
                             f"{dictionary.KKT_TOL_FACTOR:g}x this (default %(default)s)"),
    "--lasso-max-sweeps": dict(type=int, default=dictionary.LearnConfig.lasso_max_sweeps,
                               help="sweep cap per coding pass (default %(default)s)"),
    "--test-frac": dict(type=float, default=0.33,
                        help="held-out user fraction, excluded from learning (default %(default)s)"),
}


def _add(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(name, **SHARED_FLAGS[name])


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=".", help="output directory (default: current)")
    p.add_argument("--seed", type=int, default=0, help="base seed; stages derive their own")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted so existing command lines stay valid; it has no effect yet, "
                        "and stage outputs are identical for any value")


def _add_filter_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--events", required=True, help="events CSV")
    p.add_argument("--favorites", default=None, help="favorites CSV")
    _add(p, "--min-listen-secs", "--min-daily-streams")
    p.add_argument("--period-start", type=int, default=None, help="study period start (epoch secs)")
    p.add_argument("--period-end", type=int, default=None, help="study period end (epoch secs)")


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    defaults = synth.SynthConfig
    p.add_argument("--users", type=int, default=defaults.n_users,
                   help="number of synthetic users (default %(default)s)")
    p.add_argument("--weeks", type=int, default=defaults.weeks, help="number of weeks (default %(default)s)")
    p.add_argument("--noise", type=float, default=defaults.noise,
                   help="noise level in [0, 1] (default %(default)s)")
    p.add_argument("--organic-rate", type=float, default=defaults.organic_rate,
                   help="population organic stream fraction target (default %(default)s)")
    p.add_argument("--archetypes", default=None, help="archetype JSON file (default: the stock archetypes)")


def _add_learn_flags(p: argparse.ArgumentParser) -> None:
    defaults = dictionary.LearnConfig
    p.add_argument("--atoms", type=int, default=defaults.n_atoms,
                   help="number of atoms K (default %(default)s)")
    p.add_argument("--lambda", dest="lam", type=float, default=defaults.lam,
                   help="L1 sparsity weight (default %(default)s)")
    p.add_argument("--outer-iters", type=int, default=defaults.outer_iters,
                   help="alternation rounds (default %(default)s)")
    _add(p, "--lasso-tol", "--lasso-max-sweeps", "--test-frac")


def _add_eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--l2-grid", type=float, nargs="+", default=list(evaluate.EvalConfig.l2_grid),
                   help="l2 strengths searched by CV")
    p.add_argument("--cv-folds", type=int, default=evaluate.EvalConfig.cv_folds,
                   help="grid-search folds (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weeklisten",
        description="Weekly listening-pattern embeddings: synthesize logs, build signals, "
                    "learn atoms, embed users, evaluate activity prediction.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p)
    _add_synth_flags(p)

    p = sub.add_parser("ingest", help="parse and filter logs into a user summary")
    _add_common(p)
    _add_filter_flags(p)

    p = sub.add_parser("signals", help="build the normalized weekly signal matrix")
    _add_common(p)
    _add_filter_flags(p)
    _add(p, "--tz-offset-min")

    p = sub.add_parser("learn", help="learn the atom dictionary on the train split")
    _add_common(p)
    _add(p, "--signal-users", "--signals")
    _add_learn_flags(p)

    p = sub.add_parser("embed", help="code users against a fixed dictionary")
    _add_common(p)
    _add(p, "--signal-users", "--signals", "--dictionary")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="override the dictionary's training lambda")
    _add(p, "--lasso-tol", "--lasso-max-sweeps")

    p = sub.add_parser("eval", help="activity-prediction evaluation report")
    _add_common(p)
    p.add_argument("--code-users", required=True, help="code user index file")
    p.add_argument("--codes", required=True, help="code matrix file")
    p.add_argument("--labels", required=True, help="labels CSV")
    p.add_argument("--summary", required=True, help="user summary CSV from ingest")
    _add(p, "--test-frac")
    _add_eval_flags(p)

    p = sub.add_parser("export-atoms", help="dictionary to long-format plotting CSV")
    _add_common(p)
    _add(p, "--dictionary")

    p = sub.add_parser("pipeline", help="run every stage with one seed")
    _add_common(p)
    _add_synth_flags(p)
    _add(p, "--min-listen-secs", "--min-daily-streams", "--tz-offset-min")
    _add_learn_flags(p)
    _add_eval_flags(p)

    return parser


COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "signals": cmd_signals,
    "learn": cmd_learn,
    "embed": cmd_embed,
    "eval": cmd_eval,
    "export-atoms": cmd_export_atoms,
    "pipeline": cmd_pipeline,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    if getattr(args, "threads", 1) < 1:
        parser.error("--threads must be >= 1")
    try:
        if args.seed < 0:  # every subcommand records its seed, and the seeded ones derive from it
            raise PipelineError(f"seed must be >= 0, got {args.seed}")
        COMMANDS[args.command](args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
