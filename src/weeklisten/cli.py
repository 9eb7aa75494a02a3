"""Command-line pipeline driver.

Subcommands mirror the stages: ``synth``, ``ingest``, ``signals``, ``learn``,
``embed``, ``eval``, ``export-atoms`` and ``pipeline`` (all stages in order,
byte-identical to a staged run).  Every handoff between stages, in
``pipeline`` too, goes through the files a staged run uses: a user-index
file plus a ``.npy`` matrix file (signals, codes) or alone (the users
``learn`` held out, which ``eval`` reads from ``test_users.txt`` in its
``--out``), ``dictionary.csv``, or ``ingest_front.bin``.  ``events.csv`` and
``favorites.csv`` are parsed only in ``ingest``, whose one front-end record
(:class:`~weeklisten.ingest.Profiles`) goes next to ``user_summary.csv`` as
``ingest_front.bin``, under a key naming the sha256 of both inputs' bytes,
the filter and period flags, the version and the file format.  ``signals``
computes the key from its own flags and inputs and builds from the file of
its ``--out`` directory; no file, other bytes or flags, a damaged file or a
piped input is an error that says to run ``ingest`` first.  Only ``ingest``
takes ``--tz-offset-min``; the handoff holds local seconds.  The front end
holds at most two copies of the event columns, while a filter copies: each
filter's input is released once its output exists, and only the restricted
log is alive while the profiles are built.  A half-given study period, or one
outside ``ingest``'s timestamp range, is an error before either command opens
an input.

Stage commands signal failure only by raising :class:`PipelineError`, which
:func:`main` turns into an ``error: ...`` line and exit status 1 (a missing,
malformed or non-UTF-8 input or handoff file among them); a usage error exits
with status 2 and a finished command with 0.

All randomness flows from one ``--seed``: each stage derives its own seed as
``SeedSequence(entropy=seed, spawn_key=(STAGE_ID,))``, so running a stage
standalone with the base seed reproduces exactly what ``pipeline`` did.

Every stage, alone or in ``pipeline``, runs through one runner, :func:`_run`:
it creates ``--out``, calls the stage and, once the stage returns its inputs,
outputs and diagnostics, writes ``manifest_<command>.json`` next to the
outputs; a stage that raises writes none.  ``pipeline`` is a loop over the
seven stages of :data:`PIPELINE` with one namespace, so each stage's
``config`` lists the run's flags and every file path of the run.  A manifest
holds the resolved configuration, paths, seed, version, wall-clock duration,
``rss_start_mb`` and ``rss_end_mb``, the process's resident set size when the
stage started and ended (Linux's ``VmRSS``, else null), and ``peak_rss_mb``,
its peak so far (``VmHWM``, else ``ru_maxrss``; in ``pipeline`` that is the
peak of every stage run before).  The manifest is the only artifact carrying
timing and memory, hence the only one that differs between byte-identical
runs.  ``synth`` also records the counts it prints:
``events``, ``valid_events`` and ``organic_fraction_valid``.  ``ingest``
records the gate counts it prints: ``lines``, ``malformed``,
``valid_streams``, ``active_users`` and ``unknown_favorite_users``, plus
``parse_s``, the seconds its parse of ``events.csv`` took, and
``inputs_sha256``, the input digests of its key; ``signals`` records the
same digests, which its handoff's key matched.  ``learn`` and ``embed`` also
record the codes' worst KKT residual (``kkt_max``) and the number of users
above the certificate tolerance (``users_uncertified``), and warn when that
is not 0; ``embed`` records the ``lambda`` it coded with, its ``--lambda`` or
else the dictionary's.  ``learn`` also records ``objective_rel_decrease``, the
objective's relative decrease over its last ``objective_decrease_rounds``
rounds (``DECREASE_ROUNDS``, or all of them if fewer).  ``eval`` records its
logistic fits' worst final gradient max-norm (``newton_grad_max``) and how
many of them stopped at ``max_iter`` or when step halving ran out, and warns
when either count is not 0.
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
from .errors import PipelineError

STAGE_IDS = {"synth": 0, "split": 1, "learn": 2, "eval": 3}

#: ``manifest_learn.json`` reports the objective's relative decrease over this many last rounds.
DECREASE_ROUNDS = 50


def stage_seed(base_seed: int, stage: str) -> int:
    """Per-stage seed derived from the base seed (documented, reproducible); :func:`main` checks it is >= 0."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(STAGE_IDS[stage],))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _run(command: str, args: argparse.Namespace) -> None:
    """Run stage ``command`` of :data:`COMMANDS` in ``--out`` and write its manifest.

    The manifest takes the ``(inputs, outputs, diagnostics)`` the stage returns;
    a stage that raises writes none.
    """
    started = time.monotonic()
    rss_start = _status_mb(b"VmRSS:")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    inputs, outputs, diagnostics = COMMANDS[command](args, out)
    config = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
    manifest = {
        "command": command,
        "version": __version__,
        "seed": args.seed,
        "config": {k: (str(v) if isinstance(v, Path) else v) for k, v in config.items()},
        "inputs": {k: str(v) for k, v in inputs.items()},
        "outputs": {k: str(v) for k, v in outputs.items()},
        "duration_secs": round(time.monotonic() - started, 3),
        "rss_start_mb": rss_start,
        "rss_end_mb": _status_mb(b"VmRSS:"),
        "peak_rss_mb": _peak_rss_mb(),
        **diagnostics,
    }
    path = out / f"manifest_{command.replace('-', '_')}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _status_mb(field: bytes) -> float | None:
    """A kB field of ``/proc/self/status``, such as ``b"VmRSS:"``, in MB; None where it does not exist."""
    try:
        with open("/proc/self/status", "rb") as fh:
            return round(next(int(line.split()[1]) for line in fh if line.startswith(field)) / 1024, 1)
    except (OSError, StopIteration):
        return None


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB.

    ``VmHWM`` where ``/proc/self/status`` has it, since Linux carries the spawning
    process's ``ru_maxrss`` across exec; elsewhere ``ru_maxrss`` (KiB, on macOS bytes).
    """
    peak = _status_mb(b"VmHWM:")
    if peak is None:
        peak = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                     / (1 << 20 if sys.platform == "darwin" else 1 << 10), 1)
    return peak


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


def _synth_config(args) -> synth.SynthConfig:
    return synth.SynthConfig(
        n_users=args.users, weeks=args.weeks, seed=stage_seed(args.seed, "synth"),
        noise=args.noise, organic_rate=args.organic_rate,
        archetypes=synth.load_archetypes(args.archetypes, args.organic_rate) if args.archetypes else None,
    )


def cmd_synth(args, out: Path):
    """Write the synthetic events, favorites and labels."""
    config = _synth_config(args)
    result = synth.generate(config, out)
    print(f"generated {result.n_events} events for {result.n_users} users "
          f"({result.n_valid_events} valid, organic fraction {result.organic_fraction_valid:.4f})")
    print(f"study period: [{synth.PERIOD_START}, {config.period_end})")
    return {}, {
        "events": result.events_path, "favorites": result.favorites_path,
        "labels": result.labels_path,
    }, {"events": result.n_events, "valid_events": result.n_valid_events,
        "organic_fraction_valid": result.organic_fraction_valid}


def _front_key(args) -> tuple[str | None, dict]:
    """The handoff key of the front ``args`` make, and the sha256 of their input files.

    The key is canonical JSON naming everything the front depends on: the
    sha256 of the ``--events`` and ``--favorites`` bytes, the filter and
    period flags, the version and the handoff format.  It is None when an
    input is a pipe, which cannot be read a second time to be digested.
    """
    inputs = {"events": storage.file_sha256(args.events, "events")}
    if args.favorites:
        inputs["favorites"] = storage.file_sha256(args.favorites, "favorites")
    if None in inputs.values():
        return None, inputs
    dests = [flag[2:].replace("-", "_") for flag in FRONT]  # argparse's dest of each flag
    key = {"format": signals.FRONT_FORMAT, "version": __version__, "inputs_sha256": inputs,
           **{dest: getattr(args, dest) for dest in dests}}
    return json.dumps(key, sort_keys=True), inputs


def cmd_ingest(args, out: Path):
    """Write ``user_summary.csv`` and, unless an input is a pipe, the handoff ``signals`` builds from."""
    parse_started = time.perf_counter()
    log, report = ingest.parse_events(args.events)
    parse_s = round(time.perf_counter() - parse_started, 3)
    favorites = ingest.parse_favorites(args.favorites) if args.favorites else ()
    log = ingest.filter_valid_streams(log, args.min_listen_secs)
    valid_streams = len(log)
    period = (ingest.StudyPeriod.covering(log) if args.period_start is None
              else ingest.StudyPeriod(args.period_start, args.period_end))
    active = ingest.filter_active_users(log, period, args.min_daily_streams)
    if not len(active):
        raise PipelineError(f"no active users: none has {args.min_daily_streams:g} valid streams "
                            f"(of at least {args.min_listen_secs} s) per day")
    log = ingest.restrict_to_users(log, active)
    profiles = ingest.build_profiles(log, period, favorites, args.tz_offset_min)
    del log, favorites
    gates = {"parse_s": parse_s, "lines": report.total_lines, "malformed": report.malformed_count,
             "valid_streams": valid_streams, "active_users": len(profiles.user_ids),
             "unknown_favorite_users": profiles.unknown_user_warnings}
    print(report.summary())
    print(f"{valid_streams} valid streams; {len(profiles.user_ids)} active users over {profiles.period.days:g} days")
    if profiles.unknown_user_warnings:
        print(f"warning: {profiles.unknown_user_warnings} favorites referenced unknown users")
    outputs = {"user_summary": out / "user_summary.csv"}
    with open(outputs["user_summary"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # quotes a user id holding a comma or a quote
        writer.writerow(["user_id", "total_valid_streams", "active_days", "distinct_tracks", "liked_tracks"])
        writer.writerows([user, *counts] for user, counts in zip(profiles.user_ids, profiles.summary.tolist()))
    # hashlib maps OpenSSL, about 3.5 MB of resident pages; digesting once the parse
    # and the restricted log are gone keeps them under the parse's peak RSS.
    key, gates["inputs_sha256"] = _front_key(args)
    if key is not None:
        outputs["handoff"] = out / signals.FRONT_FILE
        signals.save_front(profiles, key, outputs["handoff"])
    return {"events": args.events, "favorites": args.favorites or ""}, outputs, gates


def cmd_signals(args, out: Path):
    """Write the signal matrix from ingest's handoff in ``--out``, made from the same inputs and flags."""
    key, digests = _front_key(args)
    if key is None:
        name = next(name for name, digest in digests.items() if digest is None)
        raise PipelineError(f"--{name} {getattr(args, name)} must be a regular file: signals checks "
                            "ingest's handoff against its digest")
    handoff = out / signals.FRONT_FILE
    sset = signals.build_signal_set(signals.load_front(handoff, key))
    index_path = out / "signal_users.txt"
    matrix_path = out / "signals.npy"
    storage.save_indexed_matrix(sset.user_ids, sset.matrix, index_path, matrix_path)
    print(f"built {len(sset.user_ids)} signals of {sset.matrix.shape[1]} columns")
    return ({"events": args.events, "favorites": args.favorites or "", "handoff": handoff},
            {"signal_users": index_path, "signals": matrix_path}, {"inputs_sha256": digests})


def cmd_learn(args, out: Path):
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
    # Two half-steps per round: how far the objective still fell over the last rounds.
    rounds = min(DECREASE_ROUNDS, config.outer_iters)
    before = result.objective_trace[-1 - 2 * rounds]
    decrease = (before - result.objective_trace[-1]) / before if before > 0.0 else 0.0
    return ({"signal_users": args.signal_users, "signals": args.signals},
            {"dictionary_csv": csv_path,
             "train_users": out / "train_users.txt", "test_users": out / "test_users.txt",
             "objective_trace": trace_path},
            {**certificate, "objective_rel_decrease": decrease, "objective_decrease_rounds": rounds})


def cmd_embed(args, out: Path):
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
    return ({"signal_users": args.signal_users, "signals": args.signals,
             "dictionary": args.dictionary},
            {"code_users": index_path, "codes": matrix_path}, {"lambda": lam, **certificate})


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


def cmd_eval(args, out: Path):
    config = evaluate.EvalConfig(l2_grid=tuple(args.l2_grid), cv_folds=args.cv_folds,
                                 seed=stage_seed(args.seed, "eval"))
    users, codes = storage.load_indexed_matrix(args.code_users, args.codes)
    labels = evaluate.parse_labels(args.labels)
    totals = _read_summary_totals(args.summary)
    test_path = out / "test_users.txt"
    if not test_path.exists():
        raise PipelineError(f"{test_path} does not exist: run learn with the same --out before eval")
    held_out = set(storage.load_index(test_path))
    test = np.array([user in held_out for user in users], dtype=bool)
    if test.sum() < len(held_out):
        raise PipelineError(f"{test_path} lists users without a code, e.g. {sorted(held_out.difference(users))[:3]}")
    report = evaluate.evaluate_all(users, codes, labels, totals, test, config)
    certificate = _certify_fits(report)

    report_path = out / "eval_report.csv"
    table_path = out / "eval_table.txt"
    coef_path = out / "coefficients.csv"
    report.to_csv(report_path)
    table_path.write_text(report.to_table(), encoding="utf-8")
    evaluate.write_coefficients_csv(report.coefficients, coef_path)
    print(report.to_table(), end="")
    return ({"code_users": args.code_users, "codes": args.codes,
             "labels": args.labels, "summary": args.summary, "test_users": test_path},
            {"report": report_path, "table": table_path, "coefficients": coef_path}, certificate)


def cmd_export_atoms(args, out: Path):
    dct = dictionary.load_dictionary_csv(args.dictionary)
    atoms_path = out / "atoms.csv"
    dictionary.export_atoms_csv(dct, atoms_path)
    print(f"exported {dct.n_atoms} atoms to {atoms_path}")
    return {"dictionary": args.dictionary}, {"atoms": atoms_path}, {}


#: The stages ``pipeline`` runs, in order.
PIPELINE = ("synth", "ingest", "signals", "learn", "embed", "eval", "export-atoms")


def cmd_pipeline(args, out: Path):
    """Run every stage of :data:`PIPELINE` with the run's flags, each handoff file under ``--out``."""
    started = time.monotonic()
    stage_args = argparse.Namespace(
        **vars(args), events=out / "events.csv", favorites=out / "favorites.csv", labels=out / "labels.csv",
        summary=out / "user_summary.csv", signal_users=out / "signal_users.txt", signals=out / "signals.npy",
        dictionary=out / "dictionary.csv", code_users=out / "code_users.txt", codes=out / "codes.npy",
        period_start=synth.PERIOD_START, period_end=synth.PERIOD_START + args.weeks * synth.SECONDS_PER_WEEK)
    for stage in PIPELINE:
        _run(stage, stage_args)
    print(f"pipeline finished in {time.monotonic() - started:.1f}s")
    return {}, {"directory": out}, {}


#: Every flag, declared once with its ``add_argument`` keywords; a ``(command, flag)``
#: entry is that command's own flag of the same name, taken instead of the plain one.
FLAGS = {
    "--out": dict(default=".", help="output directory (default: current)"),
    "--seed": dict(type=int, default=0, help="base seed; stages derive their own"),
    "--threads": dict(type=int, default=1,
                      help="accepted so existing command lines stay valid; it has no effect yet, "
                           "and stage outputs are identical for any value"),
    "--users": dict(type=int, default=synth.SynthConfig.n_users,
                    help="number of synthetic users (default %(default)s)"),
    "--weeks": dict(type=int, default=synth.SynthConfig.weeks, help="number of weeks (default %(default)s)"),
    "--noise": dict(type=float, default=synth.SynthConfig.noise,
                    help="noise level in [0, 1] (default %(default)s)"),
    "--organic-rate": dict(type=float, default=synth.SynthConfig.organic_rate,
                           help="population organic stream fraction target (default %(default)s)"),
    "--archetypes": dict(default=None, help="archetype JSON file (default: the stock archetypes)"),
    "--events": dict(required=True, help="events CSV"),
    "--favorites": dict(default=None, help="favorites CSV"),
    "--min-listen-secs": dict(type=int, default=ingest.MIN_LISTEN_SECS,
                              help=f"validity cutoff in seconds (default {ingest.MIN_LISTEN_SECS})"),
    "--min-daily-streams": dict(type=float, default=ingest.MIN_DAILY_STREAMS,
                                help=f"activity cutoff in valid streams per day "
                                     f"(default {ingest.MIN_DAILY_STREAMS:g})"),
    "--period-start": dict(type=int, default=None, help="study period start (epoch secs)"),
    "--period-end": dict(type=int, default=None, help="study period end (epoch secs)"),
    "--tz-offset-min": dict(type=int, default=0,
                            help="local-time offset in minutes of events without one and of the study period"),
    "--signal-users": dict(required=True, help="signal user index file"),
    "--signals": dict(required=True, help="signal matrix file"),
    "--dictionary": dict(required=True, help="dictionary CSV"),
    "--atoms": dict(type=int, default=dictionary.LearnConfig.n_atoms,
                    help="number of atoms K (default %(default)s)"),
    "--lambda": dict(dest="lam", type=float, default=dictionary.LearnConfig.lam,
                     help="L1 sparsity weight (default %(default)s)"),
    # None: embed codes with the lambda its dictionary records.
    ("embed", "--lambda"): dict(dest="lam", type=float, default=None,
                                help="override the dictionary's training lambda"),
    "--outer-iters": dict(type=int, default=dictionary.LearnConfig.outer_iters,
                          help="alternation rounds (default %(default)s)"),
    "--lasso-tol": dict(type=float, default=dictionary.LearnConfig.lasso_tol,
                        help="coding tolerance; codes are certified to KKT residual "
                             f"{dictionary.KKT_TOL_FACTOR:g}x this (default %(default)s)"),
    "--lasso-max-sweeps": dict(type=int, default=dictionary.LearnConfig.lasso_max_sweeps,
                               help="cap on the rounds of a coding pass, each one Gauss-Southwell "
                                    "step and one exact support step (default %(default)s)"),
    "--test-frac": dict(type=float, default=0.33,
                        help="held-out user fraction, excluded from learning (default %(default)s)"),
    "--code-users": dict(required=True, help="code user index file"),
    "--codes": dict(required=True, help="code matrix file"),
    "--labels": dict(required=True, help="labels CSV"),
    "--summary": dict(required=True, help="user summary CSV from ingest"),
    "--l2-grid": dict(type=float, nargs="+", default=list(evaluate.EvalConfig.l2_grid),
                      help="l2 strengths searched by CV"),
    "--cv-folds": dict(type=int, default=evaluate.EvalConfig.cv_folds,
                       help="grid-search folds (default %(default)s)"),
}

#: The flags every subcommand takes first.
COMMON = ("--out", "--seed", "--threads")
SYNTH = ("--users", "--weeks", "--noise", "--organic-rate", "--archetypes")
FILTERS = ("--min-listen-secs", "--min-daily-streams")
#: The flags ``ingest`` and ``signals`` take besides their inputs, each one part of the handoff key.
FRONT = (*FILTERS, "--period-start", "--period-end")
SIGNAL_FILES = ("--signal-users", "--signals")
CODER = ("--lasso-tol", "--lasso-max-sweeps")
LEARN = ("--atoms", "--lambda", "--outer-iters", *CODER, "--test-frac")
EVAL = ("--l2-grid", "--cv-folds")

#: Each subcommand's help line and flags after :data:`COMMON`, in the order its ``--help`` lists them.
SUBCOMMANDS = {
    "synth": ("generate a synthetic dataset", SYNTH),
    "ingest": ("parse and filter logs into a user summary", ("--events", "--favorites", *FRONT, "--tz-offset-min")),
    "signals": ("build the normalized weekly signal matrix", ("--events", "--favorites", *FRONT)),
    "learn": ("learn the atom dictionary on the train split", (*SIGNAL_FILES, *LEARN)),
    "embed": ("code users against a fixed dictionary", (*SIGNAL_FILES, "--dictionary", "--lambda", *CODER)),
    "eval": ("activity-prediction evaluation report", ("--code-users", "--codes", "--labels", "--summary", *EVAL)),
    "export-atoms": ("dictionary to long-format plotting CSV", ("--dictionary",)),
    "pipeline": ("run every stage with one seed", (*SYNTH, *FILTERS, "--tz-offset-min", *LEARN, *EVAL)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weeklisten",
        description="Weekly listening-pattern embeddings: synthesize logs, build signals, "
                    "learn atoms, embed users, evaluate activity prediction.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, (help_line, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for flag in (*COMMON, *flags):
            p.add_argument(flag, **FLAGS.get((command, flag), FLAGS[flag]))
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
        period = [getattr(args, name, None) for name in ("period_start", "period_end")]
        if period.count(None) == 1:
            raise PipelineError("--period-start and --period-end must be given together")
        if None not in period and not ingest.TIMESTAMP_MIN <= min(period) <= max(period) <= ingest.TIMESTAMP_MAX:
            raise PipelineError(f"--period-start and --period-end must lie between {ingest.TIMESTAMP_MIN} "
                                f"and {ingest.TIMESTAMP_MAX}, got [{period[0]}, {period[1]})")
        _run(args.command, args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
