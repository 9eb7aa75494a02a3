"""The benchmark's workloads: which weeklisten CLI calls one repetition makes.

Every workload is closed-loop and single-client: the CLI calls of a
repetition run one after another, and repetitions run one after another.
No workload sets a thread variable; BLAS uses what the environment gives
every workload alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

#: Synthetic study periods start Monday 2022-01-03 00:00 UTC and span whole weeks.
PERIOD_START = 1_641_168_000
SECONDS_PER_WEEK = 7 * 24 * 3600

#: Shared by ``logs`` and ``staged``, so their artifacts must be byte-identical.
LOGS_FLAGS = {"users": 1000, "weeks": 8, "outer-iters": 5, "threads": 1}
ATOMS_FLAGS = {"users": 1000, "weeks": 4, "threads": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    staged: bool                 # seven CLI processes with file handoffs instead of ``pipeline``
    flags: dict = field(default_factory=dict)

    @property
    def shape_key(self) -> str:
        """Names the inputs and flags; runs with equal keys and seeds make equal artifacts."""
        return ",".join(f"{k}={v}" for k, v in sorted(self.flags.items()))

    def commands(self, seed: int, out: Path) -> list[list[str]]:
        """CLI argument lists of one repetition, in order."""
        f = {k: str(v) for k, v in self.flags.items()}
        common = ["--seed", str(seed), "--out", str(out), "--threads", f["threads"]]
        learn = [arg for k in ("atoms", "outer-iters") if k in f for arg in (f"--{k}", f[k])]
        synth = ["--users", f["users"], "--weeks", f["weeks"]]
        if not self.staged:
            return [["pipeline", *common, *synth, *learn]]
        end = PERIOD_START + int(f["weeks"]) * SECONDS_PER_WEEK
        source = ["--events", str(out / "events.csv"), "--favorites", str(out / "favorites.csv"),
                  "--period-start", str(PERIOD_START), "--period-end", str(end)]
        signals = ["--signal-users", str(out / "signal_users.txt"),
                   "--signals", str(out / "signals.npy")]
        return [
            ["synth", *common, *synth],
            ["ingest", *common, *source],
            ["signals", *common, *source],
            ["learn", *common, *signals, *learn],
            ["embed", *common, *signals, "--dictionary", str(out / "dictionary.csv")],
            ["eval", *common, "--code-users", str(out / "code_users.txt"),
             "--codes", str(out / "codes.npy"), "--labels", str(out / "labels.csv"),
             "--summary", str(out / "user_summary.csv")],
            ["export-atoms", *common, "--dictionary", str(out / "dictionary.csv")],
        ]


WORKLOADS = {w.name: w for w in (
    Workload(
        "logs",
        "parse-heavy pipeline: 1000 users x 8 weeks of events, 5 learning rounds; "
        "synth, parse, filters and aggregation dominate, the solver barely runs",
        staged=False, flags=LOGS_FLAGS),
    Workload(
        "atoms",
        "solver-heavy pipeline: 1000 users x 4 weeks, 32 atoms, 100 learning rounds; "
        "sparse coding and dictionary updates dominate, the parse is small",
        staged=False, flags=ATOMS_FLAGS),
    Workload(
        "staged",
        "the logs flags as seven CLI processes with file handoffs: each stage parses "
        "for itself and start-up is paid seven times",
        staged=True, flags=LOGS_FLAGS),
)}
