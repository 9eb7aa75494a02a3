import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from weeklisten import dictionary, evaluate, ingest

# 2022-01-03 00:00:00 UTC, a Monday.
MONDAY = 1_641_168_000
HOUR = 3600
DAY = 86400
WEEK = 7 * DAY

#: Every data artifact a pipeline run writes; manifests carry timing and are left out.
DATA_ARTIFACTS = (
    "events.csv", "favorites.csv", "labels.csv", "user_summary.csv",
    "signal_users.txt", "signals.npy", "dictionary.csv",
    "train_users.txt", "test_users.txt", "objective_trace.csv",
    "code_users.txt", "codes.npy", "eval_report.csv", "eval_table.txt",
    "coefficients.csv", "atoms.csv",
)

EVENTS_HEADER = "user_id,timestamp,track_id,album_id,origin,listen_duration"


def events_csv_lines(rows, header=EVENTS_HEADER):
    return [header + "\n"] + [r + "\n" for r in rows]


def write_lines(path, lines):
    """Write CSV ``lines`` (line ends included) to ``path`` as UTF-8 and return the path.

    The parsers read paths only.
    """
    Path(path).write_text("".join(lines), encoding="utf-8", newline="")
    return path


@dataclass(frozen=True)
class Event:
    """One events.csv record; tests build logs from these through the real parser."""

    user_id: str
    timestamp: int
    track_id: str
    album_id: str
    origin: str
    listen_duration: int
    tz_offset_min: int | None = None


def make_event(user="u1", timestamp=MONDAY, track="t1", album="a1",
               origin="organic", duration=120, tz=None):
    return Event(user, timestamp, track, album, origin, duration, tz)


def log_of(*events):
    """The event log that ``ingest.parse_events`` makes of these records, tz column included."""
    rows = [f"{e.user_id},{e.timestamp},{e.track_id},{e.album_id},{e.origin},{e.listen_duration},"
            + ("" if e.tz_offset_min is None else str(e.tz_offset_min)) for e in events]
    lines = events_csv_lines(rows, header=EVENTS_HEADER + ",tz_offset_min")
    with tempfile.TemporaryDirectory() as directory:
        log, report = ingest.parse_events(write_lines(Path(directory) / "events.csv", lines))
    assert report.malformed_count == 0, report.summary()
    return log


def user_indexes(log, names):
    """The indexes into ``log.users`` of those of ``names`` that it holds, as ``restrict_to_users`` takes them."""
    found = log.users.find(list(names))
    return found[found >= 0]


def records(log):
    """The events of ``log`` as :class:`Event` records, in order."""
    users, tracks, albums = log.users.decoded(), log.tracks.decoded(), log.albums.decoded()
    return [Event(users[u], t, tracks[tr], albums[al],
                  "organic" if o else "algorithmic", d, None if z == ingest.TZ_UNSET else z)
            for u, t, tr, al, o, d, z in zip(
                log.user_idx.tolist(), log.timestamps.tolist(), log.track_idx.tolist(),
                log.album_idx.tolist(), log.organic.tolist(), log.durations.tolist(),
                log.tz_offset_min.tolist())]


def favorites_of(*triples):
    """The ``(user_ids, kinds, item_ids)`` columns of ``ingest.parse_favorites`` for (user, kind, item) triples."""
    return tuple(list(column) for column in zip(*triples))


def auc_of(report, variant, activity):
    """Test AUC of one (variant, activity) job of an ``evaluate.EvalReport``."""
    return float(report.auc[evaluate.VARIANTS.index(variant), evaluate.ACTIVITIES.index(activity)])


def sparse_code(signal, atoms, lam, **kwargs):
    """Lasso code of one signal through the package's batch coder."""
    return dictionary.sparse_code_batch(np.asarray(signal, dtype=float)[None, :], atoms, lam, **kwargs)[0]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
