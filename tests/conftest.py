import numpy as np
import pytest

from weeklisten import ingest

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


def make_event(user="u1", timestamp=MONDAY, track="t1", album="a1",
               origin="organic", duration=120, tz=None):
    return ingest.StreamEvent(user_id=user, timestamp=timestamp, track_id=track,
                              album_id=album, origin=origin, listen_duration=duration,
                              tz_offset_min=tz)


def log_of(*events):
    return ingest.EventLog.from_events(events)


def events_csv_lines(rows, header="user_id,timestamp,track_id,album_id,origin,listen_duration"):
    return [header + "\n"] + [r + "\n" for r in rows]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
