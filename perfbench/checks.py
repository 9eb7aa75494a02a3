"""Correctness checks on the artifacts of one repetition.

Only artifacts that a later stage or the user reads are checked; manifests
carry timing and ``dictionary.bin`` is read by nothing in the pipeline.
The checks recompute what they need from the files with numpy alone, so
they hold whatever the program's internals become.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from pathlib import Path

import numpy as np

#: Artifacts a later stage or the user reads; each must exist and repeat byte for byte.
CHECKED_ARTIFACTS = (
    "events.csv", "favorites.csv", "labels.csv", "user_summary.csv",
    "signal_users.txt", "signals.npy", "dictionary.csv", "objective_trace.csv",
    "code_users.txt", "codes.npy", "eval_report.csv", "eval_table.txt",
    "coefficients.csv", "atoms.csv",
)
#: Compared when present, so that a change may drop them.
OPTIONAL_ARTIFACTS = ("train_users.txt", "test_users.txt")

PRIMARY_ACTIVITIES = ("transport", "work", "friends", "asleep")
MIN_PRIMARY_AUC = 0.80
#: 5 feature variants x 6 activities.
EVAL_ROWS = 30
#: The coder certifies a KKT violation within this factor of its tolerance.
KKT_TOL_FACTOR = 10.0
LASSO_TOL = 1e-8


def digests(out: Path) -> tuple[dict[str, str], list[str]]:
    """sha256 of every checked artifact present, and the names of required ones missing."""
    found, missing = {}, []
    for name in CHECKED_ARTIFACTS + OPTIONAL_ARTIFACTS:
        path = out / name
        if path.is_file():
            found[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        elif name in CHECKED_ARTIFACTS:
            missing.append(name)
    return found, missing


def primary_auc(out: Path) -> tuple[list[float], int]:
    """Codes-variant test AUC on each primary activity, and the report's row count."""
    with open(out / "eval_report.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    codes = {r["activity"]: float(r["auc"]) for r in rows if r["variant"] == "codes"}
    return [codes[a] for a in PRIMARY_ACTIVITIES], len(rows)


def _index(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").split("\n") if line]


def load_dictionary(path: Path) -> tuple[np.ndarray, float]:
    """The stacked ``(dim, K)`` atoms and the training lambda of ``dictionary.csv``."""
    with open(path, encoding="utf-8") as fh:
        header = dict(zip(fh.readline().strip().split(","), fh.readline().strip().split(",")))
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return rows.T, float(header["lambda"])


def kkt_max(out: Path) -> float:
    """Worst lasso KKT violation of ``codes.npy`` against ``dictionary.csv`` and the signals.

    With ``grad = -2 D^T (s - D c)``, optimality needs ``|grad_k| <= lam`` where
    ``c_k == 0`` and ``grad_k == -lam * sign(c_k)`` elsewhere.
    """
    D, lam = load_dictionary(out / "dictionary.csv")
    signal_row = {u: i for i, u in enumerate(_index(out / "signal_users.txt"))}
    rows = [signal_row[u] for u in _index(out / "code_users.txt")]
    S = np.load(out / "signals.npy", allow_pickle=False)[rows]
    C = np.load(out / "codes.npy", allow_pickle=False)
    grad = -2.0 * (S - C @ D.T) @ D
    viol = np.where(C == 0.0, np.maximum(np.abs(grad) - lam, 0.0), np.abs(grad + lam * np.sign(C)))
    return float(viol.max())


def check_artifacts(out: Path) -> tuple[dict[str, float], list[str]]:
    """Figures read from one repetition's artifacts, and every check that failed."""
    errors = []
    figures = {}
    try:
        aucs, n_rows = primary_auc(out)
        figures["auc_codes_primary"] = float(np.mean(aucs))
        figures["auc_codes_min"] = min(aucs)
        if n_rows != EVAL_ROWS:
            errors.append(f"eval_report.csv has {n_rows} rows, expected {EVAL_ROWS}")
        low = {a: v for a, v in zip(PRIMARY_ACTIVITIES, aucs) if not v >= MIN_PRIMARY_AUC}
        if low:
            errors.append(f"codes AUC below {MIN_PRIMARY_AUC}: {low}")
    except (OSError, KeyError, ValueError) as exc:
        errors.append(f"cannot read eval_report.csv: {exc!r}")
    try:
        figures["kkt_max"] = kkt_max(out)
        if not figures["kkt_max"] <= KKT_TOL_FACTOR * LASSO_TOL:
            errors.append(f"KKT violation {figures['kkt_max']:.3g} exceeds "
                          f"{KKT_TOL_FACTOR * LASSO_TOL:.3g}")
        C = np.load(out / "codes.npy", allow_pickle=False)
        figures["active_atoms_mean"] = float(np.mean(np.count_nonzero(C, axis=1)))
    except (OSError, KeyError, ValueError, IndexError) as exc:
        errors.append(f"cannot check codes: {exc!r}")
    try:
        last = (out / "objective_trace.csv").read_text(encoding="utf-8").split()[-1]
        figures["objective_final"] = float(last.split(",")[1])
    except (OSError, IndexError, ValueError) as exc:
        errors.append(f"cannot read objective_trace.csv: {exc!r}")
    try:
        figures["events_csv_mb"] = (out / "events.csv").stat().st_size / 1e6
    except OSError as exc:
        errors.append(f"cannot stat events.csv: {exc!r}")
    return figures, errors


class DigestStore:
    """Artifact digests of earlier runs in this checkout, keyed by inputs.

    Runs with the same key (flags, input seed and program source) must produce
    the same bytes: across runs of one workload, and between ``staged`` and
    ``logs``.
    """

    def __init__(self, path: Path):
        self.path = path

    def compare_and_record(self, key: str, found: dict[str, str]) -> list[str]:
        """Names of artifacts whose digest differs from the one recorded under ``key``."""
        try:
            store = json.loads(self.path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            store = {}
        known = store.setdefault(key, {})
        differ = sorted(n for n, d in found.items() if known.get(n, d) != d)
        if not differ:
            known.update(found)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(store, indent=1, sort_keys=True), encoding="utf-8")
            os.replace(tmp, self.path)
        return differ
