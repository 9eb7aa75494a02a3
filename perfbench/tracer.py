"""Traced in-process run of weeklisten CLI commands, and the layer metrics of its spans.

Run as a script, it wraps every public function of the weeklisten modules,
executes the given CLI commands in this one process through ``cli.main`` and
writes the recorded spans as JSON::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS_JSON COMMANDS_JSON

``COMMANDS_JSON`` is a JSON list of argument lists, one per CLI call.  No
file of the program is changed: the wrappers replace module attributes at
run time, so calls between modules (``cli.cmd_signals`` ->
``signals.build_signal_set``) pass through them.  The spans stay in memory
until the commands end.

:func:`layer_metrics` turns those spans into the per-layer metrics the
benchmark reports.  A metric whose function no longer exists is left out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
import uuid

MODULES = ("synth", "ingest", "signals", "storage", "dictionary", "evaluate", "cli")

#: Stage functions of the CLI, in pipeline order.
STAGES = ("synth", "ingest", "signals", "learn", "embed", "eval", "export_atoms")


def _events(args, kwargs, result):
    return {"events": result.n_events}


def _parse_report(args, kwargs, result):
    report = result[1]
    return {"lines": report.total_lines, "malformed": report.malformed_count}


def _sized(args, kwargs, result):
    return {"rows": len(result)}


def _unknown_favorites(args, kwargs, result):
    return {"unknown_favorite_users": result.unknown_user_warnings}


def _signal_users(args, kwargs, result):
    return {"users": len(result.user_ids)}


def _coding(args, kwargs, result):
    warm = kwargs.get("warm_codes", args[5] if len(args) > 5 else None)
    return {"rows": result.shape[0], "warm": warm is not None}


#: Counts taken from a call's arguments and result at the layer boundary.
PROBES = {
    "synth.generate": _events,
    "ingest.parse_events": _parse_report,
    "ingest.filter_valid_streams": _sized,
    "ingest.filter_active_users": _sized,
    "ingest.build_profiles": _unknown_favorites,
    "signals.build_signal_set": _signal_users,
    "dictionary.sparse_code_batch": _coding,
}


class Tracer:
    """Collects one span per wrapped call: id, parent id, name, start, end, counts."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[list] = []
        self.wrapped: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            counts = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    try:
                        counts = probe(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        pass  # the result changed shape: the count is absent
                return result
            finally:
                stack.pop()
                self.spans.append([span_id, parent, name, start, time.perf_counter(), counts])

        return traced

    def install(self) -> None:
        """Wrap every public function defined in each module of :data:`MODULES`."""
        for short in MODULES:
            module = importlib.import_module(f"weeklisten.{short}")
            wrappers = {}
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{short}.{attr}", fn)
                setattr(module, attr, wrapper)
                wrappers[id(fn)] = wrapper
                self.wrapped.append(f"{short}.{attr}")
            # Dispatch tables such as cli.COMMANDS hold the functions themselves.
            for table in vars(module).values():
                if isinstance(table, dict):
                    for key, value in table.items():
                        if id(value) in wrappers:
                            table[key] = wrappers[id(value)]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "wrapped": self.wrapped, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------

class Spans:
    """Index over a dumped span list."""

    def __init__(self, data: dict):
        self.wrapped = set(data["wrapped"])
        self.by_id = {s[0]: s for s in data["spans"]}
        self.children: dict[int, list] = {}
        for s in data["spans"]:
            if s[1] is not None:
                self.children.setdefault(s[1], []).append(s)

    def named(self, names) -> list:
        names = set(names)
        return [s for s in self.by_id.values() if s[2] in names]

    def total_s(self, names) -> float:
        """Time inside any of ``names``, counting a nested call of the group once."""
        names = set(names)
        total = 0.0
        for s in self.named(names):
            parent = self.by_id.get(s[1])
            while parent is not None and parent[2] not in names:
                parent = self.by_id.get(parent[1])
            if parent is None:
                total += s[4] - s[3]
        return total

    def self_s(self, name: str) -> float:
        """Duration of ``name`` spans minus the time their direct children cover."""
        total = 0.0
        for s in self.named([name]):
            covered, reach = 0.0, s[3]
            for c in sorted(self.children.get(s[0], ()), key=lambda c: c[3]):
                lo = max(c[3], reach)
                if c[4] > lo:
                    covered += c[4] - lo
                    reach = c[4]
            total += (s[4] - s[3]) - covered
        return total

    def count_sum(self, name: str, key: str):
        values = [s[5][key] for s in self.named([name]) if s[5] and key in s[5]]
        return sum(values) if values else None

    def count_max(self, name: str, key: str):
        values = [s[5][key] for s in self.named([name]) if s[5] and key in s[5]]
        return max(values) if values else None


def _rate(count, seconds):
    return None if count is None or seconds <= 0 else count / seconds


def layer_metrics(data: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run; a metric whose function is gone is omitted."""
    sp = Spans(data)
    have = sp.wrapped.__contains__
    out: dict[str, float | None] = {}

    def timed(metric, *names):
        if all(have(n) for n in names):
            out[metric] = sp.total_s(names)

    for stage in STAGES:
        name = f"cli.cmd_{stage}"
        if have(name):
            out[f"{name}.s"] = sp.total_s([name])
            out[f"{name}.self_s"] = sp.self_s(name)

    timed("synth.generate.s", "synth.generate")
    if have("synth.generate"):
        out["synth.generate.events_per_s"] = _rate(
            sp.count_sum("synth.generate", "events"), out["synth.generate.s"])

    timed("ingest.parse_events.s", "ingest.parse_events")
    if have("ingest.parse_events"):
        out["ingest.parse_events.calls"] = len(sp.named(["ingest.parse_events"]))
        out["ingest.parse_events.lines_per_s"] = _rate(
            sp.count_sum("ingest.parse_events", "lines"), out["ingest.parse_events.s"])
        out["ingest.lines"] = sp.count_max("ingest.parse_events", "lines")
        out["ingest.malformed"] = sp.count_max("ingest.parse_events", "malformed")
    timed("ingest.parse_favorites.s", "ingest.parse_favorites")
    timed("ingest.filters.s", "ingest.filter_valid_streams", "ingest.filter_active_users",
          "ingest.restrict_to_users")
    timed("ingest.build_profiles.s", "ingest.build_profiles")
    out["ingest.valid_streams"] = sp.count_max("ingest.filter_valid_streams", "rows")
    out["ingest.active_users"] = sp.count_max("ingest.filter_active_users", "rows")
    out["ingest.unknown_favorite_users"] = sp.count_max("ingest.build_profiles",
                                                        "unknown_favorite_users")

    timed("signals.build_signal_set.s", "signals.build_signal_set")
    if have("signals.build_signal_set"):
        out["signals.users_per_s"] = _rate(sp.count_sum("signals.build_signal_set", "users"),
                                           out["signals.build_signal_set.s"])

    for kind in ("save", "load"):
        names = [n for n in sp.wrapped
                 if n.split(".")[0] in ("storage", "signals", "dictionary")
                 and n.split(".")[1].startswith(kind + "_")]
        if names:
            out[f"storage.{kind}.s"] = sp.total_s(names)

    timed("dictionary.learn.s", "dictionary.learn")
    if have("dictionary.sparse_code_batch"):
        calls = sp.named(["dictionary.sparse_code_batch"])
        out["dictionary.sparse_code_batch.calls"] = len(calls)
        for label, warm in (("cold_s", False), ("warm_s", True)):
            if all(c[5] for c in calls):
                out[f"dictionary.sparse_code_batch.{label}"] = sum(
                    c[4] - c[3] for c in calls if c[5]["warm"] is warm)
        out["dictionary.users_coded_per_s"] = _rate(
            sp.count_sum("dictionary.sparse_code_batch", "rows"),
            sp.total_s(["dictionary.sparse_code_batch"]))
    timed("dictionary.update_dictionary.s", "dictionary.update_dictionary")
    timed("dictionary.objective.s", "dictionary.objective")
    if have("dictionary.objective"):
        out["dictionary.objective.calls"] = len(sp.named(["dictionary.objective"]))
    timed("dictionary.embed.s", "dictionary.embed")

    timed("evaluate.evaluate_all.s", "evaluate.evaluate_all")
    for fn in ("grid_search_cv", "train_logreg"):
        timed(f"evaluate.{fn}.s", f"evaluate.{fn}")
        if have(f"evaluate.{fn}"):
            out[f"evaluate.{fn}.calls"] = len(sp.named([f"evaluate.{fn}"]))
    timed("evaluate.parse_labels.s", "evaluate.parse_labels")

    out["trace.spans"] = len(sp.by_id)
    return {k: v for k, v in out.items() if v is not None}


def main(argv: list[str]) -> int:
    spans_path, commands_path = argv
    with open(commands_path, encoding="utf-8") as fh:
        commands = json.load(fh)
    tracer = Tracer()
    tracer.install()
    from weeklisten import cli

    for command in commands:
        rc = cli.main(command)
        if rc:
            return rc
    tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
