"""Outside-in tracing: spans around calls into each layer's public methods.

Nothing in the program is edited.  :func:`instrument` replaces bound
methods on the *live* layer objects of one database with timing
wrappers (instance attributes shadowing the class methods), and wraps
``db.planner.plan`` so each returned plan carries timed stage callables
(``dataclasses.replace``).  :meth:`Tracer.uninstall` removes every
wrapper again.

A span is ``(name, start_ns, end_ns, parent, op)``; spans live in
parallel lists while the run goes and are written out once at the end.
A span's self time is its duration minus its children's durations
(one thread, so children nest strictly inside their parent).
"""

from __future__ import annotations

import dataclasses
import json
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Callable

_clock = time.perf_counter_ns

#: Public mutators of ``SequenceDatabase`` (the ``query.database`` layer).
DB_MUTATORS = ("insert", "insert_all", "append", "append_many", "delete", "delete_many")

#: (object path on the database, method, span name).
_LAYER_METHODS = (
    ("breaker", "represent", "segmentation.represent"),
    ("breaker", "represent_many", "segmentation.represent"),
    ("breaker", "extend_indices", "segmentation.extend"),
    ("breaker", "extend_indices_many", "segmentation.extend"),
    *(
        (index, method, name)
        for index in ("pattern_index", "behavior_index")
        for method, name in (
            ("add", "index.trie_add"),
            ("add_symbols", "index.trie_add"),
            ("add_symbols_many", "index.trie_add"),
            ("update_symbols", "index.trie_update"),
            ("remove", "index.trie_remove"),
            ("remove_many", "index.trie_remove"),
        )
    ),
    *(
        ("rr_index", method, "index.rr_write")
        for method in (
            "add", "add_all", "add_array", "add_block",
            "replace_tail", "remove_sequence", "remove_sequences",
        )
    ),
    ("archive", "store", "storage.write"),
    ("archive", "replace", "storage.write"),
    ("archive", "retrieve", "storage.read"),
    ("archive", "peek", "storage.read"),
    ("local_store", "store", "storage.write"),
    ("local_store", "evict", "storage.write"),
    ("local_store", "retrieve", "storage.read"),
    ("catalog", "put", "storage.write"),
    ("catalog", "remove_sequence", "storage.write"),
    ("catalog", "get", "storage.read"),
    *(
        ("store", method, "store.write")
        for method in ("insert", "extend", "replace", "replace_many", "delete", "delete_many")
    ),
    ("executor", "execute", "executor.execute"),
    ("result_cache", "lookup", "cache.lookup"),
    ("result_cache", "stale_entry", "cache.lookup"),
    ("result_cache", "store", "cache.store"),
    ("result_cache", "revalidate", "cache.revalidate"),
)

#: Plan stage field -> span name.
_STAGES = {
    "probe": "executor.probe",
    "prefilter": "executor.prefilter",
    "vector_filter": "executor.grade",
    "residual": "executor.residual",
    "topk": "executor.topk",
    "collect": "executor.collect",
}


class Tracer:
    """In-memory span recorder plus the wrappers it installed."""

    def __init__(self) -> None:
        self.names: "list[str]" = []
        self.starts: "list[int]" = []
        self.ends: "list[int]" = []
        self.parents: "list[int]" = []
        self.ops: "list[int]" = []
        self.counts: "defaultdict[str, int]" = defaultdict(int)
        #: Op id stamped on every span begun from now on.
        self.op = -1
        self._stack: "list[int]" = []
        self._installed: "list[tuple[object, str]]" = []
        self._durations: "tuple[list[int], list[int]] | None" = None

    # -- spans ---------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(_clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = _clock()
        self._stack.pop()

    def timed(self, name: str, function: Callable, count: "Callable | None" = None) -> Callable:
        """``function`` wrapped in a span; ``count(args, result)`` feeds counters."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                end(index)
            if count is not None:
                count(args, result)
            return result

        return traced

    def wrap(self, owner: object, method: str, name: str, count: "Callable | None" = None) -> None:
        setattr(owner, method, self.timed(name, getattr(owner, method), count))
        self._installed.append((owner, method))

    def uninstall(self) -> None:
        for owner, method in reversed(self._installed):
            delattr(owner, method)
        self._installed.clear()

    # -- analysis ------------------------------------------------------

    def durations(self) -> "tuple[list[int], list[int]]":
        """Per-span duration and self time, in nanoseconds (call after the run)."""
        if self._durations is None or len(self._durations[0]) != len(self.names):
            durations = [end - start for start, end in zip(self.starts, self.ends)]
            child = [0] * len(durations)
            for index, parent in enumerate(self.parents):
                if parent >= 0:
                    child[parent] += durations[index]
            self._durations = (durations, [d - c for d, c in zip(durations, child)])
        return self._durations

    def outer_seconds(self, names: "set[str]") -> float:
        """Total time inside spans named in ``names``, nesting counted once."""
        durations, __ = self.durations()
        total = 0
        for index, name in enumerate(self.names):
            if name not in names:
                continue
            parent = self.parents[index]
            while parent >= 0 and self.names[parent] not in names:
                parent = self.parents[parent]
            if parent < 0:
                total += durations[index]
        return total / 1e9

    def self_seconds(self, names: "set[str]") -> float:
        __, selfs = self.durations()
        return sum(s for s, name in zip(selfs, self.names) if name in names) / 1e9

    def layer_self_seconds(self) -> "dict[str, float]":
        """Self time per layer (span-name prefix), summed over all spans."""
        __, selfs = self.durations()
        layers: "defaultdict[str, float]" = defaultdict(float)
        for name, value in zip(self.names, selfs):
            layers[name.split(".", 1)[0]] += value / 1e9
        return dict(layers)

    def write(self, path: Path) -> None:
        """Dump every span as JSON (one record per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                    "spans": list(
                        zip(self.names, self.starts, self.ends, self.parents, self.ops)
                    ),
                },
                handle,
            )


def instrument(tracer: Tracer, db: object) -> None:
    """Wrap every traced layer method of one live database."""
    counts = tracer.counts

    def count_points(args: tuple, result: object) -> None:
        # Points handed to the breaker: a sequence, a list of sequences,
        # or (sequence, previous boundaries) pairs.  Only the outermost
        # breaker call counts; a batch entry point delegating per
        # sequence would double it.
        if tracer._stack and tracer.names[tracer._stack[-1]].startswith("segmentation."):
            return
        items = args[0]
        if hasattr(items, "values"):
            counts["segmentation.points"] += len(items)
        else:
            counts["segmentation.points"] += sum(
                len(item[0] if isinstance(item, tuple) else item) for item in items
            )

    def count_matches(args: tuple, result: object) -> None:
        counts["executor.matches_out"] += len(result)

    # A layer object or method the database no longer has is skipped, so
    # the trace keeps working (its metrics read 0) when a layer is removed.
    for path, method, name in _LAYER_METHODS:
        owner = getattr(db, path, None)
        if not hasattr(owner, method):
            continue
        count = None
        if name.startswith("segmentation."):
            count = count_points
        elif name == "executor.execute":
            count = count_matches
        tracer.wrap(owner, method, name, count)
    for method in DB_MUTATORS:
        if hasattr(db, method):
            tracer.wrap(db, method, f"database.{method}")
    tracer.wrap(db, "query", "database.query")
    _instrument_planner(tracer, db)


def _instrument_planner(tracer: Tracer, db: object) -> None:
    """Time every stage callable of every plan the planner hands out."""
    planner = db.planner
    plan = planner.plan
    counts = tracer.counts

    def per_candidates(args: tuple, result: object) -> None:
        candidates = args[2]
        counts["executor.candidates_in"] += (
            args[1].n_sequences if candidates is None else len(candidates)
        )

    def per_shard(args: tuple, result: object) -> None:
        counts["executor.candidates_in"] += args[1].n_sequences

    def per_call(args: tuple, result: object) -> None:
        counts["executor.candidates_in"] += 1

    stage_counts = {"vector_filter": per_candidates, "residual": per_call,
                    "topk": per_shard, "collect": per_shard}

    def traced_plan(*args, **kwargs):
        index = tracer.begin("planner.plan")
        try:
            planned = plan(*args, **kwargs)
            stages = {
                field: tracer.timed(span, getattr(planned, field), stage_counts.get(field))
                for field, span in _STAGES.items()
                if getattr(planned, field, None) is not None
            }
            return dataclasses.replace(planned, **stages)
        finally:
            tracer.end(index)

    planner.plan = traced_plan
    tracer._installed.append((planner, "plan"))


# -- memory attribution -------------------------------------------------

#: Subpackages reported individually; everything else is ``other``.
MEMORY_GROUPS = ("index", "core", "engine", "storage", "functions", "query")


def memory_by_subpackage(snapshot: "tracemalloc.Snapshot") -> "dict[str, int]":
    """Bytes live in ``snapshot``, grouped by allocating ``repro`` subpackage.

    An allocation belongs to the innermost traced frame's file; frames
    outside ``repro`` (NumPy's Python code, the standard library, the
    benchmark itself) and subpackages outside ``MEMORY_GROUPS`` count
    as ``other``.
    """
    groups = dict.fromkeys((*MEMORY_GROUPS, "other"), 0)
    for stat in snapshot.statistics("filename"):
        filename = stat.traceback[0].filename.replace("\\", "/")
        group = "other"
        if "/repro/" in filename:
            package = filename.rsplit("/repro/", 1)[1].split("/", 1)[0]
            if package in groups:
                group = package
        groups[group] += stat.size
    return groups
