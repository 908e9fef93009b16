"""End-to-end benchmark of the sequence database.

Usage (from the repository root)::

    python3 perfbench/run.py --workload query_zipf --seed 1 --seconds 15 --trace 0

Workloads (inputs generated from ``--seed`` by :mod:`workloads`; the
database only ever receives the generated sequences and query text):

``ingest_ecg``
    Batched ingest of seeded 2000-point ECG recordings through
    ``db.ingest_pipeline`` under the paper's Figure 9 configuration
    (``InterpolationBreaker(10.0)``, ``theta=5.0``), in rounds that each
    ingest the same recordings into a fresh database; a run ends on a
    round boundary.  No queries.  Set-up is an empty database plus a
    warm-up batch.
``query_zipf``
    Set-up loads a seeded clickstream corpus with batched
    ``insert_all``; one closed-loop client then sends text queries
    (``parse_query`` -> ``db.query``, default result cache) drawn
    Zipf-skewed over all eight language forms, far more distinct
    answers than the cache holds.  No writes.
``serve_mixed``
    The same set-up; one deterministic single-thread stream of eight
    reads (from a hot set that fits the cache) per write (``append``,
    ``insert_all`` of three fresh sequences, ``delete``).

End-to-end metrics (every workload prints all of them; one op is one
ingest batch, one query, or one write).  Timings are given at one
nominal machine speed: each run also times a fixed reference task (see
:func:`reference_seconds`) around every set-up build and between the
timed ops.  Set-up time is scaled by ``REFERENCE_S`` over the
reference's mean time around the builds, and each op's time by
``REFERENCE_S`` over the mean of the ``REFERENCE_WINDOW`` samples taken
on either side of it.  The unscaled figures are printed alongside.

``setup_s``                 median wall time of ``setup_repeats`` builds of
                            the starting database (input generation excluded)
``ops_per_s``               timed ops completed per second of op time
``op_p50_ms``               median op latency (a query includes its parse)
``op_tail_ms``              the highest percentile up to p99 with at least ten
                            samples beyond it (the percentile is printed)
``rss_peak_mb``             ``ru_maxrss`` after the timed phase
``stored_bytes_per_raw_byte``  ``storage_report()`` representation / raw bytes

The per-kind figures (``ingest_points_per_s``, ``query_p50_ms``,
``write_p50_ms``, ``delete_p50_ms``, ...) and ``failed_op_ratio`` are
printed as well, with their sample counts.

Every workload runs on one thread with the serial executor and
``N_SHARDS`` shards.  ``--trace 0`` measures the end-to-end metrics.
``--trace 1`` reports the per-layer metrics instead: it runs set-up and
the timed phase traced (spans from :mod:`tracer`, wrapped around each
layer's public methods; written to ``perfbench/out/``), replays the
same ops untraced for ``tracing.overhead_ratio``, and builds once more
under ``tracemalloc`` for the memory attribution.  Answers are checked
outside the timed sections; the last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads as gen  # noqa: E402
from repro.query import SequenceDatabase  # noqa: E402
from repro.query.language import parse_query  # noqa: E402
from repro.segmentation import InterpolationBreaker  # noqa: E402

#: Ops replayed under ``tracemalloc`` for the memory attribution.
MEMORY_OPS = {"ingest_ecg": 16, "query_zipf": 300, "serve_mixed": 360}
#: One in this many ``query_zipf`` requests is re-checked uncached.
CHECK_EVERY = 25
#: Recordings re-broken one at a time by the ``ingest_ecg`` check.
ECG_CHECKS = 24
TAIL_PERCENTILE = 0.99
OUT_DIR = HERE / "out"
#: Nominal seconds of one :func:`reference_seconds` task: timings are
#: reported as if the reference took this long.
REFERENCE_S = 0.001
#: Busy seconds of a timed phase between two reference samples.
REFERENCE_EVERY_S = 0.05
#: Reference samples on each side of an op that set its scale.
REFERENCE_WINDOW = 4
#: Reference samples taken just before and just after each set-up build.
REFERENCE_AROUND_SETUP = 3


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python + NumPy task, about 1 ms.

    The benchmark shares its machine with other tenants, and the speed
    it gets swings by up to 1.5x from one second to the next and by up
    to 1.4x between runs minutes apart.  A fixed task timed between the
    ops slows by about the same factor, so timings divided by its mean
    time around them vary far less between runs.  The task uses
    nothing from the program, so a change to the program does not move
    it, as long as the program does no work between ops: a background
    thread would slow the task and hide part of its own cost (every
    workload here runs on one thread).  The collector is off while it runs (so a collection the
    program's heap triggers is not charged to it), and only its second
    pass is timed, so it starts with its data in cache.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        for __ in range(2):
            start = time.perf_counter()
            table: "dict[int, int]" = {}
            for i in range(6000):
                table[i % 613] = table.get(i % 613, 0) + i
            sorted(table.items(), key=lambda kv: -kv[1])
            values = np.arange(4000, dtype=float)
            for __ in range(10):
                values = np.sqrt(values * 1.0001 + 1.0)
            elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return elapsed


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclass
class State:
    """One database under test plus what its checks need."""

    db: SequenceDatabase
    setup_points: int
    pipeline: object = None
    ingested: int = 0
    samples: "list[tuple[str, list]]" = field(default_factory=list)
    prepare: Callable = lambda db: None


class Workload:
    """Inputs, set-up, op execution and answer checks of one workload."""

    name = ""
    #: Whether the timed phase is the ingest (otherwise set-up is).
    timed_ingest = False
    #: Set-up builds per untraced run; ``setup_s`` is their median.
    setup_repeats = 3
    #: Whether a timed phase ends only at a ``("reset",)`` op.
    whole_rounds = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, prepare: Callable = lambda db: None) -> State:
        raise NotImplementedError

    def ops(self) -> Iterator[tuple]:
        raise NotImplementedError

    def execute(self, state: State, op: tuple, parse: Callable) -> object:
        raise NotImplementedError

    def check(self, state: State) -> "tuple[int, int]":
        """Run the answer checks; returns ``(checked, failed)``."""
        raise NotImplementedError

    @staticmethod
    def points(op: tuple) -> int:
        return 0


class IngestEcg(Workload):
    name = "ingest_ecg"
    timed_ingest = True
    # A build takes about 0.3 s, short enough for the machine's
    # second-scale speed swings to show; more builds steady the median.
    setup_repeats = 15
    # Latency spikes as the store grows sit at fixed places in a round,
    # so a run of whole rounds has the same tail whatever its length.
    whole_rounds = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.warmup = gen.ecg_warmup(seed)
        self.recordings = gen.ecg_recordings(seed)

    def setup(self, prepare: Callable = lambda db: None) -> State:
        db = SequenceDatabase(
            breaker=InterpolationBreaker(10.0), theta=5.0, n_shards=gen.N_SHARDS
        )
        prepare(db)
        pipeline = db.ingest_pipeline(batch_size=gen.ECG_BATCH)
        pipeline.add_many(self.warmup)
        points = sum(len(s) for s in self.warmup)
        return State(db, points, pipeline=pipeline, prepare=prepare)

    def ops(self) -> Iterator[tuple]:
        while True:
            for start in range(0, len(self.recordings), gen.ECG_BATCH):
                yield ("ingest", self.recordings[start : start + gen.ECG_BATCH])
            yield ("reset",)

    def reset(self, state: State) -> None:
        """Start the next round on a fresh database (untimed)."""
        state.db = state.pipeline = None
        gc.collect()
        fresh = self.setup(state.prepare)
        state.db, state.pipeline, state.ingested = fresh.db, fresh.pipeline, 0

    @staticmethod
    def points(op: tuple) -> int:
        return sum(len(s) for s in op[1])

    def execute(self, state: State, op: tuple, parse: Callable) -> object:
        state.pipeline.add_many(op[1])
        state.ingested += len(op[1])
        return None

    def check(self, state: State) -> "tuple[int, int]":
        """Re-break a seeded sample of the last round one at a time."""
        db = state.db
        rng = np.random.default_rng(gen.derive_seed(self.seed, "ecg-check"))
        picks = rng.permutation(state.ingested)[:ECG_CHECKS].tolist()
        failed = 0
        for k in picks:
            expected = db.breaker.represent(self.recordings[k], curve_kind=db.curve_kind)
            stored = db.representation_of(len(self.warmup) + k)
            if not _same_representation(expected, stored):
                failed += 1
                print(f"# check failed: recording {k} re-breaks differently", file=sys.stderr)
        return len(picks), failed


def _same_representation(a, b) -> bool:
    if len(a) != len(b) or a.source_length != b.source_length:
        return False
    left, right = a.segment_columns(), b.segment_columns()
    return left.keys() == right.keys() and all(
        np.array_equal(left[key], right[key]) for key in left
    )


def _read(state: State, text: str, parse: Callable) -> list:
    return state.db.query(parse(text, state.db))


class Clickstream(Workload):
    """Set-up shared by the clickstream workloads: batched ``insert_all``."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.corpus = gen.click_corpus(seed)
        self.setup_points = sum(len(s) for s in self.corpus)

    def setup(self, prepare: Callable = lambda db: None) -> State:
        db = SequenceDatabase(n_shards=gen.N_SHARDS)
        prepare(db)
        for start in range(0, len(self.corpus), gen.SETUP_BATCH):
            db.insert_all(self.corpus[start : start + gen.SETUP_BATCH])
        return State(db, self.setup_points)


class QueryZipf(Clickstream):
    name = "query_zipf"

    def ops(self) -> Iterator[tuple]:
        sample = np.random.default_rng(gen.derive_seed(self.seed, "sample"))
        for text in gen.zipf_queries(self.seed, len(self.corpus)):
            yield ("read", text, bool(sample.integers(CHECK_EVERY) == 0))

    def execute(self, state: State, op: tuple, parse: Callable) -> object:
        answer = _read(state, op[1], parse)
        if op[2]:
            state.samples.append((op[1], answer))
        return answer

    def check(self, state: State) -> "tuple[int, int]":
        failed = 0
        for text, answer in state.samples:
            if state.db.query(parse_query(text, state.db), cache=False) != answer:
                failed += 1
                print(f"# check failed: {text!r} differs uncached", file=sys.stderr)
        return len(state.samples), failed


class ServeMixed(Clickstream):
    name = "serve_mixed"

    def ops(self) -> Iterator[tuple]:
        return gen.mixed_ops(self.seed, len(self.corpus))

    @staticmethod
    def points(op: tuple) -> int:
        if op[0] == "append":
            return len(op[2])
        if op[0] == "insert":
            return sum(len(s) for s in op[1])
        return 0

    def execute(self, state: State, op: tuple, parse: Callable) -> object:
        db = state.db
        kind = op[0]
        if kind == "read":
            return _read(state, op[1], parse)
        if kind == "append":
            return db.append(op[1], op[2])
        if kind == "insert":
            return db.insert_all(op[1])
        return db.delete(op[1])

    def check(self, state: State) -> "tuple[int, int]":
        """Rebuild from the live raw data; the hot set must answer alike."""
        db = state.db
        live = db.ids()
        fresh = SequenceDatabase(n_shards=gen.N_SHARDS)
        raws = [db.raw_sequence(i) for i in live]
        fresh_ids: "list[int]" = []
        for start in range(0, len(raws), gen.SETUP_BATCH):
            fresh_ids.extend(fresh.insert_all(raws[start : start + gen.SETUP_BATCH]))
        to_fresh = dict(zip(live, fresh_ids))
        texts, __ = gen.hot_set(len(self.corpus))
        failed = 0
        for text in texts:
            words = text.split()
            fresh_text = text
            if words[0] in ("SHAPE", "NEAREST"):
                position = 2 if words[0] == "SHAPE" else 3
                words[position] = str(to_fresh[int(words[position])])
                fresh_text = " ".join(words)
            got = [_by_name(m) for m in db.query(parse_query(text, db), cache=False)]
            want = [_by_name(m) for m in fresh.query(parse_query(fresh_text, fresh), cache=False)]
            if got != want:
                failed += 1
                print(f"# check failed: {text!r} differs from a rebuilt database",
                      file=sys.stderr)
        return len(texts), failed


def _by_name(match) -> tuple:
    return (match.name, match.grade, match.deviations, match.positions)


WORKLOADS = {w.name: w for w in (IngestEcg, QueryZipf, ServeMixed)}


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


@dataclass
class Phase:
    """What one timed phase did."""

    #: ``(kind, seconds)`` of every timed op, in the order run.
    ops: "list[tuple[str, float]]" = field(default_factory=list)
    busy_s: float = 0.0
    wall_s: float = 0.0
    points: int = 0
    failed: int = 0
    #: :func:`reference_seconds` samples taken during the phase.
    references: "list[float]" = field(default_factory=list)
    #: Ops completed when each reference sample was taken.
    reference_at: "list[int]" = field(default_factory=list)
    cache_before: dict = field(default_factory=dict)
    cache_after: dict = field(default_factory=dict)

    @property
    def n_ops(self) -> int:
        return len(self.ops)

    @property
    def latencies(self) -> "dict[str, list[float]]":
        """Wall-clock op seconds by kind."""
        return _by_kind(self.ops)

    def sample_reference(self) -> None:
        self.references.append(reference_seconds())
        self.reference_at.append(len(self.ops))

    def nominal_ops(self) -> "list[tuple[str, float]]":
        """``ops`` at the nominal speed.

        The machine's speed swings within a second, so each op is scaled
        by the reference samples taken just before and just after it
        rather than by the phase's mean.  On a shared 2-vCPU host, over
        6-10 seeds per workload, this cut the spread across seeds of the
        p50 on every workload (most on ingest_ecg, 0.08 -> 0.03 of the
        median) and of the tail on ingest_ecg and query_zipf; the
        serve_mixed tail, collector pauses, spread about as before.
        """
        scaled = []
        for index, (kind, seconds) in enumerate(self.ops):
            split = bisect.bisect_right(self.reference_at, index)
            near = self.references[max(0, split - REFERENCE_WINDOW) : split + REFERENCE_WINDOW]
            scaled.append((kind, seconds * REFERENCE_S / statistics.fmean(near)))
        return scaled


def _by_kind(ops: "list[tuple[str, float]]") -> "dict[str, list[float]]":
    grouped: "dict[str, list[float]]" = {}
    for kind, seconds in ops:
        grouped.setdefault(kind, []).append(seconds)
    return grouped


def run_phase(
    workload: Workload,
    state: State,
    seconds: "float | None" = None,
    n_ops: "int | None" = None,
    tracer: "tracing.Tracer | None" = None,
) -> Phase:
    """Run ops until ``seconds`` of op time (or exactly ``n_ops`` ops).

    A workload with ``whole_rounds`` runs on to the end of its round.

    The reference task is timed before the first op and after every
    ``REFERENCE_EVERY_S`` of op time, outside the op timings.  Ops that
    end a phase are followed by no sample; their scale comes from the
    samples before them.
    """
    phase = Phase(cache_before=state.db.cache_stats())
    ops = workload.ops()
    parse = parse_query if tracer is None else tracer.timed("language.parse", parse_query)
    gc.collect()
    count = 0
    wall_start = time.perf_counter()
    root = tracer.begin("bench.run") if tracer is not None else None
    phase.sample_reference()
    since_reference = 0.0
    while True:
        op = next(ops)
        if n_ops is not None:
            if count >= n_ops:
                break
        elif phase.busy_s >= seconds and (op[0] == "reset" or not workload.whole_rounds):
            break
        if op[0] == "reset":
            workload.reset(state)
            continue
        if tracer is not None:
            tracer.op = count
            span = tracer.begin("bench.op")
        start = time.perf_counter()
        try:
            workload.execute(state, op, parse)
        except Exception:  # a failed op is counted, reported, and the stream goes on
            phase.failed += 1
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end(span)
        phase.busy_s += elapsed
        phase.ops.append((op[0], elapsed))
        phase.points += workload.points(op)
        count += 1
        since_reference += elapsed
        if since_reference >= REFERENCE_EVERY_S:
            phase.sample_reference()
            since_reference = 0.0
    if tracer is not None:
        tracer.end(root)
        tracer.op = -1
    phase.wall_s = time.perf_counter() - wall_start
    phase.cache_after = state.db.cache_stats()
    return phase


def timed_setup(
    workload: Workload, tracer: "tracing.Tracer | None" = None
) -> "tuple[State, float, list[float]]":
    """Build the workload's starting database.

    Returns it with the seconds taken and the reference task's times
    just before and just after.
    """
    prepare = (lambda db: tracing.instrument(tracer, db)) if tracer is not None else (lambda db: None)
    gc.collect()
    around = [reference_seconds() for __ in range(REFERENCE_AROUND_SETUP)]
    root = tracer.begin("bench.setup") if tracer is not None else None
    start = time.perf_counter()
    state = workload.setup(prepare)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end(root)
    around.extend(reference_seconds() for __ in range(REFERENCE_AROUND_SETUP))
    return state, elapsed, around


def nominal(seconds: float, references: "list[float]") -> float:
    """``seconds`` at the nominal speed, given reference samples taken around them."""
    return seconds * REFERENCE_S / statistics.fmean(references)


def tail(values: "list[float]") -> "tuple[float, float]":
    """``(percentile, value)``: the highest percentile up to p99 with at
    least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 1.0, ordered[-1]
    q = min(TAIL_PERCENTILE, 1.0 - 10.0 / n)
    return q, ordered[max(0, math.ceil(q * n) - 1)]


def cache_delta(phase: Phase) -> dict:
    return {
        key: phase.cache_after.get(key, 0) - phase.cache_before.get(key, 0)
        for key in ("hits", "misses", "evictions", "delta_hits", "delta_fallbacks", "topk_refills")
    }


def stored_ratio(db: SequenceDatabase) -> float:
    report = db.storage_report()
    return report["representation_bytes"] / report["raw_bytes"]


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:28s} {value:14.6g} {unit:9s} {note}".rstrip())


def provenance(args, workload: Workload, state: State, phase: Phase) -> None:
    kinds = {kind: len(values) for kind, values in sorted(phase.latencies.items())}
    cache = cache_delta(phase)
    reads = kinds.get("read", 0)
    lookups = cache["hits"] + cache["misses"]
    print(
        f"# perfbench workload={workload.name} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}"
    )
    print(
        f"# nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} shards={gen.N_SHARDS} executor=serial"
    )
    report = state.db.storage_report()
    print(
        f"# corpus: setup_points={state.setup_points} live_sequences={report['sequences']} "
        f"live_points={report['total_points']} segments={report['total_segments']}"
    )
    print(f"# ops: {kinds} timed_points={phase.points} failed={phase.failed}")
    print(f"# time: busy_s={phase.busy_s:.4f} wall_s={phase.wall_s:.4f} (raw)")
    print(
        f"# cache: hit_ratio={cache['hits'] / lookups if lookups else 0.0:.4f} "
        f"delta_revalidated_share_of_reads={cache['delta_hits'] / reads if reads else 0.0:.4f} "
        f"delta_fallbacks={cache['delta_fallbacks']} evictions={cache['evictions']} "
        f"topk_refills={cache['topk_refills']}"
    )


def report_named(
    workload: Workload, phase: Phase, state: State, setup_s: float, nominal_ops: list
) -> None:
    """The per-kind figures at nominal speed, printed with their sample counts."""
    if workload.timed_ingest:
        rate = phase.points / sum(seconds for __, seconds in nominal_ops)
        _line("ingest_points_per_s", rate, "points/s", "timed ingest")
    else:
        _line("ingest_points_per_s", state.setup_points / setup_s, "points/s", "set-up ingest")
    scaled = _by_kind(nominal_ops)
    reads = scaled.get("read", [])
    writes = [x for kind, values in scaled.items() if kind != "read" for x in values]
    deletes = scaled.get("delete", [])
    if reads:
        q, value = tail(reads)
        _line("query_p50_ms", 1e3 * statistics.median(reads), "ms", f"n={len(reads)}")
        _line(f"query_p{100 * q:g}_ms", 1e3 * value, "ms", f"n={len(reads)}")
        _line("query_qps", len(reads) / sum(reads), "1/s", "closed loop, 1 client")
    if writes:
        q, value = tail(writes)
        _line("write_p50_ms", 1e3 * statistics.median(writes), "ms", f"n={len(writes)}")
        _line(f"write_p{100 * q:g}_ms", 1e3 * value, "ms", f"n={len(writes)}")
    if deletes:
        _line("delete_p50_ms", 1e3 * statistics.median(deletes), "ms", f"n={len(deletes)}")


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def untraced(args, workload: Workload) -> dict:
    setups = []
    references = []
    for __ in range(workload.setup_repeats):
        state = None  # free the previous build first
        state, elapsed, around = timed_setup(workload)
        setups.append(elapsed)
        references.extend(around)
    phase = run_phase(workload, state, seconds=args.seconds)
    rss = rss_mb()
    ratio = stored_ratio(state.db)
    provenance(args, workload, state, phase)
    checked, check_failed = workload.check(state)
    setup_scale = REFERENCE_S / statistics.fmean(references)
    setup_s = setup_scale * statistics.median(setups)
    nominal_ops = phase.nominal_ops()
    latencies = [seconds for __, seconds in nominal_ops]
    raw = [seconds for __, seconds in phase.ops]
    q, tail_value = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_value, "ms"),
        "rss_peak_mb": (rss, "MB"),
        "stored_bytes_per_raw_byte": (ratio, "ratio"),
    }
    attempted = phase.n_ops + checked
    failed = phase.failed + check_failed
    print(
        f"# speed: reference task mean {1e3 * statistics.fmean(references):.4f} ms over "
        f"{len(references)} samples around set-up (set-up x{setup_scale:.4f}), "
        f"{1e3 * statistics.fmean(phase.references):.4f} ms over {len(phase.references)} "
        f"samples in the timed phase (ops x{sum(latencies) / phase.busy_s:.4f} overall); "
        f"nominal {1e3 * REFERENCE_S:g} ms"
    )
    print(
        f"# unscaled: setup_s={statistics.median(setups):.4f} "
        f"(builds {[round(x, 4) for x in setups]}) ops_per_s={phase.n_ops / phase.busy_s:.6g} "
        f"op_p50_ms={1e3 * statistics.median(raw):.6g} "
        f"op_tail_ms={1e3 * tail(raw)[1]:.6g}"
    )
    for name, (value, unit) in metrics.items():
        note = {"op_p50_ms": f"n={len(latencies)}",
                "op_tail_ms": f"p{100 * q:g} of n={len(latencies)}"}.get(name, "")
        _line(name, value, unit, note)
    report_named(workload, phase, state, setup_s, nominal_ops)
    _line("failed_op_ratio", failed / attempted, "ratio", f"{failed} of {attempted}")
    return _result(failed, attempted, metrics)


def traced(args, workload: Workload) -> dict:
    # A throwaway build first, so the traced pass and the untraced
    # replay of the same ops both start from a heap already grown to
    # the database's size; their ratio, each side at nominal speed, is
    # the tracing overhead.  The per-layer times are wall-clock seconds.
    timed_setup(workload)
    gc.collect()

    tracer = tracing.Tracer()
    state, setup_traced, traced_refs = timed_setup(workload, tracer)
    before = state.db.storage_report()
    phase = run_phase(workload, state, seconds=args.seconds, tracer=tracer)
    tracer.uninstall()
    after = state.db.storage_report()
    provenance(args, workload, state, phase)
    checked, check_failed = workload.check(state)
    metrics = layer_metrics(tracer, phase, before, after)
    traced_wall = setup_traced + phase.wall_s
    state = None
    gc.collect()

    # Self times telescope to the root spans' durations; compare them
    # with the harness's own clock around those roots, and require every
    # span closed and no child outlasting its parent.
    __, selfs = tracer.durations()
    self_total = sum(selfs) / 1e9
    metrics["tracing.self_sum_ratio"] = (self_total / traced_wall, "ratio")
    nested_ok = all(tracer.ends) and min(selfs) >= 0
    tracer.write(OUT_DIR / f"trace-{workload.name}-{args.seed}.json")
    print("# self time per layer (traced set-up + timed phase):")
    for layer, seconds in sorted(tracer.layer_self_seconds().items(), key=lambda kv: -kv[1]):
        print(f"#   {layer:14s} {seconds:10.4f} s  {100 * seconds / self_total:5.1f}%")
    # The spans go before the replay: their lists would slow its collections.
    tracer = None
    gc.collect()

    state, setup_plain, plain_refs = timed_setup(workload)
    plain = run_phase(workload, state, n_ops=phase.n_ops)
    state = None
    gc.collect()
    traced_s = nominal(setup_traced, traced_refs) + sum(s for __, s in phase.nominal_ops())
    plain_s = nominal(setup_plain, plain_refs) + sum(s for __, s in plain.nominal_ops())
    metrics["tracing.overhead_ratio"] = (traced_s / plain_s, "ratio")

    # Memory attribution under tracemalloc (fixed op prefix).
    tracemalloc.start(1)
    try:
        state = timed_setup(workload)[0]
        run_phase(workload, state, n_ops=MEMORY_OPS[workload.name])
        traced_bytes = tracemalloc.get_traced_memory()[0]
        groups = tracing.memory_by_subpackage(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    for group, size in groups.items():
        metrics[f"mem.{group}_mb"] = (size / 2**20, "MB")
    metrics["mem.total_mb"] = (traced_bytes / 2**20, "MB")
    grouped = sum(groups.values())
    memory_ok = abs(grouped - traced_bytes) <= 0.02 * traced_bytes
    print(f"# memory groups sum {grouped / 2**20:.2f} MB vs traced {traced_bytes / 2**20:.2f} MB"
          f" ({'ok' if memory_ok else 'MISMATCH'})")
    self_ok = nested_ok and abs(metrics["tracing.self_sum_ratio"][0] - 1.0) <= 0.03
    for name, (value, unit) in metrics.items():
        _line(name, value, unit)
    attempted = phase.n_ops + checked + 2
    failed = phase.failed + check_failed + (not memory_ok) + (not self_ok)
    return _result(failed, attempted, metrics)


def layer_metrics(tracer: "tracing.Tracer", phase: Phase, before: dict, after: dict) -> dict:
    outer = tracer.outer_seconds
    counts = tracer.counts
    cache = cache_delta(phase)
    lookups = cache["hits"] + cache["misses"]

    def delta(section: str, key: str) -> int:
        # Missing telemetry (a layer removed later) reads as 0.
        return after.get(section, {}).get(key, 0) - before.get(section, {}).get(key, 0)

    pruned = delta("topk", "members_pruned")
    refined = delta("topk", "candidates_refined")
    candidates = counts["executor.candidates_in"]
    mutators = {f"database.{m}" for m in tracing.DB_MUTATORS}
    metrics = {
        "segmentation.busy_s": (outer({"segmentation.represent", "segmentation.extend"}), "s"),
        "segmentation.points": (counts["segmentation.points"], "count"),
        "index.trie_add_s": (outer({"index.trie_add"}), "s"),
        "index.trie_update_s": (outer({"index.trie_update"}), "s"),
        "index.trie_remove_s": (outer({"index.trie_remove"}), "s"),
        "index.rr_write_s": (outer({"index.rr_write"}), "s"),
        "storage.write_s": (outer({"storage.write"}), "s"),
        "storage.read_s": (outer({"storage.read"}), "s"),
        "store.write_s": (outer({"store.write"}), "s"),
        "database.write_self_s": (tracer.self_seconds(mutators), "s"),
        "database.query_self_s": (tracer.self_seconds({"database.query"}), "s"),
        "language.parse_s": (outer({"language.parse"}), "s"),
        "planner.plan_s": (outer({"planner.plan"}), "s"),
        "executor.probe_s": (outer({"executor.probe"}), "s"),
        "executor.prefilter_s": (outer({"executor.prefilter"}), "s"),
        "executor.grade_s": (outer({"executor.grade"}), "s"),
        "executor.residual_s": (outer({"executor.residual"}), "s"),
        "executor.topk_s": (outer({"executor.topk"}), "s"),
        "executor.collect_s": (outer({"executor.collect"}), "s"),
        "executor.self_s": (tracer.self_seconds({"executor.execute"}), "s"),
        "executor.candidates_in": (candidates, "count"),
        "executor.matches_out": (counts["executor.matches_out"], "count"),
        "executor.matches_per_candidate": (
            counts["executor.matches_out"] / candidates if candidates else 0.0, "ratio"),
        "executor.snapshot_retries": (delta("executor", "snapshot_retries"), "count"),
        "executor.locked_fallbacks": (delta("executor", "locked_fallbacks"), "count"),
        "cache.lookup_s": (outer({"cache.lookup"}), "s"),
        "cache.store_s": (_store_outside_revalidate(tracer), "s"),
        "cache.revalidate_s": (outer({"cache.revalidate"}), "s"),
        "cache.hit_ratio": (cache["hits"] / lookups if lookups else 0.0, "ratio"),
        "cache.delta_hits": (cache["delta_hits"], "count"),
        "cache.delta_fallbacks": (cache["delta_fallbacks"], "count"),
        "cache.evictions": (cache["evictions"], "count"),
        "cache.topk_refills": (cache["topk_refills"], "count"),
        "clustering.pruned_fraction": (
            pruned / (pruned + refined) if pruned + refined else 0.0, "ratio"),
        "bench.harness_s": (tracer.self_seconds({"bench.run", "bench.setup", "bench.op"}), "s"),
    }
    return metrics


def _store_outside_revalidate(tracer: "tracing.Tracer") -> float:
    durations, __ = tracer.durations()
    total = 0
    for index, name in enumerate(tracer.names):
        if name == "cache.store":
            parent = tracer.parents[index]
            if parent < 0 or tracer.names[parent] != "cache.revalidate":
                total += durations[index]
    return total / 1e9


def _result(failed: int, attempted: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload](args.seed)
    result = traced(args, workload) if args.trace else untraced(args, workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
