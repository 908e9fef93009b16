"""Seeded input generators for the end-to-end benchmark.

Everything a workload feeds the database is produced here from the
run's ``--seed``: the corpora, the Zipf-skewed query stream and the
interleaved read/write op stream.  The generators never touch a
database; they only need the ids the database will assign, which are
deterministic (sequential, never reused), so the same seed always
yields the same inputs and the same op stream, byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterator

import numpy as np

from repro.core.sequence import Sequence
from repro.workloads import clickstream_corpus, ecg_corpus

#: Shard count of every workload's database (serial executor).
N_SHARDS = 4

#: ``ingest_ecg``: each round ingests the same ``ECG_ROUND`` recordings
#: into a fresh database, ``ECG_BATCH`` per request (one pipeline flush,
#: i.e. one ``insert_all``), so every round does identical work and the
#: peak footprint does not depend on how many rounds fit in a run.
ECG_POINTS = 2000
ECG_ROUND = 512
ECG_BATCH = 16
#: Recordings ingested during set-up, so first-call costs stay out of
#: the timed phase.
ECG_WARMUP = 64

#: ``query_zipf`` / ``serve_mixed`` set-up corpus and its batching.
CLICK_SEQUENCES = 2000
SETUP_BATCH = 250

#: Zipf exponent of the per-form rank distribution in ``query_zipf``:
#: about 0.3 of requests hit the default result cache, so the median
#: request is a miss rather than sitting on the hit/miss boundary.
ZIPF_S = 0.7
#: Strata of each form's parameter space in the Zipf rank order.
ZIPF_STRATA = 16
#: The language forms; ``query_zipf`` deals them in shuffled blocks of
#: one each, so every seed sends each form the same share.
FORMS = ("PEAKS", "INTERVAL", "STEEPNESS", "PATTERN", "SHAPE", "NEAREST", "COUNT", "POSITIONS")

#: ``serve_mixed``: one write after every ``READS_PER_WRITE`` reads,
#: write kinds dealt from shuffled blocks of this composition.
READS_PER_WRITE = 8
WRITE_BLOCK = {"append": 17, "insert": 2, "delete": 1}
#: Fresh sequences per ``insert_all`` write.  One size for all, so the
#: write latencies have no per-size modes for a percentile to straddle.
INSERT_SIZE = 3
#: Hot-set texts per form (64 in all, within the cache's 256 entries);
#: drawn with a fixed seed, so the hot set is the same for every run.
HOT_PER_FORM = 8
HOT_SEED = 2

_SYMBOLS = "+-0"


def derive_seed(seed: int, *labels: object) -> int:
    """A stable 32-bit sub-seed for one named stream of one run."""
    text = json.dumps([int(seed), *[str(label) for label in labels]])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


def _motifs(lengths: "range") -> "list[str]":
    motifs = [""]
    out: "list[str]" = []
    for length in range(1, max(lengths) + 1):
        motifs = [m + s for m in motifs for s in _SYMBOLS]
        if length in lengths:
            out.extend(motifs)
    return out


def query_space(exemplar_ids: "list[int]") -> "dict[str, list[str]]":
    """Every query text of the parameter space, per language form.

    ``SHAPE OF`` and ``NEAREST ... TO`` name stored exemplars, drawn
    from ``exemplar_ids``; every other form is database-independent.
    """
    space: "dict[str, list[str]]" = {}
    space["PEAKS"] = [
        f"PEAKS {k}" if t == 0 else f"PEAKS {k} TOLERANCE {t}"
        for k in range(10)
        for t in range(3)
    ]
    space["INTERVAL"] = [
        f"INTERVAL {target / 2:g} +/- {delta:g}"
        for target in range(8, 121)
        for delta in (0.5, 1, 2, 4)
    ]
    space["STEEPNESS"] = [
        f"STEEPNESS {slope / 4:g} TOLERANCE {tol:g}"
        for slope in range(2, 81)
        for tol in (0.25, 0.5, 1, 2)
    ]
    goalposts = []
    for rises in range(1, 5):
        for step, rest in (("+", "(0|-)"), ("-", "(0|+)")):
            inner = f" {rest}^+ {step}" * (rises - 1)
            goalposts.append(f"{rest}* {step}{inner} {rest}*")
    space["PATTERN"] = [f"PATTERN '{p}'" for p in goalposts] + [
        f"PATTERN '.* {' '.join(motif)} .*'" for motif in _motifs(range(2, 5))
    ]
    space["SHAPE"] = [
        f"SHAPE OF {sid}" if tol == 0.1 else f"SHAPE OF {sid} DURATION {tol:g} AMPLITUDE {tol:g}"
        for tol in (0.1, 0.2, 0.3)
        for sid in exemplar_ids
    ]
    space["NEAREST"] = [f"NEAREST {k} TO {sid}" for k in (1, 5, 10, 20) for sid in exemplar_ids]
    for form, keyword in (("COUNT", "COUNT MATCHING"), ("POSITIONS", "POSITIONS OF")):
        space[form] = [
            f"{keyword} '{motif}'{suffix}"
            for suffix in ("", " POSITIONAL")
            for motif in _motifs(range(1, 5))
        ]
    return space


def form_of(text: str) -> str:
    """The language form (one of ``FORMS``) of one query text."""
    return text.split()[0].upper()


def click_corpus(seed: int) -> "list[Sequence]":
    """The ``query_zipf`` / ``serve_mixed`` set-up corpus."""
    return clickstream_corpus(CLICK_SEQUENCES, seed=derive_seed(seed, "click"))


def ecg_recordings(seed: int) -> "list[Sequence]":
    """The recordings every ``ingest_ecg`` round ingests."""
    return ecg_corpus(ECG_ROUND, n_points=ECG_POINTS, seed=derive_seed(seed, "ecg"))


def ecg_warmup(seed: int) -> "list[Sequence]":
    """The set-up batch ingested before the timed ``ingest_ecg`` phase."""
    warmup = ecg_corpus(ECG_WARMUP, n_points=ECG_POINTS, seed=derive_seed(seed, "ecg-warmup"))
    return [
        Sequence(recording.times, recording.values, name=f"ecg-warmup-{i}")
        for i, recording in enumerate(warmup)
    ]


def stratified(n: int, k: int, rng: np.random.Generator) -> "list[int]":
    """A seeded order of ``range(n)`` that visits ``k`` contiguous strata in turn.

    Position ``i`` comes from stratum ``i % k`` (strata in a seeded
    order, members shuffled within each), so any prefix spreads evenly
    over the parameter range and seeds differ only within strata.
    """
    strata = [rng.permutation(part).tolist() for part in np.array_split(np.arange(n), k)]
    turn = rng.permutation(k).tolist()
    order: "list[int]" = []
    for i in range(max(len(stratum) for stratum in strata)):
        order.extend(strata[s][i] for s in turn if i < len(strata[s]))
    return order


def _zipf_weights(n: int, s: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=float) ** s
    return weights / weights.sum()


def zipf_queries(seed: int, n_ids: int) -> Iterator[str]:
    """The unbounded ``query_zipf`` request stream.

    Forms are dealt in shuffled blocks of ``FORMS``; each request then
    picks a text of its form by a Zipf(``ZIPF_S``) rank over the form's
    parameter space, ranked in a seeded :func:`stratified` order so the
    most popular texts of every seed span the whole parameter range.
    """
    rng = np.random.default_rng(derive_seed(seed, "zipf"))
    space = query_space(list(range(n_ids)))
    ranked = {
        form: [space[form][i] for i in stratified(len(space[form]), ZIPF_STRATA, rng)]
        for form in FORMS
    }
    weights = {form: _zipf_weights(len(ranked[form]), ZIPF_S) for form in FORMS}
    while True:
        for form in (FORMS[int(i)] for i in rng.permutation(len(FORMS))):
            rank = int(rng.choice(len(ranked[form]), p=weights[form]))
            yield ranked[form][rank]


def hot_set(n_ids: int) -> "tuple[list[str], list[int]]":
    """The ``serve_mixed`` read set and the exemplar ids it names.

    ``HOT_PER_FORM`` texts per form, one from each of as many strata of
    the form's parameter space.  The set is the same for every seed, so
    seeds vary the data, the read order and the writes but not which
    queries are hot.  The exemplars of its ``SHAPE OF`` / ``NEAREST``
    queries are protected from writes, so no read ever names a deleted
    or reshaped sequence.
    """
    rng = np.random.default_rng(HOT_SEED)
    exemplars = sorted(stratified(n_ids, HOT_PER_FORM, rng)[:HOT_PER_FORM])
    space = query_space(exemplars)
    texts = []
    for form in FORMS:
        picks = stratified(len(space[form]), HOT_PER_FORM, rng)[:HOT_PER_FORM]
        texts.extend(space[form][i] for i in sorted(picks))
    return texts, exemplars


def mixed_ops(seed: int, n_ids: int) -> "Iterator[tuple]":
    """The unbounded ``serve_mixed`` op stream.

    Yields ``("read", text)``, ``("append", id, values)``,
    ``("insert", [Sequence, ...])`` and ``("delete", id)``.  Live ids
    are tracked exactly as the database assigns them (sequential from
    ``n_ids``, never reused), so every write names a live, unprotected
    sequence.
    """
    rng = np.random.default_rng(derive_seed(seed, "mixed"))
    texts, protected = hot_set(n_ids)
    live = sorted(set(range(n_ids)) - set(protected))
    next_id = n_ids
    block = [kind for kind, count in WRITE_BLOCK.items() for __ in range(count)]
    fresh = 0
    while True:
        for kind in (block[int(i)] for i in rng.permutation(len(block))):
            for __ in range(READS_PER_WRITE):
                yield ("read", texts[int(rng.integers(len(texts)))])
            if kind == "append":
                target = live[int(rng.integers(len(live)))]
                n = int(rng.integers(8, 25))
                level = float(rng.uniform(5.0, 40.0))
                values = np.abs(level + np.cumsum(rng.normal(0.0, 3.0, size=n)))
                yield ("append", target, values)
            elif kind == "insert":
                batch = clickstream_corpus(INSERT_SIZE, seed=derive_seed(seed, "fresh", fresh))
                sequences = [
                    Sequence(s.times, s.values, name=f"fresh-{fresh}-{i}")
                    for i, s in enumerate(batch)
                ]
                fresh += 1
                live.extend(range(next_id, next_id + INSERT_SIZE))
                next_id += INSERT_SIZE
                yield ("insert", sequences)
            else:
                position = int(rng.integers(len(live)))
                target = live[position]
                live[position] = live[-1]
                live.pop()
                yield ("delete", target)


def op_digest(ops: "list[tuple]") -> str:
    """SHA-256 over an op-stream prefix, payload bytes included."""
    digest = hashlib.sha256()
    for op in ops:
        digest.update(op[0].encode())
        for part in op[1:]:
            if isinstance(part, np.ndarray):
                digest.update(part.tobytes())
            elif isinstance(part, list):
                for sequence in part:
                    digest.update(sequence.name.encode())
                    digest.update(np.asarray(sequence.values).tobytes())
            else:
                digest.update(str(part).encode())
    return digest.hexdigest()
