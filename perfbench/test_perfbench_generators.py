"""Tests of the benchmark's own seeded generators.

The same seed must give the identical op stream (checked by digest);
another seed must give a different stream whose realised mix stays
within tolerance of the declared one.  Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench_generators.py -q
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads as gen  # noqa: E402
from repro.query.language import parse_query  # noqa: E402

N_OPS = 2000
TOLERANCE = 0.03


def _mixed(seed: int) -> "list[tuple]":
    return list(itertools.islice(gen.mixed_ops(seed, gen.CLICK_SEQUENCES), N_OPS))


def _zipf(seed: int, n: int = 4000) -> "list[tuple]":
    return [("read", text) for text in itertools.islice(gen.zipf_queries(seed, 500), n)]


def test_mixed_stream_repeats_exactly_for_one_seed() -> None:
    assert gen.op_digest(_mixed(5)) == gen.op_digest(_mixed(5))


def test_mixed_stream_differs_across_seeds_and_keeps_its_mix() -> None:
    ops = _mixed(6)
    assert gen.op_digest(ops) != gen.op_digest(_mixed(5))
    kinds = Counter(op[0] for op in ops)
    writes = N_OPS - kinds["read"]
    assert abs(kinds["read"] / writes - gen.READS_PER_WRITE) <= TOLERANCE * gen.READS_PER_WRITE
    block = sum(gen.WRITE_BLOCK.values())
    for kind, count in gen.WRITE_BLOCK.items():
        assert abs(kinds[kind] / writes - count / block) <= TOLERANCE, kind


def test_mixed_writes_name_only_live_unprotected_sequences() -> None:
    __, protected = gen.hot_set(gen.CLICK_SEQUENCES)
    live = set(range(gen.CLICK_SEQUENCES))
    next_id = gen.CLICK_SEQUENCES
    for op in _mixed(7):
        if op[0] in ("append", "delete"):
            assert op[1] in live and op[1] not in protected
            if op[0] == "delete":
                live.remove(op[1])
        elif op[0] == "insert":
            live.update(range(next_id, next_id + len(op[1])))
            next_id += len(op[1])


def test_zipf_stream_repeats_and_covers_every_form() -> None:
    first = _zipf(3)
    assert gen.op_digest(first) == gen.op_digest(_zipf(3))
    other = _zipf(4)
    assert gen.op_digest(other) != gen.op_digest(first)
    forms = Counter(gen.form_of(op[1]) for op in other)
    for form in gen.FORMS:
        assert abs(forms[form] / len(other) - 1 / len(gen.FORMS)) <= TOLERANCE, form
    # Zipf skew: repeated texts, yet far more distinct ones than the
    # result cache's 256 entries.
    assert 256 < len({op[1] for op in other}) < len(other)


def test_every_database_independent_query_text_parses() -> None:
    space = gen.query_space([0, 1])
    for form, texts in space.items():
        if form in ("SHAPE", "NEAREST"):
            continue
        for text in texts:
            parse_query(text)


def test_corpora_are_seeded() -> None:
    def digest(sequences) -> str:
        return gen.op_digest([("insert", sequences)])

    assert digest(gen.ecg_warmup(1)) == digest(gen.ecg_warmup(1))
    assert digest(gen.ecg_warmup(1)) != digest(gen.ecg_warmup(2))
    first = gen.ecg_recordings(1)
    assert len(first) == gen.ECG_ROUND and len(first[0]) == gen.ECG_POINTS
    assert digest(first) == digest(gen.ecg_recordings(1))
    assert not np.array_equal(first[0].values, gen.ecg_recordings(2)[0].values)
    assert digest(gen.click_corpus(1)) == digest(gen.click_corpus(1))
    assert digest(gen.click_corpus(1)) != digest(gen.click_corpus(2))
