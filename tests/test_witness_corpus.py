"""Pinned witnesses of `solve` on split+1 colorings.

Each case is the extremal split coloring of a pair with one extra vertex in
A (``a+1``) or in B (``b+1``), in its plain or swapped orientation, with 0, 1
or 8 triples flipped.  The flips are drawn by ``random.Random`` seeded with
the case label, so every process draws the same ones.  The expected
witnesses live in ``witness_corpus.json`` next to this file; a change to the
search that alters any of them fails here.  ``trace_pins.json`` holds, per
case, the sha1 of the trace notes joined by newlines, so a change that keeps
a witness but alters a note (``perfbench/spans.py`` counts steps by note
prefix) fails here too.

Regenerate both files (only when a witness or note change is intended, and
list it in CHANGES.md) with ``PYTHONPATH=src python tests/test_witness_corpus.py``.
"""

import hashlib
import json
import random
import warnings
from pathlib import Path

import pytest

from looseramsey.constructions import (
    CC,
    PMCN,
    PNCM,
    PP,
    PairKind,
    SplitSpec,
    build_split_coloring,
    lower_bound_params,
)
from looseramsey.core import Coloring, verify_witness
from looseramsey.extractor import solve

CORPUS = Path(__file__).with_name("witness_corpus.json")
TRACES = Path(__file__).with_name("trace_pins.json")
SIZES = (5, 6, 7, 8)
FLIPS = (0, 1, 8)


def _cases():
    """(label, pair, coloring) for every case, in a fixed order."""
    for kind in (PP, CC, PNCM, PMCN):
        for n in SIZES:
            pair = PairKind(kind, n, n - 1 if kind == PMCN else n)
            spec = lower_bound_params(pair)
            for side, plus in (
                ("a", SplitSpec(spec.a + 1, spec.b)),
                ("b", SplitSpec(spec.a, spec.b + 1)),
            ):
                base = build_split_coloring(plus)
                for orient, c in (("plain", base), ("swapped", base.swap())):
                    for k in FLIPS:
                        label = f"{kind}{n}.{side}.{orient}.k{k}"
                        mask = 0
                        for rank in random.Random(label).sample(range(c.n_triples), k):
                            mask |= 1 << rank
                        yield label, pair, Coloring(c.n_vertices, c.red_bits ^ mask)


def _witness_line(w) -> str:
    return f"{w.color} {w.shape} " + " ".join(str(v) for v in w.structure.vertices)


def _solve_quietly(pair, c, trace=None):
    # flipped cases may finish by completion, which warns
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return solve(pair, c, trace)


def _trace_sha1(pair, c) -> str:
    trace = []
    _solve_quietly(pair, c, trace)
    return hashlib.sha1("\n".join(trace).encode()).hexdigest()


EXPECTED = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
CASES = list(_cases())


def test_corpus_covers_every_case():
    assert sorted(EXPECTED) == sorted(label for label, _, _ in CASES)


@pytest.mark.parametrize("label,pair,c", CASES, ids=[case[0] for case in CASES])
def test_witness_is_pinned(label, pair, c):
    w = _solve_quietly(pair, c)
    assert verify_witness(c, w)
    assert _witness_line(w) == EXPECTED[label]


# split+1 pp(40, 40) on N = 100 vertices: the corpus stops at N = 20, so
# only these reach colex ranks past the first few bytes of the bitmap.
# sha1 of the witness line, generated before the byte-view colour lookups.
LARGE = {
    "pp40.a.plain": "2d5957d0263a75fe41f3672cea456150a9d3f101",
    "pp40.b.swapped": "6bd4de350e51a5be736fbc13c737947f59d83144",
}


def _large_cases():
    pair = PairKind(PP, 40, 40)
    spec = lower_bound_params(pair)
    yield "pp40.a.plain", pair, build_split_coloring(SplitSpec(spec.a + 1, spec.b))
    yield "pp40.b.swapped", pair, build_split_coloring(SplitSpec(spec.a, spec.b + 1)).swap()


@pytest.mark.parametrize("label,pair,c", list(_large_cases()), ids=list(LARGE))
def test_large_witness_is_pinned(label, pair, c):
    w = solve(pair, c)
    assert verify_witness(c, w)
    assert hashlib.sha1(_witness_line(w).encode()).hexdigest() == LARGE[label]


TRACE_CASES = CASES + list(_large_cases())
EXPECTED_TRACES = json.loads(TRACES.read_text()) if TRACES.exists() else {}


def test_trace_pins_cover_every_case():
    assert sorted(EXPECTED_TRACES) == sorted(label for label, _, _ in TRACE_CASES)


@pytest.mark.parametrize("label,pair,c", TRACE_CASES, ids=[case[0] for case in TRACE_CASES])
def test_trace_is_pinned(label, pair, c):
    assert _trace_sha1(pair, c) == EXPECTED_TRACES[label]


if __name__ == "__main__":
    data = {label: _witness_line(_solve_quietly(pair, c)) for label, pair, c in CASES}
    CORPUS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} witnesses to {CORPUS}")
    traces = {label: _trace_sha1(pair, c) for label, pair, c in TRACE_CASES}
    TRACES.write_text(json.dumps(traces, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(traces)} trace digests to {TRACES}")
