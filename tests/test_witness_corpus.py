"""Pinned witnesses of `solve` on split+1 colorings.

Each case is the extremal split coloring of a pair with one extra vertex in
A (``a+1``) or in B (``b+1``), in its plain or swapped orientation, with 0, 1
or 8 triples flipped.  The flips are drawn by ``random.Random`` seeded with
the case label, so every process draws the same ones.  The expected
witnesses live in ``witness_corpus.json`` next to this file; a change to the
search that alters any of them fails here.

Regenerate the data (only when a witness change is intended, and list it in
CHANGES.md) with ``PYTHONPATH=src python tests/test_witness_corpus.py``.
"""

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


def _solve_quietly(pair, c):
    # flipped cases may finish by completion, which warns
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return solve(pair, c)


EXPECTED = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
CASES = list(_cases())


def test_corpus_covers_every_case():
    assert sorted(EXPECTED) == sorted(label for label, _, _ in CASES)


@pytest.mark.parametrize("label,pair,c", CASES, ids=[case[0] for case in CASES])
def test_witness_is_pinned(label, pair, c):
    w = _solve_quietly(pair, c)
    assert verify_witness(c, w)
    assert _witness_line(w) == EXPECTED[label]


if __name__ == "__main__":
    data = {label: _witness_line(_solve_quietly(pair, c)) for label, pair, c in CASES}
    CORPUS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} witnesses to {CORPUS}")
