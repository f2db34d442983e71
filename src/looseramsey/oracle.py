"""Brute-force ground truth for monochromatic loose structures.

One search kernel, _search, serves every structure search: a depth-first
walk over vertex sequences, one loose edge at a time, over an edge
predicate, memoizing failed (used-vertex-set, end-vertex) states so a
negative answer is a complete proof of absence.  find_mono_path and
find_mono_cycle run it over all vertices with a colour-class test;
find_loose_path_from_edges and find_loose_cycle_from_edges run it over
the vertices of an edge family with a membership test.  Exhaustive
enumeration iterates every red bitmap of K3_N (only feasible for
C(N,3) <= 24) with the work vectorized over bitmap chunks.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .core import (
    CYCLE,
    PATH,
    RED,
    Coloring,
    TripleEdge,
    Witness,
    colex_rank,
    validate_loose_cycle,
    validate_loose_path,
)

ENUMERATION_BUDGET_BITS = 24


class _ColorTest:
    """Membership test for one color class of a coloring.

    Each call shifts the whole colex bitmap, so a lookup costs
    O(C(N,3)/64) machine words, not O(1).  That is cheap for the oracle's
    small N and for the extractor's greedy path; the extractor's move search
    and chaining read link tables instead.
    """

    __slots__ = ("bits", "c2", "c3")

    def __init__(self, coloring: Coloring, color: str) -> None:
        bits = coloring.red_bits
        if color != RED:
            bits ^= (1 << coloring.n_triples) - 1
        self.bits = bits
        n = coloring.n_vertices
        self.c2 = [comb(i, 2) for i in range(n + 1)]
        self.c3 = [comb(i, 3) for i in range(n + 1)]

    def __call__(self, x: int, y: int, z: int) -> bool:
        if x > y:
            x, y = y, x
        if y > z:
            y, z = z, y
        if x > y:
            x, y = y, x
        return (self.bits >> (self.c3[z] + self.c2[y] + x)) & 1 == 1


def _search(
    verts: Sequence[int], test: Callable[[int, int, int], bool], shape: str, length: int
) -> Optional[List[int]]:
    """First loose path or cycle of the given length on verts whose every edge
    passes test, as a vertex sequence, or None when none exists.

    Vertices are tried in the order of verts.  A path fixes v1 < v2 (its
    first two positions are interchangeable); a cycle runs from each start
    vertex in turn and closes with the first unused z.  Failed (used, end)
    states are memoized, so None is a complete proof of absence.  Whether a
    cycle closes depends on its start, so the memo is cleared whenever the
    start advances.
    """
    cycle = shape == CYCLE
    failed: Set[Tuple[int, int]] = set()

    def extend(used: int, end: int, seq: List[int], remaining: int) -> bool:
        if remaining == 0:
            if not cycle:
                return True
            for z in verts:
                if not used >> z & 1 and test(end, z, seq[0]):
                    seq.append(z)
                    return True
            return False
        if (used, end) in failed:
            return False
        for mid in verts:
            if used >> mid & 1:
                continue
            for new_end in verts:
                if new_end == mid or used >> new_end & 1:
                    continue
                if test(end, mid, new_end):
                    seq.append(mid)
                    seq.append(new_end)
                    if extend(used | 1 << mid | 1 << new_end, new_end, seq, remaining - 1):
                        return True
                    seq.pop()
                    seq.pop()
        failed.add((used, end))
        return False

    for i, v1 in enumerate(verts):
        if cycle:
            failed.clear()
        for v2 in verts if cycle else verts[i + 1 :]:
            if v2 == v1:
                continue
            for v3 in verts:
                if v3 == v1 or v3 == v2 or not test(v1, v2, v3):
                    continue
                seq = [v1, v2, v3]
                if extend(1 << v1 | 1 << v2 | 1 << v3, v3, seq, length - 1 - cycle):
                    return seq
    return None


def find_mono_path(coloring: Coloring, color: str, length: int) -> Optional[Witness]:
    """Complete search for a monochromatic loose path of the given length.

    Deterministic: vertices are tried in ascending label order, so the
    returned witness is the first sequence under that order.
    """
    if length < 1:
        raise ValueError(f"path length {length} below minimum 1")
    n = coloring.n_vertices
    if 2 * length + 1 > n:
        raise ValueError(f"P_{length} needs {2 * length + 1} vertices, coloring has {n}")
    seq = _search(range(n), _ColorTest(coloring, color), PATH, length)
    return None if seq is None else Witness(color, PATH, validate_loose_path(seq))


def find_mono_cycle(coloring: Coloring, color: str, length: int) -> Optional[Witness]:
    """Complete search for a monochromatic loose cycle of the given length."""
    if length < 3:
        raise ValueError(f"cycle length {length} below minimum 3")
    n = coloring.n_vertices
    if 2 * length > n:
        raise ValueError(f"C_{length} needs {2 * length} vertices, coloring has {n}")
    seq = _search(range(n), _ColorTest(coloring, color), CYCLE, length)
    return None if seq is None else Witness(color, CYCLE, validate_loose_cycle(seq))


def longest_mono_path(coloring: Coloring, color: str) -> Tuple[int, Optional[Witness]]:
    """Largest l admitting a monochromatic loose path, with a witness.

    A prefix of a loose path is a loose path, so the first failing length
    settles the maximum.
    """
    best: Optional[Witness] = None
    length = 0
    while 2 * (length + 1) + 1 <= coloring.n_vertices:
        found = find_mono_path(coloring, color, length + 1)
        if found is None:
            break
        best = found
        length += 1
    return length, best


def _structure_masks(n_vertices: int, shape: str, length: int) -> List[int]:
    """Edge-rank bitmasks of every copy of the target structure in K3_N."""
    if shape not in (PATH, CYCLE):
        raise ValueError(f"unknown target shape {shape!r}")
    masks: List[int] = []
    seen = set()

    def record(seq: Sequence[int]) -> None:
        if shape == PATH:
            edges = validate_loose_path(seq).edges
        else:
            edges = validate_loose_cycle(seq).edges
        ranks = frozenset(colex_rank(e) for e in edges)
        if ranks not in seen:
            seen.add(ranks)
            mask = 0
            for r in ranks:
                mask |= 1 << r
            masks.append(mask)

    n_verts_needed = 2 * length + 1 if shape == PATH else 2 * length
    if n_verts_needed > n_vertices:
        return masks

    import itertools

    for combo in itertools.permutations(range(n_vertices), n_verts_needed):
        record(combo)
    return masks


def exhaustive_avoidance_search(
    n_vertices: int,
    red_target: Tuple[str, int],
    blue_target: Tuple[str, int],
    mode: str = "find-one",
):
    """Iterate all 2^C(N,3) colorings of K3_N.

    mode "find-one": least red bitmap avoiding both targets, as a Coloring,
    or None.  mode "count": number of avoiding colorings.
    """
    n_triples = comb(n_vertices, 3)
    if n_triples > ENUMERATION_BUDGET_BITS:
        raise ValueError(
            f"C({n_vertices},3) = {n_triples} exceeds enumeration budget "
            f"2^{ENUMERATION_BUDGET_BITS}"
        )
    if mode not in ("find-one", "count"):
        raise ValueError(f"unknown mode {mode!r}")

    red_masks = np.array(
        _structure_masks(n_vertices, *red_target), dtype=np.uint32
    )
    blue_masks = np.array(
        _structure_masks(n_vertices, *blue_target), dtype=np.uint32
    )

    total = 1 << n_triples
    chunk = 1 << 20
    count = 0
    for base in range(0, total, chunk):
        hi = min(base + chunk, total)
        x = np.arange(base, hi, dtype=np.uint32)
        hit = np.zeros(hi - base, dtype=bool)
        for mask in red_masks:
            hit |= (x & mask) == mask
        for mask in blue_masks:
            hit |= (x & mask) == 0
        avoid = ~hit
        if mode == "find-one":
            idx = np.flatnonzero(avoid)
            if idx.size:
                return Coloring(n_vertices, base + int(idx[0]))
        else:
            count += int(np.count_nonzero(avoid))
    return None if mode == "find-one" else count


def _family_search(
    edges: Iterable[TripleEdge], shape: str, length: int
) -> Optional[List[int]]:
    """_search over the vertices of an edge family, testing membership."""
    masks: Set[int] = set()
    verts: Set[int] = set()
    for a, b, c in edges:
        masks.add(1 << a | 1 << b | 1 << c)
        verts.update((a, b, c))

    def member(x: int, y: int, z: int) -> bool:
        return (1 << x | 1 << y | 1 << z) in masks

    return _search(sorted(verts), member, shape, length)


def find_loose_path_from_edges(
    edges: Iterable[TripleEdge], length: int
) -> Optional[List[int]]:
    """Loose path of the given length using only edges from the family.

    Returns the vertex sequence, or None.  Used to assemble structures
    whose candidate edges are already known to be one color.
    """
    if length < 1:
        return None
    return _family_search(edges, PATH, length)


def find_loose_cycle_from_edges(
    edges: Iterable[TripleEdge], length: int
) -> Optional[List[int]]:
    """Loose cycle of the given length using only edges from the family."""
    if length < 3:
        return None
    return _family_search(edges, CYCLE, length)
