"""Brute-force ground truth for monochromatic loose structures.

Search is a depth-first walk over vertex sequences, one loose edge at a
time, memoizing failed (used-vertex-set, end-vertex) states so a negative
answer is a complete proof of absence.  Exhaustive enumeration iterates
every red bitmap of K3_N (only feasible for C(N,3) <= 24) with the work
vectorized over bitmap chunks.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, List, Optional, Sequence, Tuple

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
    test = _ColorTest(coloring, color)
    failed = set()

    def extend(used: int, end: int, seq: List[int], remaining: int) -> bool:
        if remaining == 0:
            return True
        if (used, end) in failed:
            return False
        for mid in range(n):
            if used >> mid & 1:
                continue
            for new_end in range(n):
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

    # First two positions of a loose path are interchangeable; fix v1 < v2.
    for v1 in range(n):
        for v2 in range(v1 + 1, n):
            for v3 in range(n):
                if v3 == v1 or v3 == v2 or not test(v1, v2, v3):
                    continue
                seq = [v1, v2, v3]
                if extend(1 << v1 | 1 << v2 | 1 << v3, v3, seq, length - 1):
                    return Witness(color, PATH, validate_loose_path(seq))
    return None


def find_mono_cycle(coloring: Coloring, color: str, length: int) -> Optional[Witness]:
    """Complete search for a monochromatic loose cycle of the given length."""
    if length < 3:
        raise ValueError(f"cycle length {length} below minimum 3")
    n = coloring.n_vertices
    if 2 * length > n:
        raise ValueError(f"C_{length} needs {2 * length} vertices, coloring has {n}")
    test = _ColorTest(coloring, color)

    for start in range(n):
        failed = set()

        def extend(used: int, end: int, seq: List[int], remaining: int) -> bool:
            if remaining == 0:
                for z in range(n):
                    if not used >> z & 1 and test(end, z, start):
                        seq.append(z)
                        return True
                return False
            if (used, end) in failed:
                return False
            for mid in range(n):
                if used >> mid & 1:
                    continue
                for new_end in range(n):
                    if new_end == mid or used >> new_end & 1:
                        continue
                    if test(end, mid, new_end):
                        seq.append(mid)
                        seq.append(new_end)
                        if extend(
                            used | 1 << mid | 1 << new_end, new_end, seq, remaining - 1
                        ):
                            return True
                        seq.pop()
                        seq.pop()
            failed.add((used, end))
            return False

        for v2 in range(n):
            if v2 == start:
                continue
            for v3 in range(n):
                if v3 == start or v3 == v2 or not test(start, v2, v3):
                    continue
                seq = [start, v2, v3]
                if extend(1 << start | 1 << v2 | 1 << v3, v3, seq, length - 2):
                    return Witness(color, CYCLE, validate_loose_cycle(seq))
    return None


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


def find_loose_path_from_edges(
    edges: Iterable[TripleEdge], length: int
) -> Optional[List[int]]:
    """Loose path of the given length using only edges from the family.

    Returns the vertex sequence, or None.  Used to assemble structures
    whose candidate edges are already known to be one color.
    """
    pool = sorted(set(edges))
    if length < 1 or not pool:
        return None

    def extend(used: frozenset, end: int, seq: List[int], remaining: int) -> bool:
        if remaining == 0:
            return True
        for e in pool:
            if end not in e:
                continue
            rest = [v for v in e if v != end]
            if rest[0] in used or rest[1] in used:
                continue
            for mid, new_end in (rest, rest[::-1]):
                seq.append(mid)
                seq.append(new_end)
                if extend(used | {mid, new_end}, new_end, seq, remaining - 1):
                    return True
                seq.pop()
                seq.pop()
        return False

    for first in pool:
        for end_pos in range(3):
            end = first[end_pos]
            others = [v for i, v in enumerate(first) if i != end_pos]
            seq = [others[0], others[1], end]
            if extend(frozenset(first), end, seq, length - 1):
                return seq
    return None


def find_loose_cycle_from_edges(
    edges: Iterable[TripleEdge], length: int
) -> Optional[List[int]]:
    """Loose cycle of the given length using only edges from the family."""
    pool = sorted(set(edges))
    if length < 3 or not pool:
        return None

    def extend(
        used: frozenset, end: int, start: int, seq: List[int], remaining: int
    ) -> bool:
        if remaining == 0:
            for e in pool:
                if end in e and start in e:
                    (z,) = [v for v in e if v != end and v != start]
                    if z not in used:
                        seq.append(z)
                        return True
            return False
        for e in pool:
            if end not in e:
                continue
            rest = [v for v in e if v != end]
            if rest[0] in used or rest[1] in used:
                continue
            for mid, new_end in (rest, rest[::-1]):
                seq.append(mid)
                seq.append(new_end)
                if extend(used | {mid, new_end}, new_end, start, seq, remaining - 1):
                    return True
                seq.pop()
                seq.pop()
        return False

    for first in pool:
        for start_pos in range(3):
            start = first[start_pos]
            others = [v for i, v in enumerate(first) if i != start_pos]
            for mid, end in (others, others[::-1]):
                seq = [start, mid, end]
                if extend(frozenset(first), end, start, seq, length - 2):
                    return seq
    return None
