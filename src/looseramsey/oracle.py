"""Brute-force ground truth for monochromatic loose structures.

One search kernel, _search, serves every structure search: a depth-first
walk over vertex sequences, one loose edge at a time, on link-table rows
(per vertex pair, the bitset of third vertices completing an edge), with
failed states memoized, so a negative answer is a complete proof of
absence.  Twin vertices, whose exchange maps the table onto itself (every
vertex of A, or of B, in a split coloring), are interchangeable, so each
branch tries only the lowest unused vertex of a twin class: proofs of
absence on split colorings stay polynomial, and the first sequence found
stays the same.  The kernel reads only the first n vertices of its table,
so one table serves every vertex prefix of a coloring.  One class,
_LinkTables, owns a coloring's tables and derives its second colour from
the build of its first; find_mono_path and find_mono_cycle search one of
them, and the extractor, through _find_mono, those of its solve and a
cycle's boundary table, whose twin classes it passes in.  _link_table
builds a colour's table with numpy and only then makes Python ints of its
rows: up to 64 vertices each row is one word, and one scatter of the
bitmap's flags into a bool array and one packbits build them all; above
64, one chunk of largest vertices (one range of the colex bitmap) at a
time.  Below 14 vertices a walk over the triples costs less than numpy's
calls and builds it instead, and numpy is imported on the first build of
14 vertices or more (or the first enumeration), so a process that builds
none never loads it.  Exhaustive enumeration iterates every red bitmap of
K3_N (only feasible for C(N,3) <= 24) with the work vectorized over
bitmap chunks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import comb
from typing import Dict, List, Optional, Set, Tuple

from .core import (
    BLUE,
    CYCLE,
    PATH,
    RED,
    Coloring,
    Witness,
    colex_rank,
    opposite,
    validate_structure,
)

ENUMERATION_BUDGET_BITS = 24


Links = List[List[int]]
# per vertex, its twin class (the lowest member) and the mask of its lower twins
Twins = Tuple[List[int], List[int]]


# cells of a chunk's bool arrays in the multiword build, about: each chunk
# takes a multiple of 8 largest vertices, so it fills whole bytes of the rows
_CHUNK_CELLS = 1 << 20


def _packed_links(n: int, bits: int) -> np.ndarray:
    """packed[u][v], for u > v, holds the row T[u][v] of _link_table as
    little-endian bytes, padded to whole 64-bit words; for u <= v it holds
    only part of the row.

    The triples with largest vertex z occupy ranks [C(z,3), C(z+1,3)), so a
    chunk of largest vertices is one range of the bitmap.  Its flags fill
    A[z, y, x], for x < y < z, in rank order, and S = A | A.transpose(0, 2,
    1) is symmetric in its last two axes.  Row (z, a) takes its bits below
    z from S[z, a, :], and row (a, b) takes bit z from S[z, a, b]: for
    u > v, the first gives the bits of row (u, v) below u, the second
    those above.
    """
    import numpy as np

    flags = np.frombuffer(bits.to_bytes((comb(n, 3) + 7) >> 3, "little"), np.uint8)
    packed = np.zeros((n, n, 8 * -(-n // 64)), np.uint8)
    v = np.arange(n)
    below = v[:, None] > v  # [y, x]: x < y, and [z, y]: y < z
    step = max(8, _CHUNK_CELLS // max(1, n * n) & ~7)
    for z0 in range(0, n, step):
        z1 = min(n, z0 + step)
        r0, r1 = comb(z0, 3), comb(z1, 3)
        inside = below[z0:z1, :z1, None] & below[:z1, :z1]
        A = np.zeros(inside.shape, bool)
        block = np.unpackbits(flags[r0 >> 3 : (r1 + 7) >> 3], bitorder="little")
        A[inside] = block[r0 & 7 : (r0 & 7) + r1 - r0]
        S = A | A.transpose(0, 2, 1)
        packed[z0:z1, :z1, : (z1 + 7) >> 3] |= np.packbits(S, axis=-1, bitorder="little")
        packed[:z1, :z1, z0 >> 3 : (z1 + 7) >> 3] |= np.packbits(
            S.transpose(1, 2, 0), axis=-1, bitorder="little"
        )
    return packed


@lru_cache(maxsize=4)
def _cells(w: int) -> np.ndarray:
    """For the one-word build at width w (8, 16, 32 or 64): per colex rank
    of a triple x < y < z of [0, w), the positions in a flat (w, w, w) bool
    array of the three cells (y, x, z), (z, x, y) and (z, y, x), one row of
    the array each, as int32.  Every n <= w reads the first C(n, 3) columns:
    the ranks of a vertex prefix are a rank prefix.  All four widths hold
    0.57 MB (0.5 MB of it for w = 64)."""
    import numpy as np

    below = np.tri(w, w, -1, bool)  # [z, y]: y < z
    z, y, x = np.nonzero(below[:, :, None] & below)  # in rank order
    return np.stack([(y * w + x) * w + z, (z * w + x) * w + y, (z * w + y) * w + x]).astype(np.int32)


def _walked_links(n: int, bits: int) -> Links:
    """_link_table by a walk over the set triples, one at a time."""
    T = [[0] * n for _ in range(n)]
    for z in range(2, n):
        # the triples with largest vertex z occupy ranks [C(z,3), C(z+1,3))
        block = (bits >> comb(z, 3)) & ((1 << comb(z, 2)) - 1)
        Tz, zbit = T[z], 1 << z
        for y in range(1, z):
            xs = (block >> comb(y, 2)) & ((1 << y) - 1)
            if not xs:
                continue
            Ty, ybit = T[y], 1 << y
            Tz[y] = xs
            while xs:
                low = xs & -xs
                x = low.bit_length() - 1
                xs ^= low
                Tz[x] |= ybit
                Ty[x] |= zbit
    for x in range(n):
        Tx = T[x]
        for y in range(x + 1, n):
            Tx[y] = T[y][x]
    return T


# Below this many vertices the walk over the triples is faster than the
# fixed cost of numpy's calls once other work has evicted numpy from the
# caches, as between the searches of `cli search`: right after a pass over
# 4 MB, the walk takes 0.085 ms at 12 vertices and the one-word scatter
# 0.094, 0.119 against 0.107 at 14, and 0.157 against 0.111 at 16 (shared
# 2-core x86-64, Python 3.11).  Warm, the scatter wins from 9 vertices on.
_NUMPY_FROM = 14


def _link_words(n: int, bits: int) -> np.ndarray:
    """_link_table up to 64 vertices as a symmetric (n, n) array of w-bit
    words, w the power of two from 8 that holds n: each rank's flag goes to
    its three cells (_cells) of one (n, w, w) bool array, one packbits makes
    each row below the diagonal a word, and L | L.T mirrors them."""
    import numpy as np

    w, r = max(8, 1 << (n - 1).bit_length()), comb(n, 3)
    flags = np.frombuffer(bits.to_bytes((r + 7) >> 3, "little"), np.uint8)
    cells = np.zeros(n * w * w, bool)
    cells[_cells(w)[:, :r]] = np.unpackbits(flags, count=r, bitorder="little")
    L = np.packbits(cells, bitorder="little").view(f"<u{w >> 3}").reshape(n, w)[:, :n]
    return L | L.T


def _link_table(n: int, bits: int) -> Links:
    """T[x][y] has bit z iff the triple {x, y, z} is set in the colex bitmap
    `bits` over n vertices.  T[x][y] == T[y][x]; T[x][x] is 0.  Below
    _NUMPY_FROM vertices a walk over the set triples builds it; up to 64,
    _link_words; above, _packed_links by chunks, and each row above the
    diagonal is the same int as its mirror."""
    if n < _NUMPY_FROM:
        return _walked_links(n, bits)
    if n <= 64:
        return _link_words(n, bits).tolist()
    packed = _packed_links(n, bits)
    size = packed.shape[2]
    buf, zeros, lower = memoryview(packed.reshape(-1)), [0] * n, []
    for u in range(n):
        start = u * n * size
        row = [int.from_bytes(buf[o : o + size], "little") for o in range(start, start + u * size, size)]
        lower.append(row + zeros[u:])
    cols = list(zip(*lower))
    return [lower[u][:u] + list(cols[u][u:]) for u in range(n)]


class _LinkTables:
    """The link tables of one coloring, color -> _link_table of its colour
    class, both made on first use from one build: from _NUMPY_FROM to 64
    vertices the word matrix of the red bitmap (_link_words), else the
    table of the colour asked for first, whose complement gives the other.

    One instance serves a whole top-level solve, each level reading the
    tables below its vertex count.  The view returned by swap() serves the
    levels that exchange the colours, its red table the blue table of this
    one; it shares the tables and the word matrix.
    """

    __slots__ = ("coloring", "_tables", "_swapped")

    def __init__(self, coloring: Coloring) -> None:
        self.coloring = coloring
        # color -> table, and None -> the word matrix once it is built
        self._tables: Dict[Optional[str], object] = {}
        self._swapped = False

    def swap(self) -> "_LinkTables":
        view = object.__new__(_LinkTables)
        view.coloring, view._tables = self.coloring, self._tables
        view._swapped = not self._swapped
        return view

    def table(self, color: str) -> Links:
        color = opposite(color) if self._swapped else color
        T = self._tables.get(color)
        if T is not None:
            return T
        c, n, other = self.coloring, self.coloring.n_vertices, self._tables.get(opposite(color))
        if _NUMPY_FROM <= n <= 64:
            S = self._tables.get(None)
            if S is None:
                S = self._tables[None] = _link_words(n, c.red_bits)
            if color == BLUE:
                import numpy as np

                bit = np.left_shift(1, np.arange(n, dtype=S.dtype), dtype=S.dtype)
                S = np.bitwise_or.outer(bit, bit) | S
                S ^= (1 << n) - 1
                np.fill_diagonal(S, 0)
            T = S.tolist()
        elif other is None:
            T = _link_table(n, c.red_bits if color == RED else c.red_bits ^ (1 << c.n_triples) - 1)
        else:  # each row above the diagonal is its mirror's int
            full, T = (1 << n) - 1, [[0] * n for _ in range(n)]
            for x, row in enumerate(other):
                fx, Tx = full ^ 1 << x, T[x]
                for y in range(x):
                    Tx[y] = T[y][x] = fx ^ 1 << y ^ row[y]
        self._tables[color] = T
        return T


def _twins(T: Links, n: int) -> Twins:
    """Twin classes of the link table T on its first n vertices: u and v
    are twins when swapping them maps T, cut to those vertices, onto
    itself, i.e. every x below n outside {u, v} has the same row towards u
    and v on the vertices below n outside u and v.  Returns, per vertex,
    its class (the lowest member) and the mask of its lower twins."""
    verts, full = range(n), (1 << n) - 1
    cls, lower = [0] * n, [0] * n
    members = {}
    for v in verts:
        Tv, rep = T[v], v
        for r in members:
            Tr, outside = T[r], full ^ (1 << r | 1 << v)
            for x in verts:
                if (Tr[x] ^ Tv[x]) & outside and x != r and x != v:
                    break
            else:
                rep = r
                break
        cls[v], lower[v] = rep, members.get(rep, 0)
        members[rep] = lower[v] | 1 << v
    return cls, lower


def _search(T: Links, n: int, shape: str, length: int, twins: Twins) -> Optional[List[int]]:
    """First loose path or cycle of the given length on the first n vertices
    whose every edge is in the link table T, as a vertex sequence, or None
    when none exists; twins is _twins(T, n).  Every row read is masked to
    those vertices, so T may be the table of a larger coloring.

    Vertices are tried in ascending order (the candidates for a pair are
    the set bits of its link row, lowest first), so the result is the
    lexicographically first sequence.  A path fixes v1 < v2 (its first two
    positions are interchangeable); a cycle runs from each start vertex in
    turn and closes with the lowest unused z.

    Twins (see _twins) are interchangeable: at every branch a candidate is
    skipped while a lower twin of it is still unused.  Swapping the two
    fixes everything placed so far and maps each sequence of the skipped
    subtree onto a lexicographically earlier one, which is a witness exactly
    when the skipped one is (for a path's v2 whose twin is below v1, after
    exchanging the path's first two positions).  So the first witness is
    never skipped, and None is still a complete proof of absence.  Two ends
    in one class give equivalent states, so failed states are memoized by
    (used, class of end).  Whether a cycle closes depends on its start, so
    the memo is cleared whenever the start advances.
    """
    cycle = shape == CYCLE
    verts, full = range(n), (1 << n) - 1
    cls, lower = twins
    failed: Set[Tuple[int, int]] = set()

    def extend(used: int, end: int, remaining: int) -> Optional[List[int]]:
        """The rest of the sequence after end, or None.  A cycle closes at v1,
        the start vertex of the loop below."""
        if remaining == 0:
            if not cycle:
                return []
            close = T[end][v1] & (full ^ used)
            return [(close & -close).bit_length() - 1] if close else None
        key = (used, cls[end])
        if key in failed:
            return None
        row, unused = T[end], full ^ used
        for mid in verts:
            if used >> mid & 1 or lower[mid] & unused:
                continue
            free = unused ^ 1 << mid
            new_ends = row[mid] & free
            while new_ends:
                low = new_ends & -new_ends
                new_ends ^= low
                new_end = low.bit_length() - 1
                if lower[new_end] & free:
                    continue
                rest = extend(used | 1 << mid | low, new_end, remaining - 1)
                if rest is not None:
                    return [mid, new_end] + rest
        failed.add(key)
        return None

    try:
        for i, v1 in enumerate(verts):
            if lower[v1]:
                continue
            if cycle:
                failed.clear()
            row = T[v1]
            for v2 in verts if cycle else verts[i + 1 :]:
                if lower[v2] & ~(1 << v1):
                    continue
                free = full ^ (1 << v1 | 1 << v2)
                v3s = row[v2] & full
                while v3s:
                    low = v3s & -v3s
                    v3s ^= low
                    v3 = low.bit_length() - 1
                    if lower[v3] & free:
                        continue
                    rest = extend(1 << v1 | 1 << v2 | low, v3, length - 1 - cycle)
                    if rest is not None:
                        return [v1, v2, v3] + rest
        return None
    finally:
        del extend  # extend's cell holds extend: a cycle only the cyclic collector frees


def _find_mono(
    n: int, color: str, shape: str, length: int, T: Links, twins: Optional[Twins] = None
) -> Optional[Witness]:
    """A structure of the colour, shape and length on the first n vertices,
    by _search on T, the colour's link table on n or more vertices, with
    its twin classes on n, computed here unless the caller passes them."""
    seq = _search(T, n, shape, length, twins or _twins(T, n))
    return None if seq is None else Witness(color, shape, validate_structure(shape, seq))


def _find_in(coloring: Coloring, color: str, shape: str, length: int) -> Optional[Witness]:
    """find_mono_path and find_mono_cycle: the target checked against the
    coloring, then _find_mono on the colour's table, built here."""
    letter, shortest, need = ("C", 3, 2 * length) if shape == CYCLE else ("P", 1, 2 * length + 1)
    if length < shortest:
        raise ValueError(f"{shape} length {length} below minimum {shortest}")
    n = coloring.n_vertices
    if need > n:
        raise ValueError(f"{letter}_{length} needs {need} vertices, coloring has {n}")
    if color not in (RED, BLUE):
        raise ValueError(f"unknown color {color!r}")
    return _find_mono(n, color, shape, length, _LinkTables(coloring).table(color))


def find_mono_path(coloring: Coloring, color: str, length: int) -> Optional[Witness]:
    """Complete search for a monochromatic loose path of the given length.

    Deterministic: vertices are tried in ascending label order, so the
    returned witness is the first sequence under that order.
    """
    return _find_in(coloring, color, PATH, length)


def find_mono_cycle(coloring: Coloring, color: str, length: int) -> Optional[Witness]:
    """Complete search for a monochromatic loose cycle of the given length."""
    return _find_in(coloring, color, CYCLE, length)


def _structure_masks(n_vertices: int, shape: str, length: int) -> List[int]:
    """Edge-rank bitmasks of every copy of the target structure in K3_N,
    each once, in the order of the first vertex sequence that spans it."""
    if shape not in (PATH, CYCLE):
        raise ValueError(f"unknown target shape {shape!r}")
    shortest = 1 if shape == PATH else 3
    if length < shortest:
        raise ValueError(
            f"{shape} target length {length} out of range: a {shape} needs length >= {shortest}"
        )
    n_needed = 2 * length + 1 if shape == PATH else 2 * length
    # a structure's edges are distinct triples, so the sum of their bits is their union
    masks = dict.fromkeys(
        sum(1 << colex_rank(e) for e in validate_structure(shape, seq).edges)
        for seq in permutations(range(n_vertices), n_needed)
    )
    return list(masks)


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

    import numpy as np

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
