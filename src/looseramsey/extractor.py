"""Constructive extraction of monochromatic witnesses at the Ramsey threshold.

Given a 2-coloring of K3_N with N at or above the threshold of a pair, the
engine produces a verified red or blue witness.  It runs the paper's
induction as two loops over the pair's descent plan (_plan, made once per
pair): the descent tries a greedy build of the red target on each level's
threshold prefix, shortening one side of the pair by one per failed level,
down to a greedy success or a base case (complete search), and carries the
greedy path down while the prefix holds it; a level with the threshold and
red target of the level above tries nothing, as it would fail again, and
nor does a level whose prefix the coloring's red span rules out
(_red_fits): counting shows that no red target exists there, so the
greedy build could only fail.  The ascent lifts that witness by one edge
per level that needs it.
The lift works by maximalizing the red structure against the reservoir W
(the vertices outside it) with length-increasing replacement moves, chaining
a blue path through W across 2- and 3-edge windows of the red path, and
closing the assembly with a short list of candidate structures whose edge
colors decide the branch: either some candidate is fully blue (the blue
witness) or the red edge that blocks it extends the red structure to the
red witness.

The replacement-move search, the blue chaining, the end extensions after a
move or a lift, and the ascent's cycle openers and candidate checks read
the coloring through link tables (per vertex pair, the bitset of third
vertices that complete a triple of one colour).  One oracle._LinkTables
per top-level solve gives both colours from one build, and the complete
searches read its tables too, bounded to the level's vertex count.  A
solve reads one coloring, the top one, and builds no prefix or swapped
coloring: the descent reads it below each level's threshold, its vertex
count, with the greedy seed (the lowest red rank) found once per solve,
and the ascent reads only the tables, with the colours exchanged at the
levels that swap them.  The move search depends only on the table, the
path and the reservoir: it rules a window of the red path in or out by
testing all the window's end pairs as one, on the OR of their rows, with
a few mask tests against per-vertex reach masks, written out in place
(the three-vertex core's rows and bits are read once for its six
orderings).  The greedy build reads the coloring's byte view in one
pass, the rank of each triple written out and no call per triple, over
only the vertices below the view's rank tables; it probes the tail until
it is stuck, then the head, as the free vertices only shrink.  The
chaining is a depth-first search that skips the states it has seen fail
and stops at an assembly that uses every reservoir vertex some window
can place; at a cap of _CHAIN_BUDGET nodes, which no known input
reaches, it notes the cap and takes its best assembly.  A monochromatic
cycle whose boundary edges all have the other colour yields that
colour's target by the oracle's search on the boundary's own link table,
which depends only on the cycle, as do its twin classes
(_boundary_twins).

Every emitted witness is re-verified against the coloring.  A few corner
branches are intentionally not transcribed into closed-form candidates;
when one is reached, a bounded complete search finishes the extraction,
raises a RuntimeWarning and records the event in the trace.  Trace notes
are formatted only when a trace is kept (_note).
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from functools import lru_cache
from itertools import combinations, permutations
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .constructions import CC, PMCN, PNCM, PP, PairKind
from .core import (
    BLUE,
    CYCLE,
    PATH,
    RED,
    Coloring,
    LooseCycle,
    LoosePath,
    StructureError,
    Witness,
    opposite,
    validate_structure,
    verify_witness,
)
from .oracle import Links, Twins, _LinkTables, _find_mono

# (n, m) pairs whose thresholds rest on external small-case results.
_BASES = {(3, 3), (4, 3), (4, 4)}

_CHAIN_BUDGET = 4000


class ExtractionError(RuntimeError):
    """The engine failed to produce a witness; carries the trace if any."""


def _note(trace: Optional[List[str]], fmt: str, *args) -> None:
    if trace is not None:
        trace.append(fmt % args if args else fmt)


def ramsey_number(pair: PairKind) -> int:
    """Least N such that every coloring of K3_N contains one of the targets."""
    n, m = pair.n, pair.m
    if pair.kind in (PP, PNCM):
        return 2 * n + (m + 1) // 2
    return 2 * n + (m - 1) // 2


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Red path growth: greedy seed, end extension, replacement moves.


def _red_edge_at(T: Links, free: List[int], fmask: int, end: int) -> Optional[Tuple[int, int]]:
    """First (mid, new) from the ascending list free (bitmask fmask), lowest
    labels first, with {end, mid, new} in T, or None."""
    row = T[end]
    for mid in free:
        news = row[mid] & fmask
        if news:
            return mid, (news & -news).bit_length() - 1
    return None


def _append_extend(n: int, seq: List[int], T: Links) -> None:
    """Grow seq in place by whole red edges at either end, two fresh vertices
    below n per edge, lowest labels first, tail end first, T the red table.
    The free vertices only shrink, so once the tail is stuck it stays
    stuck, and only the head is tried from then on."""
    free = sorted(set(range(n)) - set(seq))
    fmask = sum(1 << v for v in free)
    for head in (False, True):
        while (step := _red_edge_at(T, free, fmask, seq[0] if head else seq[-1])) is not None:
            if head:
                seq[:0] = step[::-1]
            else:
                seq.extend(step)
            free.remove(step[0])
            free.remove(step[1])
            fmask ^= 1 << step[0] | 1 << step[1]


def _greedy(c: Coloring, n: int) -> List[int]:
    """A red loose path on the first n vertices of c, as its vertices, that
    no red edge extends at either end; empty if no triple there is red.
    Seeded from the lowest-rank red triple, which lies inside the prefix iff
    its rank is below C(n, 3); each extension takes the lowest labels
    first, tail end first as in _append_extend, read from c's byte view
    with the rank of each triple written out."""
    low = c._lowest_red
    view, c2, c3 = c._ranks
    k = len(c3)  # a vertex >= k lies in no red triple
    if low < 0 or n < k and low >= c3[n]:
        return []
    z = bisect_right(c3, low) - 1
    y = bisect_right(c2, low - c3[z]) - 1
    seq = [low - c3[z] - c2[y], y, z]
    top = 8 * len(view)
    free = [v for v in range(min(n, k)) if v not in seq]
    for head in (False, True):
        while True:
            end = seq[0] if head else seq[-1]
            for mid in free:
                a, b = (end, mid) if end < mid else (mid, end)
                # the rank of {a, b, new} for new above b, between a and b, below a
                above, cb, ca = c2[b] + a, c3[b], c2[a]
                for new in free:
                    if new != mid:
                        r = c3[new] + above if new > b else cb + (c2[new] + a if new > a else ca + new)
                        if r < top and view[r >> 3] >> (r & 7) & 1:
                            break
                else:
                    continue
                break
            else:
                break  # this end is stuck for good
            free.remove(mid)
            free.remove(new)
            if head:
                seq[:0] = new, mid
            else:
                seq += mid, new
    return seq


def _linked(T: Links, links: int, end: int, slot: int) -> bool:
    """Whether some w in `links` has a vertex of `slot` completing the
    triple {w, end, .}; walks the smaller mask, as T is symmetric, one row
    per set bit (one row test when it has one bit, and no generator)."""
    small, big = (links, slot) if links.bit_count() <= slot.bit_count() else (slot, links)
    row = T[end]
    while small:
        low = small & -small
        if row[low.bit_length() - 1] & big:
            return True
        small ^= low
    return False


class _Reach(dict):
    """reach[v], filled on first use: the OR of T[v][s] over s in ws, a list
    of reservoir vertices, so the w with {w, v, s} in T for some s in ws
    other than w; for a tuple of vertices, the OR of theirs."""

    def __init__(self, T: Links, ws: List[int]) -> None:
        self.T, self.ws = T, ws

    def __missing__(self, v) -> int:
        r = 0
        if type(v) is tuple:
            for u in v:
                r |= self[u]
        else:
            Tv = self.T[v]
            for s in self.ws:
                r |= Tv[s]
        self[v] = r
        return r


# the six orderings (x, y, z) of the core's vertices, as indexes in
# permutations order, with the pair indexes x + y - 1, x + z - 1, y + z - 1
_ORDERINGS = tuple((x, y, z, x + y - 1, x + z - 1, y + z - 1) for x, y, z in permutations(range(3)))


def _bridges(
    T: Links, lats: Tuple[int, ...], rats: Tuple[int, ...], core: int, wmask: int, reach: _Reach
) -> bool:
    """Whether a red loose path from some lat in lats to some rat in rats
    (one or two each) has as its inner vertices exactly the vertices of
    `core` plus two vertices of wmask.

    `core` holds one vertex (a two-edge path through one link vertex) or
    three (a three-edge path lat a b d1 d2 e rat through the links b and d2,
    with private slots a, d1, e); the ends and the core lie outside wmask;
    reach is _Reach(T, the vertices of wmask).  The test splits on which
    links lie in the core; each case is a few mask tests or one _linked
    pass, made only if reach[y] meets the slot it walks into.  Two ends on a
    side act as one whose row and reach are the OR of theirs.  That is
    exact: every clause is monotone in the ends' masks and reads one mask of
    each side, so it holds on the union iff it holds for some (lat, rat).
    "a and b and (s := a | b) & (s - 1)" holds when the masks a and b hold
    one vertex each, the two distinct; it is written out, not called, as
    this test runs on every window the move search tries.
    """
    # Tl is Tlat, and Tr is Trat, on a side with one end
    W, Tlat, Trat, Tl, Tr = wmask, T[lats[0]], T[rats[0]], T[lats[-1]], T[rats[-1]]
    lk, rk = lats if len(lats) > 1 else lats[0], rats if len(rats) > 1 else rats[0]
    if core & (core - 1) == 0:
        mid = core.bit_length() - 1
        left, right = (Tlat[mid] | Tl[mid]) & W, (Trat[mid] | Tr[mid]) & W
        # link mid with reservoir ends, or a reservoir link w with mid
        # on the lat side (w in left) or on the rat side (w in right)
        return (
            left and right and (s := left | right) & (s - 1)
            or left & reach[rk] or right & reach[lk]
        ) != 0
    rest = core & (core - 1)  # the core without its lowest vertex
    high = rest & (rest - 1)
    V = u, v, w = (core ^ rest).bit_length() - 1, (rest ^ high).bit_length() - 1, high.bit_length() - 1
    Tu, Tv = T[u], T[v]
    a0, a1, a2 = Tlat[u] | Tl[u], Tlat[v] | Tl[v], Tlat[w] | Tl[w]
    r0, r1, r2 = Trat[u] | Tr[u], Trat[v] | Tr[v], Trat[w] | Tr[w]
    # read once per window: per core vertex i, the reservoir parts of the
    # ends' rows; per pair {i, j} (index i + j - 1), whether it makes a red
    # triple with lat and with rat, and the reservoir part of its own row
    aW, rW, cW = (a0 & W, a1 & W, a2 & W), (r0 & W, r1 & W, r2 & W), (Tu[v] & W, Tu[w] & W, Tv[w] & W)
    la, ra = (a0 >> v & 1, a0 >> w & 1, a1 >> w & 1), (r0 >> v & 1, r0 >> w & 1, r1 >> w & 1)
    tri = Tu[v] >> w & 1  # the core itself is red
    for x, y, z, xy, xz, yz in _ORDERINGS:
        axW, xyW, yrW, zrW = aW[x], cW[xy], rW[y], rW[z]
        if (
            # links b = x, d2 = y: z in one private slot, W in the others
            la[xz] and xyW and yrW and (s := xyW | yrW) & (s - 1)
            or tri and axW and yrW and (s := axW | yrW) & (s - 1)
            or ra[yz] and axW and xyW and (s := axW | xyW) & (s - 1)
            # link b = x, d2 in W: y, z fill two slots in order, W the third
            or (m := xyW & zrW) and axW and (s := m | axW) & (s - 1)
            or la[xy] and (zrW & reach[V[x]] or cW[xz] & reach[rk])
            # link d2 = x, b in W: likewise
            or (m := aW[y] & cW[xz]) and rW[x] and (s := m | rW[x]) & (s - 1)
            or ra[xz] and (xyW & reach[lk] or aW[y] & reach[V[x]])
            # links b, d2 in W: x, y, z fill slots a, d1, e
            or axW and zrW & reach[V[y]] and _linked(T, axW, V[y], zrW)
        ):
            return True
    return False


def _route(T: Links, end: int, pool: List[int], rat: int) -> Optional[List[int]]:
    """The first ordering of pool, in permutations(pool) order, that makes
    end, pool..., rat a red loose path (T the red link table); None if none
    does.  Each first edge {end, a, b} is tried in permutations(pool, 2)
    order (no row T[end][a] holds a), and the recursion from b keeps it."""
    row = T[end]
    if len(pool) == 1:
        return pool if row[pool[0]] >> rat & 1 else None
    for a in pool:
        for b in pool:
            if row[a] >> b & 1:
                rest = _route(T, b, [v for v in pool if v != a and v != b], rat)
                if rest is not None:
                    return [a, b] + rest
    return None


def _find_move(T: Links, p: List[int], wset) -> Optional[Tuple[List[int], Tuple[int, int]]]:
    """First length-increasing red replacement of one or two consecutive path
    edges using two reservoir vertices, preserving the path's end vertices.

    The replacement may re-attach at the middle vertex of a neighboring edge
    (demoting that edge's old link to a private vertex); the neighboring edge
    keeps its vertex set, so only the new edges need color checks.
    T is the red link table; wset must avoid the path.  A window is scanned
    pair by pair, and its path slices are cut, only after one _bridges call
    on all the window's ends, which is exact, finds a move in it.
    Returns (new vertex sequence, (x, y) used) or None.
    """
    L = (len(p) - 1) // 2
    wl = sorted(wset)
    if len(wl) < 2 or L == 0:
        return None
    wmask = sum(1 << w for w in wl)
    reach = _Reach(T, wl)

    for j in range(L):
        # the left end is p[2j], or p[2j-1] re-attached with p[2j] demoted
        lends = (p[2 * j], p[2 * j - 1]) if j else (p[0],)
        # the 2-edge window ends at p[2j+2], the 3-edge one at p[2j+4]
        for r in range(2 * j + 2, min(2 * j + 4, 2 * L) + 1, 2):
            rends = (p[r], p[r + 1]) if r < 2 * L else (p[r],)
            cmask = 1 << p[2 * j + 1]
            if r > 2 * j + 2:
                cmask |= 1 << p[2 * j + 2] | 1 << p[2 * j + 3]
            if not _bridges(T, lends, rends, cmask, wmask, reach):
                continue
            lats = [(p[2 * j], p[: 2 * j + 1])]
            if j >= 1:
                lats.append((p[2 * j - 1], p[: 2 * j - 1] + [p[2 * j], p[2 * j - 1]]))
            rats = [(p[r], p[r:])]
            if r < 2 * L:
                rats.append((p[r + 1], [p[r + 1], p[r]] + p[r + 2 :]))
            core = p[2 * j + 1 : r]
            for x, y in combinations(wl, 2):
                for lat, left in lats:
                    for rat, right in rats:
                        inner = _route(T, lat, core + [x, y], rat)
                        if inner is not None:
                            return left + inner + right, (x, y)
    return None


def _grow(n: int, links: _LinkTables, seq: List[int], need: int) -> List[int]:
    """Grow the red path seq on the first n vertices, maximal under end
    extension, by replacement moves until it has need edges or no move
    applies, extending the ends again after every move."""
    while (len(seq) - 1) // 2 < need:
        T = links.table(RED)
        mv = _find_move(T, seq, set(range(n)) - set(seq))
        if mv is None:
            break
        seq = mv[0]
        _append_extend(n, seq, T)
    return seq


# ---------------------------------------------------------------------------
# Blue chaining through windows of the red path.


def _window_inners(verts: List[int], j: int) -> List[Tuple[int, int, int]]:
    """Inner vertex triples of the candidate blue 2-paths over the window
    starting at edge j.  All avoid the window's last vertex."""
    a0, a1, a2, b1 = verts[2 * j], verts[2 * j + 1], verts[2 * j + 2], verts[2 * j + 3]
    return [
        (a2, a1, b1),
        (a2, b1, a1),
        (a1, a0, a2),
        (a0, a1, a2),
        (a1, a0, b1),
        (a0, a1, b1),
    ]


def _window_p4(verts: List[int], j: int) -> Tuple[int, ...]:
    """Inner 6-tuple of the candidate blue 4-path over the 3-edge window at j,
    split around its middle reservoir vertex; avoids the window's last vertex."""
    a0, a1, a2 = verts[2 * j], verts[2 * j + 1], verts[2 * j + 2]
    b1, b2, d1 = verts[2 * j + 3], verts[2 * j + 4], verts[2 * j + 5]
    return (a0, a1, b2, b1, d1, a2)


def _chain(
    blue: Links, verts: List[int], w0: Sequence[int], trace: Optional[List[str]]
) -> Tuple[Optional[List[int]], FrozenSet[int], int]:
    """Chain a blue path with end vertices in w0 across prefix windows of the
    red path, consuming 2 or 3 edges and 1-3 fresh reservoir vertices per
    window.  Prefers using all of w0; otherwise returns the best assembly.

    blue is the blue link table; w0 must avoid verts.  Fresh vertices are
    tried in ascending label order.  It stops at the first assembly using
    every vertex of w0 that some window's masks hold (none other can be
    placed), which is the best one, or after _CHAIN_BUDGET nodes, with the
    best assembly so far and a trace note.
    Returns (sequence or None, reservoir vertices used, edges consumed).
    """
    L = (len(verts) - 1) // 2
    w0mask = 0
    for w in w0:
        w0mask |= 1 << w
    nodes = 0
    best: List = [None, 0, 0]
    # Failed states (j, last vertex, used), None for the root: whether a
    # state can be completed depends on nothing else, and a revisit reaches
    # only used sets already compared against best.
    failed = set()

    # Per window start j: the oriented inner triples of the 2-edge windows
    # and the 3-edge window, with the reservoir vertices that may precede
    # (heads), sit inside (mids) or follow (tails) them on a blue path.
    twos = [
        [
            (i1, i2, i3, blue[i1][i2] & w0mask, blue[i2][i3] & w0mask)
            for inner in _window_inners(verts, j)
            for i1, i2, i3 in (inner, inner[::-1])
        ]
        for j in range(L - 1)
    ]
    threes = []
    for j in range(L - 2):
        g0, g1, g2, g3, g4, g5 = _window_p4(verts, j)
        threes.append((
            [g0, g1, g2], [g3, g4, g5],
            blue[g0][g1] & w0mask, blue[g1][g2] & blue[g3][g4] & w0mask, blue[g4][g5] & w0mask,
        ))
    usable = 0
    for window in twos:
        for t in window:
            usable |= t[3] | t[4]
    for t in threes:
        usable |= t[2] | t[3] | t[4]

    # used is the bitmask of reservoir vertices in seq; seq ends in one after
    # the first window.  At the cap, best goes up as the result.
    def rec(j: int, seq: List[int], used: int):
        nonlocal nodes
        state = (j, seq[-1], used) if seq else None
        if state in failed:
            return None
        if used.bit_count() > best[1].bit_count():
            best[0], best[1], best[2] = list(seq), used, j
        if used == usable:
            return list(seq), used, j
        if nodes >= _CHAIN_BUDGET:
            _note(trace, "chain: node cap %s reached", _CHAIN_BUDGET)
            return best
        nodes += 1
        fresh = w0mask & ~used
        # (start vertex, sequence through it, fresh vertices after it): any
        # fresh vertex for the first window, the end of seq for a later one
        starts = [(seq[-1], seq, fresh)] if seq else [(p, [p], fresh ^ 1 << p) for p in _bits(fresh)]
        if j <= L - 2:
            for i1, i2, i3, heads, tails in twos[j]:
                for p, head, rest in starts:
                    if heads >> p & 1:
                        for q in _bits(tails & rest):
                            res = rec(j + 2, head + [i1, i2, i3, q], used | 1 << p | 1 << q)
                            if res:
                                return res
        if j <= L - 3:
            front, back, heads, mids, tails = threes[j]
            for p, head, rest in starts:
                if heads >> p & 1:
                    for q in _bits(mids & rest):
                        for s in _bits(tails & rest & ~(1 << q)):
                            nxt = used | 1 << p | 1 << q | 1 << s
                            res = rec(j + 3, head + front + [q] + back + [s], nxt)
                            if res:
                                return res
        failed.add(state)
        return None

    seq, used, consumed = rec(0, [], 0) or best
    del rec  # rec's cell holds rec: a cycle only the cyclic collector frees
    if used != w0mask:
        _note(trace, "chain: leftover %s reservoir vertices", (w0mask & ~used).bit_count())
    return (list(seq) if seq else None), frozenset(_bits(used)), consumed


# ---------------------------------------------------------------------------
# Candidate checking and fallbacks.


def _check(n: int, links: _LinkTables, color: str, shape: str, seq) -> Optional[Witness]:
    """Wrap seq as a witness iff it validates, lies below n and each edge
    {a, b, z} is bit z of T[a][b], T the colour's table in links."""
    try:
        s = validate_structure(shape, seq)
    except StructureError:
        return None
    if max(v := s.vertices) >= n:
        return None
    T, ring = links.table(color), v + v[:1] if shape == CYCLE else v
    for i in range(0, len(ring) - 2, 2):
        if not T[ring[i]][ring[i + 1]] >> ring[i + 2] & 1:
            return None
    return Witness(color, shape, s)


def _completion(
    n: int,
    blue_target: Tuple[str, int],
    red_target: Tuple[str, int],
    links: _LinkTables,
    trace: Optional[List[str]],
    why: str,
) -> Witness:
    """Bounded complete search, blue target first.  Reached only from branches
    without closed-form candidates; always traced and warned about."""
    _note(trace, "completion search (%s)", why)
    bshape, blen = blue_target
    rshape, rlen = red_target
    warnings.warn(
        f"no closed-form branch ({why}); finishing by complete search for a"
        f" blue {bshape} of length {blen} or a red {rshape} of length {rlen}",
        RuntimeWarning,
        stacklevel=2,
    )
    w = _find_mono(n, BLUE, *blue_target, links.table(BLUE))
    w = w or _find_mono(n, RED, *red_target, links.table(RED))
    if w is None:
        raise ExtractionError(
            f"no witness found below threshold invariants; trace: {trace}"
        )
    return w


def _open_cycle(n: int, cyc: List[int], T: Links) -> Optional[List[int]]:
    """Open a monochromatic cycle at its first boundary edge {c1, c2, z} of
    the same colour, {c0, c1, c2} a cycle edge and z outside the cycle; per
    cycle edge {u, v, w}, {v, w, z} before {u, v, z}, for the lowest z below
    n outside the cycle in T[v][w] | T[v][u], T the colour's table.

    Returns the path z, c1, c2, ..., c0 of the cycle's length, or None when
    every boundary edge has the opposite colour.
    """
    k = len(cyc)
    outside = ((1 << n) - 1) & ~sum(1 << v for v in cyc)
    for j in range(0, k, 2):
        u, v, w = cyc[j], cyc[j + 1], cyc[(j + 2) % k]
        hits = (T[v][w] | T[v][u]) & outside
        if hits:
            z = (hits & -hits).bit_length() - 1
            if T[v][w] >> z & 1:
                return [z, v] + cyc[j + 2 :] + cyc[: j + 1]
            return [z, v] + (cyc[j + 2 :] + cyc[: j + 1])[::-1]
    return None


def _boundary_table(n: int, cyc: List[int]) -> Links:
    """The link table of the boundary edges {c_i, c_i+1, z} of the cycle cyc
    on n vertices, z outside the cycle: T[c_i][c_i+1] is the mask of the
    outside vertices, T[c_i][z] the mask of c_i's two cycle neighbours."""
    k = len(cyc)
    outside = ((1 << n) - 1) & ~sum(1 << v for v in cyc)
    T = [[0] * n for _ in range(n)]
    for i, v in enumerate(cyc):
        w = cyc[(i + 1) % k]
        T[v][w] = T[w][v] = outside
        nbrs = 1 << cyc[i - 1] | 1 << w
        for z in _bits(outside):
            T[v][z] = T[z][v] = nbrs
    return T


def _boundary_twins(n: int, cyc: List[int]) -> Twins:
    """The twin classes of _boundary_table(n, cyc), as _twins finds them: the
    outside vertices form one class, and every vertex of the cycle (of
    length 3 or more) is its own.  With no vertex outside, the table is all
    zero and every vertex is a twin of vertex 0."""
    outside = ((1 << n) - 1) & ~sum(1 << v for v in cyc)
    if not outside:
        return [0] * n, [(1 << v) - 1 for v in range(n)]
    first = (outside & -outside).bit_length() - 1
    cls, lower = list(range(n)), [0] * n
    for z in _bits(outside):
        cls[z], lower[z] = first, outside & ((1 << z) - 1)
    return cls, lower


def _convert_cycle(
    n: int, cyc: List[int], color: str, other: Tuple[str, int],
    links: _LinkTables, trace: Optional[List[str]],
) -> Witness:
    """A cycle of the colour on the first n vertices yields either a path of
    the colour and the cycle's length or the other colour's target (shape,
    length), assembled from the cycle boundary when all of it has the other
    colour."""
    path = _open_cycle(n, cyc, links.table(color))
    if path is not None:
        _note(trace, "opened %s cycle into %s path", color, color)
        return Witness(color, PATH, validate_structure(PATH, path))
    oc = opposite(color)
    _note(trace, "cycle boundary entirely %s; assembling %s target", oc, oc)
    own = (PATH, len(cyc) // 2)
    blue, red = (other, own) if color == RED else (own, other)
    return _find_mono(
        n, oc, *other, _boundary_table(n, cyc), _boundary_twins(n, cyc)
    ) or _completion(n, blue, red, links, trace, "cycle conversion")


# ---------------------------------------------------------------------------
# The two induction steps.


def _cycle_candidates(
    P: List[int], c1: int, z: int, qq: List[int], x: int, m: int, u: Optional[int],
) -> List[Tuple[str, str, List[int]]]:
    """Closing candidates for the cycle step, one chain orientation.

    P runs from c2 around to c0 with the off-path vertex c1 and the red
    boundary edge {c1, c2, z}; qq is the chained blue path.  Exactly one
    candidate is fully monochromatic in each branch of the case analysis;
    invalid or miscolored candidates are discarded by the caller's check.
    """
    c0, x1, y1 = P[-1], qq[0], qq[-1]
    cands: List[Tuple[str, str, List[int]]] = []
    if x == 0 and m % 2 == 0:
        cands.append((BLUE, CYCLE, qq + [c1, c0, z]))
        cands.append((RED, CYCLE, P + [y1, c1, z]))
        cands.append((RED, CYCLE, P + [x1, z, c1]))
    elif x == 0:
        q_head, y2 = qq[:-4], qq[-5]
        cands.append((BLUE, CYCLE, q_head + [P[-2], c1, y1, c0, z]))
        cands.append((RED, CYCLE, P[:-2] + [c0, P[-2], y2, c1, z]))
        cands.append((RED, CYCLE, P + [y1, c1, z]))
        cands.append((RED, CYCLE, P + [x1, z, c1]))
    elif x == 1 and m % 2 == 1:
        cands.append((BLUE, CYCLE, qq + [P[-2], c1, u, c0, z]))
        cands.append((RED, CYCLE, P[:-2] + [c0, P[-2], y1, c1, z]))
        cands.append((RED, CYCLE, P + [u, c1, z]))
        cands.append((RED, CYCLE, P + [x1, z, c1]))
    elif x == 1:
        cands.append((BLUE, CYCLE, qq + [P[-3], P[-4], P[-2], u, c1, c0, z]))
        cands.append((BLUE, CYCLE, qq + [c0, c1, P[-2], u, z, P[-5], P[-4]]))
        cands.append((BLUE, CYCLE, qq + [c0, c1, P[-2], u, P[-3], P[-4], P[-5]]))
        cands.append((RED, CYCLE, P + [y1, c1, z]))
        cands.append((RED, CYCLE, P[:-2] + [c0, P[-2], u, c1, z]))
        cands.append((RED, CYCLE, P + [u, c1, z]))
        cands.append((RED, CYCLE, P + [x1, z, c1]))
        cands.append((RED, CYCLE, P[:-4] + [x1, P[-4], u, P[-2], P[-3], c0, c1]))
        cands.append((RED, CYCLE, P[:-4] + [z, u, P[-4], P[-3], P[-2], c0, c1]))
    return cands


def _cycle_step(
    N: int, cyc: List[int], n: int, m: int, want: str,
    links: _LinkTables, trace: Optional[List[str]],
) -> Witness:
    """Lift a red cycle of length n-1 on the first N vertices to a red cycle
    of length n or produce the blue target (cycle of length m, or path of
    length m when n > m).
    """
    path = _open_cycle(N, cyc, links.table(RED))
    if path is None:
        _note(trace, "cycle boundary entirely blue; assembling blue target directly")
        return _find_mono(
            N, BLUE, want, m, _boundary_table(N, cyc), _boundary_twins(N, cyc)
        ) or _completion(N, (want, m), (CYCLE, n), links, trace, "blue boundary assembly")
    z, c1, P = path[0], path[1], path[2:]
    W0 = sorted(set(range(N)) - set(path))
    _note(trace, "opened cycle: boundary edge through %s, reservoir %s", z, W0)

    # Any replacement move on the opened path closes to the longer red cycle.
    mv = _find_move(links.table(RED), P, W0)
    if mv is not None:
        _note(trace, "replacement move closes the longer red cycle")
        return Witness(RED, CYCLE, validate_structure(CYCLE, mv[0] + [c1]))

    qq0, used, consumed = _chain(links.table(BLUE), P, W0, trace)
    x = len(W0) - len(used)
    if qq0 is None or x >= 2:
        return _completion(N, (want, m), (CYCLE, n), links, trace, f"chain leftover {x}")
    _note(trace, "chained blue path: %s edges consumed, leftover %s", consumed, x)

    u = sorted(set(W0) - used)[0] if x == 1 else None
    for qq in (qq0, qq0[::-1]):
        for color, shape, seq in _cycle_candidates(P, c1, z, qq, x, m, u):
            w = _check(N, links, color, shape, seq)
            if w is None:
                continue
            if color == RED:
                _note(trace, "closing candidate red: longer red cycle")
                return w
            if want == CYCLE:
                _note(trace, "closing candidate blue: blue cycle")
                return w
            # blue cycle found but a blue path is wanted: open it
            return _convert_cycle(N, list(seq), BLUE, (CYCLE, n), links, trace)
    return _completion(N, (want, m), (CYCLE, n), links, trace, "no closing candidate matched")


def _path_candidates(
    p: List[int], u: int, qq: List[int], x: int, m: int, v: Optional[int]
) -> List[Tuple[str, str, List[int]]]:
    """Closing candidates for the path step, one chain orientation.  Red cycle
    candidates are converted by the caller."""
    y, zz = qq[0], qq[-1]
    cands: List[Tuple[str, str, List[int]]] = []
    if x == 0 and m % 2 == 1:
        cands.append((BLUE, PATH, qq + [p[0], u]))
        cands.append((RED, PATH, [u, zz] + p))
    elif x == 0:
        cands.append((BLUE, PATH, [p[0], u] + qq + [p[1], p[-1]]))
        cands.append((RED, PATH, [y, u] + p))
        cands.append((RED, CYCLE, p[2:] + [zz, p[1], p[0]]))
    elif x == 1 and m % 2 == 1:
        cands.append((BLUE, PATH, qq + [p[1], p[-2], u, v, p[-1], p[0]]))
        cands.append((RED, CYCLE, p[2:-2] + [p[-1], p[-2], zz, p[1], p[0]]))
        cands.append((RED, PATH, p[:-2] + [p[-1], p[-2], u, v]))
        cands.append((RED, CYCLE, p + [v]))
    return cands


def _path_step(
    N: int, p: List[int], n: int, m: int, links: _LinkTables,
    trace: Optional[List[str]],
) -> Witness:
    """Lift a red path of length n-1 on the first N vertices to a red path
    of length n or produce a blue path of length m."""
    p = list(p)
    # grow toward the red target before anything else
    _append_extend(N, p, links.table(RED))
    p = _grow(N, links, p, n)
    if (len(p) - 1) // 2 >= n:
        _note(trace, "red path extended to target length")
        return Witness(RED, PATH, validate_structure(PATH, p[: 2 * n + 1]))

    wbar = sorted(set(range(N)) - set(p))
    u = wbar[-1]
    W0 = wbar[:-1]
    qq0, used, consumed = _chain(links.table(BLUE), p[2:], W0, trace)
    x = len(W0) - len(used)
    if qq0 is None or x >= 2 or (x == 1 and m % 2 == 0):
        return _completion(N, (PATH, m), (PATH, n), links, trace, f"path chain leftover {x}")
    _note(trace, "chained blue path: %s edges consumed, leftover %s", consumed, x)

    v = sorted(set(W0) - used)[0] if x == 1 else None
    for qq in (qq0, qq0[::-1]):
        for color, shape, seq in _path_candidates(p, u, qq, x, m, v):
            w = _check(N, links, color, shape, seq)
            if w is None:
                continue
            if color == RED and shape == CYCLE:
                _note(trace, "closing candidate red cycle; converting")
                return _convert_cycle(N, list(seq), RED, (PATH, m), links, trace)
            _note(trace, "closing candidate accepted: %s %s", color, shape)
            return w
    return _completion(N, (PATH, m), (PATH, n), links, trace, "no closing candidate matched")


# ---------------------------------------------------------------------------
# Top-level induction.


def _fast_red(
    c: Coloring, n: int, target: Tuple[str, int], links: _LinkTables, gp: List[int]
) -> Optional[Witness]:
    """Cheap attempt at the red target on the first n vertices of c: the
    greedy path gp grown by replacement moves.  Succeeds on most colorings
    without entering the induction, and then without building a link table."""
    shape, tlen = target
    if not gp:
        return None
    need = tlen if shape == PATH else tlen - 1
    seq = _grow(n, links, list(gp), need)
    if (len(seq) - 1) // 2 < need:
        return None
    # solve's verify_witness checks the structure and every edge's colour
    if shape == PATH:
        return Witness(RED, PATH, LoosePath(tuple(seq[: 2 * tlen + 1])))
    # close a sub-path of length tlen-1 with one fresh vertex
    red = c.test(RED)
    span = 2 * tlen - 1
    for off in range(0, len(seq) - span + 1, 2):
        sub = seq[off : off + span]
        inside = set(sub)
        for zv in range(n):
            if zv not in inside and red(sub[-1], zv, sub[0]):
                return Witness(RED, CYCLE, LooseCycle((*sub, zv)))
    return None


def _red_span(c: Coloring) -> Tuple[int, int]:
    """The top vertices of the lowest and of the highest red triple of c,
    unranked in the C(z, 3) table as _greedy unranks its seed; (-1, -1)
    if no triple is red."""
    c3 = c._ranks[2]
    return bisect_right(c3, c._lowest_red) - 1, bisect_right(c3, c.red_bits.bit_length() - 1) - 1


def _red_fits(target: Tuple[str, int], n: int, span: Tuple[int, int]) -> bool:
    """Whether the red span (zlo, zhi) of a coloring leaves room for a red
    target (shape, L) on its first n vertices.  Every red edge has its top
    vertex in [zlo, n) and a loose structure puts at most two edges on a
    vertex, so L <= 2 (n - zlo); every vertex of a red edge is at most zhi,
    so the structure's 2L + 1 (path) or 2L (cycle) vertices lie below
    min(n, zhi + 1).  No red triple gives zhi = -1, room for nothing."""
    shape, L = target
    zlo, zhi = span
    return L <= 2 * (n - zlo) and 2 * L + (shape == PATH) <= min(n, zhi + 1)


@lru_cache(maxsize=256)
def _plan(pair: PairKind) -> Tuple[Tuple, ...]:
    """The descent's levels from pair down to its base case, the last one:
    each level's pair, threshold, colour swap, the red target it tries
    greedily (None if the level above had the same threshold and target, as
    pp(n, n) and pp(n, n - 1) at even n do) and whether it is the base case."""
    levels, at, tried = [], pair, None
    while True:
        kind, n, m = at.kind, at.n, at.m
        N, target = ramsey_number(at), at.red_target
        attempt = None if (N, target) == tried else target
        if kind in (PP, CC) and (n, m) in _BASES:
            return (*levels, (at, N, False, attempt, True))
        if kind == PNCM:
            swap, sub = False, PairKind(CC, n, m)
        elif (kind, n, m) == (PMCN, 4, 3):
            swap, sub = False, PairKind(CC, 4, 4)
        elif kind == PMCN:
            swap, sub = True, PairKind(PNCM, m, m) if n == m + 1 else PairKind(PMCN, n - 1, m)
        else:
            swap = n == m
            sub = PairKind(kind, n, n - 1) if swap else PairKind(kind, n - 1, m)
        levels.append((at, N, swap, attempt, False))
        at, tried = sub, (N, target)


def solve(pair: PairKind, coloring: Coloring, trace: Optional[List[str]] = None) -> Witness:
    """Extract a verified witness for the pair from any coloring at or above
    the threshold.  Deterministic: identical inputs give identical witnesses.
    """
    N = ramsey_number(pair)
    if coloring.n_vertices < N:
        raise ValueError(
            f"need at least {N} vertices for {pair}, coloring has {coloring.n_vertices}"
        )
    top = coloring.restrict(N)
    links = _LinkTables(top)  # serves every level and, swapped, every swap

    # Descent: each level tries the red target greedily on its threshold
    # prefix, the first N vertices of top, where the red span leaves room
    # for it; a failure there hands the level's sub pair down, until a
    # greedy success or a base case gives the first witness.  The greedy
    # path is built at the levels that try it and carries down while the
    # prefix still holds all its vertices.
    levels, gp = [], None  # (pair, vertex count, swap) per level lifted
    span = _red_span(top)
    for at, N, swap, target, base in _plan(pair):
        if target is not None and _red_fits(target, N, span):
            if gp is None or any(v >= N for v in gp):
                gp = _greedy(top, N)
            if (w := _fast_red(top, N, target, links, gp)) is not None:
                _note(trace, "%s: red target built greedily", at)
                break
        if base:
            _note(trace, "base case %s: complete search", at)
            w = _find_mono(N, RED, *at.red_target, links.table(RED))
            w = w or _find_mono(N, BLUE, *at.blue_target, links.table(BLUE))
            if w is None:
                raise ExtractionError(f"base case {at} produced no witness; trace: {trace}")
            break
        levels.append((at, N, swap))

    # Ascent: lift the witness by one step per level, innermost level first,
    # on the level's vertex count and the tables, swapped where it swaps.
    for at, N, swap in reversed(levels):
        kind, n, m = at.kind, at.n, at.m
        if w.color == (RED if swap else BLUE):
            continue
        lk = links
        if swap:
            _note(trace, "%s: swapping colors around blue %s of length %s", at, w.shape, w.length)
            lk = links.swap()
        verts = list(w.structure.vertices)
        if kind == PNCM:
            w = _convert_cycle(N, verts, RED, (CYCLE, m), lk, trace)
        elif (kind, n, m) == (PMCN, 4, 3):
            # a red cycle of length 4 contains a red path of length 3
            w = Witness(RED, PATH, validate_structure(PATH, verts[:7]))
        elif kind == PP:
            w = _path_step(N, verts, n, m, lk, trace)
        else:
            w = _cycle_step(N, verts, n, m, CYCLE if kind == CC else PATH, lk, trace)
        if swap:
            w = Witness(opposite(w.color), w.shape, w.structure)

    res = verify_witness(top, w)
    if not res:
        raise ExtractionError(f"internal: witness fails verification: {res.reason}")
    target = (w.shape, w.length)
    expected = pair.red_target if w.color == RED else pair.blue_target
    if target != expected:
        raise ExtractionError(
            f"internal: witness {w.color} {target} matches neither target of {pair}"
        )
    return w
