"""Link tables and the two search kernels that read them.

The references below are the pair-by-pair scans that `_find_move` and
`_chain` ran before the link tables, testing one triple at a time through
`Coloring.test`, the first mask test of a window (`_bridges` with its
slot matcher `_fill`), the move search that tested each end pair of a
window on its own, and the greedy build through `Coloring.test`; the
kernels must return exactly what they return.
The pure-Python table build and its row-by-row complement are kept as
references for the numpy build.  The chain scan searches without a node
budget unless given one.  `_chain`, a depth-first search that skips the
states it has seen fail and stops at an assembly placing every reservoir
vertex some window can place, must return what the unbudgeted scan
returns; its cap of `_CHAIN_BUDGET` nodes may bind only where the scan
with that budget runs out.
"""

import gc
import random
import sys
import tracemalloc
import warnings
from itertools import combinations, permutations
from math import comb, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looseramsey import extractor, oracle
from looseramsey.constructions import (
    CC,
    PMCN,
    PP,
    PairKind,
    SplitSpec,
    build_split_coloring,
    lower_bound_params,
)
from looseramsey.core import (
    BLUE,
    RED,
    Coloring,
    _cached,
    TripleEdge,
    colex_rank,
    colex_unrank,
    edge_color,
    opposite,
    verify_witness,
)
from looseramsey.extractor import (
    _append_extend,
    _bits,
    _bridges,
    _chain,
    _find_move,
    _greedy,
    _linked,
    _LinkTables,
    _Reach,
    _route,
    _window_inners,
    _window_p4,
    ramsey_number,
    solve,
)
from looseramsey.oracle import _link_table, find_mono_cycle, find_mono_path


def _triples(n):
    return [colex_unrank(r, n) for r in range(comb(n, 3))]


def _reference_link_table(n, bits):
    """The table build before numpy, one triple at a time."""
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


def _reference_complement(n, other):
    """The other colour's table, row by row, as _LinkTables derived it."""
    full = (1 << n) - 1
    return [
        [full ^ (1 << x | 1 << y | t) if x != y else 0 for y, t in enumerate(row)]
        for x, row in enumerate(other)
    ]


def _table_bitmaps(n):
    """Named colex bitmaps over n vertices: random, a split coloring, all
    red, all blue and sparse (each triple red with probability 0.02)."""
    rnd = random.Random(n)
    triples, a = comb(n, 3), max(3, n // 2)
    return {
        "random": rnd.getrandbits(triples),
        "split": build_split_coloring(SplitSpec(a, n - a)).red_bits if n >= 3 else 0,
        "all red": (1 << triples) - 1,
        "all blue": 0,
        "sparse": sum(1 << r for r in range(triples) if rnd.random() < 0.02),
    }


def _color_bits(c, color):
    return (c if color == RED else c.swap()).red_bits


def _reference_find_move(red, p, wset):
    L = (len(p) - 1) // 2
    wl = sorted(wset)
    if len(wl) < 2 or L == 0:
        return None
    for j in range(L):
        lats = [(p[2 * j], p[: 2 * j + 1])]
        if j >= 1:
            lats.append((p[2 * j - 1], p[: 2 * j - 1] + [p[2 * j], p[2 * j - 1]]))
        rats1 = [(p[2 * j + 2], p[2 * j + 2 :])]
        if j <= L - 2:
            rats1.append((p[2 * j + 3], [p[2 * j + 3], p[2 * j + 2]] + p[2 * j + 4 :]))
        mid = p[2 * j + 1]
        for xi in range(len(wl)):
            for yi in range(xi + 1, len(wl)):
                x, y = wl[xi], wl[yi]
                for lat, left in lats:
                    for rat, right in rats1:
                        for i1, i2, i3 in permutations((mid, x, y)):
                            if red(lat, i1, i2) and red(i2, i3, rat):
                                return left + [i1, i2, i3] + right, (x, y)
        if j > L - 2:
            continue
        rats2 = [(p[2 * j + 4], p[2 * j + 4 :])]
        if j <= L - 3:
            rats2.append((p[2 * j + 5], [p[2 * j + 5], p[2 * j + 4]] + p[2 * j + 6 :]))
        core = (p[2 * j + 1], p[2 * j + 2], p[2 * j + 3])
        for xi in range(len(wl)):
            for yi in range(xi + 1, len(wl)):
                x, y = wl[xi], wl[yi]
                pool5 = core + (x, y)
                for lat, left in lats:
                    for rat, right in rats2:
                        for a, b in permutations(pool5, 2):
                            if not red(lat, a, b):
                                continue
                            rest = [v for v in pool5 if v != a and v != b]
                            for d1, d2 in permutations(rest, 2):
                                if not red(b, d1, d2):
                                    continue
                                (e,) = [v for v in rest if v != d1 and v != d2]
                                if red(d2, e, rat):
                                    return left + [a, b, d1, d2, e] + right, (x, y)
    return None


def _reference_pairwise_find_move(T, p, wset, calls):
    """_find_move before the union test: each end pair of a window tested
    on its own, in order, until one passes.  calls counts its _bridges
    calls and the windows it tests."""
    L = (len(p) - 1) // 2
    wl = sorted(wset)
    if len(wl) < 2 or L == 0:
        return None
    wmask = sum(1 << w for w in wl)
    reach = _Reach(T, list(_bits(wmask)))
    for j in range(L):
        lends = [p[2 * j], p[2 * j - 1]] if j else [p[0]]
        for r in range(2 * j + 2, min(2 * j + 4, 2 * L) + 1, 2):
            rends = [p[r], p[r + 1]] if r < 2 * L else [p[r]]
            cmask = sum(1 << v for v in p[2 * j + 1 : r])
            calls["windows"] += 1
            for lat, rat in [(lat, rat) for lat in lends for rat in rends]:
                calls["bridges"] += 1
                if _bridges(T, (lat,), (rat,), cmask, wmask, reach):
                    break
            else:
                continue
            lats = [(p[2 * j], p[: 2 * j + 1])]
            if j >= 1:
                lats.append((p[2 * j - 1], p[: 2 * j - 1] + [p[2 * j], p[2 * j - 1]]))
            rats = [(p[r], p[r:])]
            if r < 2 * L:
                rats.append((p[r + 1], [p[r + 1], p[r]] + p[r + 2 :]))
            for x, y in combinations(wl, 2):
                for lat, left in lats:
                    for rat, right in rats:
                        inner = _route(T, lat, p[2 * j + 1 : r] + [x, y], rat)
                        if inner is not None:
                            return left + inner + right, (x, y)
    return None


def _reference_append_extend(red, n, seq):
    """_append_extend by the per-triple scan through red, a Coloring.test."""
    free = sorted(set(range(n)) - set(seq))

    def edge_at(end):
        for mid in free:
            for new in free:
                if new != mid and red(end, mid, new):
                    return mid, new
        return None

    while True:
        step = edge_at(seq[-1])
        if step is not None:
            seq.extend(step)
        elif (step := edge_at(seq[0])) is not None:
            seq[:0] = step[::-1]
        else:
            return
        for v in step:
            free.remove(v)


def _reference_greedy(c):
    """_greedy through Coloring.test: seeded from the lowest red rank."""
    if c.red_bits == 0:
        return []
    seq = list(colex_unrank((c.red_bits & -c.red_bits).bit_length() - 1, c.n_vertices))
    _reference_append_extend(c.test(RED), c.n_vertices, seq)
    return seq


def _reference_fill(masks, core, free):
    if core:
        v = core & -core
        for i, m in enumerate(masks):
            if m & v and _reference_fill(masks[:i] + masks[i + 1 :], core ^ v, free):
                return True
        return False
    if len(masks) < 2:
        return not masks or masks[0] & free != 0
    a, b = masks[0] & free, masks[1] & free
    both = a | b
    return a != 0 and b != 0 and both & (both - 1) != 0


def _reference_bridges(T, lat, rat, core, wmask):
    pool = core | wmask
    two_edges = core & (core - 1) == 0
    Tlat = T[lat]
    for b in _bits(pool):
        ma = Tlat[b] & pool
        if not ma:
            continue
        rest = pool ^ (1 << b)
        Tb = T[b]
        if two_edges:
            if _reference_fill([ma, Tb[rat] & rest], core & rest, wmask & rest):
                return True
            continue
        for d in _bits(rest):
            md, me = Tb[d] & rest, T[d][rat] & rest
            if md and me:
                avail = rest ^ (1 << d)
                if _reference_fill(
                    [ma & avail, md & avail, me & avail], core & avail, wmask & avail
                ):
                    return True
    return False


def _reference_chain(c, verts, w0, trace, stats=None, budget=inf):
    """The chain search before link tables, expanding at most budget nodes
    (no bound by default); stats, if given, receives the budget left at the
    end."""
    blue = c.test(BLUE)
    L = (len(verts) - 1) // 2
    w0s = sorted(w0)
    total = len(w0s)
    budget = [budget]
    best = [None, frozenset(), 0]

    def rec(j, seq, used):
        if len(used) > len(best[1]):
            best[0], best[1], best[2] = list(seq), used, j
        if total - len(used) == 0:
            return list(seq), used, j
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        fresh = [w for w in w0s if w not in used]
        first = not seq
        if j <= L - 2:
            for inner in _window_inners(verts, j):
                for i1, i2, i3 in (inner, inner[::-1]):
                    if first:
                        for p in fresh:
                            if not blue(p, i1, i2):
                                continue
                            for q in fresh:
                                if q != p and blue(i2, i3, q):
                                    res = rec(j + 2, [p, i1, i2, i3, q], used | {p, q})
                                    if res:
                                        return res
                    else:
                        p = seq[-1]
                        if not blue(p, i1, i2):
                            continue
                        for q in fresh:
                            if blue(i2, i3, q):
                                res = rec(j + 2, seq + [i1, i2, i3, q], used | {q})
                                if res:
                                    return res
        if j <= L - 3:
            g0, g1, g2, g3, g4, g5 = _window_p4(verts, j)
            heads = fresh if first else [seq[-1]]
            for p in heads:
                if not blue(p, g0, g1):
                    continue
                for q in fresh:
                    if q == p or not blue(g1, g2, q) or not blue(q, g3, g4):
                        continue
                    for s in fresh:
                        if s in (p, q) or not blue(g4, g5, s):
                            continue
                        frag = [g0, g1, g2, q, g3, g4, g5, s]
                        new_used = used | {q, s} | ({p} if first else frozenset())
                        res = rec(j + 3, ([p] if first else seq) + frag, new_used)
                        if res:
                            return res
        return None

    res = rec(0, [], frozenset())
    if stats is not None:
        stats["budget"] = budget[0]
    if res is None:
        res = tuple(best)
        trace.append(f"chain: leftover {total - len(res[1])} reservoir vertices")
    seq, used, consumed = res
    return (list(seq) if seq else None), frozenset(used), consumed


def _instance(seed, min_edges=1):
    """A seeded (coloring, path, reservoir): a random coloring of some red
    density or a split coloring with a few flips, on up to 14 vertices; the
    greedy red path or a random vertex sequence of at least min_edges
    edges; and a random reservoir among the other vertices."""
    rnd = random.Random(seed)
    n = rnd.randint(2 * min_edges + 3, 14)
    if rnd.random() < 0.5:
        a = rnd.randint(3, n - 1)
        c = build_split_coloring(SplitSpec(a, n - a))
        bits = (c.swap() if rnd.random() < 0.5 else c).red_bits
        for rank in rnd.sample(range(c.n_triples), rnd.randint(0, 3)):
            bits ^= 1 << rank
    else:
        density = rnd.choice([0.1, 0.3, 0.5, 0.7, 0.9])
        bits = sum(1 << rank for rank in range(comb(n, 3)) if rnd.random() < density)
    c = Coloring(n, bits)
    p = _greedy(c, n)
    if len(p) < 2 * min_edges + 1 or rnd.random() < 0.5:
        p = rnd.sample(range(n), 2 * rnd.randint(min_edges, (n - 3) // 2) + 1)
    rest = [v for v in range(n) if v not in p]
    return c, p, rnd.sample(rest, rnd.randint(0, len(rest)))


def _late_chain_instance(seed):
    """A seeded (coloring, path, reservoir) for the chain search: a path of
    4-7 edges, a reservoir of 3-7 vertices of which one or two lie in few
    blue triples, other triples blue at density 0.3, 0.5 or 0.7.  The search
    often revisits failed states, and a full chain, when there is one, often
    comes late, so the point where the budget runs out decides the result."""
    rnd = random.Random(seed)
    edges, size = rnd.randint(4, 7), rnd.randint(3, 7)
    n = 2 * edges + 1 + size
    verts = rnd.sample(range(n), n)
    p, w = verts[: 2 * edges + 1], verts[2 * edges + 1 :]
    hard = set(rnd.sample(w, rnd.randint(1, 2)))
    density = rnd.choice([0.3, 0.5, 0.7])
    red = 0
    for r, e in enumerate(_triples(n)):
        if rnd.random() >= (0.05 if hard.intersection(e) else density):
            red |= 1 << r
    return Coloring(n, red), p, sorted(w)


def _hard_chain_calls(monkeypatch, solves=((PP, 10, 10, "b", True), (CC, 10, 10, "a", False))):
    """(coloring, verts, w0) of each _chain call made while solving split+1
    of each (kind, n, m, side, swapped) of solves, by default pp(10,10) b+1
    swapped and cc(10,10) a+1 plain, whose chains end with a leftover; the
    coloring is the one whose blue table the call read."""
    calls = []
    real = extractor._chain

    def record(blue, verts, w0, trace):
        calls.append((blue, list(verts), list(w0)))
        return real(blue, verts, w0, trace)

    tops = []
    with monkeypatch.context() as patch:
        patch.setattr(extractor, "_chain", record)
        for kind, n, m, side, swap in solves:
            pair = PairKind(kind, n, m)
            spec = lower_bound_params(pair)
            plus = SplitSpec(spec.a + (side == "a"), spec.b + (side == "b"))
            c = build_split_coloring(plus)
            c = c.swap() if swap else c
            start = len(calls)
            solve(pair, c)
            tops += [c.restrict(ramsey_number(pair))] * (len(calls) - start)
    cases = []
    for top, (blue, verts, w0) in zip(tops, calls):
        c = top if _LinkTables(top).table(BLUE) == blue else top.swap()
        assert _LinkTables(c).table(BLUE) == blue
        cases.append((c, verts, w0))
    return cases


def _isolated_chain_instance(seed):
    """A seeded (coloring, path, reservoir) for the chain search, with one
    or two reservoir vertices in no blue triple with two path vertices, so
    that no window can place them: _late_chain_instance's for even seeds,
    _instance's with paths of three edges or more for odd ones."""
    if seed % 2:
        c, p, w = _instance(seed, min_edges=3)
    else:
        c, p, w = _late_chain_instance(seed)
    rnd = random.Random(seed)
    out = rnd.sample(w, min(len(w), rnd.randint(1, 2)))
    red = c.red_bits
    for v in out:
        for a, b in combinations(p, 2):
            red |= 1 << colex_rank(TripleEdge.of(v, a, b))
    return Coloring(c.n_vertices, red), p, sorted(w), set(out)


def _rec_entries(blue, verts, w0):
    """The trace of a _chain call and the number of times it entered rec."""
    entries, trace = [0], []
    code = extractor._chain.__code__

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "rec" and frame.f_code.co_filename == code.co_filename:
            entries[0] += 1

    sys.setprofile(count)
    try:
        _chain(blue, verts, w0, trace)
    finally:
        sys.setprofile(None)
    return trace, entries[0]


class TestTables:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 10), seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_edge_color(self, n, seed):
        c = Coloring(n, random.Random(seed).getrandbits(comb(n, 3)))
        links = _LinkTables(c)
        for color in (RED, BLUE):
            T = links.table(color)
            for x in range(n):
                assert T[x][x] == 0
                for y in range(n):
                    assert T[x][y] == T[y][x] and T[x][y] >> n == 0
            for z in range(2, n):
                for y in range(1, z):
                    for x in range(y):
                        has = edge_color(c, TripleEdge(x, y, z)) == color
                        assert bool(T[x][y] >> z & 1) == has
                        assert bool(T[x][z] >> y & 1) == has
                        assert bool(T[y][z] >> x & 1) == has

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 10), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_prefix_is_served_by_the_parent_table(self, n, seed, data):
        c = Coloring(n, random.Random(seed).getrandbits(comb(n, 3)))
        k = data.draw(st.integers(3, n))
        inside = (1 << k) - 1
        for color in (RED, BLUE):
            parent = _LinkTables(c).table(color)
            own = _LinkTables(c.restrict(k)).table(color)
            for x in range(k):
                for y in range(k):
                    assert parent[x][y] & inside == own[x][y]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 10), seed=st.integers(0, 2**32 - 1))
    def test_red_of_swap_is_blue(self, n, seed):
        c = Coloring(n, random.Random(seed).getrandbits(comb(n, 3)))
        links = _LinkTables(c)
        assert links.swap().table(RED) is links.table(BLUE)
        assert links.swap().swap().table(RED) is links.table(RED)
        assert links.table(BLUE) == _LinkTables(c.swap()).table(RED)

    def test_solve_builds_each_colour_at_most_once(self, monkeypatch):
        """One table build per solve, by oracle._link_words from 14 to 64
        vertices and by oracle._link_table at other sizes: the blue table is
        derived from the red one's build.  The second solve reads both
        colours."""
        built, asked = [], set()
        real_table = _LinkTables.table

        def recording(self, color):
            asked.add(opposite(color) if self._swapped else color)
            return real_table(self, color)

        for name in ("_link_table", "_link_words"):
            real = getattr(oracle, name)
            monkeypatch.setattr(oracle, name, lambda n, bits, real=real: built.append(n) or real(n, bits))
        monkeypatch.setattr(_LinkTables, "table", recording)
        # hard orientations: the induction descends through prefixes and
        # runs steps on the swapped coloring
        for a, b, swap in ((13, 2, False), (12, 3, True)):
            c = build_split_coloring(SplitSpec(a, b))
            built.clear()
            asked.clear()
            solve(PairKind(PP, 6, 6), c.swap() if swap else c)
            assert len(built) == 1
        assert asked == {RED, BLUE}

    def test_blue_is_the_complement_of_red(self):
        """Either colour asked for first, through swap() views and on
        prefixes, the tables equal those built from each colour's bitmap."""
        for n in range(3, 13):
            rnd = random.Random(n)
            colorings = [Coloring(n, 0).swap(), Coloring(n, 0)]
            colorings += [Coloring(n, rnd.getrandbits(comb(n, 3))) for _ in range(4)]
            for c in colorings:
                want = {color: _link_table(n, _color_bits(c, color)) for color in (RED, BLUE)}
                for first in (RED, BLUE):
                    links = _LinkTables(c)
                    for color in (first, opposite(first)):
                        assert links.table(color) == want[color], (n, first, color)
                    view = _LinkTables(c).swap()
                    for color in (first, opposite(first)):
                        assert view.table(color) == want[opposite(color)], (n, first, color)
                k = rnd.randint(3, n)
                inside = (1 << k) - 1
                for color in (RED, BLUE):
                    own = _link_table(k, _color_bits(c.restrict(k), color))
                    T = _LinkTables(c).table(color)
                    assert [[T[x][y] & inside for y in range(k)] for x in range(k)] == own

    @pytest.mark.parametrize("n", range(3, 71))
    def test_tables_equal_each_colours_own_build(self, n):
        """Red or blue asked for first, directly or through swap(), of the
        tables or of the coloring, both tables equal _link_table of that
        colour's own bitmap: across the walk below 14 vertices, the word
        matrix from 14 to 64 and the chunked build above."""
        for name, bits in _table_bitmaps(n).items():
            c = Coloring(n, bits)
            want = {RED: _link_table(n, bits), BLUE: _link_table(n, bits ^ (1 << comb(n, 3)) - 1)}
            for first in (RED, BLUE):
                for links, swapped in ((_LinkTables(c), False), (_LinkTables(c).swap(), True),
                                       (_LinkTables(c.swap()), True), (_LinkTables(c.swap()).swap(), False)):
                    for color in (first, opposite(first)):
                        own = opposite(color) if swapped else color
                        assert links.table(color) == want[own], (n, name, first, color, swapped)

    def test_first_colour_is_built_from_its_own_bitmap(self, monkeypatch):
        """Only the colour asked for first walks triples, and only its own."""
        built, real = [], oracle._link_table
        monkeypatch.setattr(oracle, "_link_table", lambda n, bits: built.append(bits) or real(n, bits))
        c = Coloring(9, random.Random(1).getrandbits(comb(9, 3)))
        for swapped in (False, True):
            for first in (RED, BLUE):
                built.clear()
                links = _LinkTables(c).swap() if swapped else _LinkTables(c)
                links.table(first)
                links.table(opposite(first))
                assert built == [_color_bits(c, opposite(first) if swapped else first)]

    def test_completion_reads_the_solve_tables(self, monkeypatch):
        """A solve that ends in a completion search builds one table: the
        search reads the solve's own tables, bounded to its vertex count."""
        built = []
        for name in ("_link_table", "_link_words"):
            real = getattr(oracle, name)
            monkeypatch.setattr(oracle, name, lambda n, bits, real=real: built.append(n) or real(n, bits))
        pair = PairKind(PMCN, 16, 4)
        spec = lower_bound_params(pair)
        split = build_split_coloring(SplitSpec(spec.a + 1, spec.b))
        bits = split.red_bits
        for r in random.Random(0).sample(range(split.n_triples), 2):
            bits ^= 1 << r
        c, trace = Coloring(split.n_vertices, bits), []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            w = solve(pair, c, trace=trace)
        assert any(note.startswith("completion search") for note in trace)
        assert verify_witness(c, w)
        assert len(built) == 1

    @pytest.mark.parametrize("n", [12, 20])
    def test_blue_oracle_search_builds_one_table(self, monkeypatch, n):
        """A blue find_mono_path or find_mono_cycle builds one table, by the
        triple walk at 12 vertices and by the one-word build at 20, and
        makes no colour-swapped Coloring; it finds what a red search of the
        swapped coloring finds, present or absent."""
        colorings = [Coloring(n, random.Random(n).getrandbits(comb(n, 3)))]
        colorings.append(build_split_coloring(SplitSpec(n - n // 3, n // 3)))
        searches = [(find_mono_path, 3), (find_mono_path, (n - 1) // 2), (find_mono_cycle, 4)]
        want = [[finder(c.swap(), RED, length) for finder, length in searches] for c in colorings]
        assert None in want[1] and None not in want[0]
        built = []
        for name in ("_link_table", "_link_words"):
            real = getattr(oracle, name)
            monkeypatch.setattr(
                oracle, name, lambda k, bits, name=name, real=real: built.append(name) or real(k, bits)
            )
        monkeypatch.setattr(Coloring, "swap", None)
        for c, found in zip(colorings, want):
            for (finder, length), w in zip(searches, found):
                built.clear()
                got = finder(c, BLUE, length)
                assert built == ["_link_table" if n < oracle._NUMPY_FROM else "_link_words"]
                assert (got is None) == (w is None), (finder, length)
                assert got is None or (got.color, got.structure) == (BLUE, w.structure)

    def test_greedy_solve_builds_no_table(self, monkeypatch):
        monkeypatch.setattr(oracle, "_link_table", None)
        c = Coloring(10, 0).swap()
        assert solve(PairKind(PP, 4, 4), c).color == RED


class TestVectorisedTables:
    """The numpy builds against the pure-Python one they replaced, which
    still builds the tables of fewer than oracle._NUMPY_FROM vertices: the
    one-word scatter up to 64 vertices, at every width it uses, and the
    chunked build above."""

    SIZES = [*range(0, 41), 48, 63, 64, 65, 70, 100, 150]

    @pytest.mark.parametrize("numpy_from", [0, oracle._NUMPY_FROM, 10**9])
    def test_build_equals_the_triple_walk(self, monkeypatch, numpy_from):
        monkeypatch.setattr(oracle, "_NUMPY_FROM", numpy_from)
        for n in self.SIZES:
            for name, bits in _table_bitmaps(n).items():
                assert _link_table(n, bits) == _reference_link_table(n, bits), (n, name)

    def test_build_in_chunks_of_eight_vertices(self, monkeypatch):
        """The smallest chunk: every byte of the packed rows comes from
        several chunks, and the last chunk may be partial.  Only rows of
        more than one word, above 64 vertices, are built in chunks."""
        monkeypatch.setattr(oracle, "_CHUNK_CELLS", 1)
        monkeypatch.setattr(oracle, "_NUMPY_FROM", 0)
        for n in [*range(3, 41), *range(65, 81), 100]:
            for name, bits in _table_bitmaps(n).items():
                assert _link_table(n, bits) == _reference_link_table(n, bits), (n, name)

    def test_rows_mirror_one_int(self):
        """Built by the triple walk or in chunks, or derived from those, a
        row above the diagonal is its mirror's int.  (The one-word build's
        rows come from a symmetric word matrix, each its own int.)"""
        for n in (5, 13, 65):
            links = _LinkTables(Coloring(n, random.Random(n).getrandbits(comb(n, 3))))
            for T in (links.table(RED), links.table(BLUE)):
                assert all(T[x][y] is T[y][x] for x in range(n) for y in range(x))

    def test_scatter_positions_stay_bounded(self, monkeypatch):
        """The one-word build keeps one position array per width (8, 16, 32
        and 64), under 1 MB in all, whatever sizes it builds."""
        monkeypatch.setattr(oracle, "_NUMPY_FROM", 0)
        for n in range(65):
            _link_table(n, random.Random(n).getrandbits(comb(n, 3)))
        widths = [8, 16, 32, 64]
        assert sum(oracle._cells(w).nbytes for w in widths) < 1 << 20
        assert oracle._cells.cache_info().currsize == len(widths)

    def test_second_colour_is_the_row_by_row_complement(self):
        for n in self.SIZES[3:]:  # a coloring has 3 vertices or more
            for name, bits in _table_bitmaps(n).items():
                c = Coloring(n, bits)
                for first in (RED, BLUE):
                    links = _LinkTables(c)
                    own = links.table(first)
                    assert links.table(opposite(first)) == _reference_complement(n, own), (n, name)

    def test_build_memory_stays_below_half_a_cube(self):
        """A bool array over all ordered triples would take N^3 bytes; the
        chunked build peaks well below half of that."""
        n = 300
        bits = random.Random(n).getrandbits(comb(n, 3))
        tracemalloc.start()
        try:
            T = _link_table(n, bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n**3 / 2, peak
        assert T[n - 1][n - 2] == _reference_link_table(n, bits)[n - 1][n - 2]


class TestKernels:
    def test_reach_is_the_or_of_reservoir_rows(self):
        for seed in range(300):
            c, p, w = _instance(seed)
            n, wmask = c.n_vertices, sum(1 << v for v in w)
            color = (RED, BLUE)[seed % 2]
            T, has = _LinkTables(c).table(color), c.test(color)
            reach = _Reach(T, list(_bits(wmask)))
            for v in random.Random(seed).sample(range(n), n):  # any fill order
                want = 0
                for s in w:
                    want |= T[v][s]
                assert reach[v] == want, (seed, v)
                # the vertices u with {u, v, s} of the colour for some s in w
                assert want == sum(
                    1 << u for u in range(n)
                    if any(len({u, v, s}) == 3 and has(u, v, s) for s in w)
                ), (seed, v)
            assert sorted(reach) == list(range(n))

    def test_linked_matches_a_triple_scan(self):
        """_linked walks the smaller mask; both sides get to be the smaller
        one, with both outcomes, and the masks may overlap."""
        smaller = {True: 0, False: 0}
        outcomes = set()
        for seed in range(600):
            rnd = random.Random(seed)
            n = rnd.randint(4, 16)
            color = (RED, BLUE)[seed % 2]
            c = Coloring(n, sum(1 << r for r in range(comb(n, 3)) if rnd.random() < 0.15))
            T, has = _LinkTables(c).table(color), c.test(color)
            end = rnd.randrange(n)
            links = sum(1 << v for v in rnd.sample(range(n), rnd.randint(0, n)) if v != end)
            slot = sum(1 << v for v in rnd.sample(range(n), rnd.randint(0, n)) if v != end)
            want = any(
                w != s and has(w, end, s) for w in _bits(links) for s in _bits(slot)
            )
            assert _linked(T, links, end, slot) == want, seed
            if links.bit_count() != slot.bit_count():
                smaller[links.bit_count() < slot.bit_count()] += 1
            outcomes.add(want)
        assert min(smaller.values()) > 100 and outcomes == {True, False}

    def test_bridges_matches_the_slot_matcher(self):
        """The case split on where the links lie agrees with the search over
        link choices and slot matchings, on random link tables of red
        density 0.2, 0.5 and 0.8 with one- and three-vertex cores.  Triples
        through lat or rat are red with probability density / |W|: at one
        uniform density nearly every window passes, this keeps both
        outcomes common at every |W|."""
        fails = 0
        for seed in range(1200):
            rnd = random.Random(seed)
            density, k = (0.2, 0.5, 0.8)[seed % 3], (1, 3)[seed // 3 % 2]
            nw = rnd.randint(2, 18)
            n = rnd.randint(2 + k + nw, 24)
            verts = rnd.sample(range(n), 2 + k + nw)
            lat, rat = verts[:2]
            bits = 0
            for r, e in enumerate(_triples(n)):
                if rnd.random() < (density / nw if lat in e or rat in e else density):
                    bits |= 1 << r
            T = _LinkTables(Coloring(n, bits)).table(RED)
            cmask = sum(1 << v for v in verts[2 : 2 + k])
            wmask = sum(1 << v for v in verts[2 + k :])
            want = _reference_bridges(T, lat, rat, cmask, wmask)
            assert _bridges(T, (lat,), (rat,), cmask, wmask, _Reach(T, list(_bits(wmask)))) == want, seed
            fails += not want
        assert fails >= 1200 // 3

    def test_bridges_is_exact(self):
        """_bridges holds iff some pair x, y of the reservoir routes a red
        loose path from lat to rat through exactly core + {x, y}."""
        hits = 0
        for seed in range(1500):
            c, p, w = _instance(seed)
            k = 3 if len(p) >= 5 and seed % 2 else 1
            lat, rat, core = p[0], p[-1], p[1 : 1 + k]
            red = c.test(RED)

            def routes(seq):
                ends = [lat, *seq, rat]
                return all(red(*ends[i : i + 3]) for i in range(0, len(ends) - 2, 2))

            want = any(
                routes(seq) for x, y in combinations(w, 2) for seq in permutations(core + [x, y])
            )
            cmask = sum(1 << v for v in core)
            wmask = sum(1 << v for v in w)
            T = _LinkTables(c).table(RED)
            assert _bridges(T, (lat,), (rat,), cmask, wmask, _Reach(T, list(_bits(wmask)))) == want, seed
            hits += want
        assert 100 < hits < 1400

    def test_union_passes_where_a_pair_passes(self):
        """_bridges on one or two lats and one or two rats passes exactly
        when one of their pairs passes, on tables built as in the
        slot-matcher test: sound, as every clause is monotone in the ends'
        masks, and no looser, as every clause joins one mask of each side."""
        outcomes = set()
        for seed in range(1600):
            rnd = random.Random(seed)
            density, k = (0.2, 0.5, 0.8)[seed % 3], (1, 3)[seed // 3 % 2]
            nl, nr = 1 + seed // 6 % 2, 1 + seed // 12 % 2
            nw = rnd.randint(2, 14)
            n = rnd.randint(nl + nr + k + nw, 24)
            verts = rnd.sample(range(n), nl + nr + k + nw)
            lats, rats = tuple(verts[:nl]), tuple(verts[nl : nl + nr])
            ends = set(lats + rats)
            bits = 0
            for r, e in enumerate(_triples(n)):
                if rnd.random() < (density / nw if ends.intersection(e) else density):
                    bits |= 1 << r
            T = _LinkTables(Coloring(n, bits)).table(RED)
            cmask = sum(1 << v for v in verts[nl + nr : nl + nr + k])
            wmask = sum(1 << v for v in verts[nl + nr + k :])
            some = any(_reference_bridges(T, lat, rat, cmask, wmask) for lat in lats for rat in rats)
            union = _bridges(T, lats, rats, cmask, wmask, _Reach(T, list(_bits(wmask))))
            assert union == some, seed
            outcomes.add((nl + nr, union))
        assert outcomes == {(k, b) for k in (2, 3, 4) for b in (True, False)}

    def test_union_test_is_one_bridges_call_per_window(self, monkeypatch):
        """_find_move returns the move of the search that tests each end
        pair of a window on its own, and makes exactly one _bridges call per
        window that search tests: on random reservoirs of seeded instances,
        and on every call of split+1 pp(10, 10) and cc(10, 10) a+1 plain
        and pp(10, 10) b+1 swapped.  On those solves the pair-by-pair
        search makes more _bridges calls."""
        real_find, real_bridges = extractor._find_move, extractor._bridges
        calls = dict.fromkeys(("windows", "bridges", "made"), 0)

        def counting(*args):
            calls["made"] += 1
            return real_bridges(*args)

        def both(T, p, wset):
            before = dict(calls)
            want = _reference_pairwise_find_move(T, list(p), wset, calls)
            got = real_find(T, p, wset)
            assert got == want
            assert calls["made"] - before["made"] == calls["windows"] - before["windows"]
            return got

        monkeypatch.setattr(extractor, "_bridges", counting)
        for seed in range(600):
            c, p, rest = _move_instance(seed)
            rnd = random.Random(seed)
            T = _LinkTables(c).table(RED)
            for _ in range(4):
                both(T, p, set(rnd.sample(rest, rnd.randint(0, len(rest)))))
        monkeypatch.setattr(extractor, "_find_move", both)
        calls.update(windows=0, bridges=0, made=0)
        for kind, side, swap in ((PP, "a", False), (CC, "a", False), (PP, "b", True)):
            pair = PairKind(kind, 10, 10)
            spec = lower_bound_params(pair)
            c = build_split_coloring(SplitSpec(spec.a + (side == "a"), spec.b + (side == "b")))
            c = c.swap() if swap else c
            assert verify_witness(c.restrict(ramsey_number(pair)), solve(pair, c))
        assert 0 < calls["made"] == calls["windows"] < calls["bridges"]

    def test_searches_leave_no_reference_cycles(self):
        """A hard solve, whose blue chain runs, and the proofs of absence on
        an extremal split coloring free everything they allocate by
        reference counting: the cyclic collector then finds nothing."""
        pair = PairKind(PP, 10, 10)
        spec = lower_bound_params(pair)
        hard = build_split_coloring(SplitSpec(spec.a, spec.b + 1)).swap()
        split = build_split_coloring(lower_bound_params(PairKind(PP, 6, 6)))
        gc.collect()
        gc.disable()
        try:
            w = solve(pair, hard)
            assert find_mono_path(split, RED, 6) is None
            assert find_mono_path(split, BLUE, 6) is None
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert verify_witness(hard.restrict(ramsey_number(pair)), w)

    def test_route_matches_a_permutation_scan(self):
        """_route returns the first ordering of its pool, in permutations
        order, that makes end, pool..., rat a red loose path, on random
        tables of red density 0.2, 0.5 and 0.8 with pools of 3 and 5; in
        _find_move it only runs on windows that _bridges accepts."""
        seen = {3: set(), 5: set()}
        for seed in range(1200):
            rnd = random.Random(seed)
            density, k = (0.2, 0.5, 0.8)[seed % 3], (3, 5)[seed // 3 % 2]
            n = rnd.randint(k + 2, 14)
            c = Coloring(n, sum(1 << r for r in range(comb(n, 3)) if rnd.random() < density))
            end, rat, *pool = rnd.sample(range(n), k + 2)
            red = c.test(RED)
            want = next((
                list(seq) for seq in permutations(pool)
                if all(red(*[end, *seq, rat][i : i + 3]) for i in range(0, k + 1, 2))
            ), None)
            assert _route(_LinkTables(c).table(RED), end, pool, rat) == want, seed
            seen[k].add("none" if want is None else "first" if want == pool else "later")
        assert seen == {3: {"none", "first", "later"}, 5: {"none", "first", "later"}}

    def test_find_move_matches_the_scan(self):
        moves = 0
        for seed in range(1500):
            c, p, w = _instance(seed)
            got = _find_move(_LinkTables(c).table(RED), list(p), set(w))
            assert got == _reference_find_move(c.test(RED), list(p), set(w)), seed
            moves += got is not None
        assert 100 < moves < 1400

    def test_find_move_depends_only_on_its_arguments(self):
        """Searches on one table, over reservoirs that nest, overlap or
        repeat, asked in one order and then in the reverse, each return the
        scan's move for their own reservoir; the table, the path and the
        reservoir come back unchanged."""
        moves = 0
        for seed in range(400):
            c, p, rest = _move_instance(seed)
            rnd = random.Random(seed)
            T, red = _LinkTables(c).table(RED), c.test(RED)
            rows = [list(row) for row in T]
            ws = [set(rnd.sample(rest, rnd.randint(2, len(rest)))) for _ in range(3)]
            ws += [set(rnd.sample(sorted(w), rnd.randint(0, len(w)))) for w in ws]
            want = [_reference_find_move(red, list(p), set(w)) for w in ws]
            for order in (range(len(ws)), reversed(range(len(ws)))):
                for i in order:
                    path, w = list(p), set(ws[i])
                    assert _find_move(T, path, w) == want[i], seed
                    assert path == p and w == ws[i], seed
            assert [list(row) for row in T] == rows, seed
            moves += sum(m is not None for m in want)
        assert 1000 < moves < 2200

    def test_chain_matches_the_scan(self):
        # three-edge windows need paths of three edges or more
        for seed in range(3000):
            c, p, w = _instance(seed, min_edges=3)
            got_trace, want_trace = [], []
            got = _chain(_LinkTables(c).table(BLUE), p, sorted(w), got_trace)
            assert got == _reference_chain(c, p, sorted(w), want_trace), seed
            assert got_trace == want_trace, seed

    def test_chain_matches_the_uncapped_scan(self, monkeypatch):
        """The memoized search returns what the scan without a node budget
        returns, trace notes included, on chains whose full assembly often
        comes late and on the chains of split+1 pp(10, 10) b+1 swapped and
        cc(10, 10) a+1 plain, which the scan proves leftover 1 in about
        45000 nodes."""
        cases = [_instance(seed, min_edges=3) for seed in range(300)]
        cases = [(c, p, sorted(w)) for c, p, w in cases]
        cases += [_late_chain_instance(seed) for seed in range(300)]
        cases += _hard_chain_calls(monkeypatch)
        for i, (c, p, w) in enumerate(cases):
            got_trace, want_trace = [], []
            got = _chain(_LinkTables(c).table(BLUE), p, w, got_trace)
            assert got == _reference_chain(c, p, w, want_trace), i
            assert got_trace == want_trace, i

    def test_chain_stops_at_its_node_cap(self, monkeypatch):
        """At _CHAIN_BUDGET nodes the search notes the cap and returns its
        best assembly with the leftover note: a blue chain over the window
        vertices and the reservoir vertices it used, of at most one window
        per node, as each window's node was entered.  The cap binds only
        where the scan with that node budget runs out; below it the result
        is the unbudgeted scan's.  At the default, none of the 1000
        synthetic instances reaches the cap."""
        cases = [_late_chain_instance(seed) for seed in range(300)]
        for cap in (1, 2, 5):
            monkeypatch.setattr(extractor, "_CHAIN_BUDGET", cap)
            capped = 0
            for i, (c, p, w) in enumerate(cases):
                trace, stats = [], {}
                got = _chain(_LinkTables(c).table(BLUE), p, w, trace)
                if trace[:1] != [f"chain: node cap {cap} reached"]:
                    assert got == _reference_chain(c, p, w, []), (cap, i)
                    continue
                capped += 1
                _reference_chain(c, p, w, [], stats, budget=cap)
                assert stats["budget"] == 0, (cap, i)
                seq, used, consumed = got
                assert trace[1:] == [f"chain: leftover {len(w) - len(used)} reservoir vertices"]
                assert used and used == set(seq) & set(w), (cap, i)
                assert set(seq) - used <= set(p[: 2 * consumed]), (cap, i)
                assert consumed <= 3 * cap, (cap, i)
                assert len(seq) % 2 and len(set(seq)) == len(seq), (cap, i)
                blue = c.test(BLUE)
                assert all(blue(*seq[k : k + 3]) for k in range(0, len(seq) - 2, 2)), (cap, i)
            assert 0 < capped < len(cases), cap
        monkeypatch.undo()
        cases += [(c, p, sorted(w)) for c, p, w in (_instance(seed, min_edges=3) for seed in range(300))]
        cases += [(c, p, w) for c, p, w, _ in map(_isolated_chain_instance, range(400))]
        for c, p, w in cases:
            trace = []
            _chain(_LinkTables(c).table(BLUE), p, w, trace)
            assert not any(note.startswith("chain: node cap") for note in trace)

    def test_chain_uses_each_reservoir_vertex_once(self):
        # the blue triples {7,0,1} {1,4,8} {8,3,5} {5,2,7} would close the
        # 3-edge window at 0 only by reusing its head 7 as its tail
        blue = [(0, 1, 7), (1, 4, 8), (3, 5, 8), (2, 5, 7)]
        c = Coloring(9, 0).swap()
        for e in blue:
            c = Coloring(9, c.red_bits ^ 1 << colex_rank(TripleEdge(*e)))
        trace = []
        got = _chain(_LinkTables(c).table(BLUE), list(range(7)), [7, 8], trace)
        assert got == (None, frozenset(), 0)
        assert trace == ["chain: leftover 2 reservoir vertices"]
        assert got == _reference_chain(c, list(range(7)), [7, 8], [])

    def test_chain_stops_at_the_usable_bound(self, monkeypatch):
        """The search stops at an assembly that uses every reservoir vertex
        some window can place, and returns what the scan returns, trace
        notes included: on reservoirs with a vertex no window can place,
        and on the top-level chains of split+1 cc(10, 10) and pmcn(10, 9)
        a+1 plain and pp(n, n) b+1 swapped at n = 10, 12, 20 and 40, which
        end with leftover 1.  The scan proves a leftover only by exhausting
        its tree, past 10^6 nodes at pp(12, 12), so it gets 4000 nodes; it
        reaches the final assembly within them, and nothing after it can
        beat that.  The search takes one node per two edges of the path:
        it ran 33, 33, 33 and 17 nodes on the first four when it ran until
        w0 was used."""
        isolated = [_isolated_chain_instance(seed) for seed in range(400)]
        hard = _hard_chain_calls(monkeypatch, (
            (CC, 10, 10, "a", False), (PMCN, 10, 9, "a", False),
            (PP, 10, 10, "b", True), (PP, 12, 12, "b", True),
            (PP, 20, 20, "b", True), (PP, 40, 40, "b", True),
        ))
        assert len(hard) == 6
        cases = [(c, p, w) for c, p, w, _ in isolated] + hard
        for i, (c, p, w) in enumerate(cases):
            got_trace, scan_trace = [], []
            got = _chain(_LinkTables(c).table(BLUE), p, w, got_trace)
            assert got == _reference_chain(c, p, w, scan_trace, budget=4000), i
            assert got_trace == scan_trace, i
            if i < len(isolated):
                assert not got[1] & isolated[i][3], i
        for c, p, w in hard:
            trace, nodes = _rec_entries(_LinkTables(c).table(BLUE), p, w)
            assert trace == ["chain: leftover 1 reservoir vertices"]
            assert nodes <= (len(p) - 1) // 4, (p, w)

    def test_two_link_walk_is_guarded(self, monkeypatch):
        """On split+1 pp(n, n) a+1 plain, every two-link walk of the move
        search fails, and reach[y] rules each out before it starts: _linked
        runs 0 times at n = 10 and 40 (24 and 636 times without the guard)."""
        walks = []
        real = extractor._linked
        monkeypatch.setattr(extractor, "_linked", lambda *a: walks.append(a) or real(*a))
        for n in (10, 40):
            pair = PairKind(PP, n, n)
            spec = lower_bound_params(pair)
            c = build_split_coloring(SplitSpec(spec.a + 1, spec.b))
            w = solve(pair, c)
            assert verify_witness(c.restrict(ramsey_number(pair)), w)
        assert walks == []


def _move_instance(seed):
    """A seeded (coloring, path, other vertices) on at most 16 vertices: a
    random coloring of red density 0.2, 0.5 or 0.8, or a split+1 coloring
    plain or swapped; the greedy red path or a random vertex sequence."""
    rnd = random.Random(seed)
    n = rnd.randint(7, 16)
    if seed % 4 == 3:
        a = rnd.randint(3, n - 2)
        c = build_split_coloring(SplitSpec(a, n - a))
        c = c.swap() if rnd.random() < 0.5 else c
    else:
        density = (0.2, 0.5, 0.8)[seed % 4]
        c = Coloring(n, sum(1 << r for r in range(comb(n, 3)) if rnd.random() < density))
    p = _greedy(c, n)
    if len(p) < 3 or len(p) > n - 3 or rnd.random() < 0.5:
        p = rnd.sample(range(n), 2 * rnd.randint(1, (n - 3) // 2) + 1)
    return c, p, [v for v in range(n) if v not in p]


def _greedy_through(T, c):
    """_reference_greedy with the end extension by _append_extend through
    T, the red table of c or of a coloring c is a prefix of."""
    if c.red_bits == 0:
        return []
    seq = list(colex_unrank((c.red_bits & -c.red_bits).bit_length() - 1, c.n_vertices))
    _append_extend(c.n_vertices, seq, T)
    return seq


class TestDescentReuse:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(3, 14), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_greedy_path_is_the_prefix_greedy_path(self, n, seed, data):
        """The greedy path of c.restrict(k), and of c on its first k
        vertices, is the greedy path of c whenever every vertex of the
        latter lies below k."""
        rnd = random.Random(seed)
        if rnd.random() < 0.3:
            a = rnd.randint(3, n)
            c = build_split_coloring(SplitSpec(a, n - a))
            c = c.swap() if rnd.random() < 0.5 else c
        else:
            density = rnd.choice([0.05, 0.2, 0.5, 0.9])
            c = Coloring(n, sum(1 << r for r in range(comb(n, 3)) if rnd.random() < density))
        gp = _greedy(c, n)
        k = data.draw(st.integers(max(gp, default=2) + 1, n))
        assert _greedy(c.restrict(k), k) == _greedy(c, k) == gp

    def test_end_extension_from_rows_is_the_triple_scan(self):
        """_append_extend through the red table of a larger coloring returns
        the sequence the per-triple scan through Coloring.test returns on
        the prefix, from seeds of one, three or five vertices and from the
        greedy seed; so do the greedy builds through the byte view of the
        prefix, or of the larger coloring with the prefix's vertex count."""
        grown = 0
        for seed in range(600):
            rnd = random.Random(seed)
            big = rnd.randint(4, 18)
            density = (0.1, 0.3, 0.5, 0.8)[seed % 4]
            top = Coloring(big, sum(1 << r for r in range(comb(big, 3)) if rnd.random() < density))
            T = _LinkTables(top).table(RED)
            c = top.restrict(rnd.randint(3, big))
            n = c.n_vertices
            start = rnd.sample(range(n), rnd.choice([k for k in (1, 3, 5) if k <= n]))
            rows, triples = list(start), list(start)
            _append_extend(n, rows, T)
            _reference_append_extend(c.test(RED), n, triples)
            assert rows == triples, seed
            want = _reference_greedy(c)
            assert _greedy(c, n) == _greedy(top, n) == want, seed
            assert _greedy_through(T, c) == want, seed
            grown += len(rows) > len(start)
        assert grown > 300

    def test_a_stuck_tail_leaves_the_head_to_extend(self):
        """The seed {0, 1, 2}'s tail 2 has no red edge into the free
        vertices, though red triples through 2 and vertices of the path
        exist; the head extends three times.  The byte-view build, which
        stops probing the tail, end extension through the red table from
        the greedy seed and the per-triple scan return the same path."""
        red = [(0, 1, 2), (0, 2, 5), (1, 2, 7), (0, 3, 4), (4, 5, 6), (6, 7, 8), (8, 3, 9)]
        c = Coloring(12, sum(1 << colex_rank(TripleEdge.of(*t)) for t in red))
        T = _LinkTables(c).table(RED)
        want = [8, 7, 6, 5, 4, 3, 0, 1, 2]
        assert _greedy(c, 12) == _greedy_through(T, c) == _reference_greedy(c) == want

    def test_greedy_on_a_huge_sparse_coloring_is_its_prefix_greedy(self):
        """N = 100000 with every red triple below vertex 20: the byte-view
        build holds only the vertices below its rank tables' size, far
        below N, and returns the greedy path of c.restrict(20)."""
        for seed in range(20):
            rnd = random.Random(seed)
            c = Coloring(100_000, rnd.getrandbits(comb(20, 3)) & rnd.getrandbits(comb(20, 3)))
            assert len(c._ranks[2]) < 30
            small = c.restrict(20)
            assert _greedy(c, 100_000) == _greedy(small, 20) == _reference_greedy(small), seed

    def test_byte_view_greedy_is_the_triple_scan(self):
        """The greedy build from the byte view is the per-triple scan through
        Coloring.test: on split colorings and their swaps; on sparse views,
        whose every rank from a cut upward is blue, so that the rank tables
        stop below N; on bitmaps whose low word is blue, where the seed's
        lowest red rank comes from the whole bitmap; and on the prefixes of a
        larger coloring, read through its byte view with the prefix's
        vertex count."""
        seen = {"short tables": 0, "blue low word": 0, "vertex bound": 0}
        for seed in range(400):
            rnd = random.Random(seed)
            n = rnd.randint(3, 30)
            t = comb(n, 3)
            bits = rnd.getrandbits(t)
            if seed % 2:
                bits &= rnd.getrandbits(t)
            if seed % 4 == 0:
                a = rnd.randint(3, n)
                c = build_split_coloring(SplitSpec(a, n - a))
                c = c.swap() if seed % 8 == 4 else c
            elif seed % 4 == 1:
                c = Coloring(n, bits & ((1 << rnd.randint(0, t)) - 1))
            elif seed % 4 == 2:
                low = rnd.randint(64, max(64, t))
                c = Coloring(n, bits >> low << low)
            else:
                top = Coloring(n + rnd.randint(1, 8), 0)
                top = Coloring(top.n_vertices, rnd.getrandbits(top.n_triples))
                c = top.restrict(n)
                seen["vertex bound"] += 1
                assert _greedy(top, n) == _reference_greedy(c), seed
            seen["short tables"] += len(c._ranks[2]) < n
            seen["blue low word"] += c.red_bits and not c.red_bits & 0xFFFFFFFFFFFFFFFF
            assert _greedy(c, n) == _reference_greedy(c), seed
        assert min(seen.values()) > 40, seen

    def test_solve_at_the_threshold_builds_no_coloring(self, monkeypatch):
        """split+1 pp(40, 40) a+1 plain, whose ascent swaps the colours more
        than ten times: a solve of a coloring at exactly its threshold
        constructs no Coloring and calls neither swap() nor restrict()
        beyond the top one's restrict(N), which is the coloring itself; it
        computes the greedy seed's lowest red rank once."""
        pair = PairKind(PP, 40, 40)
        spec = lower_bound_params(pair)
        c, trace = build_split_coloring(SplitSpec(spec.a + 1, spec.b)), []
        assert c.n_vertices == ramsey_number(pair)
        made, calls, seeds = [], [], []
        real_init, real_swap, real_restrict, real_lowest = (
            Coloring.__post_init__, Coloring.swap, Coloring.restrict, Coloring._lowest_red.func)
        monkeypatch.setattr(Coloring, "__post_init__", lambda self: made.append(self) or real_init(self))
        monkeypatch.setattr(Coloring, "swap", lambda self: calls.append("swap") or real_swap(self))
        monkeypatch.setattr(
            Coloring, "restrict", lambda self, k: calls.append(("restrict", k)) or real_restrict(self, k))
        counting = _cached(lambda self: seeds.append(self) or real_lowest(self))
        counting.__set_name__(Coloring, "_lowest_red")
        monkeypatch.setattr(Coloring, "_lowest_red", counting)
        w = solve(pair, c, trace=trace)
        assert sum("swapping colors" in note for note in trace) > 10
        assert made == [] and calls == [("restrict", c.n_vertices)]
        assert seeds == [c]
        assert verify_witness(c, w)

    @given(n=st.integers(4, 30), seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_the_vertex_bound_is_the_prefix(self, n, seed, data):
        """_greedy on the first k vertices of a coloring is _greedy of its
        restriction to them, for random, sparse and all-blue colorings."""
        rnd = random.Random(seed)
        t = comb(n, 3)
        kind = data.draw(st.sampled_from(["random", "sparse", "all blue"]))
        bits = {"random": rnd.getrandbits(t), "sparse": 1 << rnd.randrange(t), "all blue": 0}[kind]
        top = Coloring(n, bits)
        k = data.draw(st.integers(3, n - 1))
        assert _greedy(top, k) == _greedy(top.restrict(k), k)

    @pytest.mark.parametrize("pair", [PairKind(CC, 6, 6), PairKind(PMCN, 6, 5)])
    def test_swapped_views_of_a_huge_sparse_coloring(self, pair):
        """One red triple of K3_100000: the ascent's swapped levels read table
        rows only, so no complement of the bitmap is built, let alone one
        of all C(100000, 3) ranks."""
        c, trace = Coloring(100_000, 1), []
        tracemalloc.start()
        try:
            w = solve(pair, c, trace=trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert any("swapping colors" in note for note in trace)
        assert verify_witness(c, w)
        assert peak < 1 << 20

    def test_descent_reuses_settled_work(self, monkeypatch):
        """On split+1 pp(12, 12) a+1 with the triple {0, 1, 2} flipped to
        red, the descent builds the greedy path on fewer levels than it
        tries greedily, and a level that repeats the (N, target) of the
        level above tries nothing: no two consecutive greedy attempts share
        them, while the first level's calls _bridges.  The flip is what
        picks the coloring: it puts the lowest red triple's top vertex at 2,
        so the red span rules out no level, where on the plain split+1
        coloring it rules out every one."""
        builds, levels, bridges = [], [], [0]
        real_greedy, real_fast, real_bridges = (
            extractor._greedy, extractor._fast_red, extractor._bridges)

        def counting_bridges(*args):
            bridges[0] += 1
            return real_bridges(*args)

        def recording_fast(c, n, target, links, gp):
            before = bridges[0]
            w = real_fast(c, n, target, links, gp)
            levels.append(((n, target), bridges[0] - before))
            return w

        monkeypatch.setattr(extractor, "_greedy", lambda c, n: builds.append(n) or real_greedy(c, n))
        monkeypatch.setattr(extractor, "_fast_red", recording_fast)
        monkeypatch.setattr(extractor, "_bridges", counting_bridges)
        pair = PairKind(PP, 12, 12)
        spec = lower_bound_params(pair)
        split = build_split_coloring(SplitSpec(spec.a + 1, spec.b))
        c = Coloring(split.n_vertices, split.red_bits | 1)
        assert verify_witness(c, solve(pair, c))
        assert len(levels) >= 3 and len(builds) < len(levels)
        keys = [key for key, _ in levels]
        assert all(a != b for a, b in zip(keys, keys[1:])), keys
        assert levels[0][1] > 0
