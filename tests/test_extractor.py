"""Witness extraction: greedy growth, maximality, chaining, the full solver."""

import inspect
import random
import sys
import warnings
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

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
from looseramsey.core import (
    BLUE,
    CYCLE,
    PATH,
    RED,
    Coloring,
    TripleEdge,
    Witness,
    colex_rank,
    colex_unrank,
    opposite,
    validate_loose_cycle,
    validate_loose_path,
    validate_structure,
    verify_witness,
)
from looseramsey import extractor
from looseramsey.extractor import (
    _BASES,
    _boundary_table,
    _boundary_twins,
    _chain,
    _check,
    _convert_cycle,
    _cycle_step,
    _find_move,
    _LinkTables,
    _open_cycle,
    _greedy,
    _path_step,
    _plan,
    _red_fits,
    _red_span,
    ramsey_number,
    solve,
)
from looseramsey.formats import decode
from looseramsey.oracle import _twins, find_mono_cycle, find_mono_path
from test_census import _module as _census
from test_oracle import _reference_family_search, check_twins


def _from_edges(n, edges):
    return decode(f"LRE1 {n}\n" + "".join(f"{a} {b} {c}\n" for a, b, c in edges))


def _rand(n, seed):
    return Coloring(n, random.Random(seed).getrandbits(comb(n, 3)))


def _path_only(n_vertices, path_len):
    """Coloring whose red graph is exactly one loose path starting at 0."""
    verts = list(range(2 * path_len + 1))
    edges = [tuple(verts[2 * i : 2 * i + 3]) for i in range(path_len)]
    return _from_edges(n_vertices, edges), verts


def _maximal(c, verts, wset):
    """Apply replacement moves until none exists; each grows the path by one
    edge and consumes two reservoir vertices."""
    red = _LinkTables(c).table(RED)
    while (mv := _find_move(red, verts, wset)) is not None:
        verts, (x, y) = mv
        wset = wset - {x, y}
    return verts, wset


def _reference_step_opener(c, cyc):
    """The boundary scan that `_cycle_step` ran before `_open_cycle` served
    it, verbatim: ((z, c1, P), None) or (None, all-blue family)."""
    red = c.test(RED)
    k = len(cyc)
    outside = sorted(set(range(c.n_vertices)) - set(cyc))

    opener = None
    for idx in range(0, k, 2):
        va, vb, vc = cyc[idx], cyc[idx + 1], cyc[(idx + 2) % k]
        for z in outside:
            if red(vb, vc, z):
                opener = (cyc[idx:] + cyc[:idx], z)
                break
            if red(va, vb, z):
                # reverse the cycle so the red boundary edge sits at the front
                opener = ([cyc[(idx + 2 - t) % k] for t in range(k)], z)
                break
        if opener:
            break

    if opener is None:
        family = []
        for j in range(0, k, 2):
            for z in outside:
                family.append(TripleEdge.of(cyc[j], cyc[j + 1], z))
                family.append(TripleEdge.of(cyc[j + 1], cyc[(j + 2) % k], z))
        return None, family

    cyc2, z = opener
    c0, c1, c2 = cyc2[0], cyc2[1], cyc2[2]
    P = list(cyc2[2:]) + [cyc2[0]]
    return (z, c1, P), None


def _reference_open_cycle(c, cyc, color):
    """`_open_cycle` before it tested {v, w, z} first and started every
    path at z, verbatim."""
    test = c.test(color)
    k = len(cyc)
    outside = sorted(set(range(c.n_vertices)) - set(cyc))
    family = []
    for j in range(0, k, 2):
        u, v, w = cyc[j], cyc[j + 1], cyc[(j + 2) % k]
        for z in outside:
            if test(u, v, z):
                return "path", cyc[j + 2 :] + cyc[: j + 1] + [v, z]
            if test(v, w, z):
                return "path", [z, v] + cyc[j + 2 :] + cyc[: j + 1]
            family.append(TripleEdge.of(u, v, z))
            family.append(TripleEdge.of(v, w, z))
    return "family", family


def _opener_instance(seed):
    """(coloring, cycle, colour): a random coloring of K3_N, N 7-14, and a
    random cycle of the colour whose boundary edges before the cycle edge
    at a random j (or all of them) have the opposite colour, so the first
    boundary edge of the colour sits at j = 0, at the wrap j = k - 2, in
    between, or nowhere."""
    rnd = random.Random(seed)
    n = rnd.randint(7, 14)
    k = 2 * rnd.randint(3, n // 2)
    cyc = rnd.sample(range(n), k)
    color = rnd.choice((RED, BLUE))
    first = rnd.choice([0, k - 2, None] + list(range(0, k, 2)))
    bits = rnd.getrandbits(comb(n, 3))
    for j in range(0, k, 2):
        bit = 1 << colex_rank(TripleEdge.of(cyc[j], cyc[j + 1], cyc[(j + 2) % k]))
        bits = bits | bit if color == RED else bits & ~bit
    outside = [z for z in range(n) if z not in cyc]
    for j in range(0, k if first is None else first, 2):
        for z in outside:
            for e in (TripleEdge.of(cyc[j], cyc[j + 1], z), TripleEdge.of(cyc[j + 1], cyc[(j + 2) % k], z)):
                bit = 1 << colex_rank(e)
                bits = bits & ~bit if color == RED else bits | bit
    return Coloring(n, bits), cyc, color


class TestOpenCycle:
    """`_open_cycle` is the one boundary scan: the cycle step's opener, the
    red-cycle conversion and the blue-cycle opening all call it."""

    def test_matches_the_step_opener(self):
        found = wrapped = 0
        for seed in range(1500):
            c, cyc, color = _opener_instance(seed)
            k = len(cyc)
            path = _open_cycle(c.n_vertices, cyc, _LinkTables(c).table(color))
            # the old step opener reads red; the blue case is red after a swap
            ref, _ = _reference_step_opener(c if color == RED else c.swap(), cyc)
            old_kind, _ = _reference_open_cycle(c, cyc, color)
            if path is None:
                assert ref is None and old_kind == "family"
                continue
            assert old_kind == "path"
            assert (path[0], path[1], path[2:]) == ref
            w = Witness(color, PATH, validate_loose_path(path))
            assert w.length == k // 2 and verify_witness(c, w)
            assert set(path) == set(cyc) | {path[0]}
            found += 1
            wrapped += path[1] == cyc[k - 1]
        assert found > 500 and wrapped > 20

    def test_reads_only_the_prefix(self):
        """On a prefix, with the table of a larger coloring whose triples
        through the extra vertices all have the cycle's colour, the opener
        returns what it returns on the prefix's own table."""
        closed = 0
        for seed in range(600):
            c, cyc, color = _opener_instance(seed)
            n, extra = c.n_vertices, comb(c.n_vertices + 3, 3) - c.n_triples
            bits = c.red_bits | (((1 << extra) - 1) << c.n_triples if color == RED else 0)
            big = Coloring(n + 3, bits)
            path = _open_cycle(n, cyc, _LinkTables(big).table(color))
            assert path == _open_cycle(n, cyc, _LinkTables(c).table(color)), seed
            assert _open_cycle(n + 3, cyc, _LinkTables(big).table(color)) is not None
            closed += path is None
        assert closed > 100


def _check_instance(seed):
    """(coloring, its links, colour, shape, sequence): a prefix of a random
    coloring of K3_N, N 7-16, of random red density, itself a prefix of a
    larger one, or the prefix's colour swap, with the links of the top
    coloring (swapped with it), which a level of solve reads with the
    prefix's vertex count; and a random sequence:
    distinct vertices of the prefix, half of them as short as a target can
    be so that some are monochromatic, or a sequence that fails to
    validate or reaches past the prefix."""
    rnd = random.Random(seed)
    N = rnd.randint(7, 16)
    density = rnd.choice((0.1, 0.5, 0.9))
    bits = sum(1 << r for r in range(comb(N + 2, 3)) if rnd.random() < density)
    top = Coloring(N + 2, bits).restrict(N)
    c, links = top.restrict(rnd.randint(6, N)), _LinkTables(top)
    if rnd.random() < 0.5:
        c, links = c.swap(), links.swap()
    color, shape = rnd.choice((RED, BLUE)), rnd.choice((PATH, CYCLE))
    short = 3 if shape == PATH else 6
    size = rnd.choice((short, rnd.randint(short, c.n_vertices)))
    seq = rnd.sample(range(c.n_vertices), size)
    fault = rnd.choice((None, None, "duplicate", "parity", "short", "outside"))
    if fault == "duplicate":
        seq[-1] = seq[0]
    elif fault == "parity":
        seq = seq[:-1]
    elif fault == "short":
        seq = seq[: short - 2]
    elif fault == "outside":
        seq[rnd.randrange(size)] = rnd.randint(c.n_vertices, N - 1 + (c.n_vertices == N))
    return c, links, color, shape, seq


class TestCheck:
    """`_check` reads the candidate's edges from the colour's table in the
    links; it accepts exactly what validate_structure and verify_witness
    accept, on prefixes and on colour swaps of them."""

    def test_agrees_with_verify_witness(self):
        accepted = rejected = invalid = 0
        for seed in range(3000):
            c, links, color, shape, seq = _check_instance(seed)
            try:
                w = Witness(color, shape, validate_structure(shape, seq))
            except ValueError:
                want = None
                invalid += 1
            else:
                want = w if verify_witness(c, w) else None
            assert _check(c.n_vertices, links, color, shape, seq) == want, seed
            accepted += want is not None
            rejected += want is None
        assert accepted > 300 and rejected - invalid > 300 and invalid > 300


def _boundary_instances(seeds):
    """(coloring, cycle, colour, family) for the instances of _opener_instance
    whose boundary edges all have the colour opposite to the cycle's, with
    the boundary family the old opener listed."""
    for seed in seeds:
        c, cyc, color = _opener_instance(seed)
        kind, family = _reference_open_cycle(c, cyc, color)
        if kind == "family":
            yield c, cyc, color, family


class TestBoundaryTable:
    """The boundary assembly runs the oracle kernel on `_boundary_table`,
    which is the table the edge-family search built from the opener's list
    of boundary edges, and finds what that search found."""

    def test_is_the_family_table(self):
        checked = 0
        for c, cyc, color, family in _boundary_instances(range(1500)):
            n = c.n_vertices
            ref = [[0] * n for _ in range(n)]
            for a, b, z in family:
                for x, y, w in ((a, b, z), (b, z, a), (z, a, b)):
                    ref[x][y] |= 1 << w
                    ref[y][x] |= 1 << w
            assert len(family) == len(set(family)) == len(cyc) * (n - len(cyc))
            assert all(c.test(opposite(color))(*e) for e in family)
            assert _boundary_table(n, cyc) == ref
            checked += 1
        assert checked > 400

    def test_twin_classes(self):
        checked = 0
        for c, cyc, color, family in _boundary_instances(range(300)):
            masks = {1 << a | 1 << b | 1 << z for a, b, z in family}
            check_twins(_boundary_table(c.n_vertices, cyc),
                        lambda x, y, z: (1 << x | 1 << y | 1 << z) in masks)
            checked += 1
        assert checked > 60

    def test_closed_form_twins(self):
        """The twin classes the assemblies pass to the search are the ones
        _twins finds on the boundary table: on random cycles of 6 to N
        vertices, N from 7 to 30, with a vertex or more outside, and on
        cycles through every vertex, whose table is all zero."""
        for seed in range(600):
            rnd = random.Random(seed)
            n = rnd.randint(7, 30)
            k = 2 * rnd.randint(3, (n - 1) // 2)
            cyc = rnd.sample(range(n), k)
            assert _boundary_twins(n, cyc) == _twins(_boundary_table(n, cyc), n), seed
        for n in range(6, 31, 2):
            cyc = random.Random(n).sample(range(n), n)
            assert not any(map(any, _boundary_table(n, cyc)))
            assert _boundary_twins(n, cyc) == _twins(_boundary_table(n, cyc), n), n

    def test_assemblies_match_the_family_search(self, monkeypatch):
        """Both assembly calls, `_convert_cycle`'s and the all-blue boundary
        of `_cycle_step`, return the reference search's sequence for every
        target the coloring has room for, or fall through to the completion
        (stubbed out here) exactly when the reference finds none."""
        monkeypatch.setattr(extractor, "_completion", lambda *args: None)
        found, absent = {RED: 0, BLUE: 0}, {RED: 0, BLUE: 0}
        for c, cyc, color, family in _boundary_instances(range(1500)):
            n, oc = c.n_vertices, opposite(color)
            targets = [(PATH, L) for L in range(1, (n - 1) // 2 + 1)]
            targets += [(CYCLE, L) for L in range(3, n // 2 + 1)]
            # _cycle_step opens red cycles: a blue one is red after the swap
            links = _LinkTables(c)
            step_links = links if color == RED else links.swap()
            for shape, length in targets:
                ref = _reference_family_search(family, shape, length)
                trace = []
                w = _convert_cycle(n, cyc, color, (shape, length), links, trace)
                assert trace == [f"cycle boundary entirely {oc}; assembling {oc} target"]
                step = _cycle_step(n, cyc, len(cyc) // 2 + 1, length, shape, step_links, None)
                if ref is None:
                    assert w is None and step is None
                    absent[color] += 1
                    continue
                assert (w.color, w.shape, w.length) == (oc, shape, length)
                assert list(w.structure.vertices) == ref and verify_witness(c, w)
                assert step.color == BLUE and step.structure == w.structure
                found[color] += 1
        assert sum(found.values()) > 1100 and sum(absent.values()) > 2000, (found, absent)
        assert min(found.values()) > 400 and min(absent.values()) > 800, (found, absent)


class TestRamseyNumber:
    @pytest.mark.parametrize(
        "pair,expected",
        [
            (PairKind(PP, 3, 3), 8),
            (PairKind(PP, 5, 4), 12),
            (PairKind(CC, 3, 3), 7),
            (PairKind(CC, 4, 3), 9),
            (PairKind(CC, 5, 5), 12),
            (PairKind(PNCM, 4, 4), 10),
            (PairKind(PMCN, 4, 3), 9),
            (PairKind(PMCN, 6, 3), 13),
        ],
    )
    def test_table(self, pair, expected):
        assert ramsey_number(pair) == expected

    def test_formulas(self):
        for n in range(3, 9):
            for m in range(3, n + 1):
                assert ramsey_number(PairKind(PP, n, m)) == 2 * n + (m + 1) // 2
                assert ramsey_number(PairKind(PNCM, n, m)) == 2 * n + (m + 1) // 2
                assert ramsey_number(PairKind(CC, n, m)) == 2 * n + (m - 1) // 2
                if n > m:
                    assert ramsey_number(PairKind(PMCN, n, m)) == 2 * n + (m - 1) // 2


class TestGreedyRedPath:
    def test_all_red_k7(self):
        assert len(_greedy(Coloring(7, 0).swap(), 7)) == 7

    def test_all_blue(self):
        assert _greedy(Coloring(7, 0), 7) == []

    def test_split(self):
        assert len(_greedy(build_split_coloring(SplitSpec(7, 1)), 8)) == 5

    def test_result_is_red_and_unextendable(self):
        for seed in range(30):
            c = _rand(9, seed)
            seq = _greedy(c, c.n_vertices)
            if not seq:
                continue
            assert verify_witness(c, Witness(RED, PATH, validate_loose_path(seq)))
            free = set(range(9)) - set(seq)
            red = c.test(RED)
            for a in free:
                for b in free:
                    if a < b:
                        assert not red(seq[-1], a, b)
                        assert not red(seq[0], a, b)


class TestMaximalize:
    """A red path is maximal w.r.t. the reservoir W when _find_move finds no
    length-increasing replacement move."""

    def test_empty_reservoir_unchanged(self):
        red = _LinkTables(Coloring(7, 0).swap()).table(RED)
        assert _find_move(red, list(range(7)), set()) is None

    def test_all_red_grows_by_one(self):
        c = Coloring(7, 0).swap()
        verts, used = _find_move(_LinkTables(c).table(RED), list(range(5)), {5, 6})
        assert used == (5, 6)
        w = Witness(RED, PATH, validate_loose_path(verts))
        assert w.length == 3 and verify_witness(c, w)

    def test_all_blue_outside_path_unchanged(self):
        c, verts = _path_only(9, 2)
        assert _find_move(_LinkTables(c).table(RED), verts, {5, 6, 7, 8}) is None


class TestChainBluePath:
    def test_two_edge_window_consumes_everything(self):
        # one 2-edge window is all a length-2 red path offers, so the
        # assembly has 2 edges, both red edges are consumed, and exactly
        # one reservoir vertex is left over
        c, verts = _path_only(8, 2)
        seq, used, consumed = _chain(_LinkTables(c).table(BLUE), verts, [5, 6, 7], None)
        assert seq is not None
        q = validate_loose_path(seq)
        assert q.length == 2 and consumed == 2
        assert len({5, 6, 7} - used) == 1
        for e in q.edges:
            assert c.test(BLUE)(*e)

    def test_length_accounting(self):
        """Assembly length is twice (reservoir vertices used minus one), the
        used vertices are exactly the reservoir vertices on the assembly, and
        at most the whole red path is consumed."""
        checked = 0
        for seed in range(300):
            # sparse red graphs keep the greedy path short enough that a
            # nontrivial reservoir remains
            rnd = random.Random(seed)
            bits = 0
            for i in range(comb(12, 3)):
                if rnd.random() < 0.06:
                    bits |= 1 << i
            c = Coloring(12, bits)
            seq = _greedy(c, c.n_vertices)
            if len(seq) < 5:
                continue
            wset = set(range(12)) - set(seq)
            if len(wset) < 3:
                continue
            verts, wset = _maximal(c, seq, wset)
            L = (len(verts) - 1) // 2
            if len(wset) < 3 or L < 2:
                continue
            seq, used, consumed = _chain(_LinkTables(c).table(BLUE), verts, sorted(wset), None)
            if seq is None:
                continue
            q = validate_loose_path(seq)
            wused = set(q.vertices) & wset
            assert q.length == 2 * (len(wused) - 1)
            assert used == wused
            assert 0 <= consumed <= L
            for e in q.edges:
                assert c.test(BLUE)(*e)
            checked += 1
        assert checked > 20


class TestSteps:
    def test_path_step_on_blue_remainder(self):
        # red graph is exactly a 3-path; on 10 vertices the step must find
        # the blue 3-path since no red 4-path exists
        c, verts = _path_only(10, 3)
        w = _path_step(c.n_vertices, verts, 4, 3, _LinkTables(c), None)
        assert w.color == BLUE and (w.shape, w.length) == (PATH, 3)
        assert verify_witness(c, w)

    def test_path_step_completion_warns(self):
        # one reservoir vertex left over with m even has no closed-form
        # candidates: the step finishes by complete search, never silently
        c, verts = _path_only(11, 3)
        trace = []
        with pytest.warns(RuntimeWarning, match=r"path chain leftover 1"):
            w = _path_step(c.n_vertices, verts, 4, 4, _LinkTables(c), trace)
        assert "completion search (path chain leftover 1)" in trace
        assert verify_witness(c, w) and (w.shape, w.length) == (PATH, 4)

    def test_path_step_move_reaching_target_is_traced(self):
        # no red edge extends the path 0..4 at an end, but replacing {0,1,2}
        # by {0,1,5} {5,6,2} reaches length 3: the step must say so
        c = _from_edges(7, [(0, 1, 2), (2, 3, 4), (0, 1, 5), (2, 5, 6)])
        trace = []
        w = _path_step(c.n_vertices, [0, 1, 2, 3, 4], 3, 3, _LinkTables(c), trace)
        assert (w.color, w.shape, w.length) == (RED, PATH, 3)
        assert verify_witness(c, w)
        assert trace == ["red path extended to target length"]

    def test_cycle_step_on_blue_remainder(self):
        cyc = [0, 1, 2, 3, 4, 5, 6, 7]
        edges = [tuple(cyc[2 * i : 2 * i + 3]) for i in range(3)] + [(6, 7, 0)]
        c = _from_edges(11, edges)
        assert validate_loose_cycle(cyc).length == 4
        w = _cycle_step(c.n_vertices, cyc, 5, 4, CYCLE, _LinkTables(c), None)
        assert w.color == BLUE and (w.shape, w.length) == (CYCLE, 4)
        assert verify_witness(c, w)


def _cycle_with_blue_boundary(seed):
    """A coloring on 8-12 vertices whose red triples are a loose 3-cycle, the
    returned cyc, plus random triples that are no boundary edge of it (a
    consecutive cycle pair with an outside vertex)."""
    rnd = random.Random(seed)
    n = rnd.randint(8, 12)
    cyc = rnd.sample(range(n), 6)
    pairs = {frozenset((cyc[i], cyc[(i + 1) % 6])) for i in range(6)}
    red = [(cyc[i], cyc[i + 1], cyc[(i + 2) % 6]) for i in (0, 2, 4)]
    for e in combinations(range(n), 3):
        outside = not set(e) <= set(cyc)
        if outside and any(frozenset(q) in pairs for q in combinations(e, 2)):
            continue
        if rnd.random() < 0.3:
            red.append(e)
    return _from_edges(n, red), cyc


class TestConvertRedCycle:
    """Both exits of `_convert_cycle` on a red cycle, which no split+1 or
    uniform solve reaches through the opening exit: a red cycle of length 3
    becomes a red path of length 3, or the all-blue boundary gives the blue
    path."""

    def _check(self, c, w, color, length):
        assert (w.color, w.shape, w.length) == (color, PATH, length)
        assert validate_loose_path(w.structure.vertices) == w.structure
        assert verify_witness(c, w)

    def test_opens_the_red_cycle_of_random_colorings(self):
        found = 0
        for seed in range(200):
            c = _rand(random.Random(seed).randint(8, 12), seed)
            cyc = find_mono_cycle(c, RED, 3)
            if cyc is None:
                continue
            trace = []
            verts = list(cyc.structure.vertices)
            w = _convert_cycle(c.n_vertices, verts, RED, (PATH, 2), _LinkTables(c), trace)
            assert trace == ["opened red cycle into red path"], seed
            self._check(c, w, RED, 3)
            found += 1
        assert found >= 190

    def test_all_blue_boundary_assembles_the_blue_path(self):
        # red: a loose 3-cycle plus random triples that are no boundary edge
        # (a consecutive cycle pair with an outside vertex)
        for seed in range(100):
            c, cyc = _cycle_with_blue_boundary(seed)
            m = 2 + seed % 2
            trace = []
            w = _convert_cycle(c.n_vertices, cyc, RED, (PATH, m), _LinkTables(c), trace)
            assert trace == ["cycle boundary entirely blue; assembling blue target"], seed
            self._check(c, w, BLUE, m)


class TestConvertBlueCycle:
    """Both exits of `_convert_cycle` on a blue cycle, as `_cycle_step` calls
    it when a blue candidate cycle closes but a blue path is wanted (no
    split+1 or uniform solve reaches that call): a blue cycle of length 3
    becomes a blue path of length 3, or the all-red boundary gives the red
    target.  The trace shows that no completion ran."""

    def _check(self, c, w, color, target):
        assert (w.color, w.shape, w.length) == (color, *target)
        assert validate_structure(w.shape, w.structure.vertices) == w.structure
        assert verify_witness(c, w)

    def test_opens_the_blue_cycle_of_random_colorings(self):
        found = 0
        for seed in range(200):
            c = _rand(random.Random(seed).randint(8, 12), seed)
            cyc = find_mono_cycle(c, BLUE, 3)
            if cyc is None:
                continue
            trace = []
            verts = list(cyc.structure.vertices)
            w = _convert_cycle(c.n_vertices, verts, BLUE, (CYCLE, 4), _LinkTables(c), trace)
            assert trace == ["opened blue cycle into blue path"], seed
            self._check(c, w, BLUE, (PATH, 3))
            found += 1
        assert found >= 190

    def test_all_red_boundary_assembles_the_red_target(self):
        # the colour swap of the red run's colorings: every boundary edge red
        for seed in range(120):
            c, cyc = _cycle_with_blue_boundary(seed)
            target = ((PATH, 2), (PATH, 3), (CYCLE, 3))[seed % 3]
            trace = []
            w = _convert_cycle(c.n_vertices, cyc, BLUE, target, _LinkTables(c).swap(), trace)
            assert trace == ["cycle boundary entirely red; assembling red target"], seed
            self._check(c.swap(), w, RED, target)


class TestSolve:
    def test_below_threshold(self):
        with pytest.raises(ValueError):
            solve(PairKind(PP, 3, 3), Coloring(7, 0).swap())

    def test_all_red_gives_red_target(self):
        for pair in (PairKind(PP, 4, 3), PairKind(CC, 4, 4), PairKind(PNCM, 4, 3),
                     PairKind(PMCN, 5, 3)):
            c = Coloring(ramsey_number(pair), 0).swap()
            w = solve(pair, c)
            assert w.color == RED
            assert (w.shape, w.length) == pair.red_target

    def test_any_k8_pp33(self):
        pair = PairKind(PP, 3, 3)
        for seed in range(200):
            c = _rand(8, seed)
            w = solve(pair, c)
            assert verify_witness(c, w)
            assert (w.shape, w.length) == (PATH, 3)

    def test_deterministic(self):
        pair = PairKind(CC, 5, 4)
        for seed in range(20):
            c = _rand(ramsey_number(pair), seed)
            assert solve(pair, c) == solve(pair, c)

    def test_extra_vertices_are_ignored(self):
        pair = PairKind(PP, 3, 3)
        c = _rand(11, 7)
        assert solve(pair, c) == solve(pair, c.restrict(8))

    @pytest.mark.parametrize(
        "pair",
        [
            PairKind(PP, 5, 4),
            PairKind(CC, 5, 5),
            PairKind(PNCM, 5, 4),
            PairKind(PMCN, 5, 4),
        ],
    )
    def test_random_colorings_verified(self, pair):
        N = ramsey_number(pair)
        for seed in range(100):
            c = _rand(N, seed)
            w = solve(pair, c)
            assert verify_witness(c, w)
            expected = pair.red_target if w.color == RED else pair.blue_target
            assert (w.shape, w.length) == expected

    def test_oracle_agrees(self):
        pair = PairKind(CC, 4, 4)
        N = ramsey_number(pair)
        for seed in range(30):
            c = _rand(N, seed)
            w = solve(pair, c)
            shape, length = (pair.red_target if w.color == RED else pair.blue_target)
            finder = find_mono_path if shape == PATH else find_mono_cycle
            assert finder(c.restrict(N), w.color, length) is not None

    def test_trace_is_populated(self):
        trace = []
        c = build_split_coloring(SplitSpec(7, 1)).swap()  # adversarial-ish, 8 verts
        solve(PairKind(PP, 3, 3), c, trace=trace)
        assert trace and all(isinstance(line, str) for line in trace)

    def test_frames_do_not_grow_with_the_induction(self):
        """The induction runs as loops: both solves descend through about 2n
        levels, under a recursion limit only 40 frames above the caller's
        depth."""
        pp = PairKind(PP, 80, 80)
        cc = PairKind(CC, 40, 40)
        spec = lower_bound_params(cc)
        cases = [
            (pp, Coloring(ramsey_number(pp), 0)),
            (cc, build_split_coloring(SplitSpec(spec.a + 1, spec.b))),
        ]
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 40)
        try:
            witnesses = [solve(pair, c) for pair, c in cases]
        finally:
            sys.setrecursionlimit(old)
        for (pair, c), w in zip(cases, witnesses):
            assert verify_witness(c, w), pair


def _reference_descent(pair):
    """The levels the descent of solve visited before _plan, its loop
    verbatim but for the coloring: every greedy attempt fails, and each
    level is recorded as (pair, threshold, swap, the red target it tried or
    None, base case)."""
    visited = []
    at, tried = pair, None
    while True:
        kind, n, m = at.kind, at.n, at.m
        N, attempt = ramsey_number(at), None
        if (N, at.red_target) != tried:
            tried = N, at.red_target
            attempt = at.red_target
        if kind in (PP, CC) and (n, m) in _BASES:
            visited.append((at, N, False, attempt, True))
            return visited
        if kind == PNCM:
            swap, sub = False, PairKind(CC, n, m)
        elif (kind, n, m) == (PMCN, 4, 3):
            swap, sub = False, PairKind(CC, 4, 4)
        elif kind == PMCN:
            swap, sub = True, PairKind(PNCM, m, m) if n == m + 1 else PairKind(PMCN, n - 1, m)
        else:
            swap = n == m
            sub = PairKind(kind, n, n - 1) if swap else PairKind(kind, n - 1, m)
        visited.append((at, N, swap, attempt, False))
        at = sub


class TestPlan:
    def test_matches_the_old_descent(self):
        pairs = [PairKind(kind, n, m) for kind in (PP, CC, PNCM, PMCN)
                 for n in range(3, 41) for m in range(3, n + (kind != PMCN))]
        for pair in pairs:
            assert _plan(pair) == tuple(_reference_descent(pair)), pair
        assert len(pairs) == 4 * 741 - 38

    def test_untraced_solve_formats_no_note(self, monkeypatch):
        """With trace None no note is formatted: a PairKind that cannot be
        printed does not stop split+1 cc(8, 8) or pp(8, 8) a+1 plain, which
        run through base cases, cycle and path steps and swapped levels,
        while a traced solve prints one."""

        def unprintable(self):
            raise AssertionError("a note was formatted")

        cases = []
        for pair in (PairKind(CC, 8, 8), PairKind(PP, 8, 8)):
            spec = lower_bound_params(pair)
            cases.append((pair, build_split_coloring(SplitSpec(spec.a + 1, spec.b))))
        monkeypatch.setattr(PairKind, "__str__", unprintable)
        for pair, c in cases:
            assert verify_witness(c, solve(pair, c))
            with pytest.raises(AssertionError, match="a note was formatted"):
                solve(pair, c, trace=[])


def _flipped(c, flips, seed):
    """c with `flips` distinct triples flipped, drawn by random.Random(seed)."""
    bits = c.red_bits
    for rank in random.Random(seed).sample(range(c.n_triples), flips):
        bits ^= 1 << rank
    return Coloring(c.n_vertices, bits)


def _split1(pair, side="a"):
    spec = lower_bound_params(pair)
    return build_split_coloring(SplitSpec(spec.a + (side == "a"), spec.b + (side == "b")))


def _solve_all(cases):
    """(witness, trace) of each (pair, coloring), completions let through."""
    out = []
    for pair, c in cases:
        trace = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out.append((solve(pair, c, trace), trace))
    return out


class TestRedSpan:
    """The descent skips a level's greedy attempt where the red span of the
    coloring leaves no room for the level's red target on its prefix."""

    @pytest.mark.parametrize("N", range(6, 12))
    def test_the_bound_is_exact(self, N):
        """On split colorings and their swaps with 0, 1 or 2 flips, on every
        prefix n: the span is the least and the greatest top vertex of a red
        triple, and the oracle finds no red path or cycle of any length
        that the bound rules out."""
        ruled_out = 0
        for a in range(3, N + 1):
            split = build_split_coloring(SplitSpec(a, N - a))
            for c0 in (split, split.swap()):
                for flips in range(3):
                    c = _flipped(c0, flips, N * 100 + a * 3 + flips)
                    tops = [colex_unrank(r, N).c for r in range(c.n_triples) if c.red_bits >> r & 1]
                    span = _red_span(c)
                    assert span == ((min(tops), max(tops)) if tops else (-1, -1))
                    for n in range(3, N + 1):
                        prefix = c.restrict(n)
                        for shape, finder, lengths in (
                            (PATH, find_mono_path, range(1, (n - 1) // 2 + 1)),
                            (CYCLE, find_mono_cycle, range(3, n // 2 + 1)),
                        ):
                            for L in lengths:
                                if not _red_fits((shape, L), n, span):
                                    ruled_out += 1
                                    assert finder(prefix, RED, L) is None, (a, flips, n, shape, L)
        assert ruled_out > 0

    def test_census_is_the_same_without_the_bound(self, monkeypatch):
        """The split+1 census cases with n <= 10 give the same witnesses and
        traces when the bound rules nothing out; with the bound, more levels
        are ruled out than there are cases."""
        census = _census()
        cases = [census.case_input(case) for case in census.cases(10)]
        fired, real = [0], _red_fits

        def counting(target, n, span):
            fits = real(target, n, span)
            fired[0] += not fits
            return fits

        monkeypatch.setattr(extractor, "_red_fits", counting)
        bounded = _solve_all(cases)
        assert fired[0] > len(cases)
        monkeypatch.setattr(extractor, "_red_fits", lambda target, n, span: True)
        assert _solve_all(cases) == bounded

    @given(kind=st.sampled_from([PP, CC, PNCM, PMCN]), n=st.integers(4, 9),
           side=st.sampled_from("ab"), swapped=st.booleans(), flips=st.integers(0, 4),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_flipped_split1_is_the_same_without_the_bound(self, kind, n, side, swapped, flips, data):
        m = data.draw(st.integers(3, n - 1 if kind == PMCN else n))
        pair = PairKind(kind, n, m)
        c = _split1(pair, side)
        c = _flipped(c.swap() if swapped else c, flips, data.draw(st.integers(0, 2**32 - 1)))
        bounded = _solve_all([(pair, c)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(extractor, "_red_fits", lambda target, n, span: True)
            assert _solve_all([(pair, c)]) == bounded

    @pytest.mark.parametrize("pair", [PairKind(PP, 12, 12), PairKind(CC, 10, 10)])
    def test_plain_split1_descends_without_greedy_attempts(self, monkeypatch, pair):
        """On split+1 pp(12, 12) and cc(10, 10) a+1 the bound rules out every
        level: the descent makes no _greedy, _fast_red or _bridges call."""
        calls = []

        def recording(name):
            real = getattr(extractor, name)
            return lambda *args: calls.append(name) or real(*args)

        for name in ("_greedy", "_fast_red", "_bridges", "_cycle_step", "_path_step"):
            monkeypatch.setattr(extractor, name, recording(name))
        c = _split1(pair)
        assert verify_witness(c, solve(pair, c))
        steps = [i for i, name in enumerate(calls) if name.endswith("_step")]
        assert steps and calls[: steps[0]] == []

    def test_random_coloring_finishes_greedily_at_the_top(self):
        """A random coloring's red span covers the prefix: at pp(10, 10)'s
        threshold the top level's greedy attempt still builds the target."""
        pair = PairKind(PP, 10, 10)
        trace = []
        c = _rand(ramsey_number(pair), 3)
        w = solve(pair, c, trace)
        assert trace == ["pp(n=10, m=10): red target built greedily"]
        assert w.color == RED and verify_witness(c, w)


class TestBranchPins:
    """Solves that reach branches no other test reaches through `solve`,
    each pinned to its witness and its whole trace; none warns."""

    CASES = [
        # _path_candidates' x == 0, m even branch, its red cycle converted
        # by an all-blue boundary
        (PairKind(PP, 5, 4), 12,
         "1 2 4, 1 5 6, 2 4 7, 1 6 7, 2 6 7, 3 4 8, 4 5 8, 4 7 8, 6 7 8, 0 4 9, "
         "1 4 9, 4 5 9, 2 6 9, 4 7 9, 7 9 10, 5 7 11",
         "blue path 0 4 3 1 5 6 11 7 8",
         ["pp(n=4, m=4): red target built greedily",
          "chained blue path: 2 edges consumed, leftover 0",
          "closing candidate red cycle; converting",
          "cycle boundary entirely blue; assembling blue target"]),
        # the ascent from the red C_4 of cc(4, 4) to the red P_3 of pmcn(4, 3)
        (PairKind(PMCN, 4, 3), 9,
         "2 3 4, 0 2 6, 0 3 6, 3 5 7, 0 5 8, 2 5 8, 2 7 8, 3 7 8",
         "red path 0 5 8 7 2 4 3",
         ["base case cc(n=4, m=4): complete search"]),
        # the red cycle's conversion through its opening exit
        (PairKind(PMCN, 5, 4), 11,
         "1 2 5, 1 3 6, 3 4 7, 2 6 7, 1 3 8, 4 7 8, 0 5 9, 3 6 9, 3 7 9, 4 7 9, 6 8 9",
         "red path 9 4 7 6 2 5 1 3 8",
         ["base case cc(n=4, m=4): complete search",
          "opened red cycle into red path"]),
        # the cycle step's all-blue boundary
        (PairKind(CC, 5, 4), 11,
         "3 4 6, 0 3 7, 2 4 7, 5 6 8, 0 7 8, 1 7 10",
         "blue cycle 0 1 7 2 9 5 8 10",
         ["base case cc(n=4, m=4): complete search",
          "cycle boundary entirely blue; assembling blue target directly"]),
    ]

    @pytest.mark.parametrize("pair,N,edges,line,notes", CASES,
                             ids=["pp54", "pmcn43", "pmcn54", "cc54"])
    def test_witness_and_trace(self, pair, N, edges, line, notes):
        c = _from_edges(N, [tuple(map(int, e.split())) for e in edges.split(",")])
        trace = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = solve(pair, c, trace)
        got = f"{w.color} {w.shape} " + " ".join(map(str, w.structure.vertices))
        assert got == line and trace == notes
        assert verify_witness(c, w)
