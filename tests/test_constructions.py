"""Extremal split colorings and pair bookkeeping."""

from math import comb

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
from looseramsey.core import BLUE, CYCLE, PATH, RED, Coloring, TripleEdge, edge_color
from looseramsey.extractor import ramsey_number
from looseramsey.oracle import find_mono_cycle, find_mono_path
from test_oracle import longest_mono_path


class TestPairKind:
    def test_validation(self):
        with pytest.raises(ValueError):
            PairKind("xy", 3, 3)
        with pytest.raises(ValueError):
            PairKind(PP, 3, 2)
        with pytest.raises(ValueError):
            PairKind(CC, 3, 4)
        with pytest.raises(ValueError):
            PairKind(PMCN, 3, 3)  # needs n > m
        PairKind(PMCN, 4, 3)

    def test_targets(self):
        assert PairKind(PP, 5, 4).red_target == (PATH, 5)
        assert PairKind(PP, 5, 4).blue_target == (PATH, 4)
        assert PairKind(CC, 5, 4).red_target == (CYCLE, 5)
        assert PairKind(PNCM, 5, 4).blue_target == (CYCLE, 4)
        assert PairKind(PMCN, 5, 4).red_target == (PATH, 4)
        assert PairKind(PMCN, 5, 4).blue_target == (CYCLE, 5)

    def test_short_long_split(self):
        for pair in (PairKind(PP, 5, 4), PairKind(CC, 5, 4), PairKind(PNCM, 5, 4),
                     PairKind(PMCN, 5, 4)):
            assert {pair.short_target, pair.long_target} == {
                pair.red_target, pair.blue_target
            }
            assert pair.short_target[1] <= pair.long_target[1]


class TestLowerBoundParams:
    @pytest.mark.parametrize(
        "pair,a,b",
        [
            (PairKind(PMCN, 4, 3), 7, 1),
            (PairKind(CC, 3, 3), 5, 1),
            (PairKind(PP, 3, 3), 6, 1),
            (PairKind(PNCM, 4, 4), 8, 1),
            (PairKind(CC, 6, 5), 11, 2),
        ],
    )
    def test_known_values(self, pair, a, b):
        spec = lower_bound_params(pair)
        assert (spec.a, spec.b) == (a, b)

    def test_sits_one_below_threshold(self):
        for kind in (PP, CC, PNCM, PMCN):
            for n in range(3, 8):
                for m in range(3, n + 1):
                    if kind == PMCN and n == m:
                        continue
                    pair = PairKind(kind, n, m)
                    assert lower_bound_params(pair).n_vertices == ramsey_number(pair) - 1


class TestBuildSplitColoring:
    def test_empty_b_is_all_blue(self):
        assert build_split_coloring(SplitSpec(3, 0)) == Coloring(3, 0)

    def test_rule(self):
        c = build_split_coloring(SplitSpec(7, 1))
        assert edge_color(c, TripleEdge.of(0, 1, 7)) == RED
        assert edge_color(c, TripleEdge.of(0, 1, 2)) == BLUE

    def test_red_count(self):
        c = build_split_coloring(SplitSpec(7, 1))
        assert c.red_bits.bit_count() == comb(8, 3) - comb(7, 3) == 21

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            SplitSpec(2, 1)
        with pytest.raises(ValueError):
            SplitSpec(5, -1)


class TestBlockingOracle:
    """The B-touching color caps structures at 2b edges; the A-confined color
    cannot host anything needing more than a vertices."""

    def test_pmcn_43_longest_red_path(self):
        c = build_split_coloring(lower_bound_params(PairKind(PMCN, 4, 3)))
        length, witness = longest_mono_path(c, RED)
        assert length == 2 and witness is not None
        assert find_mono_path(c, RED, 3) is None

    def test_cc_33_no_mono_triangle(self):
        c = build_split_coloring(lower_bound_params(PairKind(CC, 3, 3)))
        assert find_mono_cycle(c, RED, 3) is None
        assert find_mono_cycle(c, BLUE, 3) is None

    def test_pp_33_no_mono_p3(self):
        c = build_split_coloring(lower_bound_params(PairKind(PP, 3, 3)))
        assert find_mono_path(c, RED, 3) is None
        assert find_mono_path(c, BLUE, 3) is None

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_red_cap_is_2b(self, b):
        c = build_split_coloring(SplitSpec(9, b))
        length, _ = longest_mono_path(c, RED)
        assert length == min(2 * b, (c.n_vertices - 1) // 2)
