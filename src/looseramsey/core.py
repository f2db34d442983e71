"""Colored complete 3-uniform hypergraphs and their loose substructures.

A coloring of K3_N stores one bit per triple, indexed in colexicographic
order.  Every per-triple color lookup goes through the coloring's one red
tester, built once, which reads one byte of a cached byte view of that
bitmap, so a lookup costs the same at any N.  restrict() and swap()
return new colorings of the masked or complemented bitmap; the extractor
reads one coloring per solve with a vertex bound and calls neither.  Loose
paths and cycles are kept as ordered vertex sequences; the edge
decomposition is derived, which makes the sequence itself the certificate
a verifier can check.

Invariants
- TripleEdge.of gives strictly increasing vertices; lookups take any order.
- Coloring bitmap covers exactly C(N,3) triples; every triple has one color.
- LoosePath on 2l+1 distinct vertices, LooseCycle on 2l distinct vertices
  with l >= 3; consecutive edges share exactly one vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from operator import index
from typing import Callable, Iterator, NamedTuple, Optional, Tuple, Union

RED = "red"
BLUE = "blue"
PATH = "path"
CYCLE = "cycle"


class StructureError(ValueError):
    """A vertex sequence violates a loose path/cycle invariant."""


def opposite(color: str) -> str:
    return BLUE if color == RED else RED


class TripleEdge(NamedTuple):
    a: int
    b: int
    c: int

    @classmethod
    def of(cls, x: int, y: int, z: int) -> "TripleEdge":
        a, b, c = sorted((x, y, z))
        if a < 0:
            raise ValueError(f"negative vertex label in ({x}, {y}, {z})")
        if a == b or b == c:
            raise ValueError(f"edge vertices must be distinct: ({x}, {y}, {z})")
        return cls(a, b, c)


def colex_rank(e: TripleEdge) -> int:
    """Position of e among all triples in colex order (0-based)."""
    return comb(e.c, 3) + comb(e.b, 2) + e.a


def colex_unrank(rank: int, n_vertices: int) -> TripleEdge:
    """Inverse of colex_rank over the triples of [0, n_vertices)."""
    if not 0 <= rank < comb(n_vertices, 3):
        raise ValueError(
            f"rank {rank} out of range [0, {comb(n_vertices, 3)}) for N={n_vertices}"
        )
    c = 2
    while comb(c + 1, 3) <= rank:
        c += 1
    rest = rank - comb(c, 3)
    b = 1
    while comb(b + 1, 2) <= rest:
        b += 1
    a = rest - comb(b, 2)
    return TripleEdge(a, b, c)


@lru_cache(maxsize=128)
def _comb_tables(size: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """C(y, 2) and C(z, 3) for every label below size, so that the rank of
    {x < y < z} is c3[z] + c2[y] + x."""
    c2 = tuple(y * (y - 1) // 2 for y in range(size))
    c3 = tuple(z * (z - 1) * (z - 2) // 6 for z in range(size))
    return c2, c3


EdgeTest = Callable[[int, int, int], bool]


class _cached(cached_property):
    """cached_property without the lock Python 3.11 takes on each first read:
    the value goes into the instance __dict__ and shadows this descriptor."""

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


@dataclass(frozen=True)
class Coloring:
    """Red/blue coloring of K3_N as a red bitmap in colex order."""

    n_vertices: int
    red_bits: int

    def __post_init__(self) -> None:
        if self.n_vertices < 3:
            raise ValueError("coloring needs at least 3 vertices")
        if self.red_bits < 0 or self.red_bits >> self.n_triples:
            raise ValueError("red bitmap has bits outside [0, C(N,3))")

    @property
    def n_triples(self) -> int:
        return comb(self.n_vertices, 3)

    @_cached
    def _view(self) -> bytes:
        # Rank r is bit r & 7 of byte r >> 3.  Sized by the highest red rank,
        # not by C(N,3): ranks past the end read blue, and a sparse coloring
        # of a huge N costs only the bytes up to its last red triple.
        bits = self.red_bits
        return bits.to_bytes((bits.bit_length() + 7) // 8, "little")

    @_cached
    def _ranks(self) -> Tuple[bytes, Tuple[int, ...], Tuple[int, ...]]:
        """The byte view and the C(y, 2) and C(z, 3) tables that rank a
        triple in it.  A triple with a vertex >= k, the tables' size, has
        rank >= C(k, 3) > 8 * len(view), so it is blue: the tables stop at
        k, not N, and so does every loop that reads them."""
        view = self._view
        return (view, *_comb_tables(min(self.n_vertices, int((48 * len(view)) ** (1 / 3)) + 4)))

    @_cached
    def _red(self) -> EdgeTest:
        """Whether {x, y, z}, three distinct vertices below N in any order, is red."""
        # reading past the tables raises the same IndexError as past the view
        view, c2, c3 = self._ranks

        def red(x: int, y: int, z: int) -> bool:
            if x > y:
                x, y = y, x
            if y > z:
                y, z = z, y
            if x > y:
                x, y = y, x
            try:
                r = c3[z] + c2[y] + x
                return view[r >> 3] >> (r & 7) & 1 == 1
            except IndexError:  # past the tables or the view
                return False

        return red

    @_cached
    def _lowest_red(self) -> int:
        """The rank of the lowest red triple, or -1 if none is red."""
        # the low word first: low & -low on all the bits copies the bitmap
        bits = self.red_bits
        low = bits & 0xFFFFFFFFFFFFFFFF or bits
        return (low & -low).bit_length() - 1

    def test(self, color: str) -> EdgeTest:
        """Membership test f(x, y, z) for one color class: _red or its negation."""
        if color not in (RED, BLUE):
            raise ValueError(f"unknown color {color!r}")
        red = self._red
        return red if color == RED else lambda x, y, z: not red(x, y, z)

    def __reduce__(self):
        # the fields alone: the cached tester is a closure
        return Coloring, (self.n_vertices, self.red_bits)

    def swap(self) -> "Coloring":
        """The coloring with red and blue exchanged."""
        return Coloring(self.n_vertices, self.red_bits ^ ((1 << self.n_triples) - 1))

    def restrict(self, n_prefix: int) -> "Coloring":
        """Induced coloring on the first n_prefix vertices.

        Triples inside a label prefix occupy a rank prefix in colex order,
        so restriction is a bitmap truncation.  The full prefix is the
        coloring itself, which is immutable.
        """
        if not 3 <= n_prefix <= self.n_vertices:
            raise ValueError(f"prefix size {n_prefix} out of range")
        if n_prefix == self.n_vertices:
            return self
        return Coloring(n_prefix, self.red_bits & ((1 << comb(n_prefix, 3)) - 1))


def edge_color(coloring: Coloring, e: TripleEdge) -> str:
    a, b, c = e
    n = coloring.n_vertices
    if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
        raise ValueError(f"edge {e} outside [0, {n})")
    if a == b or b == c or a == c:
        raise ValueError(f"edge vertices must be distinct: {(a, b, c)}")
    return RED if coloring._red(a, b, c) else BLUE


def _edge_triples(vertices: Tuple[int, ...], closed: bool) -> Iterator[Tuple[int, int, int]]:
    """The vertices of each edge of a loose path (closed: cycle), in sequence
    order; edge i is v_{2i}, v_{2i+1}, v_{2i+2}, wrapping for a cycle."""
    ring = vertices + vertices[:1] if closed else vertices
    for i in range(0, len(ring) - 2, 2):
        yield ring[i], ring[i + 1], ring[i + 2]


@dataclass(frozen=True)
class LoosePath:
    """Loose path of length l on vertices v1..v_{2l+1}; e_i = {v_{2i-1}, v_{2i}, v_{2i+1}}."""

    vertices: Tuple[int, ...]

    @property
    def length(self) -> int:
        # the empty path (no red edge anywhere) has length 0
        return (len(self.vertices) - 1) // 2 if self.vertices else 0

    @property
    def edges(self) -> Tuple[TripleEdge, ...]:
        return tuple(TripleEdge.of(*t) for t in _edge_triples(self.vertices, False))


@dataclass(frozen=True)
class LooseCycle:
    """Loose cycle of length l on vertices v1..v_{2l}; subscripts wrap mod 2l."""

    vertices: Tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) // 2

    @property
    def edges(self) -> Tuple[TripleEdge, ...]:
        return tuple(TripleEdge.of(*t) for t in _edge_triples(self.vertices, True))


Structure = Union[LoosePath, LooseCycle]


def validate_structure(shape: str, vertices) -> Structure:
    """Check vertices as a loose path or a loose cycle, as shape names, and
    wrap the sequence.  2l+1 >= 3 (a path) or 2l >= 6 (a cycle) distinct
    vertices always decompose into l edges with the loose intersection
    pattern, so distinctness and parity are the whole check.  Labels are
    taken with operator.index, so a float, a string or None is rejected,
    not truncated."""
    if shape not in (PATH, CYCLE):
        raise StructureError(f"unknown shape {shape!r}")
    try:
        v = tuple(map(index, vertices))
    except TypeError:
        bad = [x for x in vertices if not hasattr(type(x), "__index__")]
        raise StructureError(
            f"vertex label {bad[0]!r} is not an integer" if bad else "vertex labels must be integers"
        ) from None
    if shape == PATH and len(v) < 3:
        raise StructureError(f"path needs at least 3 vertices, got {len(v)}")
    if shape == PATH and len(v) % 2 == 0:
        raise StructureError(f"even vertex count {len(v)} cannot decompose into loose edges")
    if shape == CYCLE and len(v) % 2 == 1:
        raise StructureError(f"odd vertex count {len(v)} cannot close a loose cycle")
    if shape == CYCLE and len(v) < 6:
        raise StructureError(f"cycle length {len(v) // 2} below minimum 3")
    if len(set(v)) != len(v):
        raise StructureError(f"duplicate vertex in {shape} sequence {v}")
    if min(v) < 0:
        raise StructureError("negative vertex label")
    return LoosePath(v) if shape == PATH else LooseCycle(v)


def validate_loose_path(vertices) -> LoosePath:
    """validate_structure for a loose path."""
    return validate_structure(PATH, vertices)


def validate_loose_cycle(vertices) -> LooseCycle:
    """validate_structure for a loose cycle."""
    return validate_structure(CYCLE, vertices)


@dataclass(frozen=True)
class Witness:
    """A monochromatic loose structure claimed to exist in a coloring."""

    color: str
    shape: str
    structure: Structure

    @property
    def length(self) -> int:
        return self.structure.length


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_witness(coloring: Coloring, witness: Witness) -> VerifyResult:
    """Accept iff the structure validates and every edge has the claimed color."""
    if witness.color not in (RED, BLUE):
        return VerifyResult(False, f"unknown color {witness.color!r}")
    try:
        structure = validate_structure(witness.shape, witness.structure.vertices)
    except StructureError as exc:
        return VerifyResult(False, str(exc))
    if max(structure.vertices) >= coloring.n_vertices:
        return VerifyResult(False, "vertex label outside the coloring")
    view, c2, c3 = coloring._ranks
    k, top, want = len(c3), 8 * len(view), witness.color == RED
    v = structure.vertices
    ring = v + v[:1] if witness.shape == CYCLE else v
    # edge i is ring[2i], ring[2i+1], ring[2i+2], ranked in place
    for i in range(0, len(ring) - 2, 2):
        x, y, z = ring[i], ring[i + 1], ring[i + 2]
        if x > y:
            x, y = y, x
        if y > z:
            y, z = z, y
        if x > y:
            x, y = y, x
        red = z < k and (r := c3[z] + c2[y] + x) < top and view[r >> 3] >> (r & 7) & 1 == 1
        if red != want:
            return VerifyResult(
                False,
                f"edge {{{x},{y},{z}}} is {opposite(witness.color)},"
                f" witness claims {witness.color}",
            )
    return VerifyResult(True)
