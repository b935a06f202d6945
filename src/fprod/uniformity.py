"""Relations, uniformities, entourage balls, induced topologies.

A relation on an n-point universe is a subset of the pair universe of size
n*n, pair (x, y) at bit x*n + y; only Relation knows this layout. On a finite
set a uniformity has one minimal entourage, an equivalence relation; its rows,
the minimal balls, partition the points and carry the induced topology.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Sequence

from .foundations import InputError, ResourceLimitError, SetFamily, SubsetMask
from .topology import Topology, is_continuous


@dataclass(frozen=True)
class Relation:
    """A binary relation on range(point_count), stored on the squared universe."""

    point_count: int
    pairs: SubsetMask

    def __post_init__(self) -> None:
        if self.point_count < 1:
            raise InputError("relation needs at least one point")
        if self.pairs.universe_size != self.point_count * self.point_count:
            raise InputError("pair mask must live on the squared universe")

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Relation":
        bits = 0
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise InputError(f"pair ({x}, {y}) out of range for {n} points")
            bits |= 1 << (x * n + y)
        return cls(n, SubsetMask(n * n, bits))

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "Relation":
        """The relation on len(rows) points whose row at x is rows[x]."""
        n = len(rows)
        bits = 0
        for x, row in enumerate(rows):
            if row >> n:
                raise InputError(f"row {x} is out of range for {n} points")
            bits |= row << (x * n)
        return cls(n, SubsetMask(n * n, bits))

    @classmethod
    def full(cls, n: int) -> "Relation":
        return cls(n, SubsetMask.full(n * n))

    def contains(self, x: int, y: int) -> bool:
        n = self.point_count
        return bool(self.pairs.bits >> (x * n + y) & 1)

    def row_bits(self, x: int) -> int:
        n = self.point_count
        return self.pairs.bits >> (x * n) & ((1 << n) - 1)

    def rows(self) -> tuple[int, ...]:
        return tuple(self.row_bits(x) for x in range(self.point_count))

    def pair_list(self) -> tuple[tuple[int, int], ...]:
        n = self.point_count
        return tuple((b // n, b % n) for b in self.pairs)


def diagonal(n: int) -> Relation:
    return Relation.from_pairs(n, ((x, x) for x in range(n)))


def inverse(g: Relation) -> Relation:
    return Relation.from_pairs(g.point_count, ((y, x) for x, y in g.pair_list()))


def compose(g: Relation, h: Relation) -> Relation:
    """Pairs (x, z) such that some y has (x, y) in g and (y, z) in h."""
    if g.point_count != h.point_count:
        raise InputError("relations live on different universes")
    n = g.point_count
    h_rows = [h.row_bits(y) for y in range(n)]
    bits = 0
    for x in range(n):
        grow = g.row_bits(x)
        zrow = 0
        y = 0
        while grow:
            if grow & 1:
                zrow |= h_rows[y]
            grow >>= 1
            y += 1
        bits |= zrow << (x * n)
    return Relation(n, SubsetMask(n * n, bits))


def entourage_ball(u: Relation, x: int) -> SubsetMask:
    """The row of u at x: all points u-near to x."""
    if not 0 <= x < u.point_count:
        raise InputError(f"point {x} out of range")
    return SubsetMask(u.point_count, u.row_bits(x))


def _is_equivalence(rows: Sequence[int]) -> bool:
    """True iff each row holds its own point and equals the row of every point in it."""
    n = len(rows)
    return all(
        not row >> n and row >> x & 1 and all(rows[y] == row for y in SubsetMask(n, row))
        for x, row in enumerate(rows)
    )


def _base_rows(fam: SetFamily) -> tuple[int, ...] | None:
    """The rows of the meet of fam's members when fam is a uniformity base, else None."""
    n = isqrt(fam.universe_size)
    if n * n != fam.universe_size:
        raise InputError("a relation family must live on a squared universe")
    meet = (1 << fam.universe_size) - 1
    for b in fam.bits:
        meet &= b
    if not fam.contains_bits(meet):
        return None
    rows = Relation(n, SubsetMask(fam.universe_size, meet)).rows()
    return rows if _is_equivalence(rows) else None


def validate_uniformity_base(fam: SetFamily) -> bool:
    """The four base conditions: diagonal inside each member, inverses and
    composition squares bounded by members, and downward directedness.

    On a finite set they hold exactly when the meet of the members is a member
    (directedness, as in filters.validate_filter_base) and an equivalence
    relation (the other three, applied to the meet).
    """
    return _base_rows(fam) is not None


@dataclass(frozen=True)
class Uniformity:
    """A uniformity on range(point_count), stored as the rows of its minimal entourage.

    The minimal entourage is an equivalence relation, so x lies in rows[x]
    and rows[y] == rows[x] for every y in it. The entourages are its
    supersets, so == and hash compare structures, not presentations.
    """

    point_count: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.point_count < 1 or len(self.rows) != self.point_count:
            raise InputError("a uniformity needs at least one point and one row per point")
        if not _is_equivalence(self.rows):
            raise InputError("a minimal entourage must be an equivalence relation")

    def minimal_entourage(self) -> Relation:
        """The smallest entourage, an equivalence relation."""
        return Relation.from_rows(self.rows)

    def members(self) -> SetFamily:
        """All entourages: supersets of the minimal one. Exponential; small universes only."""
        sq = self.point_count * self.point_count
        if sq > 16:
            raise ResourceLimitError("entourage materialization capped at 4 points")
        least = self.minimal_entourage().pairs.bits
        return SetFamily(sq, [bits for bits in range(1 << sq) if least & ~bits == 0])

    def member(self, rel: Relation) -> bool:
        if rel.point_count != self.point_count:
            raise InputError("membership query on the wrong universe")
        return self.minimal_entourage().pairs.bits & ~rel.pairs.bits == 0


def generate_uniformity(base: SetFamily) -> Uniformity:
    """The uniformity generated by a base: its members' meet, validated as one."""
    rows = _base_rows(base)
    if rows is None:
        raise InputError("family is not a uniformity base")
    return Uniformity(len(rows), rows)


def induced_topology(u: Uniformity) -> Topology:
    """Opens are the sets containing an entourage ball around each point.

    The rows of the minimal entourage (the minimal balls) are the minimal
    neighbourhoods; they partition the space, because it is an equivalence.
    """
    return Topology.of(u.point_count, u.rows)


def is_uniformly_continuous(fibres: Sequence[int], u_dom: Uniformity, u_cod: Uniformity) -> bool:
    """f x f maps the minimal domain entourage into the minimal codomain one.

    That is, f maps each row into the row of f(x): the induced topologies'
    continuity. The map is given by its fibres, as for is_continuous.
    """
    return is_continuous(fibres, induced_topology(u_dom), induced_topology(u_cod))


@lru_cache(maxsize=None)
def enumerate_uniformity_bases(n: int) -> tuple[SetFamily, ...]:
    """All valid uniformity bases on an n-point universe; n <= 2 (exponential scan)."""
    if not 1 <= n <= 2:
        raise InputError("uniformity-base enumeration supports 1 <= n <= 2")
    sq = n * n
    diag_bits = diagonal(n).pairs.bits
    candidates = [
        bits for bits in range(1 << sq) if diag_bits & ~bits == 0
    ]
    out = []
    for r in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            fam = SetFamily(sq, combo)  # combinations of ascending candidates ascend
            if validate_uniformity_base(fam):
                out.append(fam)
    out.sort(key=lambda fam: fam.bits)
    return tuple(out)
