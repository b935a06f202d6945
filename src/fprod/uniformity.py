"""Relations, uniformities, induced topologies.

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
from .topology import Topology


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


def _is_equivalence(rows: Sequence[int]) -> bool:
    """True iff each row holds its own point and equals the row of every point in it."""
    n = len(rows)
    return all(
        not row >> n and row >> x & 1 and all(rows[y] == row for y in SubsetMask(n, row))
        for x, row in enumerate(rows)
    )


def _meet_rows(fam: SetFamily) -> tuple[int, ...] | None:
    """The rows of the meet of fam's members when that meet is a member, else None."""
    n = isqrt(fam.universe_size)
    if n * n != fam.universe_size:
        raise InputError("a relation family must live on a squared universe")
    meet = fam.least()
    return None if meet is None else Relation(n, SubsetMask(fam.universe_size, meet)).rows()


def validate_uniformity_base(fam: SetFamily) -> bool:
    """The four base conditions: diagonal inside each member, inverses and
    composition squares bounded by members, and downward directedness.

    On a finite set they hold exactly when the meet of the members is a member
    (directedness, as in filters.validate_filter_base) and an equivalence
    relation (the other three, applied to the meet).
    """
    rows = _meet_rows(fam)
    return rows is not None and _is_equivalence(rows)


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

    @classmethod
    def unchecked(cls, point_count: int, rows: Sequence[int]) -> "Uniformity":
        """These minimal-entourage rows without the constructor's checks, as Topology.unchecked:
        for f_uniformity's rows, an equivalence by construction (tests/test_agreement.py checks)."""
        u = object.__new__(cls)
        u.__dict__.update(point_count=point_count, rows=tuple(rows))
        return u

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
    """The uniformity generated by a base: its members' meet, which Uniformity checks is an equivalence."""
    rows = _meet_rows(base)
    if rows is not None:
        try:
            return Uniformity(len(rows), rows)
        except InputError:
            pass
    raise InputError("family is not a uniformity base")


def induced_topology(u: Uniformity) -> Topology:
    """Opens are the sets containing an entourage ball around each point.

    The rows of the minimal entourage (the minimal balls) are the minimal
    neighbourhoods; they partition the space, because it is an equivalence,
    so they are a preorder and need no validation.
    """
    return Topology.unchecked(u.point_count, u.rows)


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
