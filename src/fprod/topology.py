"""Finite topological spaces given by a base, with point queries on bases only.

On a finite space every point x has a smallest base member containing it
(the intersection of all base members through x, which the point criterion
forces back into the base). All queries run on these minimal neighborhoods:
a set is open iff it contains the minimal neighborhood of each of its points,
and two points have disjoint open neighborhoods iff their minimal
neighborhoods are disjoint. The full open family is materialized lazily and
only on demand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from .filters import Filter, principal_filter
from .foundations import InputError, ResourceLimitError, SetFamily, SubsetMask, canonicalize

_OPENS_CAP = 20  # union closures approach 2**n members
_ENUM_CAP = 4


def _point_meets(n: int, bits: Sequence[int]) -> list[int]:
    """For each point x, the intersection of the members through x (the whole set if none).

    Each member is visited once per element, so the cost is the total member
    size, not points times members.
    """
    meets = [(1 << n) - 1] * n
    for b in bits:
        rest = b
        while rest:
            low = rest & -rest
            meets[low.bit_length() - 1] &= b
            rest ^= low
    return meets


def validate_base(fam: SetFamily) -> bool:
    """True iff fam covers the universe and satisfies the point criterion."""
    n = fam.universe_size
    bits = [m.bits for m in fam.members]
    union = 0
    for b in bits:
        union |= b
    if union != (1 << n) - 1:
        return False
    return all(fam.contains_bits(acc) for acc in _point_meets(n, bits))


@dataclass(frozen=True)
class Topology:
    """A topology on range(universe_size), represented by a covering base."""

    universe_size: int
    base: SetFamily
    _mins: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)
    _opens: SetFamily | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.base.universe_size != self.universe_size:
            raise InputError("base universe mismatch")
        if not validate_base(self.base):
            raise InputError("family is not a topology base")
        if self.base.contains_bits(0):
            cleaned = canonicalize(
                [m for m in self.base if not m.is_empty], self.universe_size
            )
            object.__setattr__(self, "base", cleaned)

    def _minimal_bits(self) -> tuple[int, ...]:
        # write-once cache; any racer computes the same value
        if self._mins is None:
            bits = [m.bits for m in self.base.members]
            object.__setattr__(self, "_mins", tuple(_point_meets(self.universe_size, bits)))
        return self._mins  # type: ignore[return-value]

    def minimal_neighborhood(self, x: int) -> SubsetMask:
        """The smallest open set containing x; always a base member."""
        if not 0 <= x < self.universe_size:
            raise InputError(f"point {x} out of range")
        return SubsetMask(self.universe_size, self._minimal_bits()[x])

    def is_open(self, mask: SubsetMask) -> bool:
        """Pointwise criterion: every point of the set keeps its minimal neighborhood inside."""
        if mask.universe_size != self.universe_size:
            raise InputError("openness query on the wrong universe")
        mins = self._minimal_bits()
        return all(mins[x] & ~mask.bits == 0 for x in mask)

    def opens(self) -> SetFamily:
        """All open sets: the union closure of the minimal neighborhoods, plus the empty set."""
        if self._opens is None:
            n = self.universe_size
            if n > _OPENS_CAP:
                raise ResourceLimitError(
                    f"open-set materialization capped at universe size {_OPENS_CAP}"
                )
            mins = sorted(set(self._minimal_bits()))
            closure = {0}
            frontier = [0]
            while frontier:
                cur = frontier.pop()
                for m in mins:
                    new = cur | m
                    if new not in closure:
                        closure.add(new)
                        frontier.append(new)
            fam = SetFamily.of(n, (SubsetMask(n, b) for b in closure))
            object.__setattr__(self, "_opens", fam)
        return self._opens  # type: ignore[return-value]

    def neighborhoods_filter(self, x: int) -> Filter:
        """The filter of neighborhoods of x: all supersets of its minimal open set."""
        return principal_filter(self.minimal_neighborhood(x))

    def is_hausdorff(self) -> bool:
        """Distinct points have disjoint base members around them."""
        mins = self._minimal_bits()
        n = self.universe_size
        return all(
            mins[x] & mins[y] == 0 for x in range(n) for y in range(x + 1, n)
        )

    def is_t1(self) -> bool:
        """Every singleton is closed."""
        n = self.universe_size
        full = (1 << n) - 1
        return all(self.is_open(SubsetMask(n, full ^ (1 << x))) for x in range(n))

    def is_dense(self, mask: SubsetMask) -> bool:
        """The set meets every nonempty base member."""
        if mask.universe_size != self.universe_size:
            raise InputError("density query on the wrong universe")
        return all(mask.bits & b.bits for b in self.base.members)


def generate_topology(base: SetFamily) -> Topology:
    """Topology generated by a covering, point-criterion base."""
    return Topology(base.universe_size, base)


def topology_leq(t1: Topology, t2: Topology) -> bool:
    """True iff every open of t1 is open in t2 (checked on base members)."""
    if t1.universe_size != t2.universe_size:
        raise InputError("topologies live on different universes")
    return all(t2.is_open(b) for b in t1.base)


def topologies_equal(t1: Topology, t2: Topology) -> bool:
    """Same open sets, regardless of the presented bases."""
    if t1.universe_size != t2.universe_size:
        raise InputError("topologies live on different universes")
    return t1._minimal_bits() == t2._minimal_bits()


def is_continuous(f_map: Sequence[int], t_dom: Topology, t_cod: Topology) -> bool:
    """Preimage of every codomain base member is open; unions pass through preimages."""
    if len(f_map) != t_dom.universe_size:
        raise InputError("map is not total on the domain universe")
    for v in f_map:
        if not 0 <= v < t_cod.universe_size:
            raise InputError(f"map value {v} out of codomain range")
    n = t_dom.universe_size
    for b in t_cod.base:
        pre = SubsetMask.of(n, (x for x in range(n) if f_map[x] in b))
        if not t_dom.is_open(pre):
            return False
    return True


def subspace(t: Topology, carrier: SubsetMask) -> Topology:
    """Relative topology on a nonempty subset, reindexed to 0..|carrier|-1."""
    if carrier.universe_size != t.universe_size:
        raise InputError("carrier lives on the wrong universe")
    if carrier.is_empty:
        raise InputError("subspace carrier must be nonempty")
    elems = carrier.elements()
    k = len(elems)
    traces = []
    for b in t.base:
        bits = 0
        for new, old in enumerate(elems):
            if old in b:
                bits |= 1 << new
        if bits:
            traces.append(SubsetMask(k, bits))
    return generate_topology(SetFamily.of(k, traces))


def find_disjoint_dense(t: Topology, n: int) -> tuple[SubsetMask, ...] | None:
    """Search for n pairwise-disjoint dense subsets.

    Exhaustive backtracking over subsets in ascending bit-vector order, so the
    returned witness is the lexicographically least sequence; a branch is cut
    as soon as the unclaimed remainder is not dense itself.
    """
    if n < 1:
        raise InputError("need n >= 1 dense sets")
    size = t.universe_size
    if size > 16:
        raise ResourceLimitError("disjoint-dense search capped at 16 points")
    base_bits = [m.bits for m in t.base.members]

    def dense(bits: int) -> bool:
        return all(bits & b for b in base_bits)

    def extend(allowed: int, k: int) -> list[SubsetMask] | None:
        if k == 0:
            return []
        if not dense(allowed):
            return None
        sub = (0 - allowed) & allowed  # submasks of `allowed`, ascending
        while sub:
            if dense(sub):
                rest = extend(allowed & ~sub, k - 1)
                if rest is not None:
                    return [SubsetMask(size, sub)] + rest
            sub = (sub - allowed) & allowed
        return None

    found = extend((1 << size) - 1, n)
    return None if found is None else tuple(found)


@lru_cache(maxsize=None)
def enumerate_topologies(n: int) -> tuple[Topology, ...]:
    """All topologies on an n-point universe, canonically ordered.

    Brute force: scan every family of subsets containing the empty set and
    the whole set and keep those closed under pairwise union and
    intersection. Hard-capped because the scan is doubly exponential.
    """
    if not 1 <= n <= _ENUM_CAP:
        raise InputError(f"topology enumeration supports 1 <= n <= {_ENUM_CAP}")
    s = 1 << n
    full = s - 1
    middles = list(range(1, full))
    found = []
    for combo in range(1 << len(middles)):
        fam = {0, full}
        for j, m in enumerate(middles):
            if combo >> j & 1:
                fam.add(m)
        if all((a | b) in fam and (a & b) in fam for a, b in itertools.combinations(fam, 2)):
            found.append(tuple(sorted(fam)))
    found.sort()
    out = []
    for opens in found:
        base = SetFamily.of(n, (SubsetMask(n, b) for b in opens if b))
        out.append(generate_topology(base))
    return tuple(out)


def discrete(n: int) -> Topology:
    return generate_topology(
        SetFamily.of(n, (SubsetMask.singleton(n, i) for i in range(n)))
    )


def indiscrete(n: int) -> Topology:
    return generate_topology(SetFamily.of(n, [SubsetMask.full(n)]))


def sierpinski() -> Topology:
    """Two points with exactly one nontrivial open set: {0}."""
    return generate_topology(
        SetFamily.of(2, [SubsetMask.of(2, [0]), SubsetMask.full(2)])
    )
