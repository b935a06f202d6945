"""Finite topological spaces stored as their minimal-neighbourhood vectors.

On a finite space every point x has a smallest open set containing it, and
these minimal neighbourhoods determine the topology (its specialization
preorder; Alexandroff 1937, Stong 1966). All queries run on them: a set is
open iff it contains the minimal neighbourhood of each of its points, and two
points have disjoint open neighbourhoods iff their minimal neighbourhoods are
disjoint. Bases from outside enter through generate_topology; the smallest
base and the full open family are views derived on demand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from .filters import Filter, principal_filter
from .foundations import InputError, ResourceLimitError, SetFamily, SubsetMask

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
    """True iff fam covers the universe and satisfies the point criterion.

    An uncovered point meets to the whole set, which is then not a member,
    so the point criterion also checks coverage.
    """
    return all(fam.contains_bits(m) for m in _point_meets(fam.universe_size, fam.bits))


def _is_transitive(mins: Sequence[int]) -> bool:
    """True iff mins[y] lies inside m for every neighbourhood m and every y in m."""
    for m in set(mins):
        rest = m
        while rest:
            low = rest & -rest
            if mins[low.bit_length() - 1] & ~m:
                return False
            rest ^= low
    return True


def _union_closure(mins: Sequence[int]) -> list[int]:
    """All unions of the given masks, the empty union included, in ascending order."""
    generators = sorted(set(mins))
    closure = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for m in generators:
            new = cur | m
            if new not in closure:
                closure.add(new)
                frontier.append(new)
    return sorted(closure)


@dataclass(frozen=True)
class Topology:
    """A topology on range(universe_size), stored as its minimal-neighbourhood vector.

    mins[x] is the bit mask of the smallest open set containing x. The vector
    is a preorder: x lies in mins[x], and mins[y] lies in mins[x] whenever y
    does. Equal topologies have equal vectors, so == and hash compare
    structures, not presentations.
    """

    universe_size: int
    mins: tuple[int, ...]
    _opens: SetFamily | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mins", tuple(self.mins))
        n = self.universe_size
        if len(self.mins) != n:
            raise InputError("a topology needs one minimal neighbourhood per point")
        full = (1 << n) - 1
        for x, m in enumerate(self.mins):
            if m & ~full:
                raise InputError(f"minimal neighbourhood of point {x} is out of range")
            if not m >> x & 1:
                raise InputError(f"point {x} is missing from its minimal neighbourhood")
        if not _is_transitive(self.mins):
            raise InputError("minimal neighbourhoods are not transitive")

    @property
    def base(self) -> SetFamily:
        """The smallest base: the distinct minimal neighbourhoods, in canonical order."""
        return SetFamily(self.universe_size, sorted(set(self.mins)))

    def minimal_neighborhood(self, x: int) -> SubsetMask:
        """The smallest open set containing x."""
        if not 0 <= x < self.universe_size:
            raise InputError(f"point {x} out of range")
        return SubsetMask(self.universe_size, self.mins[x])

    def is_open(self, mask: SubsetMask) -> bool:
        """Pointwise criterion: every point of the set keeps its minimal neighborhood inside."""
        if mask.universe_size != self.universe_size:
            raise InputError("openness query on the wrong universe")
        mins = self.mins
        return all(mins[x] & ~mask.bits == 0 for x in mask)

    def opens(self) -> SetFamily:
        """All open sets: the union closure of the minimal neighborhoods, plus the empty set."""
        if self._opens is None:
            n = self.universe_size
            if n > _OPENS_CAP:
                raise ResourceLimitError(
                    f"open-set materialization capped at universe size {_OPENS_CAP}"
                )
            object.__setattr__(self, "_opens", SetFamily(n, _union_closure(self.mins)))
        return self._opens  # type: ignore[return-value]

    def neighborhoods_filter(self, x: int) -> Filter:
        """The filter of neighborhoods of x: all supersets of its minimal open set."""
        return principal_filter(self.minimal_neighborhood(x))

    def inseparable_pair(self) -> tuple[int, int] | None:
        """The first x < y in code order whose minimal neighbourhoods meet, or None."""
        mins = self.mins
        n = self.universe_size
        return next(
            ((x, y) for x in range(n) for y in range(x + 1, n) if mins[x] & mins[y]),
            None,
        )

    def is_hausdorff(self) -> bool:
        """Distinct points have disjoint minimal neighbourhoods."""
        return self.inseparable_pair() is None

    def is_t1(self) -> bool:
        """Every singleton is closed."""
        n = self.universe_size
        full = (1 << n) - 1
        return all(self.is_open(SubsetMask(n, full ^ (1 << x))) for x in range(n))

    def is_dense(self, mask: SubsetMask) -> bool:
        """The set meets every minimal neighbourhood, hence every nonempty open set."""
        if mask.universe_size != self.universe_size:
            raise InputError("density query on the wrong universe")
        return all(mask.bits & m for m in self.mins)


def generate_topology(base: SetFamily) -> Topology:
    """Topology generated by a covering, point-criterion base."""
    n = base.universe_size
    meets = _point_meets(n, base.bits)
    if not all(base.contains_bits(m) for m in meets):
        raise InputError("family is not a topology base")
    return Topology(n, tuple(meets))


def topology_leq(t1: Topology, t2: Topology) -> bool:
    """True iff every open of t1 is open in t2: each t2 neighbourhood lies in t1's."""
    if t1.universe_size != t2.universe_size:
        raise InputError("topologies live on different universes")
    return all(m2 & ~m1 == 0 for m1, m2 in zip(t1.mins, t2.mins))


def topologies_equal(t1: Topology, t2: Topology) -> bool:
    """Same open sets, that is, the same minimal-neighbourhood vector."""
    if t1.universe_size != t2.universe_size:
        raise InputError("topologies live on different universes")
    return t1.mins == t2.mins


def is_continuous(f_map: Sequence[int], t_dom: Topology, t_cod: Topology) -> bool:
    """f maps the minimal neighbourhood of each x into that of f(x)."""
    if len(f_map) != t_dom.universe_size:
        raise InputError("map is not total on the domain universe")
    for v in f_map:
        if not 0 <= v < t_cod.universe_size:
            raise InputError(f"map value {v} out of codomain range")
    fibres = [0] * t_cod.universe_size
    for x, v in enumerate(f_map):
        fibres[v] |= 1 << x
    preimage = {
        v: sum(fibre for c, fibre in enumerate(fibres) if t_cod.mins[v] >> c & 1)
        for v in set(f_map)
    }
    return all(m & ~preimage[f_map[x]] == 0 for x, m in enumerate(t_dom.mins))


def subspace(t: Topology, carrier: SubsetMask) -> Topology:
    """Relative topology on a nonempty subset, reindexed to 0..|carrier|-1.

    The minimal neighbourhood of a point in the subspace is the trace of its
    minimal neighbourhood in the whole space.
    """
    if carrier.universe_size != t.universe_size:
        raise InputError("carrier lives on the wrong universe")
    if carrier.is_empty:
        raise InputError("subspace carrier must be nonempty")
    elems = carrier.elements()
    traces = []
    for old in elems:
        m = t.mins[old]
        traces.append(sum(1 << new for new, e in enumerate(elems) if m >> e & 1))
    return Topology(len(elems), tuple(traces))


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
    neighbourhoods = set(t.mins)

    def dense(bits: int) -> bool:
        return all(bits & m for m in neighbourhoods)

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
    """All topologies on an n-point universe, ordered by their sorted open sets.

    Walks preorders: every vector whose x-th mask contains x is a candidate
    (2**(n*(n-1)) of them), and the transitive ones are exactly the
    minimal-neighbourhood vectors of the topologies on n points.
    """
    if not 1 <= n <= _ENUM_CAP:
        raise InputError(f"topology enumeration supports 1 <= n <= {_ENUM_CAP}")
    choices = [[m for m in range(1 << n) if m >> x & 1] for x in range(n)]
    found = [
        Topology(n, mins) for mins in itertools.product(*choices) if _is_transitive(mins)
    ]
    found.sort(key=lambda t: _union_closure(t.mins))
    return tuple(found)


def discrete(n: int) -> Topology:
    return Topology(n, tuple(1 << i for i in range(n)))


def indiscrete(n: int) -> Topology:
    return Topology(n, ((1 << n) - 1,) * n)


def sierpinski() -> Topology:
    """Two points with exactly one nontrivial open set: {0}."""
    return Topology(2, (0b01, 0b11))
