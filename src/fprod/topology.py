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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

from .filters import Filter, principal_filter
from .foundations import InputError, ResourceLimitError, SetFamily, SubsetMask, check_fibres

_OPENS_CAP = 20  # union closures approach 2**n members
_ENUM_CAP = 4


class NotABaseError(InputError):
    """The family fails the point criterion, so it generates no topology."""


def _point_meets(n: int, bits: Iterable[int]) -> list[int]:
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

    @classmethod
    def unchecked(cls, universe_size: int, mins: Sequence[int]) -> "Topology":
        """The topology with these minimal neighbourhoods, without the constructor's
        checks, for fprod's own vectors that are preorders by construction:
        f_topology's minimal boxes, subspace's traces, induced_topology's
        equivalence rows, enumerate_topologies' transitive vectors and the point
        meets of a base that topology_from_base_bits has checked. Data from
        outside goes through Topology(...); the sampled agreement tests
        (tests/test_agreement.py) stand in for the check. Each call builds a new
        value, as Uniformity.unchecked does: equal vectors give equal topologies.
        """
        t = object.__new__(cls)
        t.__dict__.update(universe_size=universe_size, mins=tuple(mins))
        return t

    @cached_property
    def base(self) -> SetFamily:
        """The smallest base: the distinct minimal neighbourhoods, in canonical order.
        Cached, because is_dense reads it on each query and P3.1 asks once per point."""
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

    @cached_property
    def _opens(self) -> SetFamily:
        """Cached per object, since equal topologies are not shared; a product reads a
        factor's opens once per factor, through the rows it stages (fproduct._stage)."""
        n = self.universe_size
        if n > _OPENS_CAP:
            raise ResourceLimitError(f"open-set materialization capped at universe size {_OPENS_CAP}")
        return SetFamily(n, _union_closure(self.mins))

    def opens(self) -> SetFamily:
        """All open sets: the union closure of the minimal neighborhoods, plus the empty set."""
        return self._opens

    def neighborhoods_filter(self, x: int) -> Filter:
        """The filter of neighborhoods of x: all supersets of its minimal open set."""
        return principal_filter(self.minimal_neighborhood(x))

    def inseparable_pair(self) -> tuple[int, int] | None:
        """The first x < y in code order whose minimal neighbourhoods meet, or None.

        A point is in such a pair iff it is not open or lies in another point's
        minimal neighbourhood: iff it lies in some mins[y] != {y}. The lowest
        such x has all its partners above it, so y is the first one after x.
        """
        mins = self.mins
        shared = 0
        for y, m in enumerate(mins):
            if m != 1 << y:
                shared |= m
        if not shared:
            return None
        x = (shared & -shared).bit_length() - 1
        return x, next(y for y in range(x + 1, self.universe_size) if mins[x] & mins[y])

    def is_hausdorff(self) -> bool:
        """Distinct points have disjoint minimal neighbourhoods; equally, every singleton
        is closed (T1). Both hold iff every point is open: a point y != x in mins[x]
        lies in mins[y] too, and a finite space whose points are closed has every set
        closed, hence every set open."""
        return all(m == 1 << x for x, m in enumerate(self.mins))

    is_t1 = is_hausdorff

    def is_dense(self, mask: SubsetMask) -> bool:
        """The set meets every minimal neighbourhood, hence every nonempty open set."""
        if mask.universe_size != self.universe_size:
            raise InputError("density query on the wrong universe")
        bits = mask.bits
        return all(bits & m for m in self.base.bits)


def generate_topology(base: SetFamily) -> Topology:
    """Topology generated by a covering, point-criterion base."""
    return topology_from_base_bits(base.universe_size, base.bits, base.contains_bits)


def topology_from_base_bits(n: int, bits: Iterable[int], contains: Callable[[int], bool]) -> Topology:
    """generate_topology on a base given as its members' masks and a membership test.

    Once every point meet is a member, the meets are a preorder: an uncovered
    point meets to the whole set, which as a member would cover it, so each x
    lies in its meet; and a member through y contains y's meet, so y in
    meets[x] puts meets[y] inside meets[x]. So they skip the constructor's checks.
    """
    meets = _point_meets(n, bits)
    if not all(map(contains, meets)):
        raise NotABaseError("family is not a topology base")
    return Topology.unchecked(n, meets)


def topology_leq(t1: Topology, t2: Topology) -> bool:
    """True iff every open of t1 is open in t2: each t2 neighbourhood lies in t1's."""
    if t1.universe_size != t2.universe_size:
        raise InputError("topologies live on different universes")
    return all(m2 & ~m1 == 0 for m1, m2 in zip(t1.mins, t2.mins))


def is_continuous(fibres: Sequence[int], t_dom: Topology, t_cod: Topology) -> bool:
    """f, given by its fibres (see foundations.map_fibres), maps the minimal
    neighbourhood of each x into that of f(x). The fibres are checked to
    partition the domain; the kernels point_preimages and mins_within decide."""
    check_fibres(fibres, t_dom.universe_size, t_cod.universe_size)
    return mins_within(t_dom.mins, point_preimages(fibres, t_cod.mins))


def point_preimages(fibres: Sequence[int], cod_mins: Sequence[int]) -> tuple[int, ...]:
    """For each domain point x, in code order, the preimage of cod_mins[f(x)]: the
    union of the fibres of its points. The fibres are trusted to partition the
    domain, as projection fibres do."""
    at = [0] * sum(f.bit_count() for f in fibres)
    for fibre, m in zip(fibres, cod_mins):
        preimage = 0
        for c, other in enumerate(fibres):
            if m >> c & 1:
                preimage |= other
        while fibre:
            low = fibre & -fibre
            at[low.bit_length() - 1] = preimage
            fibre ^= low
    return tuple(at)


def mins_within(mins: Sequence[int], bounds: Sequence[int]) -> bool:
    """True iff each mins[x] lies inside bounds[x]: with the domain's minimal
    neighbourhoods and a map's point preimages, iff the map is continuous."""
    for m, bound in zip(mins, bounds):
        if m & ~bound:
            return False
    return True


def subspace(t: Topology, carrier: SubsetMask) -> Topology:
    """Relative topology on a nonempty subset, reindexed to 0..|carrier|-1.

    The minimal neighbourhood of a point in the subspace is the trace of its
    minimal neighbourhood in the whole space.
    """
    if carrier.universe_size != t.universe_size:
        raise InputError("carrier lives on the wrong universe")
    if carrier.is_empty:
        raise InputError("subspace carrier must be nonempty")
    bits = rest = carrier.bits
    place = {}  # each point's bit -> its bit in the subspace, in ascending order
    while rest:
        low = rest & -rest
        place[low], rest = 1 << len(place), rest ^ low
    traces = []
    for low in place:
        m, trace = t.mins[low.bit_length() - 1] & bits, 0
        while m:
            one = m & -m
            trace, m = trace | place[one], m ^ one
        traces.append(trace)
    return Topology.unchecked(len(place), traces)  # the trace of a preorder is one


def find_disjoint_dense(t: Topology, n: int) -> tuple[SubsetMask, ...] | None:
    """The lexicographically least sequence of n pairwise-disjoint dense subsets, or None.

    Every nonempty open set contains a minimal one: a minimal neighbourhood m
    with mins[y] == m for each y in m. These are pairwise disjoint, and a set
    is dense iff it meets each of them, so n disjoint dense sets exist iff each
    has at least n points. Set j takes the j-th lowest point of each: any dense
    set holds one point per minimal open set, none lower than these.
    """
    if n < 1:
        raise InputError("need n >= 1 dense sets")
    size = t.universe_size
    minimal = [m for m in t.base.bits if all(t.mins[y] == m for y in SubsetMask(size, m))]
    if not minimal or min(m.bit_count() for m in minimal) < n:
        return None
    found = [0] * n
    for m in minimal:
        for j in range(n):
            low = m & -m
            found[j] |= low
            m ^= low
    return tuple(SubsetMask(size, bits) for bits in found)


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
        Topology.unchecked(n, mins) for mins in itertools.product(*choices) if _is_transitive(mins)
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
