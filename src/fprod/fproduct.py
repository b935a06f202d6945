"""Product constructions driven by a filter on the index set.

A box is one subset choice per factor; its distinguished index set delta is
where the choice is the whole factor, and its support sigma is the rest.
Restricting boxes to those whose delta belongs to the index filter yields,
depending on what each factor carries, the product topology, the product
filter, or the product uniformity.

On a finite product each of these structures is principal, so the
constructions are computed in closed form from one minimal box per point; the
enumerated box bases stay as the definitional routes that the propositions
about them read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from .filters import Filter, generate_filter, principal_filter
from .foundations import (
    InputError,
    ProductIndexing,
    SetFamily,
    SubsetMask,
    Universe,
    shared_indexing,
    walk_memoized,
)
from .topology import Topology, is_continuous, topology_from_base_bits
from .uniformity import Relation, Uniformity, generate_uniformity


@dataclass(frozen=True)
class Factor:
    """One coordinate space: a universe plus whichever structures it carries.

    A uniformity is given by a base, which is validated once here; the
    uniformity it generates is kept as `uniformity` (None without a base).
    """

    universe: Universe
    topology: Topology | None = None
    filter: Filter | None = None
    uniformity_base: SetFamily | None = None
    uniformity: Uniformity | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.universe.size
        if self.topology is not None and self.topology.universe_size != n:
            raise InputError("factor topology universe mismatch")
        if self.filter is not None and self.filter.universe_size != n:
            raise InputError("factor filter universe mismatch")
        if self.uniformity_base is not None:
            if self.uniformity_base.universe_size != n * n:
                raise InputError("factor uniformity base must live on the squared universe")
            # write-once, like ProductSpec._indexing; raises InputError on an invalid base
            object.__setattr__(self, "uniformity", generate_uniformity(self.uniformity_base))


@dataclass(frozen=True)
class ProductSpec:
    """Indexed factors plus a filter on the index set."""

    index_universe: Universe
    factors: tuple[Factor, ...]
    index_filter: Filter | None = None
    _indexing: ProductIndexing = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) != self.index_universe.size:
            raise InputError("one factor per index element is required")
        if (
            self.index_filter is not None
            and self.index_filter.universe_size != self.index_universe.size
        ):
            raise InputError("index filter lives on the wrong universe")
        # built here, so a spec over the product size cap cannot exist
        object.__setattr__(self, "_indexing", shared_indexing(f.universe.size for f in self.factors))

    @property
    def indexing(self) -> ProductIndexing:
        return self._indexing

    def _require_index_filter(self) -> Filter:
        if self.index_filter is None:
            raise InputError("this construction needs an index filter")
        return self.index_filter


def product_spec(factors: tuple[Factor, ...] | list[Factor], index_filter: Filter | None = None) -> ProductSpec:
    """Spec with the default index universe labelled 1..k."""
    factors = tuple(factors)
    return ProductSpec(Universe.indices(len(factors)), factors, index_filter)


@dataclass(frozen=True)
class Box:
    """One subset of each factor; denotes the set of points hitting every choice."""

    per_factor: tuple[SubsetMask, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_factor", tuple(self.per_factor))
        if not self.per_factor:
            raise InputError("a box needs at least one factor")


def box_delta(box: Box) -> SubsetMask:
    """Indexes where the box takes the whole factor (exact set equality)."""
    k = len(box.per_factor)
    return SubsetMask.of(k, (i for i, m in enumerate(box.per_factor) if m.is_full))


def box_sigma(box: Box) -> SubsetMask:
    """Support: indexes where the box is a proper subset of the factor."""
    return box_delta(box).complement()


def box_to_pointset(box: Box, idx: ProductIndexing) -> SubsetMask:
    """The box by its definition: the product of its sides, each point encoded.

    It shares no code with the kernel below, which the tests check against it.
    """
    if tuple(m.universe_size for m in box.per_factor) != idx.factor_sizes:
        raise InputError("box factor sizes do not match the indexing")
    return SubsetMask.of(idx.total, map(idx.encode_point, itertools.product(*box.per_factor)))


@walk_memoized
def _point_boxes(rows: Sequence[Sequence[int]], factor_sizes: Sequence[int]) -> tuple[int, ...]:
    """For each product point x, in code order, the mask of the box with sides rows[i][x_i].

    Prefix sharing: the boxes over factors 0..i-1 are kept in code order, and
    level i spreads each of them once per row of factor i. A prefix mask b is
    below 2**width, width being the prefix point count, so its shifted copies
    do not overlap and b * sum(1 << (c * width) for c in side) equals the OR
    of b << (c * width) over c in side: one multiply per box and level.
    Inside a grid walk the result is shared, so callers pass tuples.
    """
    masks = [1]
    width = 1
    for side_rows, size in zip(rows, factor_sizes):
        pats = side_rows  # over one-point prefixes a side is its own spread
        if width > 1:
            pats = []
            for side in side_rows:
                pat = shift = 0
                while side:
                    if side & 1:
                        pat |= 1 << shift
                    side >>= 1
                    shift += width
                pats.append(pat)
        masks = [m * pat for pat in pats for m in masks]
        width *= size
    return tuple(masks)


def _minimal_boxes(spec: ProductSpec, rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """For each product point x, the box whole on the index-filter core and rows[i][x_i] elsewhere.

    With factor minimal neighbourhoods as rows this is the minimal
    neighbourhood of x in the product topology; with the rows of factor
    minimal entourages it is the row of x in the product's minimal entourage.
    """
    core = spec._require_index_filter().core.bits  # empty when the filter is trivial
    return f_filter_cores(core, rows, spec.indexing)


def _by_delta(side_lists: Sequence[Sequence[int]], factor_sizes: Sequence[int], items) -> tuple:
    """items, one per side choice in _point_boxes order, as (delta, group) pairs in ascending delta."""
    deltas = [0]
    for i, (sides, size) in enumerate(zip(side_lists, factor_sizes)):  # level i sets bit i of full sides
        deltas = [d | 1 << i if side == (1 << size) - 1 else d for side in sides for d in deltas]
    groups: dict[int, list] = {}
    for d, item in zip(deltas, items):
        groups.setdefault(d, []).append(item)
    return tuple((d, tuple(group)) for d, group in sorted(groups.items()))


@walk_memoized
def _delta_groups(side_lists: Sequence[Sequence[int]], factor_sizes: Sequence[int]) -> tuple:
    """The box masks of all side choices, grouped by delta as _by_delta groups them.

    A box is accepted exactly when its delta is, so a box base is the union of
    the accepted groups: one membership test per distinct delta, not per box.
    Inside a grid walk every index filter on one factor tuple shares the table.
    """
    boxes = _point_boxes.__wrapped__(side_lists, factor_sizes)  # unmemoized: this table keeps them
    return _by_delta(side_lists, factor_sizes, boxes)


def _accepted(groups: tuple, member) -> set:
    """The union of the groups whose delta `member` accepts."""
    return {item for d, group in groups if member(d) for item in group}


def _factor_parts(spec: ProductSpec, attr: str, product: str, need: str | None = None) -> list:
    """Each factor's `attr`, or InputError when a factor lacks it."""
    parts = [getattr(f, attr) for f in spec.factors]
    if any(p is None for p in parts):
        raise InputError(f"every factor needs a {need or product} for the product {product}")
    return parts


def f_topology_base(spec: ProductSpec, delta_family: SetFamily | None = None) -> SetFamily:
    """Point sets of all open boxes whose delta is accepted.

    Acceptance is membership in the index filter, or in an arbitrary
    intersection-closed family passed as delta_family (the construction does
    not need full filter structure). Boxes with an empty side are dropped;
    the empty set reappears as the empty union.
    """
    return SetFamily(spec.indexing.total, sorted(_open_boxes(spec, delta_family)))


def _open_boxes(spec: ProductSpec, delta_family: SetFamily | None) -> set[int]:
    if delta_family is not None and delta_family.universe_size != spec.index_universe.size:
        raise InputError("delta family lives on the wrong universe")
    member = spec._require_index_filter().member_bits if delta_family is None else delta_family.contains_bits
    # bits[0] is the empty open set, the least member
    opens = tuple(t.opens().bits[1:] for t in _factor_parts(spec, "topology", "topology"))
    return _accepted(_delta_groups(opens, spec.indexing.factor_sizes), member)


def f_topology(spec: ProductSpec, delta_family: SetFamily | None = None) -> Topology:
    """The product topology generated by the accepted open boxes.

    Computed in closed form: a finite space is an Alexandroff space, so the
    accepted boxes through x meet in one box, whole on the index-filter core
    and the minimal neighbourhood of x_i elsewhere, and these minimal boxes
    are the product's minimal neighbourhoods. An arbitrary
    intersection-closed delta_family has no core; its topology is generated
    from the enumerated box base.
    """
    if delta_family is not None:
        return f_topology_via_base(spec, delta_family)
    rows = tuple(t.mins for t in _factor_parts(spec, "topology", "topology"))
    return Topology.of(spec.indexing.total, _minimal_boxes(spec, rows))


def f_topology_via_base(spec: ProductSpec, delta_family: SetFamily | None = None) -> Topology:
    """Definitional route: generate_topology(f_topology_base(spec, delta_family)), minus the SetFamily."""
    boxes = _open_boxes(spec, delta_family)
    return topology_from_base_bits(spec.indexing.total, boxes, boxes.__contains__)


def projection_fibres(i: int, idx: ProductIndexing) -> tuple[int, ...]:
    """The i-th projection by its fibres: for each value d, the codes whose i-th digit is d."""
    if not 0 <= i < len(idx.factor_sizes):
        raise InputError(f"factor index {i} out of range")
    return idx.digit_fibres[i]


def all_projections_continuous(spec: ProductSpec) -> bool:
    t = f_topology(spec)
    idx = spec.indexing
    for i, f in enumerate(spec.factors):
        assert f.topology is not None
        if not is_continuous(projection_fibres(i, idx), t, f.topology):
            return False
    return True


def _core_boxes(spec: ProductSpec, core_side) -> list[SubsetMask]:
    """For each product point x, the box core_side(x_i, s_i) on the index-filter core, whole elsewhere."""
    core = spec._require_index_filter().core
    idx = spec.indexing
    rows = tuple(tuple(core_side(a, s) for a in range(s)) for s in idx.factor_sizes)
    boxes = f_filter_cores(core.complement().bits, rows, idx)
    return [SubsetMask(idx.total, m) for m in boxes]


def equalizers(spec: ProductSpec) -> list[SubsetMask]:
    """For each point x, in code order, the points that agree with x on a member of the index filter.

    The filter accepts exactly the supersets of its core, so this is the box
    {x_i} on the core and the whole factor elsewhere. With the trivial index
    filter the core is empty and every equalizer is the whole product.
    """
    return _core_boxes(spec, lambda a, s: 1 << a)


def filter_different(spec: ProductSpec) -> list[SubsetMask]:
    """For each point x, in code order, the points that differ from x on a member of the index filter.

    That is, y differs from x at every index of the core: the box of digits
    other than x_i on the core, whole elsewhere (all points for the trivial filter).
    """
    return _core_boxes(spec, lambda a, s: ((1 << s) - 1) ^ (1 << a))


def _factor_filters(spec: ProductSpec) -> list[Filter]:
    filters = _factor_parts(spec, "filter", "filter")
    if not all(f.is_proper for f in filters):
        raise InputError("factor filters must be proper")
    return filters


def f_filter_base(spec: ProductSpec) -> SetFamily:
    """Point sets of all boxes of factor-filter members whose delta is accepted."""
    member = spec._require_index_filter().member_bits
    idx = spec.indexing
    members = tuple(f.members().bits for f in _factor_filters(spec))
    return SetFamily(idx.total, sorted(_accepted(_delta_groups(members, idx.factor_sizes), member)))


def f_filter_cores(
    index_core: int, core_rows: Sequence[Sequence[int]], idx: ProductIndexing
) -> tuple[int, ...]:
    """The product filter's core for each choice of one core per factor from core_rows.

    Each is the box whole on the index core and the chosen factor cores
    elsewhere; choices run in code order as in _point_boxes, row 0 fastest.
    InputError unless there is one row per factor, every side lies in its
    factor and index_core in the index set.
    """
    sizes = idx.factor_sizes
    if len(core_rows) != len(sizes):
        raise InputError(f"expected {len(sizes)} core rows, one per factor, got {len(core_rows)}")
    if index_core >> len(sizes):
        raise InputError(f"index core {index_core:#x} out of range for {len(sizes)} indexes")
    if any(side >> s for row, s in zip(core_rows, sizes) for side in row):
        raise InputError("a factor core has points outside its factor")
    sides = tuple(
        ((1 << s) - 1,) * len(row) if index_core >> i & 1 else tuple(row)
        for i, (row, s) in enumerate(zip(core_rows, sizes))
    )
    return _point_boxes(sides, sizes)


def f_filter(spec: ProductSpec) -> Filter:
    """The product filter: supersets of the accepted filter boxes.

    Computed in closed form by f_filter_cores, with one core per factor; the
    definitional route through f_filter_base generates the same filter.
    """
    index_core = spec._require_index_filter().core.bits
    idx = spec.indexing
    cores = tuple((ff.core.bits,) for ff in _factor_filters(spec))
    (core,) = f_filter_cores(index_core, cores, idx)
    return principal_filter(SubsetMask(idx.total, core))


def f_filter_via_base(spec: ProductSpec) -> Filter:
    """Definitional route: generate the filter from the enumerated box base."""
    return generate_filter(f_filter_base(spec))


def squared_indexing(idx: ProductIndexing) -> ProductIndexing:
    """Mixed-radix coding of the factor-wise pair product; digit i holds (x_i, y_i)."""
    return shared_indexing(s * s for s in idx.factor_sizes)


def f_uniformity_base(spec: ProductSpec) -> SetFamily:
    """Relations on the product from boxes of factor entourages with accepted delta.

    Each factor base is augmented with the full square (a base may omit it,
    yet every uniformity contains it and delta needs it to be realizable),
    then a box is kept when its delta belongs to the index filter. The row of
    product point x in the box (R_0, ..., R_k) is the point box with sides
    R_i-row(x_i), so the relation is built row by row, once per box and walk.
    """
    member = spec._require_index_filter().member_bits
    idx = spec.indexing
    pair_sizes = squared_indexing(idx).factor_sizes  # enforces the squared-size cap
    bases = _factor_parts(spec, "uniformity_base", "uniformity", "uniformity base")
    member_lists = tuple(tuple(sorted({*base.bits, (1 << p) - 1})) for p, base in zip(pair_sizes, bases))
    relations = _accepted(_entourage_groups(member_lists, idx.factor_sizes), member)
    return SetFamily(idx.total * idx.total, sorted(relations))


@walk_memoized
def _entourage_groups(member_lists: Sequence[Sequence[int]], sizes: Sequence[int]) -> tuple:
    """The relation of each box of factor entourages, grouped by delta as _delta_groups groups box masks."""
    row_lists = [[Relation(s, SubsetMask(s * s, m)).rows() for m in ms] for s, ms in zip(sizes, member_lists)]
    choices = (c[::-1] for c in itertools.product(*reversed(row_lists)))  # list 0 varies fastest
    relations = [Relation.from_rows(_point_boxes(c, sizes)).pairs.bits for c in choices]
    return _by_delta(member_lists, [s * s for s in sizes], relations)


def f_uniformity(spec: ProductSpec) -> Uniformity:
    """The product uniformity generated by the accepted entourage boxes.

    Computed in closed form: the accepted boxes meet in one minimal entourage,
    whose row at x is the box whole on the index-filter core and the factor
    minimal-entourage row of x_i elsewhere. f_uniformity_base is the
    definitional route and generates the same uniformity.
    """
    idx = spec.indexing
    squared_indexing(idx)  # enforces the squared-size cap
    rows = tuple(u.rows for u in _factor_parts(spec, "uniformity", "uniformity", "uniformity base"))
    return Uniformity(idx.total, _minimal_boxes(spec, rows))
