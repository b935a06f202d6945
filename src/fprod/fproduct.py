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
)
from .topology import Topology, generate_topology, is_continuous
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
    _indexing: ProductIndexing | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) != self.index_universe.size:
            raise InputError("one factor per index element is required")
        if (
            self.index_filter is not None
            and self.index_filter.universe_size != self.index_universe.size
        ):
            raise InputError("index filter lives on the wrong universe")

    @property
    def indexing(self) -> ProductIndexing:
        # write-once cache, filled on first access so the size cap fires there
        if self._indexing is None:
            idx = ProductIndexing(tuple(f.universe.size for f in self.factors))
            object.__setattr__(self, "_indexing", idx)
        return self._indexing  # type: ignore[return-value]

    def with_factors(self, factors: Sequence[Factor]) -> "ProductSpec":
        """The same index set and filter over replacement factors of the same sizes.

        The new spec shares this spec's indexing, so the size cap is not
        checked again.
        """
        idx = self.indexing
        spec = ProductSpec(self.index_universe, tuple(factors), self.index_filter)
        if tuple(f.universe.size for f in spec.factors) != idx.factor_sizes:
            raise InputError("replacement factors must keep the factor sizes")
        object.__setattr__(spec, "_indexing", idx)
        return spec

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


def _box_bits(side_bits: Sequence[int], factor_sizes: Sequence[int]) -> int:
    """Point mask of the box with the given side masks, without decoding a point.

    Mixed-radix Kronecker shift-or, factor 0 the least-significant digit: the
    mask over factors 0..i ORs one copy of the mask over factors 0..i-1,
    shifted by c times their point count, for each element c of side i.
    """
    acc = 1
    width = 1
    for side, size in zip(side_bits, factor_sizes):
        spread = 0
        c = 0
        while side:
            if side & 1:
                spread |= acc << (c * width)
            side >>= 1
            c += 1
        acc = spread
        width *= size
    return acc


def _point_boxes(rows: Sequence[Sequence[int]], factor_sizes: Sequence[int]) -> list[int]:
    """For each product point x, in code order, the mask of the box with sides rows[i][x_i].

    Prefix sharing: the boxes over factors 0..i-1 are kept in code order, and
    level i spreads each of them once per row of factor i. A prefix mask b is
    below 2**width, width being the prefix point count, so its shifted copies
    do not overlap and b * sum(1 << (c * width) for c in side) equals the OR
    of b << (c * width) over c in side: one multiply per box and level.
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
    return masks


def _minimal_boxes(spec: ProductSpec, rows: Sequence[Sequence[int]]) -> list[int]:
    """For each product point x, the box whole on the index-filter core and rows[i][x_i] elsewhere.

    With factor minimal neighbourhoods as rows this is the minimal
    neighbourhood of x in the product topology; with the rows of factor
    minimal entourages it is the row of x in the product's minimal entourage.
    """
    core = spec._require_index_filter().core.bits  # empty when the filter is trivial
    return f_filter_cores(core, rows, spec.indexing.factor_sizes)


def box_to_pointset(box: Box, idx: ProductIndexing) -> SubsetMask:
    """The box as a concrete subset of the coded product universe."""
    if tuple(m.universe_size for m in box.per_factor) != idx.factor_sizes:
        raise InputError("box factor sizes do not match the indexing")
    return SubsetMask(idx.total, _box_bits([side.bits for side in box.per_factor], idx.factor_sizes))


def _accepted_choices(side_lists: Sequence[Sequence[int]], factor_sizes: Sequence[int], member, items):
    """The items of the side choices whose delta bits `member` accepts.

    The one box enumerator: the definitional box bases of the product
    topology, filter and uniformity all walk it. items holds one entry per
    side choice in the order _point_boxes(side_lists, factor_sizes) builds
    their masks, list 0 varying fastest; the deltas are built level by level
    in that order, level i adding bit i to the choices with a full side i.
    """
    deltas = [0]
    for i, (sides, size) in enumerate(zip(side_lists, factor_sizes)):
        full = (1 << size) - 1
        deltas = [d | (1 << i) if side == full else d for side in sides for d in deltas]
    return [item for item, d in zip(items, deltas) if member(d)]


def _delta_member(spec: ProductSpec, delta_family: SetFamily | None):
    if delta_family is not None:
        if delta_family.universe_size != spec.index_universe.size:
            raise InputError("delta family lives on the wrong universe")
        return delta_family.contains_bits
    return spec._require_index_filter().member_bits


def f_topology_base(spec: ProductSpec, delta_family: SetFamily | None = None) -> SetFamily:
    """Point sets of all open boxes whose delta is accepted.

    Acceptance is membership in the index filter, or in an arbitrary
    intersection-closed family passed as delta_family (the construction does
    not need full filter structure). Boxes with an empty side are dropped;
    the empty set reappears as the empty union.
    """
    member = _delta_member(spec, delta_family)
    idx = spec.indexing
    opens = []
    for f in spec.factors:
        if f.topology is None:
            raise InputError("every factor needs a topology for the product topology")
        opens.append([b for b in f.topology.opens().bits if b])
    masks = _accepted_choices(opens, idx.factor_sizes, member, _point_boxes(opens, idx.factor_sizes))
    return SetFamily(idx.total, sorted(set(masks)))


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
        return generate_topology(f_topology_base(spec, delta_family))
    rows = []
    for f in spec.factors:
        if f.topology is None:
            raise InputError("every factor needs a topology for the product topology")
        rows.append(f.topology.mins)
    return Topology(spec.indexing.total, tuple(_minimal_boxes(spec, rows)))


def f_topology_via_base(spec: ProductSpec) -> Topology:
    """Definitional route: generate the topology from the enumerated box base."""
    return generate_topology(f_topology_base(spec))


def projection_preimage(i: int, sub: SubsetMask, idx: ProductIndexing) -> SubsetMask:
    """Points whose i-th coordinate lies in the given factor subset."""
    if not 0 <= i < len(idx.factor_sizes):
        raise InputError(f"factor index {i} out of range")
    if sub.universe_size != idx.factor_sizes[i]:
        raise InputError("subset lives on the wrong factor")
    sides = [(1 << s) - 1 for s in idx.factor_sizes]
    sides[i] = sub.bits
    return SubsetMask(idx.total, _box_bits(sides, idx.factor_sizes))


def projection_map(i: int, idx: ProductIndexing) -> tuple[int, ...]:
    """The i-th projection as a point map on coded points: the i-th digit of each code."""
    if not 0 <= i < len(idx.factor_sizes):
        raise InputError(f"factor index {i} out of range")
    w, s = idx.weights[i], idx.factor_sizes[i]
    block = tuple(d for d in range(s) for _ in range(w))
    return block * (idx.total // (w * s))


def all_projections_continuous(spec: ProductSpec) -> bool:
    t = f_topology(spec)
    idx = spec.indexing
    for i, f in enumerate(spec.factors):
        assert f.topology is not None
        if not is_continuous(projection_map(i, idx), t, f.topology):
            return False
    return True


def equalizer(spec: ProductSpec, x: int) -> SubsetMask:
    """Points agreeing with x on an index set the filter accepts.

    The filter accepts exactly the supersets of its core, so this is the box
    {x_i} on the core and the whole factor elsewhere. With the trivial index
    filter the core is empty and the equalizer is the whole product; callers
    that need a proper one should check the filter first.
    """
    core = spec._require_index_filter().core
    idx = spec.indexing
    if not 0 <= x < idx.total:
        raise InputError(f"point code {x} out of range")
    sides = [
        1 << (x // w % s) if i in core else (1 << s) - 1
        for i, (w, s) in enumerate(zip(idx.weights, idx.factor_sizes))
    ]
    return SubsetMask(idx.total, _box_bits(sides, idx.factor_sizes))


def _core_boxes(spec: ProductSpec, core_side) -> list[SubsetMask]:
    """For each product point x, the box core_side(x_i, s_i) on the index-filter core, whole elsewhere."""
    core = spec._require_index_filter().core
    idx = spec.indexing
    sizes = idx.factor_sizes
    rows = [
        [core_side(a, s) if i in core else (1 << s) - 1 for a in range(s)]
        for i, s in enumerate(sizes)
    ]
    return [SubsetMask(idx.total, m) for m in _point_boxes(rows, sizes)]


def equalizers(spec: ProductSpec) -> list[SubsetMask]:
    """Every point's equalizer, in code order, built in one pass; see equalizer."""
    return _core_boxes(spec, lambda a, s: 1 << a)


def filter_different(spec: ProductSpec) -> list[SubsetMask]:
    """For each point x, in code order, the points y with different_by_filter(spec, x, y).

    The box of digits other than x_i on the index-filter core, whole elsewhere.
    """
    return _core_boxes(spec, lambda a, s: ((1 << s) - 1) ^ (1 << a))


def different_by_filter(spec: ProductSpec, x: int, y: int) -> bool:
    """True iff the set of coordinates where x and y differ belongs to the index filter.

    That is, iff x and y differ at every index of the filter's core; always
    true for the trivial filter, whose core is empty.
    """
    core = spec._require_index_filter().core
    idx = spec.indexing
    if not 0 <= x < idx.total or not 0 <= y < idx.total:
        raise InputError("point code out of range")
    core_bits = core.bits
    for w, s in zip(idx.weights, idx.factor_sizes):
        if core_bits & 1 and x // w % s == y // w % s:
            return False
        core_bits >>= 1
    return True


def _factor_filters(spec: ProductSpec) -> list[Filter]:
    out = []
    for f in spec.factors:
        if f.filter is None:
            raise InputError("every factor needs a filter for the product filter")
        if not f.filter.is_proper:
            raise InputError("factor filters must be proper")
        out.append(f.filter)
    return out


def f_filter_base(spec: ProductSpec) -> SetFamily:
    """Point sets of all boxes of factor-filter members whose delta is accepted."""
    member = spec._require_index_filter().member_bits
    idx = spec.indexing
    members = [f.members().bits for f in _factor_filters(spec)]
    masks = _accepted_choices(members, idx.factor_sizes, member, _point_boxes(members, idx.factor_sizes))
    return SetFamily(idx.total, sorted(set(masks)))


def f_filter_cores(
    index_core: int, core_rows: Sequence[Sequence[int]], factor_sizes: Sequence[int]
) -> list[int]:
    """The product filter's core for each choice of one core per factor from core_rows.

    Each is the box whole on the index core and the chosen factor cores
    elsewhere; choices run in code order as in _point_boxes, row 0 fastest.
    """
    sides = [
        [(1 << s) - 1] * len(row) if index_core >> i & 1 else row
        for i, (row, s) in enumerate(zip(core_rows, factor_sizes))
    ]
    return _point_boxes(sides, factor_sizes)


def f_filter_core(index_core: int, factor_cores: Sequence[int], factor_sizes: Sequence[int]) -> int:
    """The product filter's core bits: the box whole on the index core, factor cores elsewhere."""
    return f_filter_cores(index_core, [[c] for c in factor_cores], factor_sizes)[0]


def f_filter(spec: ProductSpec) -> Filter:
    """The product filter: supersets of the accepted filter boxes.

    Computed in closed form by f_filter_core; the definitional route through
    f_filter_base generates the same filter.
    """
    index_core = spec._require_index_filter().core.bits
    idx = spec.indexing
    cores = [ff.core.bits for ff in _factor_filters(spec)]
    core = f_filter_core(index_core, cores, idx.factor_sizes)
    return principal_filter(SubsetMask(idx.total, core))


def f_filter_via_base(spec: ProductSpec) -> Filter:
    """Definitional route: generate the filter from the enumerated box base."""
    return generate_filter(f_filter_base(spec))


def squared_indexing(idx: ProductIndexing) -> ProductIndexing:
    """Mixed-radix coding of the factor-wise pair product; digit i holds (x_i, y_i)."""
    return ProductIndexing(tuple(s * s for s in idx.factor_sizes))


def f_uniformity_base(spec: ProductSpec) -> SetFamily:
    """Relations on the product from boxes of factor entourages with accepted delta.

    Each factor base is augmented with the full square (a base may omit it,
    yet every uniformity contains it and delta needs it to be realizable),
    then a box is kept when its delta belongs to the index filter. The row of
    product point x in the box (R_0, ..., R_k) is the point box with sides
    R_i-row(x_i), so the relation is built row by row.
    """
    fil = spec._require_index_filter()
    idx = spec.indexing
    total = idx.total
    squared_indexing(idx)  # enforces the squared-size cap
    sizes = idx.factor_sizes
    member_lists = []
    for s, f in zip(sizes, spec.factors):
        if f.uniformity_base is None:
            raise InputError("every factor needs a uniformity base for the product uniformity")
        member_lists.append(sorted({*f.uniformity_base.bits, (1 << (s * s)) - 1}))
    row_lists = [
        [Relation(s, SubsetMask(s * s, m)).rows() for m in members]
        for s, members in zip(sizes, member_lists)
    ]
    choices = [c[::-1] for c in itertools.product(*reversed(row_lists))]  # list 0 varies fastest
    accepted = _accepted_choices(member_lists, [s * s for s in sizes], fil.member_bits, choices)
    relations = (Relation.from_rows(_point_boxes(c, sizes)).pairs.bits for c in accepted)
    return SetFamily(total * total, sorted(set(relations)))


def f_uniformity(spec: ProductSpec) -> Uniformity:
    """The product uniformity generated by the accepted entourage boxes.

    Computed in closed form: the accepted boxes meet in one minimal entourage,
    whose row at x is the box whole on the index-filter core and the factor
    minimal-entourage row of x_i elsewhere. f_uniformity_base is the
    definitional route and generates the same uniformity.
    """
    idx = spec.indexing
    squared_indexing(idx)  # enforces the squared-size cap
    rows = []
    for f in spec.factors:
        if f.uniformity is None:
            raise InputError("every factor needs a uniformity base for the product uniformity")
        rows.append(f.uniformity.rows)
    return Uniformity(idx.total, _minimal_boxes(spec, rows))
