"""Product constructions driven by a filter on the index set.

A box is one subset choice per factor; its distinguished index set delta is
where the choice is the whole factor, and its support sigma is the rest.
Restricting boxes to those whose delta belongs to the index filter yields,
depending on what each factor carries, the product topology, the product
filter, or the product uniformity.

On a finite product each of these structures is principal, so the
constructions are computed in closed form from one minimal box per point; the
enumerated box bases stay as the definitional routes that the propositions
about them read. A filter with core C accepts exactly the boxes whole on C,
so those bases enumerate only the accepted boxes.

Inside grid_walk() this module's four walk tables keep the point boxes, the
via-base topologies, the entourage boxes and the projection preimages; no other
module shares work across a walk.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from typing import Any, Callable, Iterator, Sequence, TypeVar

from .filters import Filter, principal_filter
from .foundations import InputError, ProductIndexing, SetFamily, SubsetMask, Universe, shared_indexing
from .topology import Topology, generate_topology, mins_within, point_preimages, topology_from_base_bits
from .uniformity import Relation, Uniformity, generate_uniformity, induced_topology

# ---------------------------------------------------------------------------
# work shared within one grid walk

# Entries per table. The bound keeps a deep walk's memory flat (P4.5 at index size 3 peaks at
# 21 MiB; unbounded tables, 103 MiB) at the price of rebuilding evicted repeats: that walk
# rebuilds 34,782 of its 275,128 repeated families, P2.7 at factor size 3 30,624 of 205,175.
WALK_MEMO_BOUND = 1024

_F = TypeVar("_F", bound=Callable)


class _Walk(threading.local):
    tables: dict | None = None  # the current walk's tables, one per memoized function


_walk = _Walk()


@contextmanager
def grid_walk() -> Iterator[None]:
    """Scope of one grid walk: inside it, walk_memoized functions share their results.

    The walk's tables are emptied when it ends, however it ends, so nothing is
    kept from one walk to the next and nothing at all outside a walk. Each
    thread has its own current walk.
    """
    outer, tables = _walk.tables, {}
    _walk.tables = tables
    try:
        yield
    finally:
        _walk.tables = outer
        tables.clear()


def walk_memoized(fn: _F) -> _F:
    """fn, called afresh outside grid_walk(); inside one, each distinct argument
    tuple (hashable, so pass tuples) is computed once and its result shared.

    A walk keeps at most WALK_MEMO_BOUND results of fn, least recently used
    evicted first. Results are shared, so fn must return immutable values; a
    call that raises stores nothing and raises again when repeated.
    """

    @wraps(fn)
    def call(*args):
        tables = _walk.tables
        if tables is None:
            return fn(*args)
        table = tables.get(fn)
        if table is None:
            table = tables[fn] = lru_cache(maxsize=WALK_MEMO_BOUND)(fn)
        return table(*args)

    return call  # type: ignore[return-value]


@dataclass(frozen=True)
class Factor:
    """One coordinate space: a universe plus whichever structures it carries.

    A filter must be proper. A uniformity is given by a base, validated once
    here; the uniformity it generates is kept as `uniformity` (None without a base).
    `_rows` keeps the kernel rows gathered from it, by kind (see _stage); `==` ignores it.
    """

    universe: Universe
    topology: Topology | None = None
    filter: Filter | None = None
    uniformity_base: SetFamily | None = None
    uniformity: Uniformity | None = field(default=None, init=False, repr=False, compare=False)
    _rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.universe.size
        for label in self.universe.labels:  # "," joins a product point's labels, ";" the points of a set
            if "," in label or ";" in label:
                raise InputError(f"factor point label {label!r} contains a separator, ',' or ';'")
            if label != label.strip():  # a product point's coordinates are read stripped
                raise InputError(f"factor point label {label!r} has leading or trailing whitespace")
        if self.topology is not None and self.topology.universe_size != n:
            raise InputError("factor topology universe mismatch")
        if self.filter is not None:
            if self.filter.universe_size != n:
                raise InputError("factor filter universe mismatch")
            if not self.filter.is_proper:
                raise InputError("factor filters must be proper")
        if self.uniformity_base is not None:
            if self.uniformity_base.universe_size != n * n:
                raise InputError("factor uniformity base must live on the squared universe")
            # write-once, like ProductSpec._indexing; raises InputError on an invalid base
            object.__setattr__(self, "uniformity", generate_uniformity(self.uniformity_base))
        object.__setattr__(self, "_rows", {})


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

    def with_index_filter(self, index_filter: Filter | None) -> ProductSpec:
        """This spec under another index filter, sharing its factors and indexing."""
        if index_filter is not None and index_filter.universe_size != self.index_universe.size:
            raise InputError("index filter lives on the wrong universe")
        spec = object.__new__(ProductSpec)
        vars(spec).update(vars(self), index_filter=index_filter)
        return spec

    def _require_index_filter(self) -> Filter:
        if self.index_filter is None:
            raise InputError("this construction needs an index filter")
        return self.index_filter


def product_spec(factors: tuple[Factor, ...] | list[Factor], index_filter: Filter | None = None) -> ProductSpec:
    """Spec with the default index universe labelled 1..k."""
    factors = tuple(factors)
    return ProductSpec(Universe.indices(len(factors)), factors, index_filter)


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


def _whole(s: int) -> tuple[int]:
    return ((1 << s) - 1,)


# kind -> (the factor attribute it reads, and from that attribute and the factor size: the
# factor's rows, and what stands for them on a core index, the whole factor once per row
# (one row per point, so filter_cores keeps one box per point) or alone (a list of sides))
_KINDS: dict[str, tuple[str, Callable[[Any, int], tuple[tuple[int, ...], tuple[int, ...]]]]] = {
    "mins": ("topology", lambda t, s: (t.mins, _whole(s) * s)),
    "opens": ("topology", lambda t, s: (t.opens().bits[1:], _whole(s))),  # bits[0] is the empty set
    "induced opens": ("uniformity", lambda u, s: (induced_topology(u).opens().bits[1:], _whole(s))),
    "proper opens": ("topology", lambda t, s: (t.opens().bits[1:-1], _whole(s))),
    "cores": ("filter", lambda f, s: ((f.core.bits,), _whole(s))),
    "members": ("filter", lambda f, s: (f.members().bits, _whole(s))),
    "rows": ("uniformity", lambda u, s: (u.rows, _whole(s) * s)),
    "entourages": ("uniformity_base", lambda b, s: (tuple(sorted({*b.bits, (1 << s * s) - 1})), _whole(s * s))),
    "points": ("universe", lambda _, s: (tuple(1 << a for a in range(s)), _whole(s) * s)),
    "others": ("universe", lambda _, s: (tuple(((1 << s) - 1) ^ 1 << a for a in range(s)), _whole(s) * s)),
}


def _sides(spec: ProductSpec, kind: str, core: int | None = None) -> tuple:
    """One side list per factor, of one kind of rows (see _KINDS): at each index in core (by
    default the index-filter core) what stands for the whole factor, elsewhere its own rows,
    both read from the pair the factor has staged (see _stage)."""
    if core is None:
        core = spec._require_index_filter().core.bits
    return tuple([(f._rows.get(kind) or _stage(f, kind))[core >> i & 1]
                  for i, f in enumerate(spec.factors)])


def _stage(factor: Factor, kind: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The factor's (rows, whole) pair of one kind, gathered once per factor and kept on it.
    A factor lacking the structure raises InputError on every call, since nothing is stored then."""
    attr, rows_of = _KINDS[kind]
    part = getattr(factor, attr)
    if part is None:
        product = attr.split("_")[0]
        need = "uniformity base" if product == "uniformity" else product
        raise InputError(f"every factor needs a {need} for the product {product}")
    pair = factor._rows[kind] = rows_of(part, factor.universe.size)
    return pair


def f_topology_base(spec: ProductSpec, delta_family: SetFamily | None = None) -> SetFamily:
    """Point sets of all open boxes whose delta is accepted.

    Acceptance is membership in the index filter, or in an arbitrary
    intersection-closed family passed as delta_family (the construction does
    not need full filter structure). Only accepted boxes are built: those
    whole on the index-filter core, or for each member d of delta_family
    those whose delta is exactly d, whole on d and a proper open set
    elsewhere. Boxes with an empty side are dropped; the empty set reappears
    as the empty union.
    """
    sizes = spec.indexing.factor_sizes
    if delta_family is None:
        return SetFamily(spec.indexing.total, sorted(_point_boxes(_sides(spec, "opens"), sizes)))
    if delta_family.universe_size != spec.index_universe.size:
        raise InputError("delta family lives on the wrong universe")
    boxes = {b for d in delta_family.bits for b in _point_boxes(_sides(spec, "proper opens", d), sizes)}
    return SetFamily(spec.indexing.total, sorted(boxes))


def f_topology(spec: ProductSpec, delta_family: SetFamily | None = None) -> Topology:
    """The product topology generated by the accepted open boxes.

    Computed in closed form: a finite space is an Alexandroff space, so the
    accepted boxes through x meet in one box, whole on the index-filter core
    and the minimal neighbourhood of x_i elsewhere, and these minimal boxes
    are the product's minimal neighbourhoods. An arbitrary
    intersection-closed delta_family has no core; its topology is generated
    from the enumerated box base. The minimal boxes are a preorder by
    construction, so they build through Topology.unchecked.
    """
    if delta_family is not None:
        return generate_topology(f_topology_base(spec, delta_family))
    return Topology.unchecked(spec.indexing.total, filter_cores(spec, "mins"))


def f_topology_via_base(spec: ProductSpec, kind: str = "opens") -> Topology:
    """Definitional route: generate_topology(f_topology_base(spec)), minus the SetFamily.

    kind names the factor open sets the boxes take (see _KINDS): "opens" reads
    each factor's topology, "induced opens" the topology its uniformity induces.
    Under the index filter the accepted boxes are one product of side lists,
    so inside a grid walk the specs with equal accepted side lists share one
    enumeration, point-meet pass, base check and Topology.
    """
    return _topology_via_boxes(spec.indexing.total, _sides(spec, kind), spec.indexing.factor_sizes)


@walk_memoized
def _topology_via_boxes(n: int, side_lists: tuple, sizes: tuple) -> Topology:
    boxes = _point_boxes.__wrapped__(side_lists, sizes)  # unmemoized: one call per family and walk
    return topology_from_base_bits(n, boxes, frozenset(boxes).__contains__)


def projection_fibres(i: int, idx: ProductIndexing) -> tuple[int, ...]:
    """The i-th projection by its fibres: for each value d, the codes whose i-th digit is d."""
    if not 0 <= i < len(idx.factor_sizes):
        raise InputError(f"factor index {i} out of range")
    return idx.digit_fibres[i]


# few keys per walk (12 on the bench deep workload), each read by every product of a factor tuple
_point_preimages = walk_memoized(point_preimages)


def all_projections_continuous(spec: ProductSpec) -> bool:
    """Each projection is continuous from the product topology to its factor's.

    The indexing's digit fibres partition the product by construction, so
    they go to the topology kernels unchecked: each product minimal
    neighbourhood must lie within the preimage of its projection's.
    """
    mins = f_topology(spec).mins
    idx = spec.indexing
    for i, f in enumerate(spec.factors):
        assert f.topology is not None
        if not mins_within(mins, _point_preimages(projection_fibres(i, idx), f.topology.mins)):
            return False
    return True


def _core_boxes(spec: ProductSpec, kind: str) -> list[SubsetMask]:
    """For each product point x, the box of the `kind` row of x_i on the index core, whole elsewhere."""
    core, idx = spec._require_index_filter().core.bits, spec.indexing
    boxes = filter_cores(spec, kind, core ^ ((1 << len(idx.factor_sizes)) - 1))
    return [SubsetMask(idx.total, m) for m in boxes]


def equalizers(spec: ProductSpec) -> list[SubsetMask]:
    """For each point x, in code order, the points that agree with x on a member of the index filter.

    The filter accepts exactly the supersets of its core, so this is the box
    {x_i} on the core and the whole factor elsewhere. With the trivial index
    filter the core is empty and every equalizer is the whole product.
    """
    return _core_boxes(spec, "points")


def filter_different(spec: ProductSpec) -> list[SubsetMask]:
    """For each point x, in code order, the points that differ from x on a member of the index filter.

    That is, y differs from x at every index of the core: the box of digits
    other than x_i on the core, whole elsewhere (all points for the trivial filter).
    """
    return _core_boxes(spec, "others")


def f_filter_base(spec: ProductSpec) -> SetFamily:
    """Point sets of all boxes of factor-filter members whose delta is accepted."""
    sides, idx = _sides(spec, "members"), spec.indexing
    return SetFamily(idx.total, sorted(_point_boxes(sides, idx.factor_sizes)))


def filter_cores(spec: ProductSpec, kind: str, index_core: int | None = None) -> tuple[int, ...]:
    """The product filter's core for each choice of one row per factor from the `kind` rows (see
    _KINDS), in code order as in _point_boxes: whole on index_core (by default the index filter's)
    and the chosen rows elsewhere. Kind "cores" gives the product filter's core; "mins" and "rows"
    give each point's minimal neighbourhood and minimal-entourage row. The rows come off validated
    factor structures of a spec that has passed the size cap, so nothing is checked."""
    return _point_boxes(_sides(spec, kind, index_core), spec.indexing.factor_sizes)


def f_filter_core(spec: ProductSpec) -> int:
    """The product filter's core as a point mask: the box whole on the index-filter
    core and each factor filter's core elsewhere (see f_filter)."""
    (core,) = filter_cores(spec, "cores")
    return core


def f_filter(spec: ProductSpec) -> Filter:
    """The product filter: supersets of the accepted filter boxes.

    Computed in closed form by f_filter_core, with one core per factor; the
    definitional route, generate_filter(f_filter_base(spec)), is the same filter.
    """
    return principal_filter(SubsetMask(spec.indexing.total, f_filter_core(spec)))


def squared_indexing(idx: ProductIndexing) -> ProductIndexing:
    """Mixed-radix coding of the factor-wise pair product; digit i holds (x_i, y_i)."""
    return shared_indexing(s * s for s in idx.factor_sizes)


def f_uniformity_base(spec: ProductSpec) -> SetFamily:
    """Relations on the product from boxes of factor entourages with accepted delta.

    Each factor base is augmented with the full square (a base may omit it,
    yet every uniformity contains it and delta needs it to be realizable),
    then the boxes are those whole on the index-filter core. The row of
    product point x in the box (R_0, ..., R_k) is the point box with sides
    R_i-row(x_i), so the relation is built row by row, once per box and walk.
    """
    idx = spec.indexing
    squared_indexing(idx)  # enforces the squared-size cap
    relations = _entourage_boxes(_sides(spec, "entourages"), idx.factor_sizes)
    return SetFamily(idx.total * idx.total, relations)


@walk_memoized
def _entourage_boxes(member_lists: Sequence[Sequence[int]], sizes: Sequence[int]) -> tuple[int, ...]:
    """The relations of all boxes of the listed factor entourages, ascending."""
    row_lists = [[Relation(s, SubsetMask(s * s, m)).rows() for m in ms] for s, ms in zip(sizes, member_lists)]
    choices = (c[::-1] for c in itertools.product(*reversed(row_lists)))  # list 0 varies fastest
    return tuple(sorted(Relation.from_rows(_point_boxes(c, sizes)).pairs.bits for c in choices))


def f_uniformity(spec: ProductSpec) -> Uniformity:
    """The product uniformity generated by the accepted entourage boxes.

    Computed in closed form: the accepted boxes meet in one minimal entourage,
    whose row at x is the box whole on the index-filter core and the factor
    minimal-entourage row of x_i elsewhere, an equivalence by construction, so it
    builds through Uniformity.unchecked. f_uniformity_base, the definitional route,
    generates the same uniformity.
    """
    idx = spec.indexing
    squared_indexing(idx)  # enforces the squared-size cap
    return Uniformity.unchecked(idx.total, filter_cores(spec, "rows"))
