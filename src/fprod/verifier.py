"""Exhaustive desk-scale verification of the product-construction propositions.

Each proposition or claim id maps to one registry entry: its grid stated once
as counted axes, and a single-instance check. A run plans the grid, walks it in
canonical order on typed in-memory instances, stops at the first failing
instance, and reports it as a replayable witness (the witness is the instance
encoded by the one codec, _encode, so decoding it and re-running the check
reproduces the verdict).
Hypotheses are enforced by each entry's default grid; a custom grid may
inject hypothesis violations, in which case the run honestly fails and
exhibits the violation.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from functools import lru_cache, partial, reduce
from operator import or_
from typing import Any, Callable, Iterator, Sequence

from . import serialize
from .filters import (
    Filter,
    core_leq,
    fibre_image,
    filter_leq,
    is_saturated,
    principal_filter,
    trivial_filter,
    validate_filter_base,
)
from .foundations import (
    DEFAULT_MAX_UNIVERSE,
    InputError,
    ResourceLimitError,
    SetFamily,
    SubsetMask,
    Universe,
    is_intersection_closed,
)
from .fproduct import (
    Factor,
    ProductSpec,
    all_projections_continuous,
    equalizers,
    f_filter_base,
    f_filter_core,
    f_topology,
    f_topology_base,
    f_topology_via_base,
    f_uniformity,
    f_uniformity_base,
    filter_cores,
    filter_different,
    grid_walk,
    projection_fibres,
)
from .topology import (
    NotABaseError,
    Topology,
    discrete,
    enumerate_topologies,
    generate_topology,
    indiscrete,
    sierpinski,
    subspace,
    topology_leq,
    validate_base,
)
from .uniformity import enumerate_uniformity_bases, induced_topology, validate_uniformity_base

_FILTER_ENUM_CAP = 4

_NOTE_COFINITE = "degenerate on a finite index set: the cofinite filter is the trivial filter"
_NOTE_SATURATED = "degenerate on a finite index set: the only saturated filter is the trivial filter"


@lru_cache(maxsize=None)
def enumerate_filters(n: int, include_trivial: bool = True) -> tuple[Filter, ...]:
    """All filters on an n-element universe: one principal filter per nonempty
    core (ascending bit-vector order), plus the trivial filter last."""
    if not 1 <= n <= _FILTER_ENUM_CAP:
        raise InputError(f"filter enumeration supports 1 <= n <= {_FILTER_ENUM_CAP}, got n = {n}")
    out = [principal_filter(SubsetMask(n, bits)) for bits in range(1, 1 << n)]
    if include_trivial:
        out.append(trivial_filter(n))
    return tuple(out)


_PRESETS: dict[str, Callable[[], Topology]] = {
    "sierpinski": sierpinski,
    "discrete2": partial(discrete, 2),
    "discrete3": partial(discrete, 3),
    "indiscrete2": partial(indiscrete, 2),
}
FACTOR_PRESETS = tuple(_PRESETS)


def preset_factor(name: str) -> Factor:
    if name not in _PRESETS:
        raise InputError(f"unknown factor preset {name!r}; known: {FACTOR_PRESETS}")
    topo = _PRESETS[name]()
    return Factor(Universe.points(topo.universe_size), topology=topo)


@dataclass(frozen=True)
class InstanceGrid:
    """Deterministic instance enumeration bounds for one verification run.

    Each check reads only the fields its axes read (see grid_fields):
    index_sizes picks the index set sizes, factor_source picks the factors
    ("fixed" for factor_preset, "all-topologies" for every topology on
    1..factor_universe_max points; P4.1-P5.ind fix theirs to "all-filters",
    the proper filters, or "all-uniformity-bases", the uniformity bases on 2
    points, and read none of these fields), and filter_source selects the
    index filters ("all", "proper", "trivial", or "named" with distinct
    named_filters entries that are either "trivial" or comma-joined core
    labels such as "1,2").
    """

    index_sizes: tuple[int, ...] = (2,)
    factor_universe_max: int = 2
    factor_source: str = "fixed"
    factor_preset: str = "discrete2"
    filter_source: str = "all"
    named_filters: tuple[str, ...] = ()
    max_instances: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "index_sizes", tuple(self.index_sizes))
        object.__setattr__(self, "named_filters", tuple(self.named_filters))
        if not self.index_sizes or any(k < 1 for k in self.index_sizes):
            raise InputError("index sizes must be positive")
        if len(set(self.index_sizes)) != len(self.index_sizes):  # each would walk its block again
            raise InputError(f"index sizes {list(self.index_sizes)} repeat a size")
        if max(self.index_sizes) > DEFAULT_MAX_UNIVERSE:  # checked before an index universe is built
            raise ResourceLimitError(
                f"universe size {max(self.index_sizes)} exceeds cap {DEFAULT_MAX_UNIVERSE}"
            )
        if self.factor_universe_max < 1:
            raise InputError("factor size must be at least 1")
        if self.max_instances is not None and self.max_instances < 1:
            raise InputError("instance budget must be positive")

    def describe(self) -> dict:
        """Every field by name, tuples as lists (JSON arrays)."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


@dataclass(frozen=True)
class PropositionReport:
    """Outcome of one verification or counterexample-search run."""

    prop_id: str
    description: str
    grid: InstanceGrid
    checked: int
    passed: bool
    complete: bool = True
    witness: dict | None = None
    degenerate_notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "prop": self.prop_id,
            "description": self.description,
            "grid": self.grid.describe(),
            "checked": self.checked,
            "passed": self.passed,
            "complete": self.complete,
            "witness": self.witness,
            "degenerate_notes": list(self.degenerate_notes),
        }


# ---------------------------------------------------------------------------
# the grid: each entry states it once, and one plan counts, reads and walks it

_WALK_CAP = 1 << 20  # above P4.5 at factor size 4 (605,284), below P2.1 at index size 5

_Block = tuple[int, Sequence[Factor], Sequence[Any]]  # (k, choices, values): see _Plan


def _grid_filters(grid: InstanceGrid, n: int) -> list[Filter]:
    src = grid.filter_source
    if src == "all":
        return list(enumerate_filters(n, include_trivial=True))
    if src == "proper":
        return list(enumerate_filters(n, include_trivial=False))
    if src == "trivial":
        return [trivial_filter(n)]
    if src == "named":
        uni = Universe.indices(n)
        named: dict[Filter, str] = {}  # each filter -> the entry that named it
        for name in grid.named_filters:
            if name == "trivial":
                fil = trivial_filter(n)
            else:
                labels = [p.strip() for p in name.split(",") if p.strip()]
                if not labels:
                    raise InputError(f"empty named filter entry {name!r}")
                fil = principal_filter(SubsetMask.of(n, (uni.index_of(lab) for lab in labels)))
            if fil in named:
                raise InputError(f"named filters {named[fil]!r} and {name!r} are the same filter")
            named[fil] = name
        if not named:
            raise InputError("filter source 'named' needs at least one named filter")
        return list(named)
    raise InputError(f"unknown filter source {src!r}")


def _factor_choices(grid: InstanceGrid, src: str | None = None) -> list[Factor]:
    """The factors of src, where a check fixes its own, else of the grid's factor_source."""
    src = src or grid.factor_source
    if src == "fixed":
        return [preset_factor(grid.factor_preset)]
    if src == "all-topologies":
        return [
            Factor(Universe.points(n), topology=t)
            for n in range(1, grid.factor_universe_max + 1)
            for t in enumerate_topologies(n)
        ]
    if src == "all-filters":
        return [Factor(Universe.points(2), filter=f) for f in enumerate_filters(2, include_trivial=False)]
    if src == "all-uniformity-bases":
        return [Factor(Universe.points(2), uniformity_base=b) for b in enumerate_uniformity_bases(2)]
    raise InputError(f"unknown factor source {src!r}")


def _product_axes(
    grid: InstanceGrid, src: str | None = None, keep: Callable[[Factor], bool] = lambda f: True
) -> Iterator[_Block]:
    """Per index size k: each k-tuple of the factor choices passing keep, under each index filter."""
    pool = [f for f in _factor_choices(grid, src) if keep(f)]
    for k in grid.index_sizes:
        yield k, pool, _grid_filters(grid, k)


def _nontrivial_topology(f: Factor) -> bool:
    return len(f.topology.opens()) > 2  # type: ignore[union-attr]


@dataclass(frozen=True)
class _Plan:
    """A grid as blocks (k, choices, values), counted before any instance is built:
    each k-tuple of choices is one spec (None when k is 0), and build(spec, value)
    is one instance per value, for each spec in turn."""

    blocks: tuple[_Block, ...]
    build: Callable[[Any, Any], Any]
    fields: frozenset[str]  # the grid fields read to state the blocks

    @property
    def count(self) -> int:  # a range's length from its ends: len() stops at sys.maxsize
        return sum(
            len(c) ** k * (v.stop - v.start if isinstance(v, range) else len(v)) for k, c, v in self.blocks
        )

    def __iter__(self) -> Iterator[Any]:
        build = self.build
        for k, choices, values in self.blocks:
            uni = Universe.indices(k) if k else None
            for combo in itertools.product(choices, repeat=k):
                spec = ProductSpec(uni, combo) if k else None
                for value in values:
                    yield build(spec, value)


class _Reads:  # a grid that records the name of each field read from it
    def __init__(self, grid: InstanceGrid) -> None:
        self._grid, self.fields = grid, set()

    def __getattr__(self, name: str) -> Any:
        self.fields.add(name)
        return getattr(self._grid, name)


def _plan(entry: _Entry, grid: InstanceGrid) -> _Plan:
    reads = _Reads(grid)
    return _Plan(tuple(entry.axes(reads)), entry.build, frozenset(reads.fields))


# ---------------------------------------------------------------------------
# the two shared readers of the checks: a biconditional's sides, and projections


def _iff(**sides: bool) -> tuple[bool, dict | None]:
    """The verdict of a biconditional given its two sides by name: it holds when they
    agree, and otherwise its detail is both sides."""
    lhs, rhs = sides.values()
    return (True, None) if lhs == rhs else (False, sides)


def _projections(spec: ProductSpec, core: int) -> Iterator[tuple[int, int]]:
    """For each factor, in order: the image of the point mask core under its
    projection (see filters.fibre_image), and the core of its filter."""
    idx = spec.indexing
    for i, f in enumerate(spec.factors):
        yield fibre_image(projection_fibres(i, idx), core), f.filter.core.bits  # type: ignore[union-attr]


# ---------------------------------------------------------------------------
# entries with extra fields: P2.1's axes, and checks


def _p21_axes(grid: InstanceGrid) -> Iterator[_Block]:
    """Per index size k: each factor k-tuple with each nonempty family of index subsets."""
    pool = _factor_choices(grid)
    for k in grid.index_sizes:
        if 1 << k > DEFAULT_MAX_UNIVERSE:  # a family is the bits of a mask over the 2^k index subsets
            raise ResourceLimitError(f"{1 << k} index subsets exceed the universe cap {DEFAULT_MAX_UNIVERSE}")
        yield k, pool, range(1, 1 << (1 << k))


def _p21_instance(spec: ProductSpec, bits: int) -> tuple[ProductSpec, SetFamily]:
    k = len(spec.factors)
    return spec, SetFamily(k, [m for m in range(1 << k) if bits >> m & 1])


def _p21_check(inst: tuple[ProductSpec, SetFamily]) -> tuple[bool, dict | None]:
    spec, fam = inst
    return _iff(family_intersection_closed=is_intersection_closed(fam),
                box_family_is_base=validate_base(f_topology_base(spec, delta_family=fam)))


def _p23_check(inst: tuple[ProductSpec, Filter]) -> tuple[bool, dict | None]:
    spec, g = inst
    assert spec.index_filter is not None
    return _iff(filter_leq=filter_leq(spec.index_filter, g),
                topology_leq=topology_leq(f_topology(spec), f_topology(spec.with_index_filter(g))))


def _p25_check(fil: Filter) -> tuple[bool, dict | None]:
    k = fil.universe_size
    members = fil.members().bits
    return _iff(member_missing_each_point=all(any(not (b >> i & 1) for b in members) for i in range(k)),
                point_complements_are_members=is_saturated(fil))


def _e29_check(inst: tuple[ProductSpec, bool]) -> tuple[bool, dict | None]:
    spec, expect_hausdorff = inst
    t = f_topology(spec)
    h = t.is_hausdorff()
    if h != expect_hausdorff:
        return False, {"hausdorff": h, "expected": expect_hausdorff}
    if expect_hausdorff:
        return True, None
    idx = spec.indexing
    k = len(spec.factors)
    x = idx.encode_point([1] + [0] * (k - 1))
    y = idx.encode_point([0] * k)
    if not t.mins[x] & t.mins[y]:
        return False, {"pair_unexpectedly_separated": True}
    pair = sorted(
        [serialize.product_point_label(y, spec), serialize.product_point_label(x, spec)]
    )
    return True, {"inseparable_pair": pair}


def _p210_check(t: Topology) -> tuple[bool, dict | None]:
    if not t.is_hausdorff():
        return True, None  # hypothesis empty; every finite space is compact
    for other in enumerate_topologies(t.universe_size):
        if other == t:
            continue
        if topology_leq(other, t) and other.is_hausdorff():
            return False, {"strictly_coarser_hausdorff_exists": True}
        if topology_leq(t, other):
            # a strictly finer topology would be a compact refinement
            return False, {"strictly_finer_topology_exists": True}
    return True, None


# ---------------------------------------------------------------------------
# checks on a bare product spec


def _p27_check(spec: ProductSpec) -> tuple[bool, dict | None]:
    assert spec.index_filter is not None
    return _iff(all_projections_continuous=all_projections_continuous(spec),
                filter_contains_all_cofinite_sets=spec.index_filter.trivial)


def _factor_slice_failure(spec: ProductSpec, t: Topology) -> dict | None:
    """Check each factor is carried homeomorphically onto its slice through point 0."""
    for i, (f, carrier) in enumerate(zip(spec.factors, spec.indexing.slices)):
        # point 0 with digit i set to xi is the subspace's point xi, since its code
        # xi * w_i ascends with xi: the projection is the identity, and the identity
        # is a homeomorphism exactly when the two topologies are equal
        if subspace(t, carrier) != f.topology:
            return {"slice_not_homeomorphic_at_factor": i}
    return None


def _p28_check(spec: ProductSpec) -> tuple[bool, dict | None]:
    assert spec.index_filter is not None
    t = f_topology(spec)
    factors_h = all(f.topology.is_hausdorff() for f in spec.factors)  # type: ignore[union-attr]
    ok, detail = _iff(product_hausdorff=t.is_hausdorff(), all_factors_hausdorff=factors_h)
    if ok and is_saturated(spec.index_filter):
        detail = _factor_slice_failure(spec, t)
    return detail is None, detail


def _non_dense_equalizer(
    spec: ProductSpec, t: Topology, sigmas: list[SubsetMask]
) -> dict | None:
    """The first point whose equalizer (from equalizers) is not dense in t."""
    for x, sigma in enumerate(sigmas):
        if not t.is_dense(sigma):
            return {"non_dense_equalizer_at": serialize.product_point_label(x, spec)}
    return None


def _p31_check(spec: ProductSpec) -> tuple[bool, dict | None]:
    t = f_topology(spec)
    sigmas = equalizers(spec)
    failure = _non_dense_equalizer(spec, t, sigmas)
    if failure is not None:
        return False, failure
    # y's equalizer meets x's iff it holds a point z of x's, so one table of
    # holders per point and one OR of them per distinct equalizer suffice
    owners: dict[SubsetMask, int] = {}  # each distinct equalizer -> the points that have it
    for y, sigma in enumerate(sigmas):
        owners[sigma] = owners.get(sigma, 0) | 1 << y
    holders = [0] * len(sigmas)  # z -> the points whose equalizer holds z
    for sigma, ys in owners.items():
        for z in sigma:
            holders[z] |= ys
    # each distinct equalizer -> the points whose equalizer meets it
    meeting = {sigma: reduce(or_, map(holders.__getitem__, sigma), 0) for sigma in owners}
    # the lowest x, then the lowest y filter-different from x
    for x, others in enumerate(filter_different(spec)):
        clash = meeting[sigmas[x]] & others.bits
        if clash:
            y = (clash & -clash).bit_length() - 1
            return False, {
                "overlapping_equalizers": [
                    serialize.product_point_label(x, spec),
                    serialize.product_point_label(y, spec),
                ]
            }
    return True, None


def _p41_check(spec: ProductSpec) -> tuple[bool, dict | None]:
    base = f_filter_base(spec)
    if validate_filter_base(base):
        return True, None
    return False, {"box_family_is_filter_base": False}


def _p42_check(spec: ProductSpec) -> tuple[bool, dict | None]:
    # the projection of the product filter is principal at fibre_image of its
    # core, so core_leq and == against the factor filter's core decide it
    assert spec.index_filter is not None
    saturated = is_saturated(spec.index_filter)
    for i, (image, want) in enumerate(_projections(spec, f_filter_core(spec))):
        if not core_leq(image, want):
            return False, {"projection_not_contained_at_factor": i}
        if saturated and image != want:
            return False, {"saturated_projection_identity_fails_at_factor": i}
    return True, None


def _p43_axes(grid: InstanceGrid) -> Iterator[_Block]:  # its check walks every filter on the product
    for k, pool, fils in _product_axes(grid, src="all-filters"):
        if 2**k > _FILTER_ENUM_CAP:  # each factor has 2 points
            raise ResourceLimitError(f"P4.3 walks every filter on its {2**k}-point products at index size "
                                     f"{k}, over the filter enumeration cap of {_FILTER_ENUM_CAP} points")
        yield k, pool, fils


def _p43_check(spec: ProductSpec) -> tuple[bool, dict | None]:
    box_core, n = f_filter_core(spec), spec.indexing.total
    for g in enumerate_filters(n, include_trivial=True):
        matching = all(image == want for image, want in _projections(spec, g.core.bits))
        if matching and not core_leq(box_core, g.core.bits):
            return False, {
                "smaller_filter_with_matching_projections": serialize.filter_to_dict(g, Universe.points(n))
            }
    return True, None


def _p45_check(spec: ProductSpec) -> tuple[bool, dict | None]:
    # both sides are principal with nonempty cores, so compare the cores: the
    # via-base minimal neighbourhood and the product core of the factor mins,
    # whose rows come off validated topologies and go to the kernel unchecked
    try:
        t = f_topology_via_base(spec)
    except NotABaseError:
        return False, {"box_family_is_base": False}
    cores = filter_cores(spec, "mins")
    if t.mins == cores:
        return True, None
    code = next(x for x, (got, want) in enumerate(zip(t.mins, cores)) if got != want)
    return False, {"neighborhood_identity_fails_at": serialize.product_point_label(code, spec)}


def _p52_check(spec: ProductSpec) -> tuple[bool, dict | None]:
    base = f_uniformity_base(spec)
    if validate_uniformity_base(base):
        return True, None
    return False, {"box_family_is_uniformity_base": False}


def _p5ind_check(spec: ProductSpec) -> tuple[bool, dict | None]:
    # the boxes of the factors' induced open sets, staged once per factor
    from_uniformity = induced_topology(f_uniformity(spec))
    try:
        from_factors = f_topology_via_base(spec, "induced opens")
    except NotABaseError:
        return False, {"box_family_is_base": False}
    if from_uniformity == from_factors:
        return True, None
    return False, {"induced_topology_differs": True}


# checks of the false generalizations that search_counterexample refutes


def _claim_hausdorff_holds(spec: ProductSpec) -> tuple[bool, dict | None]:
    if not all(f.topology.is_hausdorff() for f in spec.factors):  # type: ignore[union-attr]
        return True, None  # hypothesis not met, nothing to refute
    pair = f_topology(spec).inseparable_pair()
    if pair is None:
        return True, None
    return False, {
        "inseparable_pair": [serialize.product_point_label(x, spec) for x in pair]
    }


def _claim_projection_identity_holds(spec: ProductSpec) -> tuple[bool, dict | None]:
    for i, (image, want) in enumerate(_projections(spec, f_filter_core(spec))):
        if image != want:
            f = spec.factors[i]
            n = f.universe.size
            return False, {
                "factor": i,
                "projected_filter": serialize.filter_to_dict(Filter(n, SubsetMask(n, image)), f.universe),
                "factor_filter": serialize.filter_to_dict(f.filter, f.universe),
            }
    return True, None


def _claim_equalizer_dense_holds(spec: ProductSpec) -> tuple[bool, dict | None]:
    failure = _non_dense_equalizer(spec, f_topology(spec), equalizers(spec))
    return failure is None, failure


# ---------------------------------------------------------------------------
# the witness codec: one JSON shape per instance type


def _flag(value: Any, uni: Universe) -> bool:
    if not isinstance(value, bool):
        raise InputError(f"a witness flag must be a boolean, got {value!r}")
    return value


# the key and the to/from-JSON pair of each typed extra a (spec, extra) instance carries
_EXTRAS: dict[type, tuple[str, Callable[[Any, Universe], Any], Callable[[Any, Universe], Any]]] = {
    SetFamily: ("delta_family", serialize.family_to_json, serialize.family_from_json),
    Filter: ("second_index_filter", serialize.filter_to_dict, serialize.filter_from_dict),
    bool: ("expect_hausdorff", _flag, _flag),
}


def _encode(inst: Any) -> dict:
    """A typed instance as witness JSON: a bare ProductSpec is {"instance"}, a
    (spec, extra) pair adds the key of the extra's type (see _EXTRAS), a bare
    index Filter is {"index_size", "index_filter"}, a bare Topology {"space_size", "base"}."""
    if isinstance(inst, Topology):
        n = inst.universe_size
        return {"space_size": n, "base": serialize.family_to_json(inst.base, Universe.points(n))}
    if isinstance(inst, Filter):
        k = inst.universe_size
        return {"index_size": k, "index_filter": serialize.filter_to_dict(inst, Universe.indices(k))}
    if isinstance(inst, ProductSpec):
        return {"instance": serialize.spec_to_dict(inst)}
    spec, extra = inst
    key, to_json, _ = _EXTRAS[type(extra)]
    return {**_encode(spec), key: to_json(extra, spec.index_universe)}


def _decode(entry: _Entry, witness: Any) -> Any:
    """Invert _encode on a witness of entry: apart from an optional "detail",
    it must have exactly the keys of the entry's first default-grid instance."""
    keys = frozenset(_encode(next(entry.instances(entry.default_grid))))
    if not isinstance(witness, dict) or set(witness) - {"detail"} != keys:
        raise InputError(f"a witness of this check is an object with keys {sorted(keys)}")
    sizes = [witness[k] for k in ("space_size", "index_size") if k in keys]
    if any(type(n) is not int or n < 1 for n in sizes):
        raise InputError(f"a witness size must be a positive integer, got {sizes}")
    if "space_size" in keys:
        uni = Universe.points(witness["space_size"])
        return generate_topology(serialize.family_from_json(witness["base"], uni))
    if "index_size" in keys:
        uni = Universe.indices(witness["index_size"])
        return serialize.filter_from_dict(witness["index_filter"], uni)
    spec = serialize.parse_instance(witness["instance"])
    for key, _, from_json in _EXTRAS.values():
        if key in keys:
            return spec, from_json(witness[key], spec.index_universe)
    return spec


# ---------------------------------------------------------------------------
# the registry of propositions and claims

@dataclass(frozen=True)
class _Entry:
    """One proposition (or, with claim set, one false generalization to refute).

    axes states the grid once, as the blocks of a _Plan, and build makes one
    instance of a block's spec and one of its values; check takes those typed
    instances, and _encode and _decode convert one to and from JSON.
    """

    check_id: str
    description: str
    notes: tuple[str, ...]
    default_grid: InstanceGrid
    check: Callable[[Any], tuple[bool, dict | None]]
    axes: Callable[[InstanceGrid], Iterator[_Block]] = _product_axes
    build: Callable[..., Any] = ProductSpec.with_index_filter
    claim: bool = False

    def instances(self, grid: InstanceGrid) -> Iterator[Any]:
        """The instances of grid, in walk order."""
        return iter(_plan(self, grid))


_REGISTRY: dict[str, _Entry] = {
    e.check_id: e
    for e in (
        _Entry(
            "P2.1",
            "open boxes with accepted distinguished indexes form a topology base "
            "iff the accepting family is intersection-closed",
            ("grid restricted to non-trivial factors: with a trivial factor topology "
             "boxes cannot realize every distinguished index set",),
            InstanceGrid(index_sizes=(2, 3), factor_source="fixed", factor_preset="sierpinski"),
            _p21_check,
            _p21_axes,
            _p21_instance,
        ),
        _Entry(
            "P2.3",
            "the map from index filters to product topologies is an order immersion",
            (),
            InstanceGrid(index_sizes=(2, 3), factor_source="fixed", factor_preset="sierpinski",
                         filter_source="all"),
            _p23_check,
            lambda g: ((k, pool, list(itertools.product(fils, repeat=2)))
                       for k, pool, fils in _product_axes(g)),
            lambda spec, fils: (spec.with_index_filter(fils[0]), fils[1]),  # index filter, second filter
        ),
        _Entry(
            "P2.5",
            "a filter misses each index from some member iff every point complement is a member",
            (_NOTE_SATURATED,),
            InstanceGrid(index_sizes=(1, 2, 3, 4), factor_source="none", filter_source="all"),
            _p25_check,
            lambda g: ((0, (), _grid_filters(g, k)) for k in g.index_sizes),
            lambda spec, value: value,
        ),
        _Entry(
            "P2.7",
            "all projections are continuous iff the index filter contains every cofinite set",
            (_NOTE_COFINITE,
             "grid restricted to non-trivial factors: projections onto an indiscrete "
             "factor are continuous for every index filter"),
            InstanceGrid(index_sizes=(1, 2, 3), factor_source="all-topologies",
                         factor_universe_max=2, filter_source="all"),
            _p27_check,
            partial(_product_axes, keep=_nontrivial_topology),
        ),
        _Entry(
            "P2.8",
            "for a saturated index filter the product is Hausdorff iff every factor is; "
            "factors embed homeomorphically as slices",
            (_NOTE_SATURATED,),
            InstanceGrid(index_sizes=(2,), factor_source="all-topologies",
                         factor_universe_max=3, filter_source="trivial"),
            _p28_check,
        ),
        _Entry(
            "E2.9",
            "discrete two-point factors with a principal index filter give a non-Hausdorff "
            "product; the trivial filter gives a Hausdorff one",
            ("the points differing only at the pinned index share every basic neighborhood",),
            InstanceGrid(index_sizes=(3,), factor_source="fixed", factor_preset="discrete2",
                         filter_source="named", named_filters=("1",)),
            _e29_check,
            lambda g: ((k, [preset_factor("discrete2")],  # pinned at the first index, then trivial
                        (principal_filter(SubsetMask.of(k, [0])), trivial_filter(k)))
                       for k in g.index_sizes),
            lambda spec, fil: (spec.with_index_filter(fil), fil.trivial),
        ),
        _Entry(
            "P2.10",
            "a Hausdorff compact topology is Hausdorff-minimal and compact-maximal "
            "(finite degenerate form)",
            ("every finite space is compact and every finite Hausdorff space is discrete; "
             "the compact-maximal direction is vacuous because the discrete topology is "
             "the top of the lattice",),
            InstanceGrid(index_sizes=(1,), factor_source="all-topologies", factor_universe_max=3,
                         filter_source="trivial"),
            _p210_check,
            lambda g: ((0, (), enumerate_topologies(n)) for n in range(1, g.factor_universe_max + 1)),
            lambda spec, value: value,
        ),
        _Entry(
            "P3.1",
            "equalizers are dense, and equalizers of filter-different points are disjoint",
            ("with the trivial index filter the equalizer is the whole product; "
             "the disjointness half needs a proper filter",),
            InstanceGrid(index_sizes=(1, 2, 3), factor_source="fixed", factor_preset="discrete2",
                         filter_source="proper"),
            _p31_check,
        ),
        _Entry(
            "P4.1",
            "boxes of factor-filter members with accepted distinguished indexes form a filter base",
            (),
            InstanceGrid(index_sizes=(1, 2, 3), factor_source="all-filters", filter_source="all"),
            _p41_check,
            partial(_product_axes, src="all-filters"),
        ),
        _Entry(
            "P4.2",
            "projections of the product filter are contained in the factor filters, "
            "with equality for a saturated index filter",
            (_NOTE_SATURATED,
             "for a non-saturated filter the containment can be strict; see the "
             "projection-filter-identity-for-all-filters counterexample search"),
            InstanceGrid(index_sizes=(1, 2, 3), factor_source="all-filters", filter_source="all"),
            _p42_check,
            partial(_product_axes, src="all-filters"),
        ),
        _Entry(
            "P4.3",
            "the box product filter is the smallest filter whose projections are the factor filters",
            (_NOTE_COFINITE,),
            InstanceGrid(index_sizes=(2,), factor_source="all-filters", filter_source="trivial"),
            _p43_check,
            _p43_axes,
        ),
        _Entry(
            "P4.5",
            "the neighborhood filter of a product point is the product filter of the "
            "factor neighborhood filters",
            (),
            InstanceGrid(index_sizes=(2,), factor_source="all-topologies", factor_universe_max=3,
                         filter_source="all"),
            _p45_check,
        ),
        _Entry(
            "P5.2",
            "boxes of factor entourages with accepted distinguished indexes form a uniformity base",
            (),
            InstanceGrid(index_sizes=(2,), factor_source="all-uniformity-bases", filter_source="all"),
            _p52_check,
            partial(_product_axes, src="all-uniformity-bases"),
        ),
        _Entry(
            "P5.ind",
            "the product uniformity induces the product topology of the induced factor topologies",
            (),
            InstanceGrid(index_sizes=(2,), factor_source="all-uniformity-bases", filter_source="all"),
            _p5ind_check,
            partial(_product_axes, src="all-uniformity-bases"),
        ),
        _Entry(
            "hausdorff-for-all-filters",
            "a product of Hausdorff factors is Hausdorff for every index filter",
            ("false in general; fails at every non-saturated filter",),
            InstanceGrid(index_sizes=(2,), factor_source="fixed", factor_preset="discrete2",
                         filter_source="all"),
            _claim_hausdorff_holds,
            claim=True,
        ),
        _Entry(
            "projection-filter-identity-for-all-filters",
            "projections of the product filter equal the factor filters for every index filter",
            ("false without saturation: a pinned coordinate projects to the indiscrete filter",),
            InstanceGrid(index_sizes=(2,), factor_source="all-filters", filter_source="all"),
            _claim_projection_identity_holds,
            partial(_product_axes, src="all-filters"),
            claim=True,
        ),
        _Entry(
            "equalizer-dense-for-all-proper-filters",
            "equalizers are dense for every proper index filter (true on every grid; "
            "serves as the negative control)",
            (),
            InstanceGrid(index_sizes=(2, 3), factor_source="fixed", factor_preset="discrete2",
                         filter_source="proper"),
            _claim_equalizer_dense_holds,
            claim=True,
        ),
    )
}

OUT_OF_SCOPE: dict[str, str] = {
    "C2.11": "comparability of Hausdorff compact topologies has no non-degenerate finite "
             "instance: every finite Hausdorff space is already discrete",
    "P2.12": "needs a saturated filter distinct from the cofinite filter; on a finite "
             "index set both collapse to the trivial filter",
    "C2.13": "needs a free ultrafilter; none exists on a finite index set",
    "L2.14": "box products over infinitely many nontrivial factors are non-compact; "
             "every finite space is compact",
    "P2.15": "needs a saturated filter distinct from the cofinite filter and an "
             "infinite index set",
}


def _ids(claim: bool) -> list[str]:
    return sorted(cid for cid, e in _REGISTRY.items() if e.claim == claim)


def _entry(check_id: str, claim: bool | None = None) -> _Entry:
    """The registry entry of a proposition (claim False), a claim (claim True) or either."""
    entry = _REGISTRY.get(check_id)
    if entry is not None and claim in (None, entry.claim):
        return entry
    if claim is None:
        raise InputError(f"unknown proposition or claim id {check_id!r}")
    if claim:
        raise InputError(f"unknown claim id {check_id!r}; known ids: {_ids(True)}")
    if check_id in OUT_OF_SCOPE:
        raise InputError(f"proposition {check_id} is out of scope: {OUT_OF_SCOPE[check_id]}")
    raise InputError(
        f"unknown proposition id {check_id!r}; known ids: {_ids(False) + sorted(OUT_OF_SCOPE)}"
    )


def default_grid(check_id: str, claim: bool = False) -> InstanceGrid:
    """The grid a proposition (or, with claim, a claim) walks when given none."""
    return _entry(check_id, claim).default_grid


def grid_fields(check_id: str, grid: InstanceGrid) -> frozenset[str]:
    """The InstanceGrid fields a proposition or claim reads when it walks grid:
    those its axes read to plan the walk, and max_instances."""
    return _plan(_entry(check_id), grid).fields | {"max_instances"}


def _run(entry: _Entry, grid: InstanceGrid | None) -> PropositionReport:
    grid = grid if grid is not None else entry.default_grid
    plan = _plan(entry, grid)
    planned = plan.count
    if not planned:
        raise InputError(f"the grid of {entry.check_id} has no instances, so it checks nothing")
    if planned > _WALK_CAP and grid.max_instances is None:
        raise ResourceLimitError(f"the grid of {entry.check_id} plans {planned:,} instances, over the "
                                 f"walk cap of {_WALK_CAP:,}; an instance budget walks a prefix of it")
    checked, passed = 0, True
    witness: dict | None = None  # the first failure, else the first exhibit
    with grid_walk():  # the walk's instances share repeated product work
        for inst in itertools.islice(plan, grid.max_instances):
            ok, detail = entry.check(inst)
            checked += 1
            if not ok or (detail is not None and witness is None):
                witness = {**_encode(inst), "detail": detail}
            if not ok:
                passed = False
                break
    return PropositionReport(
        prop_id=entry.check_id,
        description=entry.description,
        grid=grid,
        checked=checked,
        passed=passed,
        complete=not passed or checked == planned,
        witness=witness,
        degenerate_notes=entry.notes,
    )


def verify_proposition(prop_id: str, grid: InstanceGrid | None = None) -> PropositionReport:
    """Walk the grid for one proposition; stop at the first counterexample."""
    return _run(_entry(prop_id, claim=False), grid)


def search_counterexample(claim_id: str, grid: InstanceGrid | None = None) -> PropositionReport:
    """Scan the grid for the canonical-order-first instance refuting a claim.

    The report's witness is the refuting instance; passed means the claim
    survived the whole grid (for a search, finding a witness is the
    interesting outcome).
    """
    return _run(_entry(claim_id, claim=True), grid)


def replay_witness(check_id: str, witness: dict) -> tuple[bool, dict | None]:
    """Re-run the single-instance check on a serialized witness; one without
    exactly the keys of the check's instance shape raises InputError."""
    entry = _entry(check_id)
    return entry.check(_decode(entry, witness))
