import collections
import dataclasses
import functools
import itertools
import json
import random
import re

import pytest

from fprod import fproduct
from fprod.cli import main
from fprod.filters import Filter, fibre_image, generate_filter, principal_filter, trivial_filter
from fprod.foundations import (
    InputError,
    ProductIndexing,
    ResourceLimitError,
    SetFamily,
    SubsetMask,
    Universe,
    check_fibres,
    is_intersection_closed,
    map_fibres,
    shared_indexing,
)
from fprod.fproduct import (
    _point_boxes,
    Factor,
    ProductSpec,
    all_projections_continuous,
    equalizers,
    f_filter,
    f_filter_base,
    f_filter_core,
    f_topology,
    f_topology_base,
    f_topology_via_base,
    f_uniformity_base,
    filter_cores,
    filter_different,
    grid_walk,
    product_spec,
    projection_fibres,
    squared_indexing,
)
from fprod.topology import (
    discrete,
    enumerate_topologies,
    generate_topology,
    is_continuous,
    sierpinski,
    subspace,
    topology_leq,
    validate_base,
)
from fprod.verifier import (
    _REGISTRY,
    default_grid,
    enumerate_filters,
    preset_factor,
    replay_witness,
    verify_proposition,
)

import by_delta


def mask(n, bits):
    return SubsetMask(n, bits)


def discrete2_factors(k):
    return tuple(preset_factor("discrete2") for _ in range(k))


def sierpinski_factors(k):
    return tuple(preset_factor("sierpinski") for _ in range(k))


def filter_factors(cores):
    return tuple(
        Factor(Universe.points(2), filter=principal_filter(mask(2, c))) for c in cores
    )


# The point queries by their definitions, decoding every point; the closed
# forms in fproduct must agree with them.


def equalizer_oracle(spec, x):
    fil, idx = spec.index_filter, spec.indexing
    xs = idx.decode_point(x)
    bits = 0
    for z in range(idx.total):
        agree = sum(1 << i for i, (a, b) in enumerate(zip(xs, idx.decode_point(z))) if a == b)
        if fil.member_bits(agree):
            bits |= 1 << z
    return SubsetMask(idx.total, bits)


def different_by_filter_oracle(spec, x, y):
    xs, ys = spec.indexing.decode_point(x), spec.indexing.decode_point(y)
    differ = sum(1 << i for i, (a, b) in enumerate(zip(xs, ys)) if a != b)
    return spec.index_filter.member_bits(differ)


def projection_map_oracle(i, idx):
    return tuple(idx.decode_point(code)[i] for code in range(idx.total))


@functools.lru_cache(maxsize=None)
def box_oracle(sides, sizes):
    """One box's point mask by decoding every point: the codes whose digits all lie in their sides."""
    idx = ProductIndexing(sizes)
    bits = 0
    for code in range(idx.total):
        if all(side >> c & 1 for side, c in zip(sides, idx.decode_point(code))):
            bits |= 1 << code
    return bits


def whole_on(d, side_lists, sizes):
    """side_lists with the whole factor alone at the indexes in d, as fproduct's side lists under a core."""
    return tuple(((1 << s) - 1,) if d >> i & 1 else tuple(sides) for i, (sides, s) in enumerate(zip(side_lists, sizes)))


def delta_of(sides, sizes):
    """δ of a side choice: the indexes where the side is the whole factor."""
    return sum(1 << i for i, (side, s) in enumerate(zip(sides, sizes)) if side == (1 << s) - 1)


class TestBoxes:
    def test_whole_on_a_core_or_on_an_exact_delta_yields_those_boxes_in_order(self):
        # full and proper sides on mixed sizes, then empty sides and size-1
        # factors; the side lists whole on d give the boxes whose delta holds
        # d, the proper side lists whole on d those whose delta is d, and a
        # delta family's base is the union of its members' exact-delta boxes
        cases = [
            ((2, 3, 1), [[0b01, 0b11], [0b111, 0b010, 0b110], [0b1]]),
            ((1, 2, 1), [[0b1, 0], [0b00, 0b10, 0b11], [0, 0b1]]),
        ]
        for sizes, side_lists in cases:
            in_code_order = [c[::-1] for c in itertools.product(*reversed(side_lists))]
            deltas = [delta_of(c, sizes) for c in in_code_order]
            assert by_delta.deltas(side_lists, sizes) == deltas
            proper = [[side for side in sides if side != (1 << s) - 1] for sides, s in zip(side_lists, sizes)]
            exact = [_point_boxes(whole_on(d, proper, sizes), sizes) for d in range(8)]
            for d in range(8):
                whole = [box_oracle(c, sizes) for c, e in zip(in_code_order, deltas) if e & d == d]
                assert list(_point_boxes(whole_on(d, side_lists, sizes), sizes)) == whole
                assert list(exact[d]) == [box_oracle(c, sizes) for c, e in zip(in_code_order, deltas) if e == d]
            for accepted in range(1 << 8):
                member = lambda bits: accepted >> bits & 1  # noqa: E731
                got = [m for d, boxes in enumerate(exact) if member(d) for m in boxes]
                oracle = [
                    box_oracle(c, sizes)
                    for c in itertools.product(*side_lists)
                    if member(delta_of(c, sizes))
                ]
                assert collections.Counter(got) == collections.Counter(oracle)


class TestBoxKernel:
    def test_matches_decoding_oracle_on_mixed_radices(self):
        # every single box: the kernel with one row per factor
        sizes = (2, 3, 1, 2)
        for sides in itertools.product(*(range(1 << s) for s in sizes)):
            assert list(_point_boxes([[side] for side in sides], sizes)) == [box_oracle(sides, sizes)]


def point_boxes_oracle(rows, sizes):
    return [box_oracle(s[::-1], sizes) for s in itertools.product(*reversed(rows))]


class TestPointBoxKernel:
    """The prefix-sharing _point_boxes against one decoded box per point."""

    def test_every_row_choice_on_small_sizes(self):
        size_tuples = [
            sizes for k in (1, 2, 3) for sizes in itertools.product((1, 2), repeat=k)
        ] + [(3, 2)]
        checked = 0
        for sizes in size_tuples:
            per_factor = [list(itertools.product(range(1 << s), repeat=s)) for s in sizes]
            for rows in itertools.product(*per_factor):
                assert list(_point_boxes(rows, sizes)) == point_boxes_oracle(rows, sizes)
                checked += 1
        assert checked == 2 + 16 + (4 + 2 * 32 + 256) + (8 + 3 * 64 + 3 * 512 + 4096) + 512 * 16

    def test_seeded_random_rows(self):
        rng = random.Random(8)
        saw_empty = saw_size_one = False
        for _ in range(400):
            sizes = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
            rows = tuple(
                tuple(0 if rng.random() < 0.1 else rng.randrange(1 << s) for _ in range(s))
                for s in sizes
            )
            saw_empty |= any(0 in r for r in rows)
            saw_size_one |= 1 in sizes
            assert list(_point_boxes(rows, sizes)) == point_boxes_oracle(rows, sizes)
        assert saw_empty and saw_size_one

    def test_same_grids_inside_a_grid_walk(self):
        with grid_walk():
            for _ in range(2):  # the second round's answers come from the walk's memo
                self.test_seeded_random_rows()
            table = fproduct._walk.tables[_point_boxes.__wrapped__]
            assert table.cache_info().hits >= 400
            self.test_every_row_choice_on_small_sizes()  # more inputs than the bound: evicts


def box_base_oracle(side_lists, idx, member):
    """The box base by its definition: the decoded box of every side choice whose δ is accepted."""
    sizes = idx.factor_sizes
    choices = [c for c in itertools.product(*side_lists) if member(delta_of(c, sizes))]
    return SetFamily(idx.total, sorted({box_oracle(c, sizes) for c in choices}))


def topology_base_oracle(spec, member):
    opens = [[b for b in f.topology.opens().bits if b] for f in spec.factors]
    return box_base_oracle(opens, spec.indexing, member)


def filter_cores_oracle(index_core, rows, sizes):
    out = []
    for reversed_cores in itertools.product(*reversed(rows)):
        cores = reversed_cores[::-1]
        sides = [
            (1 << s) - 1 if index_core >> i & 1 else c for i, (c, s) in enumerate(zip(cores, sizes))
        ]
        out.append(box_oracle(tuple(sides), sizes))
    return out


class TestBoxBasesAgainstTheOracle:
    """The bit-level bases against one decoded box per accepted side choice.

    Small products under every filter are checked in the closed-form tests,
    which walk the same grids.
    """

    def test_topology_base_on_the_p21_delta_families(self):
        from fprod.verifier import _REGISTRY

        checked = 0
        for spec, fam in _REGISTRY["P2.1"].instances(default_grid("P2.1")):
            base = f_topology_base(spec, delta_family=fam)
            assert base == topology_base_oracle(spec, fam.contains_bits)
            checked += 1
        assert checked == 15 + 255

    @pytest.mark.parametrize(
        "prop, count", [("P2.1", 270), ("P4.1", 258), ("P4.5", 4624), ("P5.2", 324), ("P5.ind", 324)]
    )
    def test_accepted_only_bases_equal_the_by_delta_route_on_the_default_grid(self, prop, count):
        checked = 0
        with grid_walk():  # as the checks read them
            for inst in _REGISTRY[prop].instances(default_grid(prop)):
                spec, fam = inst if isinstance(inst, tuple) else (inst, None)
                if fam is not None:
                    assert f_topology_base(spec, fam) == by_delta.topology_base(spec, fam.contains_bits)
                elif spec.factors[0].filter is not None:
                    assert f_filter_base(spec) == by_delta.filter_base(spec)
                elif spec.factors[0].uniformity_base is not None:
                    assert f_uniformity_base(spec) == by_delta.uniformity_base(spec)
                    induced = via_base_spec(spec)
                    assert f_topology_base(induced) == by_delta.topology_base(induced)
                else:
                    assert f_topology_base(spec) == by_delta.topology_base(spec)
                checked += 1
        assert checked == count

    def test_filter_cores_match_one_box_per_choice(self):
        # the factor minimal neighbourhoods, one row per point, of every topology tuple,
        # and the factor filter cores, one per factor, of every filter tuple
        size_tuples = [
            sizes for k in (1, 2, 3) for sizes in itertools.product((1, 2), repeat=k)
        ] + [(3, 2)]
        checked = 0
        for sizes in size_tuples:
            for topologies in itertools.product(*map(enumerate_topologies, sizes)):
                spec = product_spec([Factor(Universe.points(t.universe_size), topology=t) for t in topologies])
                rows = [t.mins for t in topologies]
                for index_core in range(1 << len(sizes)):
                    assert list(filter_cores(spec, "mins", index_core)) == filter_cores_oracle(index_core, rows, sizes)
                    checked += 1
            for cores in itertools.product(*(range(1, 1 << s) for s in sizes)):
                spec = product_spec(
                    [Factor(Universe.points(s), filter=principal_filter(mask(s, c))) for s, c in zip(sizes, cores)]
                )
                for index_core in range(1 << len(sizes)):
                    want = filter_cores_oracle(index_core, [[c] for c in cores], sizes)
                    assert list(filter_cores(spec, "cores", index_core)) == want
                    checked += 1
        assert checked == 2242

    @pytest.mark.parametrize(
        "index_core, rows, sizes",
        [
            (0, [[1], [1]], (2, 2, 2)),  # a factor without a row
            (0, [[1], [1], [1]], (2, 2)),  # a row without a factor
            (0, [[7]], (2,)),  # a side outside its 2-point factor
            (0, [[1], [-1]], (2, 2)),  # a negative side
            (0b100, [[1], [1]], (2, 2)),  # an index outside the index set
        ],
        ids=["missing-row", "extra-row", "wide-side", "negative-side", "wide-core"],
    )
    def test_filter_cores_reject_rows_or_core_off_the_indexing(self, index_core, rows, sizes, monkeypatch):
        """filter_cores checks nothing, so rows or a core off the indexing must be
        stopped by the constructors a spec passes before f_filter_core reaches it.

        Row i is factor i's filter core, and the index set has one index per row.
        """

        def unreachable(*args):
            raise AssertionError("filter_cores was reached")

        monkeypatch.setattr(fproduct, "filter_cores", unreachable)
        with pytest.raises(InputError):
            factors = [
                Factor(Universe.points(s), filter=principal_filter(mask(s, rows[i][0])) if i < len(rows) else None)
                for i, s in enumerate(sizes)
            ]
            f_filter_core(product_spec(factors, Filter(len(rows), mask(len(rows), index_core))))


class TestProductSpecIndexing:
    def test_built_once(self):
        spec = product_spec(discrete2_factors(3), trivial_filter(3))
        assert spec.indexing is spec.indexing
        assert spec.indexing.factor_sizes == (2, 2, 2)
        assert spec == product_spec(discrete2_factors(3), trivial_filter(3))

    def test_a_spec_rebuilt_over_same_size_factors_shares_the_indexing(self):
        # as P5.ind rebuilds its spec over the induced factor topologies
        spec = product_spec(discrete2_factors(3), principal_filter(mask(3, 0b010)))
        other = ProductSpec(spec.index_universe, sierpinski_factors(3), spec.index_filter)
        assert other == product_spec(sierpinski_factors(3), principal_filter(mask(3, 0b010)))
        assert other.indexing is spec.indexing

    def test_a_refiltered_spec_is_the_spec_built_with_that_filter(self):
        spec = product_spec(sierpinski_factors(3))
        for fil in (*enumerate_filters(3, include_trivial=True), None):
            other = spec.with_index_filter(fil)
            built = product_spec(sierpinski_factors(3), fil)
            assert other == built and hash(other) == hash(built) and other.index_filter is fil
            assert other.factors is spec.factors and other.indexing is spec.indexing
        assert spec.index_filter is None
        with pytest.raises(InputError, match="index filter lives on the wrong universe"):
            spec.with_index_filter(trivial_filter(2))

    def test_cap_fires_when_the_spec_is_built(self):
        # 2**13 = 8,192 points, twice the cap
        with pytest.raises(ResourceLimitError, match="product size 8192 exceeds cap 4096"):
            product_spec(discrete2_factors(13), trivial_filter(13))

    def test_specs_of_equal_factor_sizes_share_one_indexing(self):
        spec = product_spec(discrete2_factors(3), trivial_filter(3))
        other = product_spec(sierpinski_factors(3), principal_filter(mask(3, 0b001)))
        assert spec.indexing is other.indexing is shared_indexing((2, 2, 2))
        mixed = product_spec((preset_factor("discrete3"), preset_factor("discrete2")))
        assert mixed.indexing is shared_indexing([3, 2])
        assert mixed.indexing is not shared_indexing((2, 3))

    def test_cap_fires_before_the_walk_memo_is_read(self):
        with grid_walk():
            tables = fproduct._walk.tables
            with pytest.raises(ResourceLimitError):
                product_spec(discrete2_factors(13), trivial_filter(13))
            assert tables == {}

    def test_squared_indexing_is_shared(self):
        idx = shared_indexing((2, 2))
        assert squared_indexing(idx) is squared_indexing(idx) is shared_indexing((4, 4))
        # 2**7 = 128 points, but 4**7 = 16,384 pairs
        with pytest.raises(ResourceLimitError, match="product size 16384 exceeds cap 4096"):
            squared_indexing(shared_indexing((2,) * 7))

    def test_digit_fibres_are_the_fibres_of_the_decoded_digits(self):
        checked = 0
        for k in range(1, 5):
            for sizes in itertools.product((1, 2, 3), repeat=k):
                idx = ProductIndexing(sizes)
                assert len(idx.digit_fibres) == k
                for i, s in enumerate(sizes):
                    assert idx.digit_fibres[i] == map_fibres(projection_map_oracle(i, idx), s)
                checked += 1
        assert checked == 3 + 9 + 27 + 81
        assert idx.digit_fibres is idx.digit_fibres  # computed once per indexing

    def test_slices_are_the_codes_of_each_factor_through_point_zero(self):
        checked = 0
        for k in range(1, 5):
            for sizes in itertools.product((1, 2, 3), repeat=k):
                idx = ProductIndexing(sizes)
                for i, (w, s) in enumerate(zip(idx.weights, sizes)):
                    assert idx.slices[i] == SubsetMask.of(idx.total, (x * w for x in range(s)))
                    assert [idx.decode_point(c) for c in idx.slices[i]] == [
                        tuple(x if j == i else 0 for j in range(k)) for x in range(s)
                    ]
                    checked += 1
        assert checked == 3 + 2 * 9 + 3 * 27 + 4 * 81
        assert idx.slices is idx.slices  # computed once per indexing


class TestFactorRows:
    """Each factor's kernel rows, gathered once and kept on the factor for every spec it is in."""

    def test_specs_of_tuples_sharing_a_factor_read_its_members_once(self, monkeypatch):
        reads = collections.Counter()
        original = Filter.members

        def counted(fil):
            reads[fil] += 1
            return original(fil)

        monkeypatch.setattr(Filter, "members", counted)
        pool = filter_factors([0b01, 0b10, 0b11])
        specs = [
            product_spec(combo, fil)
            for combo in itertools.product(pool, repeat=2)
            for fil in enumerate_filters(2, include_trivial=True)
        ]
        for spec in specs:
            assert f_filter_base(spec) == box_base_oracle(
                [original(f.filter).bits for f in spec.factors], spec.indexing, spec.index_filter.member_bits
            )
        assert sorted(reads.values()) == [1, 1, 1]  # one read of each factor's members, not one per spec

    def test_equality_hash_and_repr_ignore_the_staged_rows(self):
        spec = product_spec(sierpinski_factors(2), principal_filter(mask(2, 0b01)))
        fresh = product_spec(sierpinski_factors(2), principal_filter(mask(2, 0b01)))
        f_topology(spec), f_topology_base(spec), equalizers(spec)
        for staged, bare in zip(spec.factors, fresh.factors):
            assert set(staged._rows) == {"mins", "opens", "points"} and bare._rows == {}
            assert staged == bare and hash(staged) == hash(bare) and repr(staged) == repr(bare)
        assert spec == fresh and hash(spec) == hash(fresh)
        assert fresh.with_index_filter(trivial_filter(2)) == spec.with_index_filter(trivial_filter(2))

    @pytest.mark.parametrize("build, need, lacking", [
        (f_topology, "a topology for the product topology", 1),
        (f_topology_via_base, "a topology for the product topology", 1),
        (f_filter_core, "a filter for the product filter", 0),
        (f_filter_base, "a filter for the product filter", 0),
    ])
    def test_a_factor_without_the_structure_raises_on_every_call(self, build, need, lacking):
        spec = product_spec((preset_factor("discrete2"), filter_factors([0b01])[0]), trivial_filter(2))
        for _ in range(2):  # nothing is stored by the first call
            with pytest.raises(InputError, match=f"^every factor needs {need}$"):
                build(spec)
        assert spec.factors[lacking]._rows == {}

    def test_the_p45_walk_gathers_each_kind_once_per_distinct_factor(self, monkeypatch):
        gathered = collections.Counter()
        original = fproduct._stage

        def counted(factor, kind):
            gathered[kind, id(factor)] += 1
            return original(factor, kind)

        monkeypatch.setattr(fproduct, "_stage", counted)
        assert verify_proposition("P4.5").checked == 4624
        # 34 pool factors in 1,156 factor tuples, each tuple under 4 index filters
        assert collections.Counter(kind for kind, _ in gathered) == {"opens": 34, "mins": 34}
        assert set(gathered.values()) == {1}


class TestFTopologyBase:
    def test_principal_filter_forces_first_coordinate(self):
        spec = product_spec(discrete2_factors(2), principal_filter(mask(2, 0b01)))
        base = f_topology_base(spec)
        assert [m.bits for m in base.members] == [0b0011, 0b1100, 0b1111]

    def test_trivial_filter_gives_all_boxes(self):
        spec = product_spec(discrete2_factors(2), trivial_filter(2))
        base = f_topology_base(spec)
        # oracle: brute-force over all open boxes (nonempty opens are 3 per factor)
        assert len(base) == 9
        t = f_topology(spec)
        assert t == discrete(4)

    def test_whole_space_filter_gives_indiscrete_base(self):
        spec = product_spec(discrete2_factors(2), principal_filter(mask(2, 0b11)))
        base = f_topology_base(spec)
        assert [m.bits for m in base.members] == [0b1111]

    def test_accepts_raw_intersection_closed_family(self):
        spec = product_spec(sierpinski_factors(2))
        full_family = SetFamily.of(2, [mask(2, 0b11)])
        base = f_topology_base(spec, delta_family=full_family)
        spec_f = product_spec(sierpinski_factors(2), principal_filter(mask(2, 0b11)))
        assert base == f_topology_base(spec_f)

    def test_non_closed_family_fails_base_criterion(self):
        spec = product_spec(sierpinski_factors(2))
        family = SetFamily.of(2, [mask(2, 0b01), mask(2, 0b10), mask(2, 0b11)])
        base = f_topology_base(spec, delta_family=family)
        assert not validate_base(base)

    def test_missing_topology_rejected(self):
        f = Factor(Universe.points(2), filter=principal_filter(mask(2, 0b01)))
        spec = product_spec((f,), trivial_filter(1))
        with pytest.raises(InputError):
            f_topology_base(spec)


class TestFTopology:
    def test_pinned_coordinate_is_indistinguishable(self):
        spec = product_spec(discrete2_factors(3), principal_filter(mask(3, 0b001)))
        t = f_topology(spec)
        assert not t.is_hausdorff()
        idx = spec.indexing
        for code in range(idx.total):
            flipped = idx.encode_point(
                tuple(
                    1 - c if i == 0 else c
                    for i, c in enumerate(idx.decode_point(code))
                )
            )
            assert t.minimal_neighborhood(code) == t.minimal_neighborhood(flipped)

    def test_trivial_filter_discrete_factors_give_discrete_product(self):
        spec = product_spec(discrete2_factors(3), trivial_filter(3))
        t = f_topology(spec)
        assert t.is_hausdorff()
        # every box is open, in particular every singleton
        for code in range(8):
            assert t.is_open(mask(8, 1 << code))

    def test_exactly_four_opens(self):
        spec = product_spec(discrete2_factors(2), principal_filter(mask(2, 0b01)))
        opens = f_topology(spec).opens()
        assert [m.bits for m in opens] == [0b0000, 0b0011, 0b1100, 0b1111]


def via_base_spec(spec):
    """The spec whose f_topology_via_base a P4.5 or P5.ind check builds: P5.ind
    reads its uniformity factors through their induced topologies."""
    from fprod.uniformity import induced_topology

    if spec.factors[0].topology is not None:
        return spec
    induced = (Factor(f.universe, topology=induced_topology(f.uniformity)) for f in spec.factors)
    return ProductSpec(spec.index_universe, tuple(induced), spec.index_filter)


def accepted_family(spec):
    """(point count, accepted side lists, factor sizes): the whole factor alone on the core."""
    idx, core = spec.indexing, spec.index_filter.core.bits
    sides = tuple(
        ((1 << s) - 1,) if core >> i & 1 else f.topology.opens().bits[1:]
        for i, (f, s) in enumerate(zip(spec.factors, idx.factor_sizes))
    )
    return idx.total, sides, idx.factor_sizes


class TestClosedFormTopology:
    def test_agrees_with_box_base_on_small_products(self):
        pool = [
            Factor(Universe.points(n), topology=t)
            for n in (1, 2, 3)
            for t in enumerate_topologies(n)
        ]
        checked = 0
        for k in (1, 2):
            for factors in itertools.product(pool, repeat=k):
                for fil in enumerate_filters(k, include_trivial=True):
                    spec = product_spec(factors, fil)
                    assert f_topology(spec).mins == f_topology_via_base(spec).mins
                    assert f_topology_base(spec) == topology_base_oracle(spec, fil.member_bits)
                    checked += 1
        assert checked == 4692

    def test_delta_family_goes_through_the_box_base(self):
        spec = product_spec(sierpinski_factors(2))
        family = SetFamily.of(2, [mask(2, 0b01), mask(2, 0b11)])
        via_base = generate_topology(f_topology_base(spec, delta_family=family))
        assert f_topology(spec, family) == via_base

    def test_discrete3_power_7_is_discrete(self):
        spec = product_spec(tuple(preset_factor("discrete3") for _ in range(7)), trivial_filter(7))
        t = f_topology(spec)
        assert t.mins == tuple(1 << x for x in range(3**7))

    def test_pinned_sierpinski_power_8_is_kronecker_of_power_4(self):
        # the first four factors carry the pinned index, the last four none;
        # their product codes are the two digits of a (16, 16) mixed radix
        pinned = f_topology_via_base(
            product_spec(sierpinski_factors(4), principal_filter(mask(4, 0b0001)))
        ).mins
        free = f_topology_via_base(
            product_spec(sierpinski_factors(4), trivial_filter(4))
        ).mins
        spec = product_spec(sierpinski_factors(8), principal_filter(mask(8, 0b00000001)))
        expected = tuple(
            box_oracle((pinned[a], free[b]), (16, 16)) for b in range(16) for a in range(16)
        )
        assert f_topology(spec).mins == expected

    @pytest.mark.parametrize("prop, family_count", [("P4.5", 1156), ("P5.ind", 4)])
    def test_definitional_checks_build_each_accepted_family_once_per_walk(self, monkeypatch, prop, family_count):
        # a family is the point count, the accepted side lists and the factor
        # sizes; every spec of one family shares its one via-base build
        built = collections.Counter()
        original = fproduct.topology_from_base_bits

        def counted(n, bits, contains):
            built[n, tuple(sorted(bits))] += 1
            return original(n, bits, contains)

        monkeypatch.setattr(fproduct, "topology_from_base_bits", counted)
        report = verify_proposition(prop)
        assert report.passed and report.checked == (4624 if prop == "P4.5" else 324)
        families = {}
        for spec in map(via_base_spec, _REGISTRY[prop].instances(default_grid(prop))):
            families.setdefault(accepted_family(spec), spec)
        assert len(families) == family_count == sum(built.values())
        oracle = (by_delta.topology_base(spec) for spec in families.values())
        assert built == collections.Counter((base.universe_size, base.bits) for base in oracle)

    def test_p5ind_builds_no_factor_or_spec_inside_its_check(self, monkeypatch):
        # its induced factor opens are staged once per factor, on the factor
        entry, inside, built = _REGISTRY["P5.ind"], [], []

        def check(inst):
            inside.append(inst)
            try:
                return entry.check(inst)
            finally:
                inside.pop()

        for cls in (Factor, ProductSpec):
            def counted(obj, original=cls.__post_init__):
                if inside:
                    built.append(type(obj).__name__)
                original(obj)

            monkeypatch.setattr(cls, "__post_init__", counted)
        monkeypatch.setitem(_REGISTRY, "P5.ind", dataclasses.replace(entry, check=check))
        report = verify_proposition("P5.ind")
        assert report.passed and report.checked == 324 and built == []

    @pytest.mark.parametrize(
        "prop, detail",
        [
            ("P4.5", {"box_family_is_base": False}),
            # P5.ind's first family, {0011, 1100, 1111} on two 2-point factors
            # under core {1}, is still a base without 0011, of another topology
            ("P5.ind", {"induced_topology_differs": True}),
        ],
    )
    def test_definitional_checks_catch_a_family_kernel_that_drops_the_least_box(self, monkeypatch, prop, detail):
        # the via-base build enumerates each family through the unmemoized kernel
        original = _point_boxes.__wrapped__

        def without_the_least_box(rows, factor_sizes):
            return tuple(sorted(original(rows, factor_sizes))[1:])

        monkeypatch.setattr(_point_boxes, "__wrapped__", without_the_least_box)
        self.assert_caught_and_replayed(monkeypatch, prop, detail)

    @pytest.mark.parametrize("prop", ["P4.5", "P5.ind"])
    def test_definitional_checks_catch_a_base_check_that_misses_the_least_box(self, monkeypatch, prop):
        # every box enters the point meets, but the membership test lacks the
        # least one: the point criterion is checked once per family, not skipped
        original = fproduct.topology_from_base_bits

        def without_the_least_member(n, bits, contains):
            least = min(bits)
            return original(n, bits, lambda m: m != least and contains(m))

        monkeypatch.setattr(fproduct, "topology_from_base_bits", without_the_least_member)
        self.assert_caught_and_replayed(monkeypatch, prop, {"box_family_is_base": False})

    @staticmethod
    def assert_caught_and_replayed(monkeypatch, prop, detail):
        report = verify_proposition(prop)
        assert not report.passed and report.witness is not None
        assert report.witness["detail"] == detail
        ok, replayed = replay_witness(prop, report.witness)
        assert not ok and replayed == detail
        monkeypatch.undo()
        assert replay_witness(prop, report.witness) == (True, None)

    @pytest.mark.parametrize(
        "prop, count", [("P4.5", 4624), ("P5.ind", 324), ("P5.2", 324), ("P2.1", 270)]
    )
    def test_via_base_generates_the_box_base_on_the_default_grid(self, prop, count):
        # uniformity factors are read through their induced topologies, as P5.ind
        # reads them; P2.1's delta families include the ones that give no base
        checked = not_bases = 0
        for inst in _REGISTRY[prop].instances(default_grid(prop)):
            spec, fam = inst if isinstance(inst, tuple) else (inst, None)
            spec = via_base_spec(spec)
            if fam is not None and not is_intersection_closed(fam):  # Proposition 2.1: no base
                with pytest.raises(InputError, match="^family is not a topology base$"):
                    generate_topology(f_topology_base(spec, fam))
                with pytest.raises(InputError, match="^family is not a topology base$"):
                    f_topology(spec, fam)
                not_bases += 1
            else:
                via_base = f_topology_via_base(spec) if fam is None else f_topology(spec, fam)
                assert via_base == generate_topology(f_topology_base(spec, fam))
            checked += 1
        assert checked == count
        assert (not_bases > 0) == (prop == "P2.1")


def fibre_union(i, sub, idx):
    """The preimage of a factor subset under the i-th projection: the union of its values' fibres."""
    fibres = projection_fibres(i, idx)
    return SubsetMask(idx.total, sum(fibres[d] for d in sub))


class TestProjections:
    def test_preimage_examples(self):
        idx = ProductIndexing((2, 2))
        assert fibre_union(0, mask(2, 0b11), idx).bits == 0b1111
        assert fibre_union(0, mask(2, 0), idx).is_empty
        got = fibre_union(1, mask(2, 0b01), idx)
        assert got.elements() == (0, 1)
        got0 = fibre_union(0, mask(2, 0b01), idx)
        assert got0.elements() == (0, 2)
        idx = ProductIndexing((3, 1, 2))
        for i, s in enumerate(idx.factor_sizes):
            values = projection_map_oracle(i, idx)
            for sub in range(1 << s):
                oracle = SubsetMask.of(idx.total, (c for c, v in enumerate(values) if sub >> v & 1))
                assert fibre_union(i, mask(s, sub), idx) == oracle

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            projection_fibres(2, ProductIndexing((2, 2)))

    def test_continuity_iff_trivial_filter(self):
        for k in (1, 2, 3):
            for fil in enumerate_filters(k, include_trivial=True):
                spec = product_spec(sierpinski_factors(k), fil)
                assert all_projections_continuous(spec) == fil.trivial

    def test_indiscrete_factors_always_continuous(self):
        spec = product_spec(
            tuple(preset_factor("indiscrete2") for _ in range(2)),
            principal_filter(mask(2, 0b01)),
        )
        assert all_projections_continuous(spec)

    def test_every_digit_fibre_passes_check_fibres(self):
        # the fact that lets the checks hand projection fibres to the unchecked kernels
        checked = 0
        for k in range(1, 5):
            for sizes in itertools.product((1, 2, 3, 4), repeat=k):
                idx = shared_indexing(sizes)
                for i, s in enumerate(sizes):
                    check_fibres(projection_fibres(i, idx), idx.total, s)
                    checked += 1
        assert checked == 4 + 2 * 16 + 3 * 64 + 4 * 256

    @pytest.mark.parametrize("prop, index_sizes, count", [
        ("P4.2", (1, 2, 3, 4), 6 + 6**2 + 6**3 + 6**4),
        ("P4.3", None, 9),
    ])
    def test_fibre_image_is_the_digit_image_of_the_core_on_the_check_grids(self, prop, index_sizes, count):
        # P4.2 and the identity claim project the product filter; P4.3 projects every filter
        grid = default_grid(prop)
        if index_sizes is not None:
            grid = dataclasses.replace(grid, index_sizes=index_sizes)
        checked = 0
        with grid_walk():
            for spec in _REGISTRY[prop].instances(grid):
                idx = spec.indexing
                fils = enumerate_filters(idx.total) if prop == "P4.3" else (f_filter(spec),)
                for i, (w, s) in enumerate(zip(idx.weights, idx.factor_sizes)):
                    fibres = projection_fibres(i, idx)
                    for fil in fils:
                        image = sum(1 << v for v in {code // w % s for code in fil.core})
                        assert fibre_image(fibres, fil.core.bits) == image
                checked += 1
        assert checked == count

    def test_projection_continuity_is_the_open_preimage_definition_on_the_p27_grid(self):
        # the definition, read off opens(), against is_continuous and the projection
        # check, which reads the kernels through the walk-shared preimages
        answers = collections.Counter()
        with grid_walk():
            for spec in _REGISTRY["P2.7"].instances(default_grid("P2.7")):
                t = f_topology(spec)
                product_opens = set(t.opens().bits)
                oracles = []
                for i, f in enumerate(spec.factors):
                    oracle = all(fibre_union(i, v, spec.indexing).bits in product_opens for v in f.topology.opens())
                    assert is_continuous(projection_fibres(i, spec.indexing), t, f.topology) == oracle
                    oracles.append(oracle)
                    answers[oracle] += 1
                assert all_projections_continuous(spec) == all(oracles)
        assert sum(answers.values()) == 1 * 3 * 2 + 2 * 3**2 * 4 + 3 * 3**3 * 8  # 258 instances
        assert answers[True] and answers[False]


class TestPointQueryClosedForms:
    @staticmethod
    def small_specs():
        for k in (1, 2, 3):
            for sizes in itertools.product((1, 2, 3), repeat=k):
                factors = tuple(Factor(Universe.points(n)) for n in sizes)
                for fil in enumerate_filters(k, include_trivial=True):
                    yield product_spec(factors, fil)

    def test_agree_with_decoding_oracles_on_small_products(self):
        pairs = 0
        for spec in self.small_specs():
            idx = spec.indexing
            for i, (w, s) in enumerate(zip(idx.weights, idx.factor_sizes)):
                fibres = projection_fibres(i, idx)
                assert fibres == map_fibres(projection_map_oracle(i, idx), s)
                assert fibres == map_fibres([code // w % s for code in range(idx.total)], s)
            sigmas, others = equalizers(spec), filter_different(spec)
            assert len(sigmas) == len(others) == idx.total
            for x in range(idx.total):
                assert sigmas[x] == equalizer_oracle(spec, x)
                for y in range(idx.total):
                    assert (y in others[x]) == different_by_filter_oracle(spec, x, y)
                    pairs += 1
        assert pairs == 22764

    def test_equalizer_agrees_on_discrete3_power_4_under_every_filter(self):
        factors = tuple(preset_factor("discrete3") for _ in range(4))
        fils = enumerate_filters(4, include_trivial=True)
        assert len(fils) == 16
        for fil in fils:
            spec = product_spec(factors, fil)
            sigmas = equalizers(spec)
            for x in range(81):
                assert sigmas[x] == equalizer_oracle(spec, x)

    def test_all_points_queries_need_an_index_filter(self):
        spec = product_spec(discrete2_factors(2))
        with pytest.raises(InputError):
            equalizers(spec)
        with pytest.raises(InputError):
            filter_different(spec)

    def test_range_checks(self):
        spec = product_spec(discrete2_factors(2), principal_filter(mask(2, 0b01)))
        with pytest.raises(InputError):
            projection_fibres(2, spec.indexing)
        with pytest.raises(InputError):
            projection_fibres(-1, spec.indexing)


class TestEqualizer:
    def test_whole_space_filter_pins_everything(self):
        spec = product_spec(discrete2_factors(2), principal_filter(mask(2, 0b11)))
        for x, sigma in enumerate(equalizers(spec)):
            assert sigma.elements() == (x,)

    def test_pinned_first_coordinate(self):
        spec = product_spec(discrete2_factors(2), principal_filter(mask(2, 0b01)))
        got = equalizers(spec)[0]
        # oracle: z agrees with (0,0) on a member of <{1}> iff z_0 = 0
        idx = spec.indexing
        oracle = tuple(
            z for z in range(4) if idx.decode_point(z)[0] == 0
        )
        assert got.elements() == oracle == (0, 2)

    def test_trivial_filter_gives_whole_product(self):
        spec = product_spec(discrete2_factors(2), trivial_filter(2))
        assert equalizers(spec)[3].bits == 0b1111

    def test_dense_for_every_proper_filter(self):
        for k in (1, 2, 3):
            for fil in enumerate_filters(k, include_trivial=False):
                spec = product_spec(discrete2_factors(k), fil)
                t = f_topology(spec)
                for sigma in equalizers(spec):
                    assert t.is_dense(sigma)

    def test_disjoint_when_different_by_filter(self):
        for k in (1, 2, 3):
            for fil in enumerate_filters(k, include_trivial=False):
                spec = product_spec(discrete2_factors(k), fil)
                sigmas = equalizers(spec)
                for x, others in enumerate(filter_different(spec)):
                    for y in others:
                        assert not sigmas[x].bits & sigmas[y].bits

    def test_filter_different_examples(self):
        spec = product_spec(discrete2_factors(2), principal_filter(mask(2, 0b01)))
        others = filter_different(spec)[0]
        assert 0 not in others
        assert 1 in others  # differ exactly at coordinate 1
        assert 2 not in others


class TestFFilter:
    def test_minimal_element_with_pinned_coordinate(self):
        spec = product_spec(filter_factors([0b01, 0b01]), principal_filter(mask(2, 0b01)))
        ff = f_filter(spec)
        assert ff.is_proper
        assert ff.core.elements() == (0, 1)  # (0,0) and (1,0)

    def test_box_filter_minimal_is_product_of_cores(self):
        spec = product_spec(filter_factors([0b01, 0b01]), trivial_filter(2))
        ff = f_filter(spec)
        assert ff.core.elements() == (0,)

    def test_closed_form_equals_base_generation(self):
        # every proper filter on 1..3 points, on each of 1..3 factors
        pool = [
            Factor(Universe.points(n), filter=fil)
            for n in (1, 2, 3)
            for fil in enumerate_filters(n, include_trivial=False)
        ]
        checked = 0
        for k in (1, 2, 3):
            for factors in itertools.product(pool, repeat=k):
                for fil in enumerate_filters(k, include_trivial=True):
                    spec = product_spec(factors, fil)
                    ff = f_filter(spec)
                    assert ff == generate_filter(f_filter_base(spec))
                    members = [f.filter.members().bits for f in factors]
                    oracle = box_base_oracle(members, spec.indexing, fil.member_bits)
                    assert f_filter_base(spec) == oracle
                    cores = [f.filter.core.bits for f in factors]
                    sizes = spec.indexing.factor_sizes
                    want = filter_cores_oracle(fil.core.bits, [[c] for c in cores], sizes)
                    assert [ff.core.bits] == want
                    checked += 1
        assert checked == 11 * 2 + 11**2 * 4 + 11**3 * 8

    def test_projection_identity_for_trivial_filter(self):
        spec = product_spec(filter_factors([0b01, 0b10]), trivial_filter(2))
        core = f_filter_core(spec)
        idx = spec.indexing
        for i, f in enumerate(spec.factors):
            assert fibre_image(projection_fibres(i, idx), core) == f.filter.core.bits

    def test_projection_strictly_smaller_for_pinned_coordinate(self):
        from fprod.filters import core_leq

        spec = product_spec(filter_factors([0b01, 0b01]), principal_filter(mask(2, 0b01)))
        proj = fibre_image(projection_fibres(0, spec.indexing), f_filter_core(spec))
        assert proj == 0b11  # the core of the indiscrete filter
        factor_core = spec.factors[0].filter.core.bits
        assert core_leq(proj, factor_core)
        assert proj != factor_core

    def test_base_is_a_filter_base(self):
        from fprod.filters import validate_filter_base

        for fil in enumerate_filters(2, include_trivial=True):
            spec = product_spec(filter_factors([0b01, 0b10]), fil)
            assert validate_filter_base(f_filter_base(spec))

    def test_trivial_factor_filter_rejected(self):
        with pytest.raises(InputError, match="factor filters must be proper"):
            Factor(Universe.points(2), filter=trivial_filter(2))


class TestFactorLabels:
    @pytest.mark.parametrize("label", ["a,b", "a;b", ",", ";"])
    def test_a_label_with_a_product_label_separator_is_rejected(self, label):
        # else two product points could share a label, as (a,b,c) from a x b,c and a,b x c
        message = f"^factor point label '{label}' contains a separator, ',' or ';'$"
        with pytest.raises(InputError, match=message):
            Factor(Universe(("a", label)), topology=discrete(2))

    @pytest.mark.parametrize("label", [" a", "a ", "\ta", "a\n", " "])
    def test_a_label_with_outer_whitespace_is_rejected(self, label):
        # a product point's coordinates are read stripped, so " a" could not be named
        message = f"^factor point label {re.escape(repr(label))} has leading or trailing whitespace$"
        with pytest.raises(InputError, match=message):
            Factor(Universe((label, "b")), topology=discrete(2))

    def test_other_labels_are_kept(self):
        factor = Factor(Universe(("a b", "(x)", "-")), topology=discrete(3))
        assert factor.universe.labels == ("a b", "(x)", "-")


class TestOrderImmersion:
    @pytest.mark.parametrize("k", [2, 3])
    def test_filter_order_matches_topology_order(self, k):
        from fprod.filters import filter_leq

        factors = sierpinski_factors(k)
        fils = enumerate_filters(k, include_trivial=True)
        topos = {f: f_topology(product_spec(factors, f)) for f in fils}
        for f, g in itertools.product(fils, repeat=2):
            assert filter_leq(f, g) == topology_leq(topos[f], topos[g])


class TestNeighborhoodIdentity:
    def test_p45_builds_each_family_once_one_spec_per_factor_tuple_and_one_kernel_core_per_point(
        self, monkeypatch
    ):
        from fprod import verifier

        builds, kernel_calls = [], []
        original_build, original_cores = fproduct.topology_from_base_bits, verifier.filter_cores

        def counted_build(n, bits, contains):
            builds.append(n)
            return original_build(n, bits, contains)

        def counted_cores(spec, kind, index_core=None):
            cores = original_cores(spec, kind, index_core)
            kernel_calls.append((spec.indexing.factor_sizes, len(cores)))
            return cores

        def refused(*args, **kwargs):
            raise AssertionError("P4.5 builds no product filter spec per point")

        built, yielded = [], []
        original_post_init, entry = ProductSpec.__post_init__, verifier._REGISTRY["P4.5"]

        def counted_post_init(self):
            built.append(self)
            original_post_init(self)

        def recorded_build(spec, fil):
            yielded.append(entry.build(spec, fil))
            return yielded[-1]

        monkeypatch.setattr(fproduct, "topology_from_base_bits", counted_build)
        monkeypatch.setattr(verifier, "filter_cores", counted_cores)
        monkeypatch.setattr(fproduct, "f_filter", refused)
        monkeypatch.setattr(ProductSpec, "__post_init__", counted_post_init)
        monkeypatch.setitem(
            verifier._REGISTRY, "P4.5", dataclasses.replace(entry, build=recorded_build)
        )
        grid = dataclasses.replace(default_grid("P4.5"), max_instances=40)
        report = verify_proposition("P4.5", grid)
        assert report.passed and report.checked == 40 and not report.complete
        # the budget builds no 41st instance; each factor tuple's spec is
        # built once and re-filtered for each of the 4 index filters
        assert len(yielded) == 40
        assert [spec.factors for spec in built] == [spec.factors for spec in yielded[::4]]
        for i, spec in enumerate(yielded):
            assert spec.factors is built[i // 4].factors and spec.indexing is built[i // 4].indexing
        assert [spec.index_filter for spec in yielded[:4]] == list(enumerate_filters(2, include_trivial=True))
        # one via-base build per distinct accepted family, not per instance
        assert len(builds) == len({accepted_family(spec) for spec in yielded}) < 40
        # one kernel call per instance, returning one core per point
        assert kernel_calls == [(spec.indexing.factor_sizes, spec.indexing.total) for spec in yielded]

    def test_p45_catches_a_kernel_that_ignores_the_index_core(self, monkeypatch):
        from fprod import verifier

        original = verifier.filter_cores
        monkeypatch.setattr(
            verifier, "filter_cores", lambda spec, kind, _core=None: original(spec, kind, 0)
        )
        report = verify_proposition("P4.5")
        assert not report.passed and report.witness is not None
        ok, detail = replay_witness("P4.5", report.witness)
        assert not ok and detail == report.witness["detail"]
        # the witness names the first point whose neighbourhoods differ
        from fprod.serialize import parse_instance, product_point_label

        spec = parse_instance(report.witness["instance"])
        pairs = zip(f_topology(spec).mins, original(spec, "mins", 0))
        first = next(x for x, (got, want) in enumerate(pairs) if got != want)
        assert detail == {"neighborhood_identity_fails_at": product_point_label(first, spec)}

    def test_p45_passes_on_three_factors(self, capsys):
        # the default grid has two factors, so the kernel never sees three there
        assert main(["verify", "--prop", "P4.5", "--index-size", "3",
                     "--factor-size", "2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["passed"] and report["complete"] and report["checked"] == 1000

    def test_small_grid(self):
        factor_pool = [preset_factor("sierpinski"), preset_factor("discrete2")]
        for f1, f2 in itertools.product(factor_pool, repeat=2):
            for fil in enumerate_filters(2, include_trivial=True):
                spec = product_spec((f1, f2), fil)
                t = f_topology(spec)
                idx = spec.indexing
                for code in range(idx.total):
                    coords = idx.decode_point(code)
                    nb_factors = tuple(
                        Factor(f.universe, filter=f.topology.neighborhoods_filter(c))
                        for f, c in zip(spec.factors, coords)
                    )
                    rhs = f_filter(ProductSpec(spec.index_universe, nb_factors, fil))
                    assert t.neighborhoods_filter(code) == rhs


class TestResolvability:
    def test_equalizer_pair_is_found_as_disjoint_dense_witness(self):
        from fprod.topology import find_disjoint_dense

        spec = product_spec(discrete2_factors(2), principal_filter(mask(2, 0b01)))
        t = f_topology(spec)
        x, y = 0, 1  # differ exactly at the pinned coordinate
        assert y in filter_different(spec)[x]
        sx, sy = equalizers(spec)[x], equalizers(spec)[y]
        assert not sx.bits & sy.bits
        assert t.is_dense(sx) and t.is_dense(sy)
        witness = find_disjoint_dense(t, 2)
        assert witness is not None
        assert all(t.is_dense(w) for w in witness)
        assert not witness[0].bits & witness[1].bits

    def test_every_pinned_hausdorff_product_is_not_hausdorff(self):
        for k in (2, 3):
            for preset in ("discrete2", "discrete3"):
                factors = tuple(preset_factor(preset) for _ in range(k))
                for i in range(k):
                    spec = product_spec(factors, principal_filter(mask(k, 1 << i)))
                    assert all(f.topology.is_hausdorff() for f in factors)
                    assert not f_topology(spec).is_hausdorff()


class TestFactorSlices:
    def test_slices_homeomorphic_for_box_topology(self):
        factors = (preset_factor("sierpinski"), preset_factor("discrete2"))
        spec = product_spec(factors, trivial_filter(2))
        t = f_topology(spec)
        idx = spec.indexing
        y = idx.decode_point(0)
        for i, f in enumerate(spec.factors):
            codes = []
            for xi in range(f.universe.size):
                coords = list(y)
                coords[i] = xi
                codes.append(idx.encode_point(coords))
            sub = subspace(t, SubsetMask.of(idx.total, codes))
            order = sorted(codes)
            fwd = tuple(idx.decode_point(c)[i] for c in order)
            inv = tuple(order.index(codes[xi]) for xi in range(f.universe.size))
            assert sorted(fwd) == list(range(f.universe.size))
            n = f.universe.size
            assert is_continuous(map_fibres(fwd, n), sub, f.topology)
            assert is_continuous(map_fibres(inv, n), f.topology, sub)
