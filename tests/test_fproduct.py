import collections
import dataclasses
import functools
import itertools
import json
import random

import pytest

from fprod import foundations, fproduct
from fprod.cli import main
from fprod.filters import principal_filter, trivial_filter
from fprod.foundations import (
    InputError,
    ProductIndexing,
    ResourceLimitError,
    SetFamily,
    SubsetMask,
    Universe,
    grid_walk,
    is_intersection_closed,
    map_fibres,
    shared_indexing,
)
from fprod.fproduct import (
    Box,
    _delta_groups,
    _point_boxes,
    Factor,
    ProductSpec,
    all_projections_continuous,
    box_delta,
    box_sigma,
    box_to_pointset,
    equalizers,
    f_filter,
    f_filter_base,
    f_filter_cores,
    f_filter_via_base,
    f_topology,
    f_topology_base,
    f_topology_via_base,
    filter_different,
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
    topologies_equal,
    topology_leq,
    validate_base,
)
from fprod.verifier import (
    default_grid,
    enumerate_filters,
    preset_factor,
    replay_witness,
    verify_proposition,
)


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


class TestBoxes:
    def test_all_full_box(self):
        b = Box((mask(2, 0b11), mask(2, 0b11)))
        assert box_delta(b) == mask(2, 0b11)
        assert box_sigma(b) == mask(2, 0b00)

    def test_one_pinned_side(self):
        b = Box((mask(2, 0b11), mask(2, 0b01)))
        assert box_delta(b) == mask(2, 0b01)
        assert box_sigma(b) == mask(2, 0b10)

    def test_delta_distributes_over_intersection(self):
        sides = [mask(2, b) for b in range(4)]
        for s1, s2, s3, s4 in itertools.product(sides, repeat=4):
            b1, b2 = Box((s1, s2)), Box((s3, s4))
            meet = Box(tuple(a & b for a, b in zip(b1.per_factor, b2.per_factor)))
            lhs = box_delta(meet)
            rhs = box_delta(b1) & box_delta(b2)
            assert lhs == rhs

    def test_sigma_complements_delta_randomized(self):
        rng = random.Random(7)
        shapes = [(2, 2), (2, 3), (3, 3, 2), (4,)]
        for _ in range(1000):
            shape = rng.choice(shapes)
            b = Box(tuple(mask(s, rng.randrange(1 << s)) for s in shape))
            assert box_sigma(b) == box_delta(b).complement()

    def test_pointset_examples(self):
        from fprod.foundations import ProductIndexing

        idx = ProductIndexing((2, 2))
        assert box_to_pointset(Box((mask(2, 0b01), mask(2, 0b01))), idx).bits == 0b0001
        assert box_to_pointset(Box((mask(2, 0b11), mask(2, 0b11))), idx).bits == 0b1111
        # second coordinate pinned to 1 -> codes 2 and 3
        got = box_to_pointset(Box((mask(2, 0b11), mask(2, 0b10))), idx)
        oracle = [c for c in range(4) if idx.decode_point(c)[1] == 1]
        assert got.elements() == tuple(oracle) == (2, 3)

    def test_pointset_empty_iff_some_side_empty(self):
        from fprod.foundations import ProductIndexing

        idx = ProductIndexing((2, 2))
        assert box_to_pointset(Box((mask(2, 0), mask(2, 0b11))), idx).is_empty

    def test_enumerator_yields_the_boxes_box_delta_accepts_in_order(self):
        # full and proper sides on mixed sizes, then empty sides and size-1
        # factors; each delta group holds its boxes in code order, and a base
        # is the union of the groups its member accepts
        cases = [
            ((2, 3, 1), [[0b01, 0b11], [0b111, 0b010, 0b110], [0b1]]),
            ((1, 2, 1), [[0b1, 0], [0b00, 0b10, 0b11], [0, 0b1]]),
        ]
        for sizes, side_lists in cases:
            groups = _delta_groups(side_lists, sizes)
            in_code_order = [c[::-1] for c in itertools.product(*reversed(side_lists))]
            deltas = [box_delta(Box(tuple(map(mask, sizes, c)))).bits for c in in_code_order]
            assert [d for d, _ in groups] == sorted(set(deltas))
            for d, group in groups:
                want = [box_oracle(c, sizes) for c, e in zip(in_code_order, deltas) if e == d]
                assert list(group) == want
            for accepted in range(1 << 8):
                member = lambda bits: accepted >> bits & 1  # noqa: E731
                got = [m for d, group in groups if member(d) for m in group]
                oracle = [
                    box_oracle(c, sizes)
                    for c in itertools.product(*side_lists)
                    if member(box_delta(Box(tuple(map(mask, sizes, c)))).bits)
                ]
                assert collections.Counter(got) == collections.Counter(oracle)
                assert fproduct._accepted(groups, member) == set(oracle)

    def test_pointset_size_mismatch(self):
        from fprod.foundations import ProductIndexing

        with pytest.raises(InputError):
            box_to_pointset(Box((mask(3, 0b111),)), ProductIndexing((2,)))


class TestBoxKernel:
    def test_matches_decoding_oracle_on_mixed_radices(self):
        # every single box: the kernel with one row per factor, and the Box route
        sizes = (2, 3, 1, 2)
        idx = ProductIndexing(sizes)
        for sides in itertools.product(*(range(1 << s) for s in sizes)):
            oracle = box_oracle(sides, sizes)
            assert list(_point_boxes([[side] for side in sides], sizes)) == [oracle]
            assert box_to_pointset(Box(tuple(map(mask, sizes, sides))), idx).bits == oracle


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
            table = foundations._walk.tables[_point_boxes.__wrapped__]
            assert table.cache_info().hits >= 400
            self.test_every_row_choice_on_small_sizes()  # more inputs than the bound: evicts


def box_base_oracle(side_lists, idx, member):
    """The box base by the Box route: every accepted Box, each through box_to_pointset."""
    boxes = [Box(c) for c in itertools.product(*side_lists)]
    pointsets = [box_to_pointset(b, idx) for b in boxes if member(box_delta(b).bits)]
    return SetFamily.of(idx.total, pointsets)


def topology_base_oracle(spec, member):
    opens = [[m for m in f.topology.opens() if not m.is_empty] for f in spec.factors]
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


class TestBoxBasesAgainstTheBoxRoute:
    """The bit-level bases against the Box/box_to_pointset route they replace.

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

    def test_filter_cores_match_one_box_per_choice(self):
        size_tuples = [
            sizes for k in (1, 2, 3) for sizes in itertools.product((1, 2), repeat=k)
        ] + [(3, 2)]
        for sizes in size_tuples:
            rows = [list(range(1 << s)) for s in sizes]  # every core, any count per factor
            for index_core in range(1 << len(sizes)):
                want = filter_cores_oracle(index_core, rows, sizes)
                assert list(f_filter_cores(index_core, rows, shared_indexing(sizes))) == want
                cores = [[r[-1]] for r in rows]  # one core per factor, as f_filter takes them
                assert list(f_filter_cores(index_core, cores, shared_indexing(sizes))) == [want[-1]]

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
    def test_filter_cores_reject_rows_or_core_off_the_indexing(self, index_core, rows, sizes):
        with pytest.raises(InputError):
            f_filter_cores(index_core, rows, shared_indexing(sizes))


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
            tables = foundations._walk.tables
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
        assert topologies_equal(t, discrete(4))

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

    @pytest.mark.parametrize("prop", ["P4.5", "P5.ind"])
    def test_definitional_checks_build_the_box_base(self, monkeypatch, prop):
        reads = []
        original = fproduct._delta_groups

        def counted(*args):
            reads.append(args)
            return original(*args)

        monkeypatch.setattr(fproduct, "_delta_groups", counted)
        grid = dataclasses.replace(default_grid(prop), max_instances=3)
        report = verify_proposition(prop, grid)
        assert report.checked == 3 and len(reads) == 3  # one grouped-table read per instance

    @pytest.mark.parametrize("prop", ["P4.5", "P5.ind"])
    def test_definitional_checks_catch_a_table_without_the_least_box_of_each_group(
        self, monkeypatch, prop
    ):
        original = fproduct._delta_groups

        def without_the_least_box(side_lists, factor_sizes):
            return tuple((d, tuple(sorted(g)[1:])) for d, g in original(side_lists, factor_sizes))

        monkeypatch.setattr(fproduct, "_delta_groups", without_the_least_box)
        report = verify_proposition(prop)
        assert not report.passed and report.witness is not None
        assert report.witness["detail"] == {"box_family_is_base": False}
        ok, detail = replay_witness(prop, report.witness)
        assert not ok and detail == report.witness["detail"]

    @pytest.mark.parametrize(
        "prop, count", [("P4.5", 4624), ("P5.ind", 324), ("P5.2", 324), ("P2.1", 270)]
    )
    def test_via_base_generates_the_box_base_on_the_default_grid(self, prop, count):
        # uniformity factors are read through their induced topologies, as P5.ind
        # reads them; P2.1's delta families include the ones that give no base
        from fprod.uniformity import induced_topology
        from fprod.verifier import _REGISTRY

        checked = not_bases = 0
        for inst in _REGISTRY[prop].instances(default_grid(prop)):
            spec, fam = inst if isinstance(inst, tuple) else (inst, None)
            if spec.factors[0].topology is None:
                induced = (Factor(f.universe, topology=induced_topology(f.uniformity)) for f in spec.factors)
                spec = ProductSpec(spec.index_universe, tuple(induced), spec.index_filter)
            if fam is not None and not is_intersection_closed(fam):  # Proposition 2.1: no base
                with pytest.raises(InputError, match="^family is not a topology base$"):
                    generate_topology(f_topology_base(spec, fam))
                with pytest.raises(InputError, match="^family is not a topology base$"):
                    f_topology_via_base(spec, fam)
                not_bases += 1
            else:
                assert f_topology_via_base(spec, fam) == generate_topology(f_topology_base(spec, fam))
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
        assert fibre_union(0, mask(2, 0b11), idx).is_full
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
        assert equalizers(spec)[3].is_full

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
                        assert (sigmas[x] & sigmas[y]).is_empty

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
                    assert ff == f_filter_via_base(spec)
                    members = [f.filter.members().members for f in factors]
                    oracle = box_base_oracle(members, spec.indexing, fil.member_bits)
                    assert f_filter_base(spec) == oracle
                    cores = [f.filter.core.bits for f in factors]
                    sizes = spec.indexing.factor_sizes
                    want = filter_cores_oracle(fil.core.bits, [[c] for c in cores], sizes)
                    assert [ff.core.bits] == want
                    checked += 1
        assert checked == 11 * 2 + 11**2 * 4 + 11**3 * 8

    def test_projection_identity_for_trivial_filter(self):
        from fprod.filters import pushforward

        spec = product_spec(filter_factors([0b01, 0b10]), trivial_filter(2))
        ff = f_filter(spec)
        idx = spec.indexing
        for i, f in enumerate(spec.factors):
            assert pushforward(projection_fibres(i, idx), ff) == f.filter

    def test_projection_strictly_smaller_for_pinned_coordinate(self):
        from fprod.filters import filter_leq, pushforward

        spec = product_spec(filter_factors([0b01, 0b01]), principal_filter(mask(2, 0b01)))
        ff = f_filter(spec)
        idx = spec.indexing
        proj = pushforward(projection_fibres(0, idx), ff)
        assert proj == principal_filter(mask(2, 0b11))  # the indiscrete filter
        assert filter_leq(proj, spec.factors[0].filter)
        assert proj != spec.factors[0].filter

    def test_base_is_a_filter_base(self):
        from fprod.filters import validate_filter_base

        for fil in enumerate_filters(2, include_trivial=True):
            spec = product_spec(filter_factors([0b01, 0b10]), fil)
            assert validate_filter_base(f_filter_base(spec))

    def test_trivial_factor_filter_rejected(self):
        f = Factor(Universe.points(2), filter=trivial_filter(2))
        spec = product_spec((f,), trivial_filter(1))
        with pytest.raises(InputError):
            f_filter(spec)


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
    def test_p45_builds_the_box_base_once_per_instance_and_one_kernel_core_per_point(
        self, monkeypatch
    ):
        from fprod import verifier

        reads, kernel_calls = [], []
        original_groups, original_cores = fproduct._delta_groups, verifier.f_filter_cores

        def counted_groups(side_lists, factor_sizes):
            reads.append((side_lists, factor_sizes))
            return original_groups(side_lists, factor_sizes)

        def counted_cores(index_core, core_rows, idx):
            cores = original_cores(index_core, core_rows, idx)
            kernel_calls.append((idx, len(cores)))
            return cores

        def refused(*args, **kwargs):
            raise AssertionError("P4.5 builds no product filter spec per point")

        built, yielded = [], []
        original_post_init, entry = ProductSpec.__post_init__, verifier._REGISTRY["P4.5"]

        def counted_post_init(self):
            built.append(self)
            original_post_init(self)

        def recorded_instances(grid):
            for spec in entry.instances(grid):
                yielded.append(spec)
                yield spec

        monkeypatch.setattr(fproduct, "_delta_groups", counted_groups)
        monkeypatch.setattr(verifier, "f_filter_cores", counted_cores)
        monkeypatch.setattr(verifier, "f_filter", refused)
        monkeypatch.setattr(ProductSpec, "__post_init__", counted_post_init)
        monkeypatch.setitem(
            verifier._REGISTRY, "P4.5", dataclasses.replace(entry, instances=recorded_instances)
        )
        grid = dataclasses.replace(default_grid("P4.5"), max_instances=40)
        report = verify_proposition("P4.5", grid)
        assert report.passed and len(reads) == report.checked == 40
        # the only product specs built are the generator's: one per instance,
        # plus the 41st that shows the grid goes on
        specs = yielded[:40]
        assert len(yielded) == 41
        assert list(map(id, built)) == list(map(id, yielded))
        # one grouped-table read per instance, of its factors' nonempty open sets
        assert reads == [
            (tuple(f.topology.opens().bits[1:] for f in spec.factors), spec.indexing.factor_sizes)
            for spec in specs
        ]
        # one kernel call per instance, returning one core per point
        assert kernel_calls == [(spec.indexing, spec.indexing.total) for spec in specs]

    def test_p45_catches_a_kernel_that_ignores_the_index_core(self, monkeypatch):
        from fprod import verifier

        original = verifier.f_filter_cores
        monkeypatch.setattr(
            verifier, "f_filter_cores", lambda _core, rows, idx: original(0, rows, idx)
        )
        report = verify_proposition("P4.5")
        assert not report.passed and report.witness is not None
        ok, detail = replay_witness("P4.5", report.witness)
        assert not ok and detail == report.witness["detail"]
        # the witness names the first point whose neighbourhoods differ
        from fprod.serialize import parse_instance, product_point_label

        spec = parse_instance(report.witness["instance"])
        rows = [f.topology.mins for f in spec.factors]
        pairs = zip(f_topology(spec).mins, original(0, rows, spec.indexing))
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
        assert (sx & sy).is_empty
        assert t.is_dense(sx) and t.is_dense(sy)
        witness = find_disjoint_dense(t, 2)
        assert witness is not None
        assert all(t.is_dense(w) for w in witness)
        assert (witness[0] & witness[1]).is_empty

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
