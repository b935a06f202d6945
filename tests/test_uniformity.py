import itertools
import random

import pytest

from fprod.filters import principal_filter, trivial_filter, validate_filter_base
from fprod.foundations import (
    InputError,
    ResourceLimitError,
    SetFamily,
    SubsetMask,
    Universe,
    grid_walk,
    map_fibres,
)
from fprod.fproduct import Box, Factor, box_delta, f_uniformity, f_uniformity_base, product_spec
from fprod.topology import discrete, indiscrete, is_continuous, topologies_equal
from fprod.uniformity import (
    Relation,
    Uniformity,
    compose,
    diagonal,
    entourage_ball,
    enumerate_uniformity_bases,
    generate_uniformity,
    induced_topology,
    inverse,
    is_uniformly_continuous,
    validate_uniformity_base,
)
from fprod.verifier import _REGISTRY, default_grid, enumerate_filters


def rel(n, pairs):
    return Relation.from_pairs(n, pairs)


def compose_oracle(g, h):
    """Definitional triple loop."""
    n = g.point_count
    out = []
    for x in range(n):
        for z in range(n):
            if any(g.contains(x, y) and h.contains(y, z) for y in range(n)):
                out.append((x, z))
    return Relation.from_pairs(n, out)


def all_relations(n):
    sq = n * n
    return [Relation(n, SubsetMask(sq, bits)) for bits in range(1 << sq)]


def partition_uniformity(n, blocks):
    """Uniformity whose minimal entourage is the given partition."""
    pairs = [(x, y) for block in blocks for x in block for y in block]
    m = rel(n, pairs)
    return generate_uniformity(SetFamily.of(n * n, [m.pairs]))


def all_partitions(n):
    if n == 1:
        return [[[0]]]
    out = []
    for smaller in all_partitions(n - 1):
        for i in range(len(smaller)):
            copy = [list(b) for b in smaller]
            copy[i].append(n - 1)
            out.append(copy)
        out.append([list(b) for b in smaller] + [[n - 1]])
    return out


class TestRelationAlgebra:
    def test_diagonal_is_identity_for_composition(self):
        for n in (1, 2, 3):
            d = diagonal(n)
            for r in all_relations(n):
                assert compose(d, r) == r
                assert compose(r, d) == r

    def test_single_pair_composition(self):
        g = rel(3, [(0, 1)])
        h = rel(3, [(1, 2)])
        assert compose(g, h) == rel(3, [(0, 2)])

    def test_compose_matches_oracle_and_associates(self):
        rng = random.Random(4181)
        n = 4
        for _ in range(200):
            g, h, k = (
                Relation(n, SubsetMask(16, rng.randrange(1 << 16))) for _ in range(3)
            )
            assert compose(g, h) == compose_oracle(g, h)
            assert compose(compose(g, h), k) == compose(g, compose(h, k))

    def test_inverse_examples(self):
        assert inverse(diagonal(3)) == diagonal(3)
        assert inverse(rel(2, [(0, 1)])) == rel(2, [(1, 0)])

    def test_inverse_antidistributes_over_composition(self):
        rng = random.Random(2718)
        for _ in range(200):
            g = Relation(3, SubsetMask(9, rng.randrange(1 << 9)))
            h = Relation(3, SubsetMask(9, rng.randrange(1 << 9)))
            assert inverse(compose(g, h)) == compose(inverse(h), inverse(g))

    def test_rows_round_trip(self):
        for n in (1, 2, 3):
            for r in all_relations(n):
                assert r.rows() == tuple(r.row_bits(x) for x in range(n))
                assert Relation.from_rows(r.rows()) == r

    def test_from_rows_rejects_a_row_out_of_range(self):
        with pytest.raises(InputError):
            Relation.from_rows((0b01, 0b100))

    def test_inverse_is_an_involution(self):
        for r in all_relations(2):
            assert inverse(inverse(r)) == r

    def test_diagonal_shape(self):
        assert diagonal(1).pair_list() == ((0, 0),)
        d3 = diagonal(3)
        assert len(d3.pair_list()) == 3
        assert inverse(d3) == d3
        assert compose(d3, d3) == d3

    def test_domain_diagonal_inside_r_after_r_inverse(self):
        def check(r):
            n = r.point_count
            back = compose(r, inverse(r))
            for x in range(n):
                if r.row_bits(x):
                    assert back.contains(x, x)

        for n in (1, 2, 3):
            for r in all_relations(n):
                check(r)
        rng = random.Random(31)
        for _ in range(500):
            check(Relation(4, SubsetMask(16, rng.randrange(1 << 16))))


class TestUniformityBase:
    def test_diagonal_base(self):
        assert validate_uniformity_base(SetFamily.of(4, [diagonal(2).pairs]))

    def test_full_square_base(self):
        assert validate_uniformity_base(SetFamily.of(4, [SubsetMask.full(4)]))

    def test_asymmetric_member_fails_inverse_condition(self):
        r = rel(2, [(0, 0), (1, 1), (0, 1)])
        assert not validate_uniformity_base(SetFamily.of(4, [r.pairs]))

    def test_missing_diagonal_fails(self):
        r = rel(2, [(0, 1), (1, 0)])
        assert not validate_uniformity_base(SetFamily.of(4, [r.pairs]))

    def validate_oracle(self, fam, n):
        rels = [Relation(n, m) for m in fam.members]
        diag = diagonal(n)
        c1 = all(diag.pairs.issubset(r.pairs) for r in rels)
        c2 = all(
            any(b.pairs.issubset(inverse(u).pairs) for b in rels) for u in rels
        )
        c3 = all(
            any(compose(v, v).pairs.issubset(u.pairs) for v in rels) for u in rels
        )
        c4 = all(
            any(w.pairs.issubset(u.pairs & v.pairs) for w in rels)
            for u in rels
            for v in rels
        )
        return bool(rels) and c1 and c2 and c3 and c4

    def test_matches_four_condition_oracle_on_two_points(self):
        reflexive = [r for r in all_relations(2) if diagonal(2).pairs.issubset(r.pairs)]
        count = 0
        for size in range(1, len(reflexive) + 1):
            for combo in itertools.combinations(reflexive, size):
                fam = SetFamily.of(4, [r.pairs for r in combo])
                got = validate_uniformity_base(fam)
                assert got == self.validate_oracle(fam, 2)
                count += got
        assert count == 9

    def test_matches_four_condition_oracle_on_the_p52_box_families(self):
        checked = positives = 0
        with grid_walk():
            for spec in _REGISTRY["P5.2"].instances(default_grid("P5.2")):
                fam = f_uniformity_base(spec)
                got = validate_uniformity_base(fam)
                assert got == self.validate_oracle(fam, spec.indexing.total)
                checked += 1
                positives += got
        assert checked == 324 and positives == 324

    def test_matches_four_condition_oracle_on_a_sample_of_three_point_families(self):
        # 2,000 seeded families of 1 to 5 reflexive relations on 3 points; half
        # also hold their meet, so that the meet test is not decided at once
        reflexive = [r.pairs.bits for r in all_relations(3) if diagonal(3).pairs.issubset(r.pairs)]
        rng = random.Random(18)
        verdicts = set()
        for k in range(2000):
            members = rng.sample(reflexive, rng.randint(1, 5))
            if k % 2:
                meet = members[0]
                for b in members:
                    meet &= b
                members.append(meet)
            fam = SetFamily(9, sorted(set(members)))
            got = validate_uniformity_base(fam)
            assert got == self.validate_oracle(fam, 3)
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_enumeration_matches_scan(self):
        bases = enumerate_uniformity_bases(2)
        assert len(bases) == 9
        for fam in bases:
            assert validate_uniformity_base(fam)
        with pytest.raises(InputError):
            enumerate_uniformity_bases(3)


class TestGenerateUniformity:
    def test_superset_count_above_diagonal(self):
        u = generate_uniformity(SetFamily.of(4, [diagonal(2).pairs]))
        assert len(u.members()) == 2 ** (4 - 2)

    def test_full_square_has_one_member(self):
        u = generate_uniformity(SetFamily.of(4, [SubsetMask.full(4)]))
        assert len(u.members()) == 1

    def test_invalid_base_rejected(self):
        with pytest.raises(InputError):
            generate_uniformity(SetFamily.of(4, [rel(2, [(0, 1), (1, 0)]).pairs]))

    @pytest.mark.parametrize(
        "n, rows",
        [
            (2, rel(2, [(0, 0)]).rows()),  # not reflexive
            (2, rel(2, [(0, 0), (1, 1), (0, 1)]).rows()),  # not symmetric
            # not transitive
            (3, rel(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)]).rows()),
            (3, (0b011, 0b011)),  # too few rows
            (0, ()),  # no points
            (2, (0b101, 0b010)),  # a bit at or above n
            (3, (0b011, 0b110, 0b100)),  # each row reflexive, yet the rows do not partition
        ],
    )
    def test_rejects_a_minimal_entourage_that_is_not_an_equivalence(self, n, rows):
        with pytest.raises(InputError):
            Uniformity(n, rows)

    def axiom_oracle(self, u):
        n = u.point_count
        members = [Relation(n, m) for m in u.members()]
        member_bits = {m.pairs.bits for m in members}
        diag = diagonal(n)
        assert all(diag.pairs.issubset(m.pairs) for m in members)
        assert all(inverse(m).pairs.bits in member_bits for m in members)
        assert all(
            any(compose(v, v).pairs.issubset(m.pairs) for v in members)
            for m in members
        )
        for a, b in itertools.combinations(members, 2):
            assert (a.pairs & b.pairs).bits in member_bits
        # superset closure and being a proper filter on the pair universe
        fam = SetFamily.of(n * n, [m.pairs for m in members])
        assert validate_filter_base(fam)
        full = (1 << (n * n)) - 1
        for m in members:
            for sup in range(1 << (n * n)):
                if m.pairs.bits & ~sup == 0 and sup <= full:
                    assert sup in member_bits

    def test_all_axioms_on_every_two_point_base(self):
        for fam in enumerate_uniformity_bases(2):
            self.axiom_oracle(generate_uniformity(fam))

    def test_all_axioms_on_three_point_partition_uniformities(self):
        for blocks in all_partitions(3):
            self.axiom_oracle(partition_uniformity(3, blocks))


class TestEntourageBalls:
    def test_diagonal_ball(self):
        assert entourage_ball(diagonal(3), 1) == SubsetMask.of(3, [1])

    def test_full_ball(self):
        assert entourage_ball(Relation.full(2), 0) == SubsetMask.full(2)

    def test_asymmetric_rows(self):
        u = rel(2, [(0, 0), (1, 1), (0, 1)])
        assert entourage_ball(u, 0) == SubsetMask.of(2, [0, 1])
        assert entourage_ball(u, 1) == SubsetMask.of(2, [1])


class TestInducedTopology:
    def test_diagonal_gives_discrete(self):
        u = generate_uniformity(SetFamily.of(4, [diagonal(2).pairs]))
        assert topologies_equal(induced_topology(u), discrete(2))

    def test_full_square_gives_indiscrete(self):
        u = generate_uniformity(SetFamily.of(4, [SubsetMask.full(4)]))
        assert topologies_equal(induced_topology(u), indiscrete(2))

    def test_matches_definition_oracle(self):
        cases = [generate_uniformity(f) for f in enumerate_uniformity_bases(2)]
        cases += [partition_uniformity(3, b) for b in all_partitions(3)]
        for u in cases:
            n = u.point_count
            t = induced_topology(u)
            members = [Relation(n, m) for m in u.members()]
            for bits in range(1 << n):
                g = SubsetMask(n, bits)
                oracle = all(
                    any(entourage_ball(m, x).issubset(g) for m in members)
                    for x in g
                )
                assert t.is_open(g) == oracle


class TestUniformContinuity:
    def test_identity(self):
        u = generate_uniformity(SetFamily.of(4, [diagonal(2).pairs]))
        assert is_uniformly_continuous(map_fibres((0, 1), 2), u, u)

    def test_into_coarsest(self):
        dom = generate_uniformity(SetFamily.of(4, [diagonal(2).pairs]))
        cod = generate_uniformity(SetFamily.of(4, [SubsetMask.full(4)]))
        for f_map in itertools.product(range(2), repeat=2):
            assert is_uniformly_continuous(map_fibres(f_map, 2), dom, cod)

    def test_identity_from_coarse_to_fine_fails(self):
        coarse = generate_uniformity(SetFamily.of(4, [SubsetMask.full(4)]))
        fine = generate_uniformity(SetFamily.of(4, [diagonal(2).pairs]))
        assert not is_uniformly_continuous(map_fibres((0, 1), 2), coarse, fine)

    def test_matches_base_walking_definition_on_two_points(self):
        # for every V in the codomain base, some U in the domain base maps into V
        bases = enumerate_uniformity_bases(2)
        checked = 0
        for dom_base, cod_base in itertools.product(bases, repeat=2):
            u_dom, u_cod = generate_uniformity(dom_base), generate_uniformity(cod_base)
            for f_map in itertools.product(range(2), repeat=2):
                oracle = all(
                    any(
                        all(
                            v.bits >> (f_map[x] * 2 + f_map[y]) & 1
                            for x, y in Relation(2, u).pair_list()
                        )
                        for u in dom_base
                    )
                    for v in cod_base
                )
                assert is_uniformly_continuous(map_fibres(f_map, 2), u_dom, u_cod) == oracle
                checked += 1
        assert checked == 9 * 9 * 4

    def test_rejects_a_map_off_either_universe(self):
        u = generate_uniformity(SetFamily.of(4, [diagonal(2).pairs]))
        with pytest.raises(InputError, match="not total on the domain"):
            is_uniformly_continuous(map_fibres((0,), 2), u, u)
        with pytest.raises(InputError, match="out of codomain range"):
            is_uniformly_continuous(map_fibres((0, 2), 2), u, u)

    def test_implies_topological_continuity(self):
        spaces = []
        for n in (2, 3):
            for blocks in all_partitions(n):
                spaces.append(partition_uniformity(n, blocks))
        for u_dom, u_cod in itertools.product(spaces, repeat=2):
            n, m = u_dom.point_count, u_cod.point_count
            t_dom, t_cod = induced_topology(u_dom), induced_topology(u_cod)
            for f_map in itertools.product(range(m), repeat=n):
                fibres = map_fibres(f_map, m)
                if is_uniformly_continuous(fibres, u_dom, u_cod):
                    assert is_continuous(fibres, t_dom, t_cod)


def diagonal_base_factor():
    return Factor(Universe.points(2), uniformity_base=SetFamily.of(4, [diagonal(2).pairs]))


def uniformity_base_oracle(spec):
    """The entourage-box base by the Box route: each accepted Box, read pair by pair."""
    idx = spec.indexing
    total, sizes = idx.total, idx.factor_sizes
    side_lists = [
        sorted(set(f.uniformity_base.members) | {SubsetMask.full(s * s)}, key=lambda m: m.bits)
        for s, f in zip(sizes, spec.factors)
    ]
    relations = []
    for choice in itertools.product(*side_lists):
        if not spec.index_filter.member_bits(box_delta(Box(choice)).bits):
            continue
        points = [idx.decode_point(x) for x in range(total)]
        pairs = [
            (x, y)
            for x, xs in enumerate(points)
            for y, ys in enumerate(points)
            if all(r.bits >> (a * s + b) & 1 for r, a, b, s in zip(choice, xs, ys, sizes))
        ]
        relations.append(rel(total, pairs).pairs)
    return SetFamily.of(total * total, relations)


class TestProductUniformity:
    def test_factor_generates_its_uniformity_once(self):
        base = SetFamily.of(4, [diagonal(2).pairs, SubsetMask.full(4)])
        f = Factor(Universe.points(2), uniformity_base=base)
        assert f.uniformity == generate_uniformity(base)
        assert Factor(Universe.points(2)).uniformity is None

    def test_factor_rejects_an_invalid_base(self):
        not_reflexive = SetFamily.of(4, [rel(2, [(0, 1)]).pairs])
        with pytest.raises(InputError):
            Factor(Universe.points(2), uniformity_base=not_reflexive)

    def test_trivial_filter_diagonal_bases_contain_product_diagonal(self):
        spec = product_spec(
            (diagonal_base_factor(), diagonal_base_factor()), trivial_filter(2)
        )
        u = f_uniformity(spec)
        assert u.minimal_entourage() == diagonal(4)

    def test_pinned_coordinate_minimal_entourage(self):
        spec = product_spec(
            (diagonal_base_factor(), diagonal_base_factor()),
            principal_filter(SubsetMask.of(2, [0])),
        )
        u = f_uniformity(spec)
        m = u.minimal_entourage()
        idx = spec.indexing
        for x in range(4):
            for y in range(4):
                agrees_at_second = idx.decode_point(x)[1] == idx.decode_point(y)[1]
                assert m.contains(x, y) == agrees_at_second

    def test_base_validates_for_every_filter_and_base_pair(self):
        bases = enumerate_uniformity_bases(2)
        for b1, b2 in itertools.product(bases, repeat=2):
            factors = (
                Factor(Universe.points(2), uniformity_base=b1),
                Factor(Universe.points(2), uniformity_base=b2),
            )
            for fil in enumerate_filters(2, include_trivial=True):
                spec = product_spec(factors, fil)
                assert validate_uniformity_base(f_uniformity_base(spec))

    def test_induces_the_product_topology(self):
        bases = enumerate_uniformity_bases(2)
        for b1, b2 in itertools.product(bases, repeat=2):
            factors = (
                Factor(Universe.points(2), uniformity_base=b1),
                Factor(Universe.points(2), uniformity_base=b2),
            )
            for fil in enumerate_filters(2, include_trivial=True):
                spec = product_spec(factors, fil)
                lhs = induced_topology(f_uniformity(spec))
                topo_factors = tuple(
                    Factor(
                        f.universe,
                        topology=induced_topology(generate_uniformity(f.uniformity_base)),
                    )
                    for f in spec.factors
                )
                from fprod.fproduct import ProductSpec, f_topology

                rhs = f_topology(ProductSpec(spec.index_universe, topo_factors, fil))
                assert topologies_equal(lhs, rhs)

    def test_closed_form_agrees_with_box_base(self):
        pool = [
            Factor(Universe.points(n), uniformity_base=b)
            for n in (1, 2)
            for b in enumerate_uniformity_bases(n)
        ]
        checked = 0
        for k in (1, 2):
            for factors in itertools.product(pool, repeat=k):
                for fil in enumerate_filters(k, include_trivial=True):
                    spec = product_spec(factors, fil)
                    base = f_uniformity_base(spec)
                    assert base == uniformity_base_oracle(spec)
                    via_base = generate_uniformity(base)
                    assert f_uniformity(spec).minimal_entourage() == via_base.minimal_entourage()
                    checked += 1
        assert checked == 420

    @pytest.mark.parametrize("prop", ["P5.2", "P5.ind"])
    def test_box_base_matches_the_per_choice_oracle_on_the_default_grid(self, prop):
        # inside a walk, as verify runs it: each factor tuple's relations are
        # built once and shared by every index filter
        checked = 0
        with grid_walk():
            for spec in _REGISTRY[prop].instances(default_grid(prop)):
                assert f_uniformity_base(spec) == uniformity_base_oracle(spec)
                checked += 1
        assert checked == 324

    def test_squared_cap_fires(self):
        # 2**7 = 128 points fit under the cap; their 4**7 = 16,384 pairs do not
        spec = product_spec((diagonal_base_factor(),) * 7, trivial_filter(7))
        assert spec.indexing.total == 128
        with pytest.raises(ResourceLimitError, match="product size 16384 exceeds cap 4096"):
            f_uniformity(spec)
        with pytest.raises(ResourceLimitError):
            f_uniformity_base(spec)

    def test_missing_base_rejected(self):
        f = Factor(Universe.points(2), topology=discrete(2))
        spec = product_spec((f,), trivial_filter(1))
        with pytest.raises(InputError):
            f_uniformity(spec)

    def test_single_factor_products(self):
        from fprod.fproduct import ProductSpec, f_topology

        for base in enumerate_uniformity_bases(2):
            factor = Factor(Universe.points(2), uniformity_base=base)
            induced_factor = Factor(
                factor.universe, topology=induced_topology(generate_uniformity(base))
            )
            for fil in enumerate_filters(1, include_trivial=True):
                spec = product_spec((factor,), fil)
                got = f_uniformity_base(spec)
                assert validate_uniformity_base(got)
                lhs = induced_topology(f_uniformity(spec))
                rhs = f_topology(
                    ProductSpec(spec.index_universe, (induced_factor,), fil)
                )
                assert topologies_equal(lhs, rhs)
