import functools
import itertools
import operator
import random
import time
import tracemalloc

import pytest

from fprod.filters import principal_filter
from fprod.foundations import (
    InputError,
    ResourceLimitError,
    SetFamily,
    SubsetMask,
    map_fibres,
)
from fprod.topology import (
    NotABaseError,
    Topology,
    discrete,
    enumerate_topologies,
    find_disjoint_dense,
    generate_topology,
    indiscrete,
    is_continuous,
    mins_within,
    point_preimages,
    sierpinski,
    subspace,
    topology_leq,
    validate_base,
)
from fprod.verifier import OUT_OF_SCOPE, _REGISTRY


def small_topologies():
    """Every topology on 1..4 points."""
    return [t for n in range(1, 5) for t in enumerate_topologies(n)]


@functools.lru_cache(maxsize=None)
def p45_product_topologies():
    """Every distinct product topology of P4.5's default grid.

    Size bound: 1,121 topologies on up to 9 points (two factors, each a
    topology on 1..3 points, under every filter on the 2-point index set).
    """
    from fprod.fproduct import f_topology
    from fprod.verifier import _REGISTRY, default_grid

    found = {f_topology(spec) for spec in _REGISTRY["P4.5"].instances(default_grid("P4.5"))}
    return sorted(found, key=lambda t: (t.universe_size, t.mins))


def separated_by_opens(t):
    """The Hausdorff definition read off opens(): distinct points have disjoint open neighbourhoods."""
    opens = t.opens().bits
    return all(
        any(u >> x & 1 and v >> y & 1 and not u & v for u in opens for v in opens)
        for x, y in itertools.combinations(range(t.universe_size), 2)
    )


def disjoint_dense_search(t, n):
    """Search for n pairwise-disjoint dense subsets.

    The definition that find_disjoint_dense answers in closed form. Exhaustive backtracking over subsets in ascending bit-vector order, so the
    returned witness is the lexicographically least sequence; a branch is cut
    as soon as the unclaimed remainder is not dense itself.
    """
    if n < 1:
        raise InputError("need n >= 1 dense sets")
    size = t.universe_size
    if size > 16:
        raise ResourceLimitError("disjoint-dense search capped at 16 points")
    neighbourhoods = t.base.bits

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


def fam(n, *bit_sets):
    return SetFamily.of(n, [SubsetMask(n, b) for b in bit_sets])


def validate_base_oracle(family):
    """Literal base criterion: coverage plus the pairwise point condition."""
    n = family.universe_size
    bits = [m.bits for m in family.members]
    union = 0
    for b in bits:
        union |= b
    if union != (1 << n) - 1:
        return False
    for b1, b2 in itertools.product(bits, repeat=2):
        meet = b1 & b2
        for x in range(n):
            if meet >> x & 1:
                if not any(b3 >> x & 1 and b3 & ~meet == 0 for b3 in bits):
                    return False
    return True


def union_closure_oracle(family):
    """All unions of subfamilies, directly."""
    bits = [m.bits for m in family.members]
    out = set()
    for r in range(len(bits) + 1):
        for combo in itertools.combinations(bits, r):
            acc = 0
            for b in combo:
                acc |= b
            out.add(acc)
    return sorted(out)


def all_families(n):
    for fam_bits in range(1 << (1 << n)):
        yield SetFamily.of(
            n, [SubsetMask(n, m) for m in range(1 << n) if fam_bits >> m & 1]
        )


def random_valid_base(rng, n):
    """Random family closed under intersections plus the whole space."""
    masks = {(1 << n) - 1}
    for _ in range(rng.randrange(1, 6)):
        masks.add(rng.randrange(1, 1 << n))
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(masks), 2):
            if a & b and a & b not in masks:
                masks.add(a & b)
                changed = True
    return SetFamily.of(n, [SubsetMask(n, b) for b in masks])


class TestValidateBase:
    def test_discrete_base(self):
        assert validate_base(fam(2, 0b01, 0b10))

    def test_overlap_without_refinement(self):
        assert not validate_base(fam(3, 0b011, 0b110))

    def test_agrees_with_oracle_on_all_3_point_families(self):
        for family in all_families(3):
            assert validate_base(family) == validate_base_oracle(family)


class TestGenerateTopology:
    def test_discrete_opens(self):
        t = generate_topology(fam(2, 0b01, 0b10))
        assert [m.bits for m in t.opens()] == [0b00, 0b01, 0b10, 0b11]

    def test_indiscrete_opens(self):
        t = generate_topology(fam(2, 0b11))
        assert [m.bits for m in t.opens()] == [0b00, 0b11]

    def test_sierpinski_opens(self):
        t = generate_topology(fam(2, 0b01, 0b11))
        assert [m.bits for m in t.opens()] == union_closure_oracle(t.base) == [0, 1, 3]

    def test_invalid_base_rejected(self):
        with pytest.raises(InputError):
            generate_topology(fam(3, 0b011, 0b110))

    def test_opens_match_union_closure_oracle_on_3_points(self):
        for family in all_families(3):
            if validate_base(family):
                t = generate_topology(family)
                assert [m.bits for m in t.opens()] == union_closure_oracle(family)

    def test_every_family_on_up_to_four_points_generates_iff_it_meets_the_point_criterion(self):
        # all 65,812 families, the empty one included: generate_topology builds the
        # point meets unchecked, so each accepted base is checked here against the
        # validating constructor and against the unions of its members
        bases = 0
        for n in range(1, 5):
            for fam_bits in range(1 << (1 << n)):
                members = [m for m in range(1 << n) if fam_bits >> m & 1]
                family = SetFamily(n, members)
                through = [[m for m in members if m >> x & 1] for x in range(n)]
                meets = [functools.reduce(operator.and_, ms, (1 << n) - 1) for ms in through]
                if not all(ms and meet in members for ms, meet in zip(through, meets)):
                    with pytest.raises(NotABaseError):
                        generate_topology(family)
                    continue
                unions = {0}
                for m in members:
                    unions |= {u | m for u in unions}
                t = generate_topology(family)
                assert t == Topology(n, meets)
                assert t.opens().bits == tuple(sorted(unions))
                bases += 1
        assert bases == 11_644

    def test_opens_match_oracle_on_random_4_point_bases(self):
        rng = random.Random(52)
        for _ in range(100):
            family = random_valid_base(rng, 4)
            assert validate_base(family)
            t = generate_topology(family)
            assert [m.bits for m in t.opens()] == union_closure_oracle(family)


class TestRepresentation:
    @pytest.mark.parametrize(
        "n, mins",
        [
            (2, (0b01,)),  # wrong length
            (2, (0b01, 0b01)),  # point 1 missing from its own neighbourhood
            (3, (0b011, 0b110, 0b100)),  # 1 in U_0 but U_1 not inside U_0
            (2, (0b101, 0b10)),  # bit out of range
        ],
    )
    def test_rejects_a_vector_that_is_not_a_preorder(self, n, mins):
        with pytest.raises(InputError):
            Topology(n, mins)
        with pytest.raises(InputError):
            generate_topology(SetFamily(n, sorted(set(mins))))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_smallest_base_generates_the_same_topology(self, n):
        for t in enumerate_topologies(n):
            assert generate_topology(t.base) == t

    def test_equal_structures_compare_and_hash_equal(self):
        generated = generate_topology(fam(2, 0b01, 0b10, 0b11))
        assert discrete(2) == generated
        assert hash(discrete(2)) == hash(generated)


class TestOpensCap:
    def test_opens_answer_at_twenty_points_and_raise_at_twenty_one(self):
        assert [m.bits for m in indiscrete(20).opens()] == [0, (1 << 20) - 1]
        with pytest.raises(ResourceLimitError, match="capped at universe size 20"):
            indiscrete(21).opens()


class TestIsOpen:
    def test_sierpinski_cases(self):
        t = sierpinski()
        assert t.is_open(SubsetMask(2, 0b01))
        assert not t.is_open(SubsetMask(2, 0b10))

    def test_matches_materialized_opens(self):
        for family in all_families(3):
            if not validate_base(family):
                continue
            t = generate_topology(family)
            opens = {m.bits for m in t.opens()}
            for bits in range(8):
                assert t.is_open(SubsetMask(3, bits)) == (bits in opens)

    def test_matches_materialized_opens_random_4(self):
        rng = random.Random(99)
        for _ in range(50):
            t = generate_topology(random_valid_base(rng, 4))
            opens = {m.bits for m in t.opens()}
            for bits in range(16):
                assert t.is_open(SubsetMask(4, bits)) == (bits in opens)


class TestTopologyOrder:
    def test_indiscrete_is_bottom_discrete_is_top(self):
        for t in enumerate_topologies(3):
            assert topology_leq(indiscrete(3), t)
            assert topology_leq(t, discrete(3))

    def test_discrete_not_below_sierpinski(self):
        d2 = discrete(2)
        assert not topology_leq(d2, sierpinski())
        assert topology_leq(sierpinski(), d2)

    def test_agrees_with_opens_subset_oracle(self):
        topos = enumerate_topologies(3)
        assert len(topos) == 29
        for t1, t2 in itertools.product(topos, repeat=2):
            oracle = {m.bits for m in t1.opens()} <= {m.bits for m in t2.opens()}
            assert topology_leq(t1, t2) == oracle

    def test_partial_order_laws(self):
        topos = enumerate_topologies(2)
        for t in topos:
            assert topology_leq(t, t)
        for t1, t2 in itertools.product(topos, repeat=2):
            if topology_leq(t1, t2) and topology_leq(t2, t1):
                assert t1 == t2
        for t1, t2, t3 in itertools.product(topos, repeat=3):
            if topology_leq(t1, t2) and topology_leq(t2, t3):
                assert topology_leq(t1, t3)


class TestNeighborhoods:
    def test_discrete_point_filter(self):
        assert discrete(2).neighborhoods_filter(0) == principal_filter(
            SubsetMask.of(2, [0])
        )

    def test_indiscrete_whole_space(self):
        assert indiscrete(3).neighborhoods_filter(1) == principal_filter(
            SubsetMask.full(3)
        )

    def test_sierpinski_both_points(self):
        t = sierpinski()
        assert t.neighborhoods_filter(1) == principal_filter(SubsetMask.full(2))
        assert t.neighborhoods_filter(0) == principal_filter(SubsetMask.of(2, [0]))

    def test_matches_open_enumeration_oracle(self):
        for t in enumerate_topologies(3):
            opens = [m for m in t.opens() if not m.is_empty]
            for x in range(3):
                # supersets of any open set containing x
                oracle = {
                    b
                    for b in range(8)
                    for u in opens
                    if x in u and u.bits & ~b == 0
                }
                nf = t.neighborhoods_filter(x)
                assert {m.bits for m in nf.members()} == oracle
                assert t.is_open(nf.core)


class TestSeparation:
    def test_examples(self):
        assert discrete(2).is_hausdorff()
        assert not sierpinski().is_hausdorff()
        assert discrete(3).is_t1()
        assert not sierpinski().is_t1()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hausdorff_and_t1_mean_discrete(self, n):
        d = discrete(n)
        for t in enumerate_topologies(n):
            assert t.is_hausdorff() == (t == d)
            assert t.is_t1() == (t == d)

    def test_t1_and_hausdorff_agree_with_their_definitions(self):
        """T1: every singleton's complement is open. Hausdorff: no x < y whose
        minimal neighbourhoods meet, and on up to 4 points, disjoint open sets
        around any two points; inseparable_pair names the first such x < y."""
        topologies = small_topologies() + p45_product_topologies()
        for t in topologies:
            n = t.universe_size
            full = (1 << n) - 1
            t1 = all(t.is_open(SubsetMask(n, full ^ (1 << x))) for x in range(n))
            meeting = [
                (x, y) for x in range(n) for y in range(x + 1, n) if t.mins[x] & t.mins[y]
            ]
            assert t.is_t1() == t1
            assert t.is_hausdorff() == (not meeting)
            assert t.inseparable_pair() == (meeting[0] if meeting else None)
            if n <= 4:
                assert t.is_hausdorff() == separated_by_opens(t)
        assert len(topologies) == 1 + 4 + 29 + 355 + 1121

    def test_inseparable_pair_agrees_with_the_pair_scan_on_larger_products(self):
        """Three-factor products of every topology on 1..2 points under every
        filter on 3 indexes, and discrete2^k x X (X: opens {a} and {b, c}),
        whose first inseparable pair comes after every isolated point."""
        from fprod.filters import trivial_filter
        from fprod.fproduct import Factor, f_topology, product_spec
        from fprod.foundations import Universe
        from fprod.verifier import enumerate_filters

        def first_meeting(t):
            n, mins = t.universe_size, t.mins
            return next(
                ((x, y) for x in range(n) for y in range(x + 1, n) if mins[x] & mins[y]), None
            )

        pool = [Factor(Universe.points(t.universe_size), topology=t) for t in small_topologies()[:5]]
        products = [
            f_topology(product_spec(factors, fil))
            for factors in itertools.product(pool, repeat=3)
            for fil in enumerate_filters(3, include_trivial=True)
        ]
        x_space = Factor(Universe.points(3), topology=Topology(3, (0b001, 0b110, 0b110)))
        discrete2 = Factor(Universe.points(2), topology=discrete(2))
        late = [
            f_topology(product_spec(factors, trivial_filter(len(factors))))
            for k in range(1, 7)
            for factors in ([discrete2] * k + [x_space], [discrete2] * k)
        ]
        for t in products + late:
            assert t.inseparable_pair() == first_meeting(t)
        assert len(products) == 125 * 8
        # x is the first code whose last digit is b, y the same code with c
        assert [t.inseparable_pair() for t in late[::2]] == [(2**k, 2**k * 2) for k in range(1, 7)]
        assert all(t.inseparable_pair() is None for t in late[1::2])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_base_separation_matches_open_separation(self, n):
        for t in enumerate_topologies(n):
            opens = [m.bits for m in t.opens()]
            base = [m.bits for m in t.base.members]
            for x in range(n):
                for y in range(x + 1, n):
                    by_opens = any(
                        u >> x & 1 and v >> y & 1 and u & v == 0
                        for u in opens
                        for v in opens
                    )
                    by_base = any(
                        u >> x & 1 and v >> y & 1 and u & v == 0
                        for u in base
                        for v in base
                    )
                    assert by_opens == by_base


class TestDensity:
    def test_indiscrete_singleton_dense(self):
        assert indiscrete(2).is_dense(SubsetMask.of(2, [0]))

    def test_discrete_only_whole_space_dense(self):
        t = discrete(2)
        assert t.is_dense(SubsetMask.full(2))
        assert not t.is_dense(SubsetMask.of(2, [0]))

    def test_matches_closure_oracle(self):
        for t in enumerate_topologies(3):
            opens = [m.bits for m in t.opens()]
            for bits in range(8):
                # closure = complement of the union of opens missing the set
                missing = 0
                for u in opens:
                    if u & bits == 0:
                        missing |= u
                closure = 0b111 & ~missing
                assert t.is_dense(SubsetMask(3, bits)) == (closure == 0b111)


class TestSubspace:
    def test_discrete_restricts_to_discrete(self):
        sub = subspace(discrete(3), SubsetMask.of(3, [0, 2]))
        assert sub == discrete(2)

    def test_sierpinski_closed_point(self):
        sub = subspace(sierpinski(), SubsetMask.of(2, [1]))
        assert sub == indiscrete(1)

    def test_empty_carrier_rejected(self):
        with pytest.raises(InputError):
            subspace(sierpinski(), SubsetMask.empty(2))

    def test_matches_trace_of_opens_oracle_on_3_points(self):
        for t in enumerate_topologies(3):
            for carrier_bits in range(1, 8):
                elems = SubsetMask(3, carrier_bits).elements()
                traces = {
                    sum(1 << new for new, old in enumerate(elems) if u.bits >> old & 1)
                    for u in t.opens()
                }
                sub = subspace(t, SubsetMask(3, carrier_bits))
                assert [m.bits for m in sub.opens()] == sorted(traces)


class TestContinuity:
    def test_identity_continuous(self):
        for t in enumerate_topologies(2):
            assert is_continuous(map_fibres((0, 1), 2), t, t)

    def test_indiscrete_to_discrete_identity_fails(self):
        assert not is_continuous(map_fibres((0, 1), 2), indiscrete(2), discrete(2))

    def test_identity_is_a_homeomorphism_iff_the_topologies_are_equal(self):
        # P2.8's slice check reads == for this two-way continuity
        for n in (1, 2, 3):
            ident = map_fibres(range(n), n)
            for t1, t2 in itertools.product(enumerate_topologies(n), repeat=2):
                both_ways = is_continuous(ident, t1, t2) and is_continuous(ident, t2, t1)
                assert (t1 == t2) == both_ways

    def test_matches_full_preimage_oracle_up_to_3_points(self):
        # every map between every pair of topologies on 1 to 3 points: the preimage of
        # each open set is open, against is_continuous and the two kernels it calls,
        # which the projection check reads on its own unchecked fibres
        for n, m in itertools.product((1, 2, 3), repeat=2):
            maps = list(itertools.product(range(m), repeat=n))
            for t_dom, t_cod in itertools.product(enumerate_topologies(n), enumerate_topologies(m)):
                dom_opens = {u.bits for u in t_dom.opens()}
                cod_opens = [v.bits for v in t_cod.opens()]
                for f_map in maps:
                    oracle = all(
                        sum(1 << x for x in range(n) if v >> f_map[x] & 1) in dom_opens
                        for v in cod_opens
                    )
                    fibres = map_fibres(f_map, m)
                    assert is_continuous(fibres, t_dom, t_cod) == oracle
                    assert mins_within(t_dom.mins, point_preimages(fibres, t_cod.mins)) == oracle

    def test_rejects_fibres_that_are_not_a_map(self):
        t = discrete(2)
        with pytest.raises(InputError, match="one per codomain point"):
            is_continuous(map_fibres((0, 0), 1), t, t)
        with pytest.raises(InputError, match="not total"):
            is_continuous((0b01, 0b01), t, t)  # point 1 has no image, point 0 two


class TestDisjointDense:
    def test_agrees_with_the_search_on_every_topology_up_to_4_points(self):
        for t in small_topologies():
            for n in range(1, t.universe_size + 2):
                assert find_disjoint_dense(t, n) == disjoint_dense_search(t, n)

    def test_agrees_with_the_search_on_the_p45_product_topologies(self):
        topologies = p45_product_topologies()
        assert len(topologies) == 1121
        assert max(t.universe_size for t in topologies) == 9
        for t in topologies:
            for n in (1, 2, 3):
                assert find_disjoint_dense(t, n) == disjoint_dense_search(t, n)

    def test_a_count_beyond_every_minimal_open_set_answers_at_once(self):
        tracemalloc.start()
        try:
            started = time.perf_counter()
            assert find_disjoint_dense(indiscrete(4), 10**9) is None
            elapsed = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 64 * 1024  # no list of 10**9 sets

    def test_answers_beyond_sixteen_points(self):
        t = Topology(32, [(1 << 32) - 1] * 32)
        found = find_disjoint_dense(t, 32)
        assert [m.bits for m in found] == [1 << j for j in range(32)]
        assert find_disjoint_dense(t, 33) is None

    def test_rejects_a_count_below_one(self):
        with pytest.raises(InputError, match="need n >= 1"):
            find_disjoint_dense(discrete(2), 0)

    def test_indiscrete_pair(self):
        found = find_disjoint_dense(indiscrete(2), 2)
        assert found is not None
        assert [m.bits for m in found] == [0b01, 0b10]

    def test_discrete_has_no_pair(self):
        assert find_disjoint_dense(discrete(2), 2) is None

    def test_single_dense_set_always_exists(self):
        for t in enumerate_topologies(3):
            found = find_disjoint_dense(t, 1)
            assert found is not None and t.is_dense(found[0])

    def test_witness_is_lexicographically_least(self):
        for t in enumerate_topologies(3):
            for k in (2, 3):
                found = find_disjoint_dense(t, k)
                # oracle: scan all ordered tuples of disjoint nonempty subsets
                best = None
                for combo in itertools.product(range(1, 8), repeat=k):
                    ok = all(t.is_dense(SubsetMask(3, b)) for b in combo)
                    for i in range(k):
                        for j in range(i + 1, k):
                            ok = ok and combo[i] & combo[j] == 0
                    if ok and (best is None or combo < best):
                        best = combo
                if best is None:
                    assert found is None
                else:
                    assert found is not None
                    assert tuple(m.bits for m in found) == best


def family_scan_oracle(n):
    """Sorted open families of every topology on n points, by scanning all set families.

    Keeps each family containing the empty and the whole set that is closed
    under pairwise union and intersection; 2**(2**n - 2) candidates.
    """
    full = (1 << n) - 1
    middles = list(range(1, full))
    found = []
    for combo in range(1 << len(middles)):
        fam = {0, full}
        for j, m in enumerate(middles):
            if combo >> j & 1:
                fam.add(m)
        if all((a | b) in fam and (a & b) in fam for a, b in itertools.combinations(fam, 2)):
            found.append(tuple(sorted(fam)))
    return sorted(found)


class TestEnumeration:
    @pytest.mark.parametrize("n, count", [(1, 1), (2, 4), (3, 29), (4, 355)])
    def test_matches_family_scan_oracle_in_order(self, n, count):
        got = [tuple(m.bits for m in t.opens()) for t in enumerate_topologies(n)]
        assert got == family_scan_oracle(n)
        assert len(got) == count

    def test_counts(self):
        assert len(enumerate_topologies(1)) == 1
        assert len(enumerate_topologies(2)) == 4
        assert len(enumerate_topologies(3)) == 29
        assert len(enumerate_topologies(4)) == 355

    def test_two_point_brute_force_oracle(self):
        # keep families over {0b00..0b11} that contain 0 and X and are closed
        count = 0
        for fam_bits in range(16):
            members = {m for m in range(4) if fam_bits >> m & 1}
            if {0, 3} <= members and all(
                (a | b) in members and (a & b) in members
                for a in members
                for b in members
            ):
                count += 1
        assert count == len(enumerate_topologies(2)) == 4

    def test_all_axioms_hold_for_enumerated_topologies(self):
        for t in enumerate_topologies(3):
            opens = {m.bits for m in t.opens()}
            assert 0 in opens and 0b111 in opens
            for a, b in itertools.product(opens, repeat=2):
                assert a | b in opens and a & b in opens

    def test_cap(self):
        with pytest.raises(InputError):
            enumerate_topologies(5)

    def test_no_duplicates_and_deterministic(self):
        topos = enumerate_topologies(3)
        keys = [tuple(m.bits for m in t.opens()) for t in topos]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)


class TestOutOfScopeLemmas:
    """The finite-space facts behind C2.11, L2.14 and P2.10's note, read off opens()."""

    def test_the_hausdorff_topologies_are_the_discrete_ones(self):
        # C2.11 compares Hausdorff compact topologies, so it needs a non-discrete one
        assert "C2.11" in OUT_OF_SCOPE
        assert "every finite Hausdorff space is discrete" in _REGISTRY["P2.10"].notes[0]
        topologies = small_topologies()
        for t in topologies:
            assert separated_by_opens(t) == (t == discrete(t.universe_size))
        assert len(topologies) == 389

    def test_every_open_cover_has_a_subcover_of_at_most_n_members(self):
        # L2.14 needs a non-compact space; P2.10's note rests on every finite space being compact
        assert "L2.14" in OUT_OF_SCOPE
        assert "every finite space is compact" in _REGISTRY["P2.10"].notes[0]
        covers = 0
        for n in range(1, 4):
            full = (1 << n) - 1
            for t in enumerate_topologies(n):
                opens = t.opens().bits
                for r in range(len(opens) + 1):
                    for cover in itertools.combinations(opens, r):
                        if functools.reduce(operator.or_, cover, 0) != full:
                            continue
                        assert any(
                            functools.reduce(operator.or_, sub, 0) == full
                            for k in range(n + 1)
                            for sub in itertools.combinations(cover, k)
                        )
                        covers += 1
        assert covers == 716
