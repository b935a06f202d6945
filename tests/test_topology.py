import itertools
import random

import pytest

from fprod.filters import principal_filter
from fprod.foundations import InputError, SetFamily, SubsetMask
from fprod.topology import (
    Topology,
    discrete,
    enumerate_topologies,
    find_disjoint_dense,
    generate_topology,
    indiscrete,
    is_continuous,
    sierpinski,
    subspace,
    topologies_equal,
    topology_leq,
    validate_base,
)


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_smallest_base_generates_the_same_topology(self, n):
        for t in enumerate_topologies(n):
            assert generate_topology(t.base) == t

    def test_equal_structures_compare_and_hash_equal(self):
        generated = generate_topology(fam(2, 0b01, 0b10, 0b11))
        assert discrete(2) == generated
        assert hash(discrete(2)) == hash(generated)


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
                assert topologies_equal(t1, t2)
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
            assert t.is_hausdorff() == topologies_equal(t, d)
            assert t.is_t1() == topologies_equal(t, d)

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
        assert topologies_equal(sub, discrete(2))

    def test_sierpinski_closed_point(self):
        sub = subspace(sierpinski(), SubsetMask.of(2, [1]))
        assert topologies_equal(sub, indiscrete(1))

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
            assert is_continuous((0, 1), t, t)

    def test_indiscrete_to_discrete_identity_fails(self):
        assert not is_continuous((0, 1), indiscrete(2), discrete(2))

    def test_identity_is_a_homeomorphism_iff_the_topologies_are_equal(self):
        # P2.8's slice check reads topologies_equal for this two-way continuity
        for n in (1, 2, 3):
            ident = tuple(range(n))
            for t1, t2 in itertools.product(enumerate_topologies(n), repeat=2):
                both_ways = is_continuous(ident, t1, t2) and is_continuous(ident, t2, t1)
                assert topologies_equal(t1, t2) == both_ways

    def test_matches_full_preimage_oracle_on_3_points(self):
        topos = enumerate_topologies(3)
        maps = list(itertools.product(range(3), repeat=3))
        for t_dom, t_cod in itertools.product(topos, repeat=2):
            dom_opens = {m.bits for m in t_dom.opens()}
            cod_opens = [m.bits for m in t_cod.opens()]
            for f_map in maps:
                oracle = all(
                    sum(1 << x for x in range(3) if v >> f_map[x] & 1) in dom_opens
                    for v in cod_opens
                )
                assert is_continuous(f_map, t_dom, t_cod) == oracle


class TestDisjointDense:
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
