import itertools

import pytest

from fprod.filters import (
    Filter,
    d_complements_family,
    filter_leq,
    frechet_filter,
    generate_filter,
    is_saturated,
    is_ultrafilter,
    principal_filter,
    pushforward,
    trivial_filter,
    validate_filter_base,
)
from fprod.foundations import InputError, SetFamily, SubsetMask, check_fibres, map_fibres
from fprod.verifier import enumerate_filters


def fam(n, *bit_sets):
    return SetFamily.of(n, [SubsetMask(n, b) for b in bit_sets])


def directed_oracle(members):
    """Pairwise brute force of the base conditions."""
    bits = [m.bits for m in members]
    if not bits or 0 in bits:
        return False
    for b1, b2 in itertools.product(bits, repeat=2):
        if not any(b3 & ~(b1 & b2) == 0 for b3 in bits):
            return False
    return True


class TestFilterBase:
    def test_singleton_base(self):
        assert validate_filter_base(fam(2, 0b01))

    def test_disjoint_pair_is_not_a_base(self):
        assert not validate_filter_base(fam(2, 0b01, 0b10))

    def test_directed_triple(self):
        # {a,b}, {b,c}, {b} on {a,b,c}
        f = fam(3, 0b011, 0b110, 0b010)
        assert directed_oracle(f.members)
        assert validate_filter_base(f)

    def test_agrees_with_pairwise_oracle_exhaustively(self):
        for fam_bits in range(1 << 8):
            members = [SubsetMask(3, m) for m in range(8) if fam_bits >> m & 1]
            family = SetFamily.of(3, members)
            assert validate_filter_base(family) == directed_oracle(family.members)


class TestGenerateFilter:
    def test_minimal_is_intersection(self):
        f = generate_filter(fam(3, 0b011, 0b110, 0b010))
        assert f.core == SubsetMask(3, 0b010)
        # supersets-of-{b} oracle
        oracle = sorted(b for b in range(8) if b & 0b010 == 0b010)
        assert [m.bits for m in f.members()] == oracle

    def test_whole_space_base(self):
        f = generate_filter(fam(3, 0b111))
        assert [m.bits for m in f.members()] == [0b111]

    def test_principal_singleton(self):
        f = generate_filter(fam(2, 0b01))
        assert [m.bits for m in f.members()] == [0b01, 0b11]

    def test_invalid_base_rejected(self):
        # disjoint members, no members, and a member that is the empty set
        for bits in ((0b01, 0b10), (), (0b00, 0b01)):
            with pytest.raises(InputError, match="family is not a filter base"):
                generate_filter(fam(2, *bits))


class TestPrincipalAndTrivial:
    def test_principal_whole_space(self):
        f = principal_filter(SubsetMask.full(2))
        assert [m.bits for m in f.members()] == [0b11]

    def test_principal_superset_count(self):
        f = principal_filter(SubsetMask(3, 0b011))
        assert len(f.members()) == 2 ** (3 - 2)

    def test_empty_core_rejected(self):
        with pytest.raises(InputError):
            principal_filter(SubsetMask.empty(2))

    def test_trivial_contains_empty(self):
        f = trivial_filter(2)
        assert f.member(SubsetMask.empty(2))
        assert f.member(SubsetMask.of(2, [0]))
        assert len(trivial_filter(3).members()) == 8

    def test_trivial_is_the_empty_core(self):
        for n in (1, 2, 3):
            assert Filter(n, SubsetMask.empty(n)) == trivial_filter(n)
            assert trivial_filter(n).trivial and not trivial_filter(n).is_proper
            assert not any(f.trivial for f in enumerate_filters(n, include_trivial=False))

    def test_frechet_is_trivial_on_finite_universes(self):
        assert frechet_filter(3) == trivial_filter(3)
        assert frechet_filter(1) == trivial_filter(1)
        # cofinality oracle on every subset of a 5-universe
        f = frechet_filter(5)
        for bits in range(1 << 5):
            complement_is_finite = True  # all subsets of a finite set are finite
            assert f.member(SubsetMask(5, bits)) == complement_is_finite


class TestUltrafilter:
    def test_point_filter(self):
        assert is_ultrafilter(principal_filter(SubsetMask.of(2, [0])))

    def test_two_point_core_is_not(self):
        f = principal_filter(SubsetMask.of(3, [0, 1]))
        assert not is_ultrafilter(f)
        assert not f.member(SubsetMask.of(3, [0]))
        assert not f.member(SubsetMask.of(3, [1, 2]))

    def test_trivial_rejected_despite_disjunction(self):
        t = trivial_filter(3)
        for bits in range(8):
            m = SubsetMask(3, bits)
            assert t.member(m) or t.member(m.complement())
        assert not is_ultrafilter(t)

    def test_matches_disjunction_oracle_exhaustively(self):
        for f in enumerate_filters(3, include_trivial=False):
            oracle = all(
                f.member(SubsetMask(3, b)) or f.member(SubsetMask(3, b).complement())
                for b in range(8)
            )
            assert is_ultrafilter(f) == oracle


class TestSaturated:
    def test_trivial_is_saturated(self):
        assert is_saturated(trivial_filter(4))

    def test_principal_is_not(self):
        assert not is_saturated(principal_filter(SubsetMask.of(3, [0])))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_only_trivial_is_saturated(self, n):
        for f in enumerate_filters(n, include_trivial=True):
            assert is_saturated(f) == f.trivial


class TestFilterLeq:
    def test_smaller_core_bigger_filter(self):
        big = principal_filter(SubsetMask.of(3, [0]))
        small = principal_filter(SubsetMask.of(3, [0, 1]))
        assert filter_leq(small, big)
        assert not filter_leq(big, small)

    def test_incomparable_points(self):
        a = principal_filter(SubsetMask.of(2, [0]))
        b = principal_filter(SubsetMask.of(2, [1]))
        assert not filter_leq(a, b) and not filter_leq(b, a)

    def test_everything_below_trivial(self):
        for f in enumerate_filters(3, include_trivial=True):
            assert filter_leq(f, trivial_filter(3))

    def test_agrees_with_member_subset_oracle(self):
        fils = enumerate_filters(3, include_trivial=True)
        for f, g in itertools.product(fils, repeat=2):
            oracle = set(m.bits for m in f.members()) <= set(m.bits for m in g.members())
            assert filter_leq(f, g) == oracle

    def test_partial_order_exhaustive(self):
        fils = enumerate_filters(3, include_trivial=True)
        for f in fils:
            assert filter_leq(f, f)
        for f, g in itertools.product(fils, repeat=2):
            if filter_leq(f, g) and filter_leq(g, f):
                assert f == g
        for f, g, h in itertools.product(fils, repeat=3):
            if filter_leq(f, g) and filter_leq(g, h):
                assert filter_leq(f, h)


class TestIntersectionRewrite:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_member_of_meet_iff_both_members(self, n):
        for f in enumerate_filters(n, include_trivial=True):
            for a in range(1 << n):
                for b in range(1 << n):
                    lhs = f.member(SubsetMask(n, a & b))
                    rhs = f.member(SubsetMask(n, a)) and f.member(SubsetMask(n, b))
                    assert lhs == rhs


def pushforward_oracle(f_map, cod_size, fil):
    """The image-of-core definition on a point map given by its values."""
    if fil.trivial:
        return trivial_filter(cod_size)
    return principal_filter(SubsetMask.of(cod_size, (f_map[x] for x in fil.core)))


class TestPushforward:
    def test_constant_map(self):
        f = principal_filter(SubsetMask.of(2, [0]))
        out = pushforward(map_fibres((1, 1), 2), f)
        assert out == principal_filter(SubsetMask.of(2, [1]))

    def test_identity(self):
        for f in enumerate_filters(3, include_trivial=True):
            assert pushforward(map_fibres((0, 1, 2), 3), f) == f

    def test_surjection_keeps_ultrafilter(self):
        # a,b -> x; c -> y
        f = principal_filter(SubsetMask.of(3, [0]))
        out = pushforward(map_fibres((0, 0, 1), 2), f)
        assert out == principal_filter(SubsetMask.of(2, [0]))
        assert is_ultrafilter(out)

    def test_preserves_ultrafilters_exhaustively(self):
        for n, m in [(2, 2), (3, 2), (3, 3)]:
            for f in enumerate_filters(n, include_trivial=False):
                if not is_ultrafilter(f):
                    continue
                for f_map in itertools.product(range(m), repeat=n):
                    assert is_ultrafilter(pushforward(map_fibres(f_map, m), f))

    def test_trivial_pushes_to_trivial(self):
        assert pushforward(map_fibres((0, 0), 2), trivial_filter(2)) == trivial_filter(2)

    def test_malformed_map_rejected(self):
        f = trivial_filter(2)
        with pytest.raises(InputError):
            pushforward(map_fibres((0,), 2), f)
        with pytest.raises(InputError):
            pushforward(map_fibres((0, 5), 2), f)

    def test_agrees_with_the_image_of_the_core(self):
        checked = 0
        for n in range(1, 5):
            for fil in enumerate_filters(n, include_trivial=True):
                for m in range(1, 4):
                    for f_map in itertools.product(range(m), repeat=n):
                        got = pushforward(map_fibres(f_map, m), fil)
                        assert got == pushforward_oracle(f_map, m, fil)
                        checked += 1
        assert checked == 2 * 6 + 4 * 14 + 8 * 36 + 16 * 98  # filters with trivial, times maps

    def test_fibres_that_do_not_partition_the_domain_are_rejected(self):
        f = principal_filter(SubsetMask.of(2, [0]))
        for fibres in [
            (0b01, 0b11),  # point 0 has two images
            (0b01, 0b00),  # point 1 has none
            (0b101, 0b010),  # a point outside the domain
            (-1, 0b100),  # a negative mask
            (),  # no codomain
        ]:
            with pytest.raises(InputError):
                pushforward(fibres, f)


class TestMapFibres:
    def test_fibres_of_a_map(self):
        assert map_fibres((2, 0, 2), 3) == (0b010, 0b000, 0b101)
        assert map_fibres((), 2) == (0, 0)

    def test_range_checked_once_at_the_boundary(self):
        with pytest.raises(InputError, match="out of codomain range"):
            map_fibres((0, 3), 3)
        with pytest.raises(InputError, match="out of codomain range"):
            map_fibres((-1,), 3)

    def test_check_fibres_accepts_exactly_the_partitions(self):
        # every tuple of masks on 2 points into 2 codomain points
        for fibres in itertools.product(range(-1, 5), repeat=2):
            is_map = any(map_fibres(f_map, 2) == fibres for f_map in itertools.product(range(2), repeat=2))
            try:
                check_fibres(fibres, 2, 2)
                accepted = True
            except InputError:
                accepted = False
            assert accepted == is_map
        with pytest.raises(InputError, match="one per codomain point"):
            check_fibres((0b11,), 2, 2)


class TestPrincipality:
    def test_generated_filters_have_one_minimal_member(self):
        for fam_bits in range(1, 1 << 8):
            members = [SubsetMask(3, m) for m in range(8) if fam_bits >> m & 1]
            family = SetFamily.of(3, members)
            if validate_filter_base(family):
                f = generate_filter(family)
                acc = 0b111
                for m in f.members():
                    acc &= m.bits
                assert acc == f.core.bits
            else:
                with pytest.raises(InputError):
                    generate_filter(family)


class TestDComplements:
    def test_d_one_collapses_to_whole_space(self):
        family, note = d_complements_family(3, 1)
        assert [m.bits for m in family] == [0b111]
        assert "filter {X}" in note

    def test_large_d_collapses_to_trivial(self):
        family, note = d_complements_family(2, 3)
        assert len(family) == 4
        assert "trivial" in note

    def test_intermediate_d_is_not_a_filter(self):
        family, note = d_complements_family(3, 2)
        assert not validate_filter_base(family) or "not intersection-closed" in note
        from fprod.foundations import is_intersection_closed

        assert not is_intersection_closed(family)
