import itertools

import pytest

from fprod.filters import (
    Filter,
    core_leq,
    d_complements_family,
    fibre_image,
    filter_leq,
    generate_filter,
    is_saturated,
    principal_filter,
    trivial_filter,
    validate_filter_base,
)
from fprod.foundations import (
    InputError,
    ResourceLimitError,
    SetFamily,
    SubsetMask,
    check_fibres,
    map_fibres,
)
from fprod.verifier import OUT_OF_SCOPE, _NOTE_COFINITE, _NOTE_SATURATED, enumerate_filters


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
        assert f.member_bits(0)
        assert f.member_bits(0b01)
        assert len(trivial_filter(3).members()) == 8

    def test_trivial_is_the_empty_core(self):
        for n in (1, 2, 3):
            assert Filter(n, SubsetMask.empty(n)) == trivial_filter(n)
            assert trivial_filter(n).trivial and not trivial_filter(n).is_proper
            assert not any(f.trivial for f in enumerate_filters(n, include_trivial=False))


class TestOutOfScopeLemmas:
    """The finite-index facts behind the out-of-scope reasons and the degenerate
    notes, on every filter on 1 to 4 indexes, read through member_bits."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_the_ultrafilters_are_the_point_filters(self, n):
        # C2.13 needs a free ultrafilter: a proper filter holding A or its complement for every A
        assert "C2.13" in OUT_OF_SCOPE
        full = (1 << n) - 1
        ultra = [
            f for f in enumerate_filters(n, include_trivial=True)
            if not f.member_bits(0) and all(f.member_bits(a) or f.member_bits(full ^ a) for a in range(1 << n))
        ]
        points = [principal_filter(SubsetMask.of(n, [i])) for i in range(n)]
        assert ultra == points  # enumerate_filters ascends by core

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_the_only_filter_holding_every_point_complement_is_the_trivial_filter(self, n):
        # P2.12 and P2.15 need a saturated filter other than the cofinite one
        assert {"P2.12", "P2.15"} <= OUT_OF_SCOPE.keys() and "saturated" in _NOTE_SATURATED
        full = (1 << n) - 1
        saturated = [
            f for f in enumerate_filters(n, include_trivial=True)
            if all(f.member_bits(full ^ (1 << i)) for i in range(n))
        ]
        assert saturated == [trivial_filter(n)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_the_cofinite_filter_is_the_trivial_filter(self, n):
        # every subset of a finite universe has a finite complement
        assert "cofinite" in _NOTE_COFINITE
        cofinite = tuple(range(1 << n))
        holding = [f for f in enumerate_filters(n, include_trivial=True) if all(map(f.member_bits, cofinite))]
        assert holding == [trivial_filter(n)]
        assert trivial_filter(n).members().bits == cofinite


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
            assert core_leq(f.core.bits, g.core.bits) == oracle

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
                    lhs = f.member_bits(a & b)
                    rhs = f.member_bits(a) and f.member_bits(b)
                    assert lhs == rhs


def pushforward_oracle(f_map, cod_size, fil):
    """The image-of-core definition on a point map given by its values."""
    if fil.trivial:
        return trivial_filter(cod_size)
    return principal_filter(SubsetMask.of(cod_size, (f_map[x] for x in fil.core)))


class TestFibreImage:
    def test_constant_map(self):
        assert fibre_image(map_fibres((1, 1), 2), 0b01) == 0b10

    def test_identity(self):
        for fil in enumerate_filters(3, include_trivial=True):
            assert fibre_image(map_fibres((0, 1, 2), 3), fil.core.bits) == fil.core.bits

    def test_surjection_sends_a_point_to_its_image(self):
        # a,b -> x; c -> y
        fibres = map_fibres((0, 0, 1), 2)
        assert [fibre_image(fibres, 1 << i) for i in range(3)] == [0b01, 0b01, 0b10]

    def test_point_cores_have_point_images_exhaustively(self):
        # the image of a point filter is a point filter
        for n, m in [(2, 2), (3, 2), (3, 3)]:
            for f_map in itertools.product(range(m), repeat=n):
                fibres = map_fibres(f_map, m)
                assert [fibre_image(fibres, 1 << i) for i in range(n)] == [1 << v for v in f_map]

    def test_full_core_images_to_the_range(self):
        assert fibre_image(map_fibres((0, 0), 2), 0b11) == 0b01
        assert fibre_image(map_fibres((1, 0, 1), 2), 0b111) == 0b11

    def test_agrees_with_the_image_of_the_core(self):
        checked = 0
        for n in range(1, 5):
            for fil in enumerate_filters(n, include_trivial=True):
                for m in range(1, 4):
                    for f_map in itertools.product(range(m), repeat=n):
                        got = fibre_image(map_fibres(f_map, m), fil.core.bits)
                        assert got == pushforward_oracle(f_map, m, fil).core.bits
                        checked += 1
        assert checked == 2 * 6 + 4 * 14 + 8 * 36 + 16 * 98  # filters with trivial, times maps


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

    def test_fibres_that_do_not_partition_the_domain_are_rejected(self):
        for fibres in [
            (0b01, 0b11),  # point 0 has two images
            (0b01, 0b00),  # point 1 has none
            (0b101, 0b010),  # a point outside the domain
            (-1, 0b100),  # a negative mask
            (),  # no codomain
        ]:
            with pytest.raises(InputError):
                check_fibres(fibres, 2, 2)


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

    @pytest.mark.parametrize("d", [2, 3])  # d == n is still intermediate: the empty set is out
    def test_intermediate_d_is_not_a_filter(self, d):
        family, note = d_complements_family(3, d)
        assert "not intersection-closed" in note
        assert not validate_filter_base(family)
        from fprod.foundations import is_intersection_closed

        assert not is_intersection_closed(family)

    def test_d_complements_answer_at_sixteen_points_and_raise_at_seventeen(self):
        family, _ = d_complements_family(16, 1)
        assert [m.bits for m in family] == [(1 << 16) - 1]
        with pytest.raises(ResourceLimitError, match="capped at universe size 16"):
            d_complements_family(17, 1)

    @pytest.mark.parametrize("n, d", [(0, 1), (1, 0)])
    def test_d_complements_reject_a_size_or_bound_below_one(self, n, d):
        with pytest.raises(InputError, match="universe size >= 1 and a cardinal bound >= 1"):
            d_complements_family(n, d)


class TestMembersCap:
    def test_members_answer_at_sixteen_points_and_raise_at_seventeen(self):
        full = (1 << 16) - 1
        assert [m.bits for m in principal_filter(SubsetMask(16, full)).members()] == [full]
        with pytest.raises(ResourceLimitError, match="capped at universe size 16"):
            principal_filter(SubsetMask(17, (1 << 17) - 1)).members()
