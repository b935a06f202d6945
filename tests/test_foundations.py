import itertools
import random

import pytest
from hypothesis import given, strategies as st

from fprod import foundations
from fprod.foundations import (
    WALK_MEMO_BOUND,
    InputError,
    ProductIndexing,
    ResourceLimitError,
    SetFamily,
    SubsetMask,
    Universe,
    canonicalize,
    grid_walk,
    is_intersection_closed,
    walk_memoized,
)


def mixed_radix_order(sizes):
    """Oracle: all coordinate tuples in ascending code order (digit 0 fastest)."""
    out = [()]
    for size in sizes:
        out = [t + (d,) for d in range(size) for t in out]
    return out


class TestEncodeDecode:
    def test_zero_and_first_digit(self):
        idx = ProductIndexing((2, 2))
        assert idx.encode_point((0, 0)) == 0
        assert idx.encode_point((1, 0)) == 1

    def test_position_matches_enumeration_oracle(self):
        idx = ProductIndexing((2, 3))
        order = mixed_radix_order((2, 3))
        assert order.index((1, 2)) == 5
        assert idx.encode_point((1, 2)) == 5

    def test_decode_examples(self):
        idx = ProductIndexing((2, 2))
        assert idx.decode_point(0) == (0, 0)
        assert idx.decode_point(3) == (1, 1)
        assert ProductIndexing((2, 3)).decode_point(5) == (1, 2)

    @pytest.mark.parametrize(
        "sizes",
        [(1,), (2,), (7,), (2, 3), (4, 4), (2, 2, 2), (3, 5, 2), (2, 3, 5, 7), (8, 8, 8), (4096,), (64, 64), (1, 5, 1)],
    )
    def test_roundtrip_exhaustive(self, sizes):
        idx = ProductIndexing(sizes)
        for code in range(idx.total):
            assert idx.encode_point(idx.decode_point(code)) == code
        for coords in itertools.product(*(range(s) for s in sizes)):
            assert idx.decode_point(idx.encode_point(coords)) == coords

    @pytest.mark.parametrize("sizes", [(2,), (2, 3), (3, 2, 4), (2, 3, 5, 7)])
    def test_weights_are_the_codes_of_the_unit_vectors(self, sizes):
        idx = ProductIndexing(sizes)
        k = len(sizes)
        assert idx.weights == tuple(
            idx.encode_point(tuple(int(j == i) for j in range(k))) for i in range(k)
        )

    def test_weight_of_a_one_point_factor(self):
        # its digit is always 0; the weight is still the product of the sizes before it
        assert ProductIndexing((3, 1, 2)).weights == (1, 3, 3)

    def test_input_errors(self):
        idx = ProductIndexing((2, 3))
        with pytest.raises(InputError):
            idx.encode_point((1,))
        with pytest.raises(InputError):
            idx.encode_point((2, 0))
        with pytest.raises(InputError):
            idx.decode_point(6)
        with pytest.raises(InputError):
            idx.decode_point(-1)

    def test_product_cap(self):
        assert ProductIndexing((64, 64)).total == 4096
        with pytest.raises(ResourceLimitError, match="product size 4160 exceeds cap 4096"):
            ProductIndexing((64, 65))


class TestCanonicalize:
    def test_dedupe_and_order(self):
        a = SubsetMask.of(2, [0])
        b = SubsetMask.of(2, [1])
        fam = canonicalize([a, a, b])
        assert fam.members == (a, b)
        assert canonicalize(fam.members) == fam  # idempotent

    def test_empty_needs_size(self):
        assert len(canonicalize([], universe_size=3)) == 0
        with pytest.raises(InputError):
            canonicalize([])

    def test_mixed_sizes_rejected(self):
        with pytest.raises(InputError):
            canonicalize([SubsetMask.of(2, [0]), SubsetMask.of(3, [0])])

    def test_order_independent_of_input(self):
        rng = random.Random(20240817)
        masks = [SubsetMask(4, rng.randrange(16)) for _ in range(20)]
        oracle = sorted({m.bits for m in masks})
        fam = canonicalize(masks, universe_size=4)
        assert [m.bits for m in fam.members] == oracle
        for _ in range(5):
            rng.shuffle(masks)
            assert canonicalize(masks, universe_size=4) == fam


class TestSetFamilyBits:
    def test_members_are_views_of_the_bits(self):
        for fam_bits in range(1 << 8):
            bits = [b for b in range(8) if fam_bits >> b & 1]
            fam = SetFamily(3, bits)
            via_masks = SetFamily.of(3, [SubsetMask(3, b) for b in reversed(bits)])
            assert fam == via_masks and fam.bits == tuple(bits)
            assert fam.members == via_masks.members == tuple(SubsetMask(3, b) for b in bits)
            assert list(fam) == list(fam.members) and len(fam) == len(bits)
            assert all(m in fam and fam.contains_bits(m.bits) for m in fam.members)

    @pytest.mark.parametrize(
        "bits, message",
        [
            ((0b10, 0b01), "canonical order"),  # unsorted
            ((0b01, 0b01), "canonical order"),  # repeated
            ((0b01, 0b1000), "out of range"),  # above the 3-point universe
            ((-1, 0b01), "out of range"),  # negative
        ],
    )
    def test_rejects_ints_out_of_order_repeated_or_outside_the_universe(self, bits, message):
        with pytest.raises(InputError, match=message):
            SetFamily(3, bits)

    def test_rejects_a_universe_without_points(self):
        with pytest.raises(InputError):
            SetFamily(0, ())


def boolean_laws(n, abits, bbits):
    a, b = SubsetMask(n, abits), SubsetMask(n, bbits)
    full, empty = SubsetMask.full(n), SubsetMask.empty(n)
    assert (a | b).complement() == a.complement() & b.complement()
    assert (a & b).complement() == a.complement() | b.complement()
    assert a | (a & b) == a
    assert a & (a | b) == a
    assert a.complement().complement() == a
    assert a | a.complement() == full
    assert a & a.complement() == empty


class TestSubsetMask:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_boolean_laws_exhaustive(self, n):
        for abits in range(1 << n):
            for bbits in range(1 << n):
                boolean_laws(n, abits, bbits)

    @given(
        st.integers(5, 8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(0, (1 << n) - 1),
                st.integers(0, (1 << n) - 1),
            )
        )
    )
    def test_boolean_laws_randomized(self, nab):
        boolean_laws(*nab)

    def test_membership_and_iteration(self):
        m = SubsetMask.of(5, [0, 3])
        assert 0 in m and 3 in m and 1 not in m and 7 not in m
        assert m.elements() == (0, 3)
        assert len(m) == 2

    def test_iteration_matches_the_positional_definition(self):
        def positional(m):
            return [i for i in range(m.universe_size) if m.bits >> i & 1]

        masks = [SubsetMask(n, bits) for n in range(1, 11) for bits in range(1 << n)]
        rng = random.Random(81)
        masks += [SubsetMask(81, rng.getrandbits(81)) for _ in range(2000)]
        masks += [SubsetMask(81, (1 << 81) - 1), SubsetMask(81, 1 << 80), SubsetMask(81, 1 << 64)]
        for m in masks:
            assert list(m) == positional(m)

    def test_size_mismatch_rejected(self):
        with pytest.raises(InputError):
            SubsetMask.of(2, [0]) | SubsetMask.of(3, [0])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            SubsetMask.of(2, [2])
        with pytest.raises(InputError):
            SubsetMask(2, 4)


class TestUniverse:
    def test_labels_distinct(self):
        with pytest.raises(InputError):
            Universe(("a", "a"))

    def test_lookup(self):
        u = Universe.indices(3)
        assert u.labels == ("1", "2", "3")
        assert u.index_of("2") == 1
        with pytest.raises(InputError):
            u.index_of("9")
        assert Universe.points(2).labels == ("0", "1")


class TestIntersectionClosed:
    def test_requires_full_set(self):
        # closed under finite intersections includes the empty intersection
        fam = SetFamily.of(2, [SubsetMask.empty(2)])
        assert not is_intersection_closed(fam)
        fam2 = SetFamily.of(2, [SubsetMask.full(2), SubsetMask.empty(2)])
        assert is_intersection_closed(fam2)

    def test_count_on_two_elements(self):
        # oracle: families containing the full set and closed under pairwise meets
        closed = []
        for fam_bits in range(1, 16):
            members = [m for m in range(4) if fam_bits >> m & 1]
            ok = 3 in members and all(
                (a & b) in members for a in members for b in members
            )
            fam = SetFamily.of(2, [SubsetMask(2, m) for m in members])
            assert is_intersection_closed(fam) == ok
            if ok:
                closed.append(fam_bits)
        assert len(closed) == 7


class TestGridWalk:
    """walk_memoized shares results inside grid_walk() and keeps nothing outside it."""

    @staticmethod
    def counted(fn):
        calls = []

        @walk_memoized
        def memo(*args):
            calls.append(args)
            return fn(*args)

        return memo, calls

    @staticmethod
    def table_sizes():
        tables = foundations._walk.tables
        return None if tables is None else [t.cache_info().currsize for t in tables.values()]

    def test_outside_a_walk_every_call_computes_and_nothing_is_kept(self):
        square, calls = self.counted(lambda x: (x * x,))
        assert square(3) == square(3) == (9,)
        assert len(calls) == 2
        assert self.table_sizes() is None

    def test_inside_a_walk_each_distinct_argument_is_computed_once(self):
        square, calls = self.counted(lambda x: (x * x,))
        with grid_walk():
            first = square(3)
            assert square(3) is first
            assert square(4) == (16,)
            assert self.table_sizes() == [2]
        assert calls == [(3,), (4,)]
        assert self.table_sizes() is None

    def test_a_table_keeps_at_most_the_bound(self):
        ident, calls = self.counted(lambda x: x)
        with grid_walk():
            for x in range(WALK_MEMO_BOUND + 10):
                ident(x)
            assert self.table_sizes() == [WALK_MEMO_BOUND]
            ident(0)  # evicted first, so computed again
        assert len(calls) == WALK_MEMO_BOUND + 11

    def test_errors_are_never_memoized(self):
        def reject(x):
            raise InputError(f"bad {x}")

        bad, calls = self.counted(reject)
        with grid_walk():
            for _ in range(3):
                with pytest.raises(InputError):
                    bad(1)
        assert calls == [(1,)] * 3

    def test_tables_are_emptied_when_the_walk_raises(self):
        ident, _ = self.counted(lambda x: x)
        with pytest.raises(RuntimeError):
            with grid_walk():
                ident(1)
                tables = foundations._walk.tables
                raise RuntimeError("check failed")
        assert tables == {} and self.table_sizes() is None

    def test_a_nested_walk_has_its_own_tables_and_restores_the_enclosing_ones(self):
        ident, calls = self.counted(lambda x: x)
        with grid_walk():
            ident(1)
            with grid_walk():
                ident(1)
                ident(2)
                assert self.table_sizes() == [2]
            ident(1)
            assert self.table_sizes() == [1]
        assert calls == [(1,), (1,), (2,)]
