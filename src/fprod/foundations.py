"""Finite universes, bit-vector subsets, canonical set families, and mixed-radix product codes."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Iterator, Sequence

DEFAULT_MAX_UNIVERSE = 64
DEFAULT_MAX_PRODUCT = 4096


class InputError(ValueError):
    """Malformed or out-of-range input."""


class ResourceLimitError(RuntimeError):
    """An operation would exceed a size cap."""


@dataclass(frozen=True)
class Universe:
    """Ordered finite set of distinctly labelled elements.

    Labels exist only at the I/O boundary; all computation is on element
    indices 0..size-1.
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise InputError("a universe needs at least one element")
        _capped(len(self.labels))
        if len(set(self.labels)) != len(self.labels):
            raise InputError("universe labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown element label {label!r}") from None

    @classmethod
    def points(cls, n: int) -> "Universe":
        """Universe labelled "0".."n-1", the default for factor spaces."""
        return cls(tuple(str(i) for i in range(_capped(n))))

    @classmethod
    def indices(cls, n: int) -> "Universe":
        """Universe labelled "1".."n", the default for index sets."""
        return cls(tuple(str(i + 1) for i in range(_capped(n))))


def _capped(n: int) -> int:  # n, checked against the cap before a default universe's labels are built
    if n > DEFAULT_MAX_UNIVERSE:
        raise ResourceLimitError(f"universe size {n} exceeds cap {DEFAULT_MAX_UNIVERSE}")
    return n


@dataclass(frozen=True)
class SubsetMask:
    """A subset of an n-element universe as an n-bit vector (bit i set = element i in),
    validated, with read-only views; set algebra is done on the .bits ints."""

    universe_size: int
    bits: int

    def __post_init__(self) -> None:
        if self.universe_size < 1:
            raise InputError("universe size must be >= 1")
        if not 0 <= self.bits < (1 << self.universe_size):
            raise InputError(
                f"bit vector {self.bits:#x} out of range for universe size {self.universe_size}"
            )

    @classmethod
    def empty(cls, n: int) -> "SubsetMask":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "SubsetMask":
        return cls(n, (1 << n) - 1)

    @classmethod
    def of(cls, n: int, elements: Iterable[int]) -> "SubsetMask":
        bits = 0
        for e in elements:
            if not 0 <= e < n:
                raise InputError(f"element {e} out of range for universe size {n}")
            bits |= 1 << e
        return cls(n, bits)

    def __contains__(self, element: int) -> bool:
        return 0 <= element < self.universe_size and bool(self.bits >> element & 1)

    def __iter__(self) -> Iterator[int]:
        """The elements in ascending order, by lowest-set-bit extraction.

        The bits are taken one 64-bit word at a time, so that each step works on
        a small int and a dense mask of many points still costs linear time.
        """
        rest = self.bits
        offset = -1
        while rest:
            word = rest & 0xFFFFFFFFFFFFFFFF
            while word:
                low = word & -word
                yield offset + low.bit_length()
                word ^= low
            rest >>= 64
            offset += 64

    def __len__(self) -> int:
        return self.bits.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def elements(self) -> tuple[int, ...]:
        return tuple(self)


@dataclass(frozen=True)
class SetFamily:
    """Duplicate-free family of subsets of one universe, stored as its members' bits.

    bits holds the members' bit vectors in ascending numeric order (element 0
    is the least-significant bit), so equal families compare equal. members
    and iteration give SubsetMask views of the same subsets.
    """

    universe_size: int
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        bits = tuple(self.bits)
        object.__setattr__(self, "bits", bits)
        if self.universe_size < 1:
            raise InputError("universe size must be >= 1")
        if any(a >= b for a, b in zip(bits, bits[1:])):
            raise InputError("family members are not in canonical order")
        if bits and (bits[0] < 0 or bits[-1] >> self.universe_size):
            raise InputError(f"family members out of range for universe size {self.universe_size}")
        object.__setattr__(self, "_bitset", frozenset(bits))

    @classmethod
    def of(cls, universe_size: int, masks: Iterable[SubsetMask]) -> "SetFamily":
        """Dedupe and sort masks into a family; InputError on a mask of another universe."""
        masks = list(masks)
        if any(m.universe_size != universe_size for m in masks):
            raise InputError("masks do not match the requested universe size")
        return cls(universe_size, sorted({m.bits for m in masks}))

    @property
    def members(self) -> tuple[SubsetMask, ...]:
        """The members as SubsetMask views, in canonical order."""
        n = self.universe_size
        return tuple(SubsetMask(n, b) for b in self.bits)

    def __iter__(self) -> Iterator[SubsetMask]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.bits)

    def __contains__(self, mask: SubsetMask) -> bool:
        return mask.universe_size == self.universe_size and self.contains_bits(mask.bits)

    def contains_bits(self, bits: int) -> bool:
        return bits in self._bitset  # type: ignore[attr-defined]

    def least(self) -> int | None:
        """The meet of the members when it is a member, else None.

        On a finite universe that is when the family is downward directed;
        the empty family's meet is the full set, which it lacks.
        """
        meet = reduce(operator.and_, self.bits, (1 << self.universe_size) - 1)
        return meet if self.contains_bits(meet) else None


def is_intersection_closed(fam: SetFamily) -> bool:
    """True iff the family is closed under finite intersections.

    Finite includes the empty intersection, so the full set must be a member;
    this is what makes the box-base criterion an exact equivalence.
    """
    if len(fam) == 0:
        return False
    full = (1 << fam.universe_size) - 1
    if not fam.contains_bits(full):
        return False
    bits = fam.bits
    for i, a in enumerate(bits):
        for b in bits[i + 1 :]:
            if not fam.contains_bits(a & b):
                return False
    return True


@dataclass(frozen=True)
class ProductIndexing:
    """Mixed-radix coding of product points; factor 0 is the least-significant digit.

    `weights[i]` is the place value of digit i, the product of the sizes of
    factors 0..i-1, so the i-th coordinate of code x is x // weights[i] % size_i.
    """

    factor_sizes: tuple[int, ...]
    total: int = field(init=False, compare=False, repr=False)
    weights: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "factor_sizes", tuple(self.factor_sizes))
        if not self.factor_sizes:
            raise InputError("a product needs at least one factor")
        if any(s < 1 for s in self.factor_sizes):
            raise InputError("factor sizes must be >= 1")
        weights = []
        total = 1
        for size in self.factor_sizes:
            weights.append(total)
            total *= size
        if total > DEFAULT_MAX_PRODUCT:
            raise ResourceLimitError(f"product size {total} exceeds cap {DEFAULT_MAX_PRODUCT}")
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "weights", tuple(weights))

    @cached_property
    def digit_fibres(self) -> tuple[tuple[int, ...], ...]:
        """[i][d] masks the codes whose digit i is d: weights[i] ones at offset d * weights[i],
        repeated every period = weights[i] * size_i bits by (2**total - 1) // (2**period - 1)."""
        full = (1 << self.total) - 1
        return tuple(
            tuple((((1 << w) - 1) << (d * w)) * (full // ((1 << (w * s)) - 1)) for d in range(s))
            for w, s in zip(self.weights, self.factor_sizes)
        )

    @cached_property
    def slices(self) -> tuple[SubsetMask, ...]:
        """[i] masks the slice of factor i through point 0, the codes x * weights[i] for x < size_i."""
        sizes = zip(self.weights, self.factor_sizes)
        return tuple(SubsetMask(self.total, sum(1 << x * w for x in range(s))) for w, s in sizes)

    def encode_point(self, coords: Sequence[int]) -> int:
        if len(coords) != len(self.factor_sizes):
            raise InputError(
                f"expected {len(self.factor_sizes)} coordinates, got {len(coords)}"
            )
        code = 0
        for c, size, weight in zip(coords, self.factor_sizes, self.weights):
            if not 0 <= c < size:
                raise InputError(f"coordinate {c} out of range for factor of size {size}")
            code += c * weight
        return code

    def decode_point(self, code: int) -> tuple[int, ...]:
        if not 0 <= code < self.total:
            raise InputError(f"point code {code} out of range [0, {self.total})")
        # dividing as it goes measured faster than reading one place value per digit
        coords = []
        for size in self.factor_sizes:
            coords.append(code % size)
            code //= size
        return tuple(coords)


def shared_indexing(factor_sizes: Iterable[int]) -> ProductIndexing:
    """The one ProductIndexing of these factor sizes, keyed by their tuple."""
    return _cached_indexing(tuple(factor_sizes))


_cached_indexing = lru_cache(maxsize=256)(ProductIndexing)  # a grid has a few dozen size tuples


def map_fibres(f_map: Sequence[int], cod_size: int) -> tuple[int, ...]:
    """The fibres of a point map given by its values: for each codomain point v, the
    mask of the domain points x with f_map[x] == v."""
    fibres = [0] * cod_size
    for x, v in enumerate(f_map):
        if not 0 <= v < cod_size:
            raise InputError(f"map value {v} out of codomain range [0, {cod_size})")
        fibres[v] |= 1 << x
    return tuple(fibres)


def check_fibres(fibres: Sequence[int], dom_size: int, cod_size: int) -> None:
    """Raise InputError unless fibres has one mask per codomain point and they partition
    the domain: their union is the whole domain, and equals their sum (no two overlap)."""
    if len(fibres) != cod_size:
        raise InputError(f"expected {cod_size} fibres, one per codomain point, got {len(fibres)}")
    union = reduce(operator.or_, fibres, 0)
    if union != (1 << dom_size) - 1 or sum(fibres) != union:
        raise InputError("map is not total on the domain universe, or its fibres overlap")
