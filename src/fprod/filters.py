"""Filters and filter bases on finite universes.

Every proper filter on a finite universe is principal, so a filter is stored
as its single minimal member; the trivial filter (the full powerset, which
contains the empty set) is the one whose minimal member is empty. A filter
base is a SetFamily; generate_filter validates it and returns its filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .foundations import InputError, ResourceLimitError, SetFamily, SubsetMask

_MEMBER_CAP = 16  # materializing members is 2**(n - |core|); keep universes small


@dataclass(frozen=True)
class Filter:
    """A finite-intersection-closed, superset-closed family, normalized to principal form."""

    universe_size: int
    core: SubsetMask

    def __post_init__(self) -> None:
        if self.core.universe_size != self.universe_size:
            raise InputError("filter core universe mismatch")

    @property
    def trivial(self) -> bool:
        return self.core.is_empty

    @property
    def is_proper(self) -> bool:
        return not self.trivial

    def member_bits(self, bits: int) -> bool:
        return self.core.bits & ~bits == 0

    def members(self) -> SetFamily:
        """All members, materialized; exponential in the free elements."""
        n = self.universe_size
        if n > _MEMBER_CAP:
            raise ResourceLimitError(f"member materialization capped at universe size {_MEMBER_CAP}")
        core = self.core.bits
        free = [i for i in range(n) if not core >> i & 1]
        out = []
        for combo in range(1 << len(free)):
            bits = core
            for j, i in enumerate(free):
                if combo >> j & 1:
                    bits |= 1 << i
            out.append(bits)
        return SetFamily(n, out)  # ascending: combo ascends and its spread over free keeps order


def validate_filter_base(fam: SetFamily) -> bool:
    """True iff fam is nonempty, excludes the empty set, and is downward directed.

    On a finite universe directedness is equivalent to the intersection of all
    members being itself a member; that member is nonempty exactly when the
    family is nonempty and excludes the empty set.
    """
    return bool(fam.least())


def generate_filter(base: SetFamily) -> Filter:
    """The filter of all supersets of the members of a filter base, in normalized form."""
    core = base.least()
    if not core:
        raise InputError("family is not a filter base")
    return principal_filter(SubsetMask(base.universe_size, core))


def principal_filter(core: SubsetMask) -> Filter:
    """All supersets of a fixed nonempty set."""
    if core.is_empty:
        raise InputError("a principal filter needs a nonempty core; use trivial_filter")
    return Filter(core.universe_size, core)


def trivial_filter(n: int) -> Filter:
    """The full powerset admitted as a filter; contains the empty set."""
    return Filter(n, SubsetMask.empty(n))


def d_complements_family(n: int, d: int) -> tuple[SetFamily, str]:
    """Subsets whose complement has fewer than d elements, with a degeneration note.

    On a finite universe the construction collapses: d <= 1 gives the filter
    {X}, d > n gives the trivial filter, and anything between is not even
    intersection-closed (so not a filter at all).
    """
    if n < 1 or d < 1:
        raise InputError("need a universe size >= 1 and a cardinal bound >= 1")
    if n > _MEMBER_CAP:  # the scan below visits all 2**n subsets
        raise ResourceLimitError(f"d-complements enumeration capped at universe size {_MEMBER_CAP}")
    fam = SetFamily(n, [bits for bits in range(1 << n) if n - int.bit_count(bits) < d])
    if d <= 1:
        note = "collapses to the filter {X} (only the whole set has complement smaller than 1)"
    elif d > n:
        note = "collapses to the trivial filter (every subset, including the empty set)"
    else:
        note = (
            "not intersection-closed on a finite universe, hence not a filter; "
            "the construction is only meaningful for infinite index sets"
        )
    return fam, note


def is_saturated(f: Filter) -> bool:
    """True iff the complement of every singleton is a member."""
    n = f.universe_size
    full = (1 << n) - 1
    return all(f.member_bits(full ^ (1 << i)) for i in range(n))


def filter_leq(f: Filter, g: Filter) -> bool:
    """True iff every member of f is a member of g (f is coarser)."""
    if f.universe_size != g.universe_size:
        raise InputError("filters live on different universes")
    return core_leq(f.core.bits, g.core.bits)


def core_leq(f_core: int, g_core: int) -> bool:
    """filter_leq on the cores of two principal filters, given as point masks:
    f is coarser than g iff g's core lies inside f's."""
    return not g_core & ~f_core


def fibre_image(fibres: Sequence[int], core_bits: int) -> int:
    """The mask of the codomain points whose fibre meets core_bits: the image of that set.

    Fibres are trusted to partition the domain (see foundations.check_fibres),
    as projection fibres do.
    """
    image = 0
    for v, fibre in enumerate(fibres):
        if fibre & core_bits:
            image |= 1 << v
    return image

