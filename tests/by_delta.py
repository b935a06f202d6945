"""The box bases by their definition: every box, then its δ, then filter membership.

This is the route fprod took before it enumerated only the accepted boxes,
kept here as the oracle for the accepted-only bases. Every choice of one side
per factor is built by the box kernel (tests/test_fproduct.py checks the
kernel against decoded boxes), in its code order, factor 0 fastest. The δ of
each choice, the indexes where its side is the whole factor, is built level
by level in the same order, and a box is kept when the acceptance test takes
its δ.
"""

from __future__ import annotations

import itertools

from fprod import fproduct
from fprod.foundations import SetFamily, SubsetMask
from fprod.uniformity import Relation


def deltas(side_lists, sizes) -> list[int]:
    """The δ of every side choice, in the box kernel's code order."""
    out = [0]
    for i, (sides, size) in enumerate(zip(side_lists, sizes)):
        out = [d | 1 << i if side == (1 << size) - 1 else d for side in sides for d in out]
    return out


def accepted(items, side_lists, sizes, member) -> list:
    """The items, one per side choice in code order, whose δ `member` accepts."""
    return [item for item, d in zip(items, deltas(side_lists, sizes)) if member(d)]


def box_base(side_lists, spec, member) -> SetFamily:
    sizes = spec.indexing.factor_sizes
    boxes = fproduct._point_boxes.__wrapped__(tuple(map(tuple, side_lists)), sizes)
    return SetFamily(spec.indexing.total, sorted(set(accepted(boxes, side_lists, sizes, member))))


def topology_base(spec, member=None) -> SetFamily:
    """f_topology_base(spec) with member None, else f_topology_base under that δ test."""
    opens = [f.topology.opens().bits[1:] for f in spec.factors]
    return box_base(opens, spec, member or spec.index_filter.member_bits)


def filter_base(spec) -> SetFamily:
    return box_base([f.filter.members().bits for f in spec.factors], spec, spec.index_filter.member_bits)


def uniformity_base(spec) -> SetFamily:
    """The relation of every entourage box, each factor base augmented by its full square."""
    idx = spec.indexing
    sizes = idx.factor_sizes
    pair_sizes = [s * s for s in sizes]
    member_lists = [sorted({*f.uniformity_base.bits, (1 << p) - 1}) for p, f in zip(pair_sizes, spec.factors)]
    row_lists = [[Relation(s, SubsetMask(s * s, m)).rows() for m in ms] for s, ms in zip(sizes, member_lists)]
    choices = [c[::-1] for c in itertools.product(*reversed(row_lists))]  # list 0 varies fastest
    relations = [Relation.from_rows(fproduct._point_boxes.__wrapped__(c, sizes)).pairs.bits for c in choices]
    kept = accepted(relations, member_lists, pair_sizes, spec.index_filter.member_bits)
    return SetFamily(idx.total * idx.total, sorted(set(kept)))
