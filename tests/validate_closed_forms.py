"""Walk P2.8's factor-size-4 grid and P5.ind's index-size-3 grid with the closed forms fully
validated, and assert both pass.

f_topology, subspace, induced_topology, enumerate_topologies and
topology_from_base_bits build through Topology.unchecked, which skips the
preorder checks because their vectors are preorders by construction, and
f_uniformity builds through Uniformity.unchecked, which skips the equivalence
check. Inside validating_closed_forms() they build through Topology(...) and
Uniformity(...) instead, so an invalid closed form raises InputError and a valid
one gives the value the unchecked builder gives: both are plain values.

    python tests/validate_closed_forms.py

exits 0 when both grids pass, walk all their instances (151,321 and 5,832) and
each validate at least one closed form, and 1 otherwise.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Iterator

from fprod.topology import Topology
from fprod.uniformity import Uniformity
from fprod.verifier import default_grid, verify_proposition


@contextmanager
def validating_closed_forms() -> Iterator[list[int]]:
    """Make Topology.unchecked and Uniformity.unchecked validate; yields the universe
    size of each call, in order."""
    calls: list[int] = []
    originals = [(cls, cls.__dict__["unchecked"]) for cls in (Topology, Uniformity)]

    def validating(cls, universe_size, vector):
        calls.append(universe_size)
        return cls(universe_size, vector)  # InputError unless a preorder, or an equivalence for a Uniformity

    for cls, _ in originals:
        cls.unchecked = classmethod(validating)  # type: ignore[method-assign, assignment]
    try:
        yield calls
    finally:
        for cls, original in originals:
            cls.unchecked = original  # type: ignore[method-assign]


def main() -> int:
    ok = True
    grids = (("P2.8", "factor_universe_max", 4, 151_321), ("P5.ind", "index_sizes", (3,), 5_832))
    for prop, field, value, count in grids:
        grid = dataclasses.replace(default_grid(prop), **{field: value})
        with validating_closed_forms() as calls:
            report = verify_proposition(prop, grid)
        print(f"{prop} at {field} {value}: passed={report.passed}, checked={report.checked}, "
              f"{len(calls)} closed forms validated")
        ok = ok and report.passed and report.checked == count and bool(calls)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
