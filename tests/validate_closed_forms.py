"""Walk P2.8's factor-size-4 grid with the closed forms fully validated, and assert it passes.

f_topology, subspace, induced_topology, enumerate_topologies and
topology_from_base_bits build through Topology.unchecked, which skips the
preorder checks because their vectors are preorders by construction. Inside
validating_closed_forms() it validates through Topology(...) and still returns
the walk-shared object, so an invalid closed form raises InputError.

    python tests/validate_closed_forms.py

exits 0 when the grid passes, walks all 151,321 instances and validates at
least one closed form, and 1 otherwise.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Iterator

from fprod.topology import Topology
from fprod.verifier import default_grid, verify_proposition


@contextmanager
def validating_closed_forms() -> Iterator[list[int]]:
    """Make Topology.unchecked validate; yields the universe size of each call, in order."""
    calls: list[int] = []
    original = Topology.__dict__["unchecked"]

    def validating(cls, universe_size, mins):
        calls.append(universe_size)
        Topology(universe_size, mins)  # InputError unless mins is a preorder
        return original.__func__(cls, universe_size, mins)

    Topology.unchecked = classmethod(validating)  # type: ignore[method-assign, assignment]
    try:
        yield calls
    finally:
        Topology.unchecked = original  # type: ignore[method-assign]


def main() -> int:
    grid = dataclasses.replace(default_grid("P2.8"), factor_universe_max=4)
    with validating_closed_forms() as calls:
        report = verify_proposition("P2.8", grid)
    print(f"P2.8 at factor size 4: passed={report.passed}, checked={report.checked}, "
          f"{len(calls)} closed forms validated")
    return 0 if report.passed and report.checked == 151_321 and calls else 1


if __name__ == "__main__":
    raise SystemExit(main())
