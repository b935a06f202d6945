"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every check is exhaustive at its stated grid and asserted against the
stated wall-clock budget.
"""

import itertools
import json
import random
import time
from pathlib import Path

import pytest

from fprod.cli import main as cli_main
from fprod.foundations import SetFamily, SubsetMask, is_intersection_closed
from fprod.fproduct import f_topology_base, product_spec
from fprod.topology import enumerate_topologies, generate_topology, validate_base
from fprod.verifier import (
    enumerate_filters,
    preset_factor,
    search_counterexample,
    verify_proposition,
)

GOLDEN = Path(__file__).parent / "golden"


class _Budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget: {elapsed:.1f}s"
            )
            print(f"ACCEPTANCE {self.criterion}: PASS ({elapsed:.2f}s)")
        return False


def test_criterion_01_box_base_iff_intersection_closed():
    with _Budget(1, 10):
        for k in (2, 3):
            spec = product_spec(tuple(preset_factor("sierpinski") for _ in range(k)))
            subset_count = 1 << k
            for fam_bits in range(1, 1 << subset_count):
                fam = SetFamily.of(
                    k, [SubsetMask(k, m) for m in range(subset_count) if fam_bits >> m & 1]
                )
                base = f_topology_base(spec, delta_family=fam)
                if is_intersection_closed(fam):
                    assert validate_base(base), fam
                else:
                    assert not validate_base(base), fam
        report = verify_proposition("P2.1")
        assert report.passed and report.complete and report.checked == 270


def test_criterion_02_order_immersion():
    with _Budget(2, 30):
        report = verify_proposition("P2.3")
        assert report.passed and report.complete
        assert report.checked == 4 ** 2 + 8 ** 2  # ordered filter pairs for |I| = 2, 3


def test_criterion_03_pinned_index_counterexample():
    with _Budget(3, 1):
        from fprod.filters import principal_filter, trivial_filter
        from fprod.fproduct import f_topology

        factors = tuple(preset_factor("discrete2") for _ in range(3))
        pinned = product_spec(factors, principal_filter(SubsetMask.of(3, [0])))
        t = f_topology(pinned)
        assert not t.is_hausdorff()
        idx = pinned.indexing
        x = idx.encode_point((1, 0, 0))
        y = idx.encode_point((0, 0, 0))
        assert t.minimal_neighborhood(x).bits & t.minimal_neighborhood(y).bits
        boxed = product_spec(factors, trivial_filter(3))
        assert f_topology(boxed).is_hausdorff()
        report = verify_proposition("E2.9")
        assert report.passed and report.witness["detail"]["inseparable_pair"] == [
            "(0,0,0)",
            "(1,0,0)",
        ]


def test_criterion_04_projections_continuous_iff_trivial_filter():
    with _Budget(4, 30):
        report = verify_proposition("P2.7")
        assert report.passed and report.complete
        assert report.checked == 3 * 2 + 9 * 4 + 27 * 8


def test_criterion_05_hausdorff_iff_factors_hausdorff():
    with _Budget(5, 60):
        report = verify_proposition("P2.8")
        assert report.passed and report.complete
        assert report.checked == 34 * 34  # all topology pairs on <= 3-point factors


def test_criterion_06_equalizers_dense_and_disjoint():
    with _Budget(6, 30):
        report = verify_proposition("P3.1")
        assert report.passed and report.complete
        assert report.checked == 1 + 3 + 7  # proper filters for |I| = 1, 2, 3


def test_criterion_07_product_filter_properties():
    with _Budget(7, 30):
        for pid, count in (("P4.1", 258), ("P4.2", 258), ("P4.3", 9)):
            report = verify_proposition(pid)
            assert report.passed and report.complete and report.checked == count, pid
        # containment always holds; a non-saturated filter exhibits strictness
        search = search_counterexample("projection-filter-identity-for-all-filters")
        assert not search.passed
        detail = search.witness["detail"]
        assert detail["projected_filter"] == {"generators": [["0", "1"]], "trivial": False}
        assert detail["factor_filter"] == {"generators": [["0"]], "trivial": False}


def test_criterion_08_neighborhood_filter_identity():
    with _Budget(8, 60):
        report = verify_proposition("P4.5")
        assert report.passed and report.complete
        assert report.checked == 34 * 34 * 4


def test_criterion_09_product_uniformity_and_induced_topology():
    with _Budget(9, 60):
        for pid in ("P5.2", "P5.ind"):
            report = verify_proposition(pid)
            assert report.passed and report.complete and report.checked == 9 * 9 * 4, pid


def test_criterion_10_oracle_cross_checks():
    with _Budget(10, 30):
        # every family over 1-, 2- and 3-point universes, exhaustively
        for n in (1, 2, 3):
            for fam_bits in range(1 << (1 << n)):
                members = [SubsetMask(n, m) for m in range(1 << n) if fam_bits >> m & 1]
                fam = SetFamily.of(n, members)
                if not validate_base(fam):
                    continue
                t = generate_topology(fam)
                opens = {m.bits for m in t.opens()}
                bits = [m.bits for m in fam.members]
                for a in range(1 << n):
                    union_inside = 0
                    for b in bits:
                        if b & ~a == 0:
                            union_inside |= b
                    assert (a in opens) == (union_inside == a)
        # 500 random 4-point bases
        rng = random.Random(1789)
        produced = 0
        while produced < 500:
            masks = {15}
            for _ in range(rng.randrange(1, 6)):
                masks.add(rng.randrange(1, 16))
            changed = True
            while changed:
                changed = False
                for a, b in itertools.combinations(list(masks), 2):
                    if a & b and a & b not in masks:
                        masks.add(a & b)
                        changed = True
            fam = SetFamily.of(4, [SubsetMask(4, b) for b in masks])
            if not validate_base(fam):
                continue
            produced += 1
            t = generate_topology(fam)
            opens = {m.bits for m in t.opens()}
            bits = [m.bits for m in fam.members]
            for a in range(16):
                union_inside = 0
                for b in bits:
                    if b & ~a == 0:
                        union_inside |= b
                assert (a in opens) == (union_inside == a)
        assert len(enumerate_topologies(3)) == 29
        assert len(enumerate_filters(3, include_trivial=True)) == 8


def test_criterion_11_cli_contract(capsys, tmp_path):
    with _Budget(11, 5):
        # golden: verify --prop P2.3 --json
        code = cli_main(
            ["verify", "--prop", "P2.3", "--index-size", "2", "--factors", "sierpinski", "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        got = json.loads(out)
        got.pop("meta")
        assert got == json.loads((GOLDEN / "verify_p23.json").read_text())
        assert got["report"]["checked"] == 16

        # golden: check on the pinned-index instance
        code = cli_main(
            ["check", "--instance", str(GOLDEN / "ex29.json"), "--prop", "hausdorff"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out == (GOLDEN / "check_ex29.txt").read_text()

        # exit code 1: a search that finds no witness
        code = cli_main(["search", "--claim", "equalizer-dense-for-all-proper-filters"])
        capsys.readouterr()
        assert code == 1

        # exit code 2: malformed input
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code = cli_main(["check", "--instance", str(bad), "--prop", "hausdorff"])
        capsys.readouterr()
        assert code == 2

        # exit code 3: budget exhaustion
        code = cli_main(
            ["verify", "--prop", "P2.3", "--index-size", "2",
             "--factors", "sierpinski", "--budget", "3"]
        )
        capsys.readouterr()
        assert code == 3
