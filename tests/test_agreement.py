"""Sampled agreement of the closed forms with their definitional routes.

f_topology, f_filter and f_uniformity compute each product in closed form,
and f_topology builds it without validation. The exhaustive
grids stop at 4-point factors and 4 indexes, so these tests draw products
beyond them with Hypothesis (Claessen and Hughes, "QuickCheck", ICFP 2000;
MacIver et al., "Hypothesis", JOSS 2019): factor preorders on 1 to 8 points,
each the reflexive-transitive closure of a random relation, over 1 to 5
indexes, with a random index core. A draw is kept when its product has at
most MAX_POINTS points and its box base at most MAX_BOXES boxes, the sizes
that the definitional routes enumerate in well under a second. The box bases,
which build only the accepted boxes, are also drawn against tests/by_delta.py,
which builds every box and keeps those whose δ is accepted, under random
cores and random δ families. Every test is derandomized, keeps no example
database and states its max_examples.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from fprod import fproduct
from fprod.cli import main
from fprod.filters import Filter, generate_filter
from fprod.foundations import InputError, SetFamily, SubsetMask, Universe
from fprod.fproduct import (
    Factor,
    f_filter,
    f_filter_base,
    f_filter_core,
    f_topology,
    f_topology_base,
    f_topology_via_base,
    f_uniformity,
    f_uniformity_base,
    product_spec,
)
from fprod.topology import Topology, enumerate_topologies, sierpinski
from fprod.uniformity import Relation, Uniformity, generate_uniformity
from fprod.verifier import _REGISTRY, default_grid, search_counterexample, verify_proposition

import by_delta
from validate_closed_forms import validating_closed_forms

MAX_POINTS = 512
MAX_BOXES = 20_000


def sampled(max_examples: int):
    return settings(
        max_examples=max_examples,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )


def closure(rows: list[int]) -> tuple[int, ...]:
    """The reflexive-transitive closure of a relation given by its rows, as a mins vector."""
    mins = [row | 1 << x for x, row in enumerate(rows)]
    for k in range(len(mins)):  # Warshall: whoever reaches k reaches all k reaches
        for x, m in enumerate(mins):
            if m >> k & 1:
                mins[x] = m | mins[k]
    return tuple(mins)


@st.composite
def preorders(draw, max_points: int = 8) -> Topology:
    n = draw(st.integers(1, max_points))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return Topology(n, closure(rows))


@st.composite
def index_filters(draw, k: int) -> Filter:
    """A random index core; the empty one is the trivial filter."""
    return Filter(k, SubsetMask(k, draw(st.integers(0, (1 << k) - 1))))


@st.composite
def topology_products(draw):
    topologies = draw(st.lists(preorders(), min_size=1, max_size=5))
    assume(math.prod(t.universe_size for t in topologies) <= MAX_POINTS)
    assume(math.prod(len(t.opens()) - 1 for t in topologies) <= MAX_BOXES)  # nonempty open boxes
    factors = [Factor(Universe.points(t.universe_size), topology=t) for t in topologies]
    return product_spec(factors, draw(index_filters(len(factors))))


@st.composite
def filter_products(draw):
    cores = draw(st.lists(st.integers(1, 8).flatmap(lambda n: st.integers(1, (1 << n) - 1).map(
        lambda core: (n, core))), min_size=1, max_size=5))
    assume(math.prod(n for n, _ in cores) <= MAX_POINTS)
    assume(math.prod(2 ** (n - core.bit_count()) for n, core in cores) <= MAX_BOXES)  # member boxes
    factors = [
        Factor(Universe.points(n), filter=Filter(n, SubsetMask(n, core))) for n, core in cores
    ]
    return product_spec(factors, draw(index_filters(len(factors))))


@st.composite
def equivalences(draw, max_points: int = 6) -> tuple[int, ...]:
    """The rows of an equivalence relation: points with the same drawn block id."""
    n = draw(st.integers(1, max_points))
    blocks = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return tuple(sum(1 << y for y in range(n) if blocks[y] == b) for b in blocks)


@st.composite
def uniformity_products(draw):
    """Factors whose uniformity base is an equivalence E plus random relations above it."""
    factors = []
    for rows in draw(st.lists(equivalences(), min_size=1, max_size=5)):
        n = len(rows)
        least = Relation.from_rows(rows).pairs.bits
        extra = draw(st.lists(st.integers(0, (1 << n * n) - 1), max_size=2))
        base = SetFamily(n * n, sorted({least, *(least | e for e in extra)}))
        factors.append(Factor(Universe.points(n), uniformity_base=base))
    assume(math.prod(f.universe.size for f in factors) ** 2 <= 4096)  # the squared-size cap
    return product_spec(factors, draw(index_filters(len(factors))))


@sampled(max_examples=600)
@given(topology_products())
def test_f_topology_equals_the_base_route_and_is_a_preorder(spec):
    t = f_topology(spec)
    assert t == f_topology_via_base(spec)
    Topology(t.universe_size, t.mins)  # the full validation that f_topology skips


@sampled(max_examples=300)
@given(filter_products())
def test_f_filter_equals_the_filter_of_its_box_base(spec):
    assert f_filter(spec) == generate_filter(f_filter_base(spec))


@sampled(max_examples=200)
@given(uniformity_products())
def test_f_uniformity_equals_the_uniformity_of_its_box_base(spec):
    assert f_uniformity(spec) == generate_uniformity(f_uniformity_base(spec))


@sampled(max_examples=300)
@given(topology_products())
def test_the_topology_base_is_the_by_delta_route_under_the_index_core(spec):
    assert f_topology_base(spec) == by_delta.topology_base(spec)


@sampled(max_examples=300)
@given(topology_products(), st.data())
def test_the_topology_base_is_the_by_delta_route_under_a_delta_family(spec, data):
    k = len(spec.factors)
    family = SetFamily(k, sorted(data.draw(st.sets(st.integers(0, (1 << k) - 1), min_size=1))))
    assert f_topology_base(spec, family) == by_delta.topology_base(spec, family.contains_bits)


@sampled(max_examples=200)
@given(filter_products())
def test_the_filter_base_is_the_by_delta_route(spec):
    assert f_filter_base(spec) == by_delta.filter_base(spec)


@sampled(max_examples=150)
@given(uniformity_products())
def test_the_uniformity_base_is_the_by_delta_route(spec):
    assert f_uniformity_base(spec) == by_delta.uniformity_base(spec)


@sampled(max_examples=200)
@given(preorders(max_points=4))
def test_the_sampler_draws_only_topologies(t):
    assert t in enumerate_topologies(t.universe_size)


def drop_one_bit_of_the_last_box(monkeypatch, broken_kind):
    """Make fproduct.filter_cores drop the highest other point from the last point's box of one kind of rows."""
    original = fproduct.filter_cores

    def drop_one_bit(spec, kind, index_core=None):
        boxes = list(original(spec, kind, index_core))
        x = len(boxes) - 1
        others = boxes[x] & ~(1 << x)
        if kind == broken_kind and others:
            boxes[x] ^= 1 << (others.bit_length() - 1)
        return tuple(boxes)

    monkeypatch.setattr(fproduct, "filter_cores", drop_one_bit)


def test_a_dropped_bit_in_the_minimal_boxes_fails_the_agreement_test(monkeypatch):
    # f_topology builds unchecked, so the agreement test alone must catch a broken kernel
    drop_one_bit_of_the_last_box(monkeypatch, "mins")
    spec = product_spec([Factor(Universe.points(2), topology=sierpinski())] * 2, Filter(2, SubsetMask(2, 0)))
    broken = f_topology(spec)  # point (1,1) loses (0,1): still a preorder, so no check objects
    assert Topology(broken.universe_size, broken.mins) == broken
    assert broken != f_topology_via_base(spec)
    with pytest.raises(AssertionError):
        test_f_topology_equals_the_base_route_and_is_a_preorder()


def test_a_dropped_bit_in_an_f_uniformity_row_fails_the_agreement_test(monkeypatch):
    # f_uniformity builds unchecked too, so the agreement test alone must catch a broken row
    drop_one_bit_of_the_last_box(monkeypatch, "rows")
    full_square = SetFamily(4, [0b1111])
    spec = product_spec([Factor(Universe.points(2), uniformity_base=full_square)] * 2, Filter(2, SubsetMask(2, 0)))
    broken = f_uniformity(spec)  # point 3's row loses point 2: no longer an equivalence
    assert broken.rows == (0b1111, 0b1111, 0b1111, 0b1011)
    with pytest.raises(InputError):
        Uniformity(broken.point_count, broken.rows)
    assert broken != generate_uniformity(f_uniformity_base(spec))
    with pytest.raises(AssertionError):
        test_f_uniformity_equals_the_uniformity_of_its_box_base()


class TestFilterCore:
    @pytest.mark.parametrize("prop, index_size", [("P4.1", None), ("P4.2", None), ("P4.3", None), ("P4.2", 4)])
    def test_equals_the_core_of_f_filter_on_the_grid(self, prop, index_size):
        grid = default_grid(prop)
        if index_size is not None:
            grid = dataclasses.replace(grid, index_sizes=(index_size,))
        specs = list(_REGISTRY[prop].instances(grid))
        assert specs
        for spec in specs:
            assert f_filter_core(spec) == f_filter(spec).core.bits


class TestClosedFormsPassFullValidation:
    """Each call site of the unchecked constructors, validated on every default grid."""

    def test_every_default_grid_gives_the_same_report_and_every_site_is_reached(self):
        def reports():
            return {
                check_id: (search_counterexample if entry.claim else verify_proposition)(check_id).to_dict()
                for check_id, entry in _REGISTRY.items()
            }

        trusted = reports()
        with validating_closed_forms() as calls:
            validated = reports()
            for n in range(1, 5):  # the cached enumerations were built before the patch
                assert enumerate_topologies.__wrapped__(n) == enumerate_topologies(n)
        assert validated == trusted
        assert calls

    def test_the_uniformity_builder_validates_inside_and_trusts_outside(self):
        not_an_equivalence = (0b01, 0b11)  # 0 lies in the row of 1, but the rows differ
        with validating_closed_forms() as calls:
            with pytest.raises(InputError):
                Uniformity.unchecked(2, not_an_equivalence)
            report = verify_proposition("P5.ind")
        assert report.passed and report.checked == 324 and calls  # every f_uniformity row passed Uniformity(...)
        assert Uniformity.unchecked(2, not_an_equivalence).rows == not_an_equivalence

    def test_the_construct_golden(self, capsys):
        folder = Path(__file__).parent / "golden"
        with validating_closed_forms() as calls:
            assert main(["construct", "--instance", str(folder / "mixed132.json"), "--what", "f-topology"]) == 0
        body = json.loads(capsys.readouterr().out)
        body.pop("meta")
        want = (folder / "construct_f_topology_mixed.json").read_text()
        assert json.dumps(body, indent=2, sort_keys=True) + "\n" == want
        assert calls == [1, 3, 2, 6]  # the three factors' generated topologies, then the product
