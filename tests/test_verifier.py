import dataclasses
import itertools
import json

import pytest

import fprod.verifier
from fprod.filters import Filter, trivial_filter
from fprod.foundations import InputError, SetFamily, SubsetMask
from fprod.fproduct import (
    ProductSpec,
    different_by_filter,
    f_filter,
    f_filter_via_base,
    f_topology,
    f_topology_via_base,
    f_uniformity,
    f_uniformity_base,
    product_spec,
)
from fprod.serialize import product_point_label
from fprod.topology import discrete, indiscrete, sierpinski
from fprod.uniformity import Relation, generate_uniformity
from fprod.verifier import (
    FACTOR_PRESETS,
    _REGISTRY,
    InstanceGrid,
    OUT_OF_SCOPE,
    _decode,
    _encode,
    _p31_check,
    default_grid,
    enumerate_filters,
    preset_factor,
    proposition_catalog,
    replay_witness,
    search_counterexample,
    verify_proposition,
)


def family_is_filter(members, n):
    """Oracle: the family is the full powerset, or a nonempty empty-set-free
    family closed under meets and supersets."""
    full_powerset = len(members) == 1 << n
    if full_powerset:
        return True
    if not members or 0 in members:
        return False
    member_set = set(members)
    for a, b in itertools.product(members, repeat=2):
        if a & b not in member_set:
            return False
    for a in members:
        for sup in range(1 << n):
            if a & ~sup == 0 and sup not in member_set:
                return False
    return True


class TestEnumerateFilters:
    def test_counts(self):
        assert len(enumerate_filters(1, include_trivial=True)) == 2
        assert len(enumerate_filters(2, include_trivial=True)) == 4
        assert len(enumerate_filters(3, include_trivial=True)) == 8
        assert len(enumerate_filters(3, include_trivial=False)) == 7

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_family_scan_oracle(self, n):
        oracle_count = 0
        for fam_bits in range(1, 1 << (1 << n)):
            members = [m for m in range(1 << n) if fam_bits >> m & 1]
            if family_is_filter(members, n):
                oracle_count += 1
        assert oracle_count == len(enumerate_filters(n, include_trivial=True))

    def test_canonical_order(self):
        fils = enumerate_filters(2, include_trivial=True)
        assert [f.core.bits for f in fils[:-1]] == [1, 2, 3]
        assert fils[-1].trivial

    def test_cap(self):
        with pytest.raises(InputError):
            enumerate_filters(5)


class TestVerifyDefaults:
    @pytest.mark.parametrize(
        "prop_id,expected_checked",
        [
            ("P2.1", 270),   # (2^4 - 1) + (2^8 - 1) families
            ("P2.3", 80),    # 16 + 64 ordered filter pairs
            ("P2.5", 30),    # 2 + 4 + 8 + 16 filters
            ("P2.7", 258),   # 3*2 + 9*4 + 27*8 factor/filter combos
            ("E2.9", 2),
            ("P2.10", 34),   # 1 + 4 + 29 topologies
            ("P3.1", 11),    # 1 + 3 + 7 proper filters
            ("P4.1", 258),
            ("P4.2", 258),
            ("P4.3", 9),
            ("P5.2", 324),   # 81 base pairs * 4 filters
            ("P5.ind", 324),
        ],
    )
    def test_passes_with_expected_instance_count(self, prop_id, expected_checked):
        report = verify_proposition(prop_id)
        assert report.passed, report.witness
        assert report.complete
        assert report.checked == expected_checked

    def test_p28_passes(self):
        report = verify_proposition("P2.8")
        assert report.passed and report.complete
        assert report.checked == 34 * 34  # all topology pairs on <= 3 points

    def test_p45_passes(self):
        report = verify_proposition("P4.5")
        assert report.passed and report.complete
        assert report.checked == 34 * 34 * 4

    def test_e29_walks_every_index_size(self):
        grid = dataclasses.replace(default_grid("E2.9"), index_sizes=(2, 3))
        report = verify_proposition("E2.9", grid)
        assert report.passed and report.complete
        assert report.checked == 4  # a pinned and a trivial filter per index size
        assert report.to_dict()["grid"]["index_sizes"] == [2, 3]

    def test_e29_exhibits_the_inseparable_pair(self):
        report = verify_proposition("E2.9")
        assert report.passed
        assert report.witness is not None
        assert report.witness["detail"]["inseparable_pair"] == ["(0,0,0)", "(1,0,0)"]

    def test_determinism(self):
        a = verify_proposition("P2.3").to_dict()
        b = verify_proposition("P2.3").to_dict()
        assert a == b


class TestUniformityValidations:
    """A factor's uniformity base is validated once, when the factor is built."""

    @pytest.mark.parametrize(
        "prop_id,expected_calls",
        [
            ("P5.ind", 9),        # the 9 pool factors
            ("P5.2", 9 + 324),    # plus one product box base per instance
        ],
    )
    def test_validations_per_run(self, monkeypatch, prop_id, expected_calls):
        import fprod.uniformity as uniformity
        import fprod.verifier as verifier

        uniformity.enumerate_uniformity_bases(2)  # warm the cached scan
        original = uniformity.validate_uniformity_base
        calls = []

        def counting(fam):
            calls.append(fam)
            return original(fam)

        for module in (uniformity, verifier):
            monkeypatch.setattr(module, "validate_uniformity_base", counting)
        report = verify_proposition(prop_id)
        assert report.passed and report.checked == 324
        assert len(calls) == expected_calls


def assert_fault_caught(monkeypatch, prop_id, *detail_keys):
    """Under the patched fault the default grid fails with these detail keys, and the
    witness replays to the same verdict; without the fault the witness passes."""
    report = verify_proposition(prop_id)
    assert not report.passed and report.witness is not None
    assert set(detail_keys) <= set(report.witness["detail"])
    ok, detail = replay_witness(prop_id, report.witness)
    assert not ok and detail == report.witness["detail"]
    monkeypatch.undo()
    assert replay_witness(prop_id, report.witness) == (True, None)


class TestUniformityFaults:
    """P5.2 and P5.ind fail, with a replayable witness, when the layer they read is broken."""

    def test_p52_catches_a_box_base_with_an_asymmetric_member(self, monkeypatch):
        original = fprod.verifier.f_uniformity_base

        def with_asymmetric_member(spec):
            base = original(spec)
            n = spec.indexing.total
            pairs = [(x, y) for x in range(n) for y in range(n) if (x, y) != (0, 1)]
            asymmetric = Relation.from_pairs(n, pairs).pairs  # has (1, 0) but not (0, 1)
            return SetFamily.of(base.universe_size, [*base.members, asymmetric])

        monkeypatch.setattr(fprod.verifier, "f_uniformity_base", with_asymmetric_member)
        assert_fault_caught(monkeypatch, "P5.2", "box_family_is_uniformity_base")

    def test_p5ind_catches_a_closed_form_that_ignores_the_index_core(self, monkeypatch):
        original = fprod.verifier.f_uniformity

        def ignoring_the_core(spec):
            k = spec.index_universe.size
            return original(ProductSpec(spec.index_universe, spec.factors, trivial_filter(k)))

        monkeypatch.setattr(fprod.verifier, "f_uniformity", ignoring_the_core)
        assert_fault_caught(monkeypatch, "P5.ind", "induced_topology_differs")


class TestValidatorFaults:
    """P2.1, P4.1 and P2.8's slice branch fail, with a replayable witness, when the
    validator or construction they read is broken."""

    def test_p21_catches_a_closure_test_that_forgets_the_empty_intersection(self, monkeypatch):
        def pairwise_only(fam):
            return all(fam.contains_bits(a & b) for a in fam.bits for b in fam.bits)

        monkeypatch.setattr(fprod.verifier, "is_intersection_closed", pairwise_only)
        assert_fault_caught(
            monkeypatch, "P2.1", "family_intersection_closed", "box_family_is_base"
        )

    def test_p41_catches_a_box_base_without_its_smallest_box(self, monkeypatch):
        original = fprod.verifier.f_filter_base

        def without_the_smallest_box(spec):
            base = original(spec)
            return SetFamily(base.universe_size, base.bits[1:])

        monkeypatch.setattr(fprod.verifier, "f_filter_base", without_the_smallest_box)
        assert_fault_caught(monkeypatch, "P4.1", "box_family_is_filter_base")

    def test_p28_catches_a_slice_subspace_that_loses_its_opens(self, monkeypatch):
        monkeypatch.setattr(fprod.verifier, "subspace", lambda t, carrier: indiscrete(len(carrier)))
        assert_fault_caught(monkeypatch, "P2.8", "slice_not_homeomorphic_at_factor")


def catalog_specs():
    """Every distinct product spec with an index filter that a default grid builds.

    P2.3's second index filter counts as a spec of its own.
    """
    specs = set()
    for entry in _REGISTRY.values():
        for inst in entry.instances(entry.default_grid):
            parts = inst if isinstance(inst, tuple) else (inst,)
            if not isinstance(parts[0], ProductSpec):
                continue
            spec = parts[0]
            specs.add(spec)
            specs.update(
                ProductSpec(spec.index_universe, spec.factors, g)
                for g in parts[1:]
                if isinstance(g, Filter)
            )
    return [spec for spec in specs if spec.index_filter is not None]


def test_closed_forms_agree_with_their_box_bases_on_the_catalog():
    counts = {"topology": 0, "filter": 0, "uniformity": 0}
    for spec in catalog_specs():
        factors = spec.factors
        if all(f.topology is not None for f in factors):
            assert f_topology(spec) == f_topology_via_base(spec)
            counts["topology"] += 1
        if all(f.filter is not None for f in factors):
            assert f_filter(spec) == f_filter_via_base(spec)
            counts["filter"] += 1
        if all(f.uniformity is not None for f in factors):
            assert f_uniformity(spec) == generate_uniformity(f_uniformity_base(spec))
            counts["uniformity"] += 1
    assert all(counts.values()), counts


class TestHypothesisProbe:
    def test_p28_fails_under_a_non_saturated_filter(self):
        grid = InstanceGrid(
            index_sizes=(2,),
            factor_source="all-topologies",
            factor_universe_max=2,
            filter_source="named",
            named_filters=("1",),
        )
        report = verify_proposition("P2.8", grid)
        assert not report.passed
        assert report.witness is not None
        ok, detail = replay_witness("P2.8", report.witness)
        assert not ok
        assert detail == report.witness["detail"]

    @pytest.mark.parametrize(
        "check_id",
        ["E2.9", "hausdorff-for-all-filters", "projection-filter-identity-for-all-filters"],
    )
    def test_default_grid_witnesses_replay(self, check_id):
        claim = _REGISTRY[check_id].claim
        report = (search_counterexample if claim else verify_proposition)(check_id)
        assert report.witness is not None
        ok, detail = replay_witness(check_id, report.witness)
        assert ok == (not claim)
        assert detail == report.witness["detail"]

    def test_p31_disjointness_needs_a_proper_filter(self):
        grid = InstanceGrid(
            index_sizes=(2,),
            factor_source="fixed",
            factor_preset="discrete2",
            filter_source="trivial",
        )
        report = verify_proposition("P3.1", grid)
        assert not report.passed
        assert "overlapping_equalizers" in report.witness["detail"]

    def test_p31_witness_is_the_first_filter_different_pair(self, monkeypatch):
        # with every equalizer the whole product, each filter-different pair
        # overlaps, so the witness is the first such pair in row-major order
        monkeypatch.setattr(
            fprod.verifier,
            "equalizers",
            lambda spec: [SubsetMask.full(spec.indexing.total)] * spec.indexing.total,
        )
        specs = 0
        for preset, k in (("discrete2", 2), ("discrete2", 3), ("discrete3", 2)):
            factors = tuple(preset_factor(preset) for _ in range(k))
            for fil in enumerate_filters(k, include_trivial=True):
                spec = product_spec(factors, fil)
                total = spec.indexing.total
                first = next(
                    (x, y)
                    for x in range(total)
                    for y in range(total)
                    if different_by_filter(spec, x, y)
                )
                ok, detail = _p31_check(spec)
                assert not ok
                assert detail == {
                    "overlapping_equalizers": [product_point_label(p, spec) for p in first]
                }
                specs += 1
        assert specs == 4 + 8 + 4

    def test_p31_passes_at_the_deep_grid(self):
        grid = dataclasses.replace(
            default_grid("P3.1"), index_sizes=(4,), factor_preset="discrete3"
        )
        report = verify_proposition("P3.1", grid)
        assert report.passed and report.complete
        assert report.checked == 15  # the proper filters on 4 indexes


class TestBudget:
    def test_budget_truncates_and_flags(self):
        grid = InstanceGrid(
            index_sizes=(2,),
            factor_source="fixed",
            factor_preset="sierpinski",
            filter_source="all",
            max_instances=3,
        )
        report = verify_proposition("P2.3", grid)
        assert report.checked == 3
        assert not report.complete
        assert report.passed  # no counterexample among the checked prefix

    def test_budget_larger_than_grid_is_complete(self):
        grid = InstanceGrid(
            index_sizes=(2,),
            factor_source="fixed",
            factor_preset="sierpinski",
            filter_source="all",
            max_instances=1000,
        )
        report = verify_proposition("P2.3", grid)
        assert report.complete and report.checked == 16


class TestCatalog:
    def test_out_of_scope_ids_refuse_to_run(self):
        for pid in OUT_OF_SCOPE:
            with pytest.raises(InputError) as err:
                verify_proposition(pid)
            assert "out of scope" in str(err.value)

    def test_unknown_id(self):
        with pytest.raises(InputError):
            verify_proposition("P9.9")

    def test_catalog_is_total(self):
        catalog = proposition_catalog()
        assert set(catalog) == {
            "P2.1", "P2.3", "P2.5", "P2.7", "P2.8", "E2.9", "P2.10", "P3.1",
            "P4.1", "P4.2", "P4.3", "P4.5", "P5.2", "P5.ind",
            "C2.11", "P2.12", "C2.13", "L2.14", "P2.15",
        }
        assert catalog["P2.12"]["status"] == "out-of-scope"
        assert catalog["P2.3"]["status"] == "verifiable"


class TestSearch:
    def test_hausdorff_claim_refuted_at_first_filter(self):
        report = search_counterexample("hausdorff-for-all-filters")
        assert not report.passed
        assert report.checked == 1  # the first enumerated filter already fails
        witness = report.witness
        assert witness["instance"]["index_filter"] == {
            "generators": [["1"]],
            "trivial": False,
        }
        assert witness["detail"]["inseparable_pair"] == ["(0,0)", "(1,0)"]
        ok, _ = replay_witness("hausdorff-for-all-filters", witness)
        assert not ok

    def test_projection_identity_claim_refuted(self):
        report = search_counterexample("projection-filter-identity-for-all-filters")
        assert not report.passed
        detail = report.witness["detail"]
        assert detail["projected_filter"] == {"generators": [["0", "1"]], "trivial": False}
        assert detail["factor_filter"] == {"generators": [["0"]], "trivial": False}
        ok, _ = replay_witness("projection-filter-identity-for-all-filters", report.witness)
        assert not ok

    def test_negative_control_finds_nothing(self):
        report = search_counterexample("equalizer-dense-for-all-proper-filters")
        assert report.passed
        assert report.witness is None
        assert report.checked == 3 + 7  # proper filters on two and three indices

    def test_unknown_claim(self):
        with pytest.raises(InputError):
            search_counterexample("no-such-claim")

    def test_claim_catalog(self):
        assert {cid for cid, entry in _REGISTRY.items() if entry.claim} == {
            "hausdorff-for-all-filters",
            "projection-filter-identity-for-all-filters",
            "equalizer-dense-for-all-proper-filters",
        }


# the witness keys of each check whose instance is not a bare product spec
WITNESS_KEYS = {
    "P2.1": {"instance", "delta_family"},
    "P2.3": {"instance", "second_index_filter"},
    "P2.5": {"index_size", "index_filter"},
    "E2.9": {"instance", "expect_hausdorff"},
    "P2.10": {"space_size", "base"},
}


class TestTypedInstances:
    @pytest.mark.parametrize("check_id", sorted(_REGISTRY))
    def test_decode_inverts_encode_on_the_default_grid(self, check_id):
        """Checks run on typed instances; the JSON round trip they skip is the
        identity, and every instance of a check encodes to the same keys."""
        entry = _REGISTRY[check_id]
        count = 0
        for inst in entry.instances(entry.default_grid):
            payload = _encode(inst)
            assert set(payload) == WITNESS_KEYS.get(check_id, {"instance"})
            assert _decode(entry, json.loads(json.dumps(payload))) == inst
            count += 1
        assert count > 0


class TestReplayInput:
    """replay_witness takes only a witness of the check's own shape."""

    def test_missing_instance(self):
        with pytest.raises(InputError, match="keys"):
            replay_witness("P3.1", {})

    def test_p25_witness_without_its_index_size(self):
        witness = _encode(enumerate_filters(2)[0])
        assert replay_witness("P2.5", witness) == (True, None)
        del witness["index_size"]
        with pytest.raises(InputError, match="keys"):
            replay_witness("P2.5", witness)

    def test_e29_rejects_a_witness_of_another_shape(self):
        witness = search_counterexample("hausdorff-for-all-filters").witness
        assert replay_witness("hausdorff-for-all-filters", witness)[0] is False
        with pytest.raises(InputError, match="keys"):
            replay_witness("E2.9", witness)

    def test_unknown_key(self):
        witness = search_counterexample("hausdorff-for-all-filters").witness
        with pytest.raises(InputError, match="keys"):
            replay_witness("hausdorff-for-all-filters", {**witness, "note": "x"})

    @pytest.mark.parametrize("size", ["2", 0, True, None])
    def test_sizes_must_be_positive_integers(self, size):
        witness = {**_encode(enumerate_filters(2)[0]), "index_size": size}
        with pytest.raises(InputError, match="positive integer"):
            replay_witness("P2.5", witness)

    def test_flag_must_be_a_boolean(self):
        witness = verify_proposition("E2.9").witness
        assert replay_witness("E2.9", witness)[0] is True
        with pytest.raises(InputError, match="boolean"):
            replay_witness("E2.9", {**witness, "expect_hausdorff": "no"})

    def test_not_an_object(self):
        with pytest.raises(InputError):
            replay_witness("P3.1", ["instance"])


class TestWitnessRoundTrip:
    def test_witness_instances_parse_as_instance_files(self):
        from fprod import serialize

        grid = InstanceGrid(
            index_sizes=(2,),
            factor_source="all-topologies",
            factor_universe_max=2,
            filter_source="named",
            named_filters=("1",),
        )
        report = verify_proposition("P2.8", grid)
        spec = serialize.parse_instance(report.witness["instance"])
        assert serialize.spec_to_dict(spec) == report.witness["instance"]

    def test_preset_factor_unknown(self):
        with pytest.raises(InputError):
            preset_factor("nope")

    def test_presets_in_flag_order(self):
        """--factors lists FACTOR_PRESETS in this order."""
        expected = {"sierpinski": sierpinski(), "discrete2": discrete(2),
                    "discrete3": discrete(3), "indiscrete2": indiscrete(2)}
        assert FACTOR_PRESETS == tuple(expected)
        for name, topo in expected.items():
            assert preset_factor(name).topology == topo
