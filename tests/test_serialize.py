"""The report writer and the instance parser of fprod.serialize."""

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from fprod import serialize
from fprod.cli import main
from fprod.filters import Filter
from fprod.foundations import InputError, SubsetMask, Universe
from fprod.fproduct import Factor, f_filter, f_topology, product_spec
from fprod.topology import discrete, sierpinski


def reference(value):
    return json.dumps(value, indent=2, sort_keys=True)


# every character class the encoder escapes: quotes, backslashes, control
# characters, non-ASCII (astral and lone surrogates too), plus plain ASCII
characters = st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€ 😀\ud800a') | st.characters(
    exclude_categories=()
)
texts = st.text(characters, max_size=8)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # nan and both infinities included
    | texts
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.lists(texts, max_size=5)  # the joined fast path: every item a string
    | st.dictionaries(texts, children, max_size=5),
    max_leaves=25,
)


class TestReportWriter:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(json_values)
    def test_equals_the_stdlib_indented_sorted_dump(self, value):
        assert serialize.to_json(value) == reference(value)

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -float("inf"), -0.0, 1e300, True, None, 2**70, "é\n",
        [], {}, [[]], {"a": {}}, ("x", ("y",)), ["a", 1, "b"], [1, "a"], ["a", ["b"]],
        {"b": ["x", "y"], "a": [{"c": None}]},
    ])
    def test_edge_values(self, value):
        assert serialize.to_json(value) == reference(value)

    @pytest.mark.parametrize("value", [[object()], {"k": {1: 1, "a": 2}}, {"k": [{1: "x"}]}])
    def test_raises_on_what_reports_never_hold(self, value):
        # an object the stdlib cannot encode either, or a key that is not a str
        with pytest.raises(TypeError):
            serialize.to_json(value)

    def test_a_label_list_is_one_line_per_label(self):
        assert serialize.to_json({"s": ["(0,1)", "(1,1)"]}) == (
            '{\n  "s": [\n    "(0,1)",\n    "(1,1)"\n  ]\n}'
        )
        assert math.isnan(json.loads(serialize.to_json([float("nan")]))[0])


def factor(points, opens=None):
    out = {"points": points}
    if opens is not None:
        out["opens"] = opens
    return out


def instance(factors):
    return {
        "index_set": [str(i + 1) for i in range(len(factors))],
        "factors": factors,
        "index_filter": {"generators": [], "trivial": True},
    }


class TestFactorMemo:
    def test_a_repeated_factor_is_parsed_once_into_one_object(self, monkeypatch):
        f = factor(["0", "1"], [["0"], ["1"]])
        # as read from a file: equal factors, each its own dict
        data = json.loads(json.dumps(instance([f] * 5)))
        parses = []
        original = serialize.factor_from_dict
        monkeypatch.setattr(serialize, "factor_from_dict", lambda d: parses.append(d) or original(d))
        spec = serialize.parse_instance(data)
        assert parses == [f]
        assert all(g is spec.factors[0] for g in spec.factors)
        assert serialize.spec_to_dict(spec) == data

    def test_factors_that_differ_in_one_label_stay_apart(self):
        a = factor(["0", "1"], [["0"], ["1"]])
        b = factor(["0", "2"], [["0"], ["2"]])
        spec = serialize.parse_instance(instance([a, b, a, b]))
        first, second = spec.factors[:2]
        assert first is not second and first != second
        assert spec.factors == (first, second, first, second)
        assert first.universe.labels == ("0", "1") and second.universe.labels == ("0", "2")

    def test_a_repeated_invalid_factor_raises_its_own_message(self):
        bad = factor(["0", "1"], [["0"]])  # covers no neighbourhood of "1"
        with pytest.raises(InputError) as direct:
            serialize.factor_from_dict(bad)
        with pytest.raises(InputError) as parsed:
            serialize.parse_instance(instance([factor(["0"], [["0"]]), bad, bad]))
        assert str(parsed.value) == str(direct.value) == "family is not a topology base"

    def test_the_first_invalid_factor_is_the_one_reported(self):
        unknown_key = {"points": ["0"], "colour": "red"}
        bad_base = factor(["0", "1"], [["0"]])
        with pytest.raises(InputError, match="unknown factor keys"):
            serialize.parse_instance(instance([unknown_key, bad_base, unknown_key]))
        with pytest.raises(InputError, match="not a topology base"):
            serialize.parse_instance(instance([bad_base, unknown_key, bad_base]))


def one_factor(**fields):
    """An instance of one factor with these fields over the points 0 and 1."""
    return {"index_set": ["1"], "factors": [{"points": ["0", "1"], **fields}]}


def index_filter(value):
    return {"index_set": ["1"], "factors": [factor(["0"])], "index_filter": value}


# a malformed document per schema check that parse_instance reaches, with its message
MALFORMED = [
    ([], "an instance must be a JSON object"),
    ({"index_set": [], "factors": [], "extra": 1}, "unknown instance keys: ['extra']"),
    ({"index_set": ["1"]}, "an instance needs 'index_set' and 'factors'"),
    ({"index_set": [1], "factors": []}, "'index_set' must be a list of labels"),
    ({"index_set": ["1"], "factors": {}}, "'factors' must be a list"),
    ({"index_set": ["1"], "factors": ["0"]}, "a factor must be an object"),
    ({"index_set": ["1"], "factors": [{"points": ["0"], "topology": []}]},
     "unknown factor keys: ['topology']"),
    ({"index_set": ["1"], "factors": [{"opens": []}]}, "a factor needs a 'points' list"),
    ({"index_set": ["1"], "factors": [{"points": [0]}]}, "factor 'points' must be a list of labels"),
    (one_factor(opens="0"), "a set family must be a list of subsets"),
    (one_factor(opens=["0"]), "a subset must be a list of labels, got '0'"),
    (one_factor(opens=[["0", "0"]]), "duplicate labels in subset ['0', '0']"),
    (one_factor(filter=[]), "a factor filter needs at least one generator"),
    (one_factor(uniformity_base=[]), "a factor uniformity base must be a nonempty list of relations"),
    (one_factor(uniformity_base=["0"]), "a relation must be a list of [x, y] label pairs"),
    (one_factor(uniformity_base=[[["0"]]]), "a relation pair must be [x, y], got ['0']"),
    (index_filter([]), "a filter must be an object with generators/trivial"),
    (index_filter({"core": []}), "unknown filter keys: ['core']"),
    (index_filter({"trivial": 1}), "filter 'trivial' must be a boolean"),
    (index_filter({"generators": [["1"]], "trivial": True}), "a trivial filter takes no generators"),
]


class TestMalformedInstances:
    @pytest.mark.parametrize("doc, message", MALFORMED)
    def test_each_schema_check_raises_its_message(self, doc, message):
        with pytest.raises(InputError) as raised:
            serialize.parse_instance(doc)
        assert str(raised.value) == message

    @pytest.mark.parametrize("doc, message", MALFORMED)
    def test_construct_exits_two_with_one_input_line(self, capsys, tmp_path, doc, message):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        code = main(["construct", "--instance", str(path), "--what", "f-topology"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: input: {message}\n"


def labels_oracle(mask, labels):
    """The per-code generator the bytewise kernel replaced: one label per set bit."""
    return sorted(labels[code] for code in mask)


def _construct_workload_masks():
    """Every subset that `construct` labels on the benchmark's products: each base
    member of the f-topology and the f-filter core, with and without index core {1}."""
    for t, k in ((discrete(2), 7), (sierpinski(), 8), (discrete(3), 4)):
        factor = Factor(Universe.points(t.universe_size), topology=t,
                        filter=Filter(t.universe_size, SubsetMask(t.universe_size, 1)))
        for core in (0, 1):
            spec = product_spec([factor] * k, Filter(k, SubsetMask(k, core)))
            points = serialize.product_point_labels(spec)
            for mask in (*f_topology(spec).base, f_filter(spec).core):
                yield mask, points


class TestSubsetLabels:
    @staticmethod
    def both(mask, labels):
        universe = Universe(tuple(labels))
        return serialize.mask_to_labels(mask, universe), serialize.product_subset_to_labels(mask, labels)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 4096])
    def test_empty_full_and_top_bit_masks(self, n):
        labels = [f"p{code:04d}"[::-1] for code in range(n)]  # label order differs from code order
        for bits in (0, (1 << n) - 1, 1 << (n - 1)):
            mask = SubsetMask(n, bits)
            want = labels_oracle(mask, labels)
            if n <= 64:  # a Universe holds at most 64 labels
                assert self.both(mask, labels) == (want, want)
            assert serialize.product_subset_to_labels(mask, labels) == want

    def test_every_construct_workload_mask(self):
        count = 0
        for mask, points in _construct_workload_masks():
            assert serialize.product_subset_to_labels(mask, points) == labels_oracle(mask, points)
            count += 1
        assert count > 500

    def test_seeded_random_masks_up_to_4096_points(self):
        rng = random.Random(2013)
        for thinning in range(100):
            n = rng.randint(1, 4096)
            labels = [str(rng.random()) for _ in range(n)]
            bits = rng.getrandbits(n)
            for _ in range(thinning % 5):  # each AND halves the density
                bits &= rng.getrandbits(n)
            mask = SubsetMask(n, bits)
            assert serialize.product_subset_to_labels(mask, labels) == labels_oracle(mask, labels)
            if n <= 64:
                assert serialize.mask_to_labels(mask, Universe(tuple(labels))) == labels_oracle(mask, labels)
