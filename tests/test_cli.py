import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fprod
from fprod import cli, serialize
from fprod.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_body(out):
    data = json.loads(out)
    data.pop("meta")
    return data


class TestGoldenReports:
    def test_verify_p23_json_matches_golden(self, capsys):
        code, out, err = run(
            capsys,
            "verify", "--prop", "P2.3", "--index-size", "2",
            "--factors", "sierpinski", "--json",
        )
        assert code == 0 and err == ""
        assert json_body(out) == json.loads((GOLDEN / "verify_p23.json").read_text())

    def test_check_ex29_text_matches_golden(self, capsys):
        code, out, err = run(
            capsys,
            "check", "--instance", str(GOLDEN / "ex29.json"), "--prop", "hausdorff",
        )
        assert code == 0 and err == ""
        assert out == (GOLDEN / "check_ex29.txt").read_text()

    def test_check_ex29_json_matches_golden(self, capsys):
        code, out, err = run(
            capsys,
            "check", "--instance", str(GOLDEN / "ex29.json"),
            "--prop", "hausdorff", "--json",
        )
        assert code == 0
        assert json_body(out) == json.loads((GOLDEN / "check_ex29.json").read_text())

    def test_construct_f_uniformity_json_matches_golden_byte_for_byte(self, capsys):
        code, out, err = run(
            capsys,
            "construct", "--instance", str(GOLDEN / "uniform2x2.json"), "--what", "f-uniformity",
        )
        assert code == 0 and err == ""
        body = json.dumps(json_body(out), indent=2, sort_keys=True) + "\n"
        assert body == (GOLDEN / "construct_f_uniformity.json").read_text()

    def test_construct_f_topology_json_matches_golden_byte_for_byte(self, capsys):
        # mixed factor sizes 1, 3 and 2 with multi-character labels, whose
        # lexicographic order differs from their code order
        code, out, err = run(
            capsys,
            "construct", "--instance", str(GOLDEN / "mixed132.json"), "--what", "f-topology",
        )
        assert code == 0 and err == ""
        body = json.dumps(json_body(out), indent=2, sort_keys=True) + "\n"
        assert body == (GOLDEN / "construct_f_topology_mixed.json").read_text()

    def test_reports_are_deterministic(self, capsys):
        args = ("verify", "--prop", "P2.3", "--index-size", "2",
                "--factors", "sierpinski", "--json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert json_body(out1) == json_body(out2)


class TestExitCodes:
    def test_zero_on_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--prop", "E2.9")
        assert code == 0
        assert "PASS" in out

    def test_one_when_search_finds_nothing(self, capsys):
        code, out, _ = run(
            capsys, "search", "--claim", "equalizer-dense-for-all-proper-filters"
        )
        assert code == 1
        assert "NONE-FOUND" in out

    def test_zero_when_search_finds_a_witness(self, capsys):
        code, out, _ = run(capsys, "search", "--claim", "hausdorff-for-all-filters")
        assert code == 0
        assert "WITNESS-FOUND" in out

    def test_three_when_a_search_budget_runs_out_before_a_witness(self, capsys):
        code, out, _ = run(
            capsys,
            "search", "--claim", "equalizer-dense-for-all-proper-filters", "--budget", "2",
        )
        assert code == 3
        assert "NONE-FOUND checked=2 complete=no" in out

    def test_zero_when_a_search_finds_its_witness_within_the_budget(self, capsys):
        # the witness is the grid's first instance, so a budget of one reaches it
        code, out, _ = run(
            capsys, "search", "--claim", "hausdorff-for-all-filters", "--budget", "1"
        )
        assert code == 0
        assert "WITNESS-FOUND checked=1 complete=yes" in out

    def test_one_on_verify_counterexample(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--prop", "P2.8", "--index-size", "2", "--factor-size", "2",
            "--filters", "1",
        )
        assert code == 1
        assert "COUNTEREXAMPLE" in out

    def test_two_on_malformed_instance(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "check", "--instance", str(bad), "--prop", "hausdorff")
        assert code == 2
        assert err.startswith("error: input:")

    def test_two_on_schema_violation(self, capsys, tmp_path):
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps({"index_set": ["1"], "factors": [{"points": ["0"], "nope": 1}]}))
        code, _, err = run(capsys, "check", "--instance", str(bad), "--prop", "hausdorff")
        assert code == 2
        assert "error: input:" in err

    def test_two_on_unknown_prop(self, capsys):
        code, _, err = run(capsys, "verify", "--prop", "P9.9")
        assert code == 2
        assert "unknown proposition id" in err

    def test_two_on_out_of_scope_prop(self, capsys):
        code, _, err = run(capsys, "verify", "--prop", "P2.12")
        assert code == 2
        assert "out of scope" in err

    def test_two_on_a_grid_flag_the_check_does_not_read(self, capsys):
        for argv, field in (
            (("--prop", "P2.10", "--index-size", "3"), "index_sizes"),
            (("--prop", "P2.3", "--factor-size", "3"), "factor_universe_max"),
            (("--prop", "P3.1", "--factor-size", "3"), "factor_universe_max"),
            (("--prop", "P2.8", "--factors", "sierpinski", "--factor-size", "2"),
             "factor_universe_max"),
        ):
            code, out, err = run(capsys, "verify", *argv)
            assert code == 2 and out == ""
            assert err.startswith("error: input:") and field in err

    @pytest.mark.parametrize("size", ["0", "-1"])
    @pytest.mark.parametrize("prop", ["P2.7", "P2.8", "P4.5", "P2.10"])
    def test_two_on_a_factor_size_below_one(self, capsys, prop, size):
        # no factor choices would mean no instances, and a vacuous pass
        code, out, err = run(capsys, "verify", "--prop", prop, "--factor-size", size)
        assert code == 2 and out == ""
        assert err == "error: input: factor size must be at least 1\n"

    def test_two_names_the_product_size_that_p43_cannot_enumerate_filters_on(self, capsys):
        # P4.3 walks every filter on the product, here on 2**3 = 8 points
        code, out, err = run(capsys, "verify", "--prop", "P4.3", "--index-size", "3")
        assert code == 2 and out == ""
        assert err == "error: input: filter enumeration supports 1 <= n <= 4, got n = 8\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--index-size", "0"), "index sizes must be positive"),
            (("--budget", "0"), "instance budget must be positive"),
            (("--filters", ","), "empty named filter entry ','"),
            (("--filters", ";"), "filter source 'named' needs at least one named filter"),
        ],
    )
    def test_two_on_a_malformed_grid(self, capsys, flags, message):
        code, out, err = run(capsys, "verify", "--prop", "P2.8", *flags)
        assert code == 2 and out == ""
        assert err == f"error: input: {message}\n"

    def test_factors_flag_fixes_the_enumerated_factors(self, capsys):
        for prop, factors, checked in (("P2.8", "sierpinski", 1), ("P4.5", "discrete2", 4)):
            code, out, _ = run(capsys, "verify", "--prop", prop, "--factors", factors, "--json")
            assert code == 0
            report = json_body(out)["report"]
            assert report["checked"] == checked
            assert report["grid"]["factor_source"] == "fixed"

    def test_three_on_budget_exhaustion(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--prop", "P2.3", "--index-size", "2",
            "--factors", "sierpinski", "--budget", "3",
        )
        assert code == 3
        assert "complete=no" in out

    def test_two_on_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "--instance", "/nope.json", "--prop", "t1")
        assert code == 2


class TestCheckCommand:
    def test_dense(self, capsys):
        code, out, _ = run(
            capsys,
            "check", "--instance", str(GOLDEN / "ex29.json"),
            "--prop", "dense", "--set", "0,0,0;0,1,0;0,0,1;0,1,1", "--json",
        )
        assert code == 0
        body = json_body(out)["report"]
        assert body["verdict"] is True  # meets every basic box (first coord is free)

    def test_dense_needs_set(self, capsys):
        code, _, err = run(
            capsys, "check", "--instance", str(GOLDEN / "ex29.json"), "--prop", "dense"
        )
        assert code == 2

    def test_resolvable(self, capsys):
        code, out, _ = run(
            capsys,
            "check", "--instance", str(GOLDEN / "ex29.json"),
            "--prop", "resolvable", "--n", "2", "--json",
        )
        assert code == 0
        body = json_body(out)["report"]
        assert body["verdict"] is True
        fam = body["detail"]["dense_family"]
        assert len(fam) == 2 and not (set(fam[0]) & set(fam[1]))

    def test_t1(self, capsys):
        code, out, _ = run(
            capsys,
            "check", "--instance", str(GOLDEN / "ex29.json"), "--prop", "t1", "--json",
        )
        assert code == 0
        assert json_body(out)["report"]["verdict"] is False

    def test_continuous_projections(self, capsys):
        code, out, _ = run(
            capsys,
            "check", "--instance", str(GOLDEN / "ex29.json"),
            "--prop", "continuous-projections", "--json",
        )
        assert code == 0
        assert json_body(out)["report"]["verdict"] is False


class TestConstructCommand:
    def test_f_topology_construction(self, capsys, tmp_path):
        out_file = tmp_path / "construction.json"
        code, _, _ = run(
            capsys,
            "construct", "--instance", str(GOLDEN / "ex29.json"),
            "--what", "f-topology", "--out", str(out_file),
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        body = data["report"]
        assert len(body["points"]) == 8
        assert ["(0,0,0)", "(1,0,0)"] in body["base"]
        assert body["opens"][0] == []

    def test_f_filter_construction(self, capsys, tmp_path):
        instance = {
            "index_set": ["1", "2"],
            "factors": [
                {"points": ["0", "1"], "filter": [["0"]]},
                {"points": ["0", "1"], "filter": [["0"]]},
            ],
            "index_filter": {"generators": [["1"]], "trivial": False},
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        code, out, _ = run(capsys, "construct", "--instance", str(path), "--what", "f-filter")
        assert code == 0
        body = json_body(out)["report"]
        assert body["minimal"] == ["(0,0)", "(1,0)"]
        assert body["trivial"] is False

    def test_f_uniformity_construction(self, capsys, tmp_path):
        instance = {
            "index_set": ["1"],
            "factors": [
                {
                    "points": ["0", "1"],
                    "uniformity_base": [[["0", "0"], ["1", "1"]]],
                }
            ],
            "index_filter": {"generators": [], "trivial": True},
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        code, out, _ = run(capsys, "construct", "--instance", str(path), "--what", "f-uniformity")
        assert code == 0
        body = json_body(out)["report"]
        assert [["(0)", "(0)"], ["(1)", "(1)"]] in body["base"]

    def test_f_uniformity_rejects_an_invalid_base(self, capsys, tmp_path):
        instance = {
            "index_set": ["1"],
            "factors": [{"points": ["0", "1"], "uniformity_base": [[["0", "1"]]]}],
            "index_filter": {"generators": [], "trivial": True},
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        code, out, err = run(capsys, "construct", "--instance", str(path), "--what", "f-uniformity")
        assert code == 2 and out == ""
        assert err.startswith("error: input:")

    @pytest.mark.parametrize("where", ["factor filter", "index filter"])
    def test_f_filter_rejects_disjoint_generators(self, capsys, tmp_path, where):
        factor_gens, index_gens = [["0"]], [["1"]]
        if where == "factor filter":
            factor_gens = [["0"], ["1"]]
        else:
            index_gens = [["1"], ["2"]]
        instance = {
            "index_set": ["1", "2"],
            "factors": [{"points": ["0", "1"], "filter": factor_gens}] * 2,
            "index_filter": {"generators": index_gens, "trivial": False},
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        code, out, err = run(capsys, "construct", "--instance", str(path), "--what", "f-filter")
        assert code == 2 and out == ""
        assert err.strip() == "error: input: family is not a filter base"


class TestEnumerateCommand:
    def test_topologies_size_2(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--what", "topologies", "--size", "2")
        assert code == 0
        assert "topologies of size 2: 4" in out

    def test_filters_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--what", "filters", "--size", "3", "--json")
        assert code == 0
        body = json_body(out)["report"]
        assert body["count"] == 8

    def test_d_complements(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--what", "d-complements", "--size", "3", "--d", "2"
        )
        assert code == 0
        assert "not intersection-closed" in out

    def test_d_complements_above_the_member_cap_exits_2(self, capsys):
        code, out, err = run(
            capsys, "enumerate", "--what", "d-complements", "--size", "17", "--d", "2"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: resource:")


class TestInstanceRoundTrip:
    def test_parse_then_serialize_is_identity_on_goldens(self):
        data = json.loads((GOLDEN / "ex29.json").read_text())
        spec = serialize.parse_instance(data)
        assert serialize.spec_to_dict(spec) == data

    def test_serialized_witness_reparses(self, capsys):
        code, out, _ = run(
            capsys, "search", "--claim", "hausdorff-for-all-filters", "--json"
        )
        assert code == 0
        witness = json_body(out)["report"]["witness"]
        spec = serialize.parse_instance(witness["instance"])
        assert serialize.spec_to_dict(spec) == witness["instance"]


class TestPointLabels:
    @pytest.mark.parametrize("instance", [
        json.loads((GOLDEN / "mixed132.json").read_text()),
        {"index_set": ["a"], "factors": [{"points": ["x0", "x1", "x2", "x3"]}]},
    ])
    def test_one_pass_table_matches_the_single_point_label(self, instance):
        spec = serialize.parse_instance(instance)
        total = spec.indexing.total
        assert serialize.product_point_labels(spec) == [
            serialize.product_point_label(c, spec) for c in range(total)
        ]


class TestParserReuse:
    """main() builds its parser once per process; no call leaves state for the next."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Forget the shared parser and count the builds from here on."""
        monkeypatch.setattr(cli, "_parser", None)
        original = cli.build_parser
        calls = []

        def counting():
            calls.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counting)
        return calls

    def test_a_rejected_command_leaves_the_next_one_as_a_first_call(self, capsys, builds):
        first = run(capsys, "verify", "--prop", "E2.9")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--prop", "E2.9", "--index-size", "x"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        assert run(capsys, "verify", "--prop", "E2.9") == first
        assert first[0] == 0 and first[1].startswith("prop E2.9: PASS")

    def test_no_flag_or_default_leaks_between_calls(self, capsys, builds, tmp_path):
        code, out, _ = run(capsys, "verify", "--prop", "E2.9", "--json")
        assert code == 0 and json.loads(out)["report"]["prop"] == "E2.9"
        code, out, _ = run(capsys, "verify", "--prop", "E2.9")
        assert code == 0 and out.startswith("prop E2.9: PASS")
        # construct defaults json to true; a later check must not inherit it
        report = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "construct", "--instance", str(GOLDEN / "ex29.json"),
            "--what", "f-topology", "--out", str(report),
        )
        assert code == 0 and out == "" and report.is_file()
        code, out, _ = run(
            capsys, "check", "--instance", str(GOLDEN / "ex29.json"), "--prop", "hausdorff",
        )
        assert code == 0 and out == (GOLDEN / "check_ex29.txt").read_text()

    def test_the_parser_is_built_at_most_once_across_calls(self, capsys, builds):
        for _ in range(5):
            run(capsys, "verify", "--prop", "E2.9")
            run(capsys, "enumerate", "--what", "filters", "--size", "2")
        with pytest.raises(SystemExit):
            main(["verify"])
        capsys.readouterr()
        assert len(builds) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_a_fresh_import_builds_no_parser(self):
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import fprod.cli\n"
            "print(len(built), fprod.cli._parser is None)\n"
        )
        src = str(Path(fprod.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "0 True\n"
