import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fprod
from fprod import cli, serialize, verifier
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

    @pytest.mark.parametrize("golden, code, argv", [
        ("verify_e29.txt", 0, ("verify", "--prop", "E2.9")),
        ("verify_p28_counterexample.txt", 1,
         ("verify", "--prop", "P2.8", "--index-size", "2", "--factor-size", "2", "--filters", "1")),
        ("search_hausdorff.txt", 0, ("search", "--claim", "hausdorff-for-all-filters")),
        ("enumerate_d_complements.txt", 0,
         ("enumerate", "--what", "d-complements", "--size", "3", "--d", "2")),
    ])
    def test_text_report_matches_golden(self, capsys, golden, code, argv):
        got, out, err = run(capsys, *argv)
        assert (got, err) == (code, "")
        assert out == (GOLDEN / golden).read_text()

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

    @pytest.mark.parametrize("argv", [
        ("construct", "--instance", "{labels}", "--what", "f-topology"),
        ("construct", "--instance", "{labels}", "--what", "f-filter"),
        ("construct", "--instance", str(GOLDEN / "mixed132.json"), "--what", "f-topology"),
        ("construct", "--instance", str(GOLDEN / "uniform2x2.json"), "--what", "f-uniformity"),
        ("verify", "--prop", "P2.3", "--index-size", "2", "--factors", "sierpinski", "--json"),
        ("verify", "--prop", "E2.9", "--json"),
        ("search", "--claim", "hausdorff-for-all-filters", "--json"),
        ("check", "--instance", str(GOLDEN / "ex29.json"), "--prop", "hausdorff", "--json"),
        ("check", "--instance", "{labels}", "--prop", "resolvable", "--n", "1", "--json"),
        ("enumerate", "--what", "filters", "--size", "2", "--json"),
        ("enumerate", "--what", "topologies", "--size", "3", "--json"),
        ("enumerate", "--what", "d-complements", "--size", "3", "--d", "1", "--json"),
    ])
    def test_raw_stdout_is_the_stdlib_indented_sorted_dump(self, capsys, tmp_path, argv):
        # the goldens compare re-encoded bodies; this compares the emitted bytes,
        # on labels with quotes, a backslash and non-ASCII characters too
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({
            "index_set": ["1", "2"],
            "factors": [{"points": ["é", 'q"', "\\"], "opens": [["é"], ["\\", 'q"']],
                         "filter": [["é"]]}] * 2,
            "index_filter": {"generators": [["1"]], "trivial": False},
        }), encoding="utf-8")
        code, out, err = run(capsys, *(str(path) if a == "{labels}" else a for a in argv))
        assert code == 0 and err == ""
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_a_text_witness_is_the_stdlib_indented_sorted_dump(self, capsys):
        _, out, _ = run(capsys, "search", "--claim", "hausdorff-for-all-filters", "--json")
        witness = json.loads(out)["report"]["witness"]
        _, text, _ = run(capsys, "search", "--claim", "hausdorff-for-all-filters")
        assert text.split("witness:\n", 1)[1] == json.dumps(witness, indent=2, sort_keys=True) + "\n"

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

    def test_two_on_a_p21_grid_over_the_walk_cap_and_three_within_a_budget(self, capsys):
        # 2^(2^5) - 1 families would be walked; the grid is refused before its first instance
        code, out, err = run(capsys, "verify", "--prop", "P2.1", "--index-size", "5")
        assert (code, out) == (2, "")
        assert err == (
            "error: resource: the grid of P2.1 plans 4,294,967,295 instances, over the walk cap"
            " of 1,048,576; an instance budget walks a prefix of it\n"
        )
        code, out, _ = run(capsys, "verify", "--prop", "P2.1", "--index-size", "5", "--budget", "5")
        assert code == 3 and "checked=5 complete=no" in out

    def test_the_walk_cap_fires_before_the_first_check(self, capsys, monkeypatch):
        entry = verifier._REGISTRY["P4.5"]

        def refused(inst):
            raise AssertionError("a grid over the walk cap checks no instance")

        monkeypatch.setitem(verifier._REGISTRY, "P4.5", dataclasses.replace(entry, check=refused))
        argv = ("verify", "--prop", "P4.5", "--index-size", "3", "--factor-size", "4")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "plans 470,910,952 instances, over the walk cap of 1,048,576" in err
        monkeypatch.undo()
        code, out, _ = run(capsys, *argv, "--budget", "5")
        assert code == 3 and "checked=5 complete=no" in out

    @pytest.mark.parametrize(
        "filters, first, second",
        [("1;1", "1", "1"), ("1,2;2,1", "1,2", "2,1"), ("trivial;trivial", "trivial", "trivial")],
    )
    def test_two_on_two_named_filters_that_are_the_same_filter(self, capsys, filters, first, second):
        code, out, err = run(capsys, "verify", "--prop", "P3.1", "--index-size", "2", "--filters", filters)
        assert (code, out) == (2, "")
        assert err == f"error: input: named filters {first!r} and {second!r} are the same filter\n"

    def test_every_entry_and_grid_flag_keeps_its_exit_code_and_message(self, capsys):
        """Each (entry, flags) row of tests/grid_flags.json: the exit code and stderr of the run."""
        variants = {
            "index-size": ["--index-size", "1"],
            "factor-size": ["--factor-size", "2"],
            "factors": ["--factors", "discrete2"],
            "factors-empty": ["--factors", "indiscrete2"],
            "filters-trivial": ["--filters", "trivial"],
            "filters-named": ["--filters", "1"],
            "budget": ["--budget", "3"],
            "factors-and-size": ["--factors", "sierpinski", "--factor-size", "2"],
        }
        table = json.loads((Path(__file__).parent / "grid_flags.json").read_text())
        seen = {}
        for check_id, entry in sorted(verifier._REGISTRY.items()):
            command = ["search", "--claim"] if entry.claim else ["verify", "--prop"]
            for name, flags in variants.items():
                code, _, err = run(capsys, *command, check_id, *flags)
                seen[f"{check_id} {name}"] = [code, err]
        assert seen == table

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

    def test_two_names_the_product_size_that_p43_cannot_enumerate_filters_on(self, capsys, monkeypatch):
        # P4.3 walks every filter on the product, here on 2**3 = 8 points: the plan
        # refuses the grid before its first instance is checked
        entry = verifier._REGISTRY["P4.3"]
        checked = []
        monkeypatch.setitem(verifier._REGISTRY, "P4.3", dataclasses.replace(entry, check=checked.append))
        code, out, err = run(capsys, "verify", "--prop", "P4.3", "--index-size", "3")
        assert code == 2 and out == "" and checked == []
        assert err == ("error: resource: P4.3 walks every filter on its 8-point products at index size 3, "
                       "over the filter enumeration cap of 4 points\n")

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
        assert err == "error: input: cannot read instance file /nope.json: No such file or directory\n"

    def test_two_on_an_instance_path_that_is_a_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "construct", "--instance", str(tmp_path), "--what", "f-topology")
        assert code == 2 and out == ""
        assert err == f"error: input: cannot read instance file {tmp_path}: Is a directory\n"

    def test_two_on_an_unreadable_instance(self, capsys, monkeypatch):
        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(cli, "open", denied, raising=False)  # shadows the builtin in cli only
        code, out, err = run(capsys, "check", "--instance", "inst.json", "--prop", "t1")
        assert code == 2 and out == ""
        assert err == "error: input: cannot read instance file inst.json: Permission denied\n"

    def test_two_on_an_instance_that_is_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"index_set": ["\u00e9"]}'.encode("latin-1"))
        code, out, err = run(capsys, "check", "--instance", str(bad), "--prop", "t1")
        assert code == 2 and out == ""
        assert err == (
            "error: input: instance file is not valid UTF-8 JSON: 'utf-8' codec can't decode"
            " byte 0xe9 in position 16: invalid continuation byte\n"
        )

    @pytest.mark.parametrize(
        "grid", [("--factors", "indiscrete2"), ("--factor-size", "1")], ids=["indiscrete2", "factor-size-1"]
    )
    def test_two_on_a_grid_with_no_instances(self, capsys, grid):
        # P2.7 keeps only non-trivial factors, and neither grid has one
        code, out, err = run(capsys, "verify", "--prop", "P2.7", *grid)
        assert code == 2 and out == ""
        assert err == "error: input: the grid of P2.7 has no instances, so it checks nothing\n"

    def test_two_when_the_report_cannot_be_written(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "verify", "--prop", "P2.5", "--out", str(target))
        assert code == 2 and out == ""
        assert err == f"error: input: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()

    def test_an_unwritable_report_fails_before_any_check(self, capsys, monkeypatch, tmp_path):
        entry = verifier._REGISTRY["P2.7"]
        checked = []

        def counting(inst):
            checked.append(inst)
            return entry.check(inst)

        monkeypatch.setitem(verifier._REGISTRY, "P2.7", dataclasses.replace(entry, check=counting))
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(
            capsys, "verify", "--prop", "P2.7", "--factor-size", "3", "--budget", "20000",
            "--out", str(target),
        )
        assert code == 2 and out == ""
        assert err == f"error: input: cannot write {target}: No such file or directory\n"
        assert checked == []
        writable = tmp_path / "x.json"
        code, _, _ = run(capsys, "verify", "--prop", "P2.7", "--budget", "3", "--out", str(writable))
        assert code == 3 and len(checked) == 3  # the counter sees a run that writes

    def test_a_failing_command_leaves_the_report_path_as_it_was(self, capsys, tmp_path):
        kept = tmp_path / "keep.json"
        kept.write_text("earlier report\n")
        absent = tmp_path / "absent.json"
        for target in (kept, absent):
            code, out, err = run(capsys, "verify", "--prop", "P9.9", "--out", str(target))
            assert code == 2 and out == "" and err.startswith("error: input: unknown proposition id")
        assert kept.read_text() == "earlier report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.json"]

    def test_a_failing_command_through_a_dangling_link_leaves_the_link_alone(self, capsys, tmp_path):
        link, target = tmp_path / "link.json", tmp_path / "target.json"
        link.symlink_to(target.name)
        argv = ("verify", "--prop", "P2.7", "--factors", "indiscrete2", "--out", str(link))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: input: the grid of P2.7 has no instances")
        assert link.is_symlink() and not target.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json"]
        code, out, _ = run(capsys, "verify", "--prop", "E2.9", "--out", str(link))
        assert code == 0 and out == "" and link.is_symlink()
        assert target.read_text() == (GOLDEN / "verify_e29.txt").read_text()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("check", "--prop", "t1", "--set", "x"), "check t1 does not read --set"),
            (("check", "--prop", "hausdorff", "--n", "3"), "check hausdorff does not read --n"),
            (("check", "--prop", "continuous-projections", "--set", "0,0,0"),
             "check continuous-projections does not read --set"),
            (("check", "--prop", "dense", "--set", "0,0,0", "--n", "2"), "check dense does not read --n"),
            (("check", "--prop", "resolvable", "--n", "2", "--set", "0,0,0"),
             "check resolvable does not read --set"),
            (("enumerate", "--what", "topologies", "--size", "2", "--d", "5"),
             "enumerate topologies does not read --d"),
            (("enumerate", "--what", "filters", "--size", "2", "--d", "5"),
             "enumerate filters does not read --d"),
        ],
        ids=["t1-set", "hausdorff-n", "projections-set", "dense-n", "resolvable-set", "topologies-d", "filters-d"],
    )
    def test_two_on_a_flag_the_command_does_not_read(self, capsys, argv, message):
        if argv[0] == "check":
            argv = ("check", "--instance", str(GOLDEN / "ex29.json"), *argv[1:])
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: input: {message}\n"


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

    def test_resolvable_needs_n(self, capsys):
        code, out, err = run(
            capsys, "check", "--instance", str(GOLDEN / "ex29.json"), "--prop", "resolvable"
        )
        assert code == 2 and out == ""
        assert err == "error: input: check resolvable needs --n\n"

    @pytest.mark.parametrize("points, labels", [
        ("(0,0,0)", ["(0,0,0)"]),
        ("( 0, 1 ,0 ); (1,1,1)", ["(0,1,0)", "(1,1,1)"]),  # coordinates are read stripped
    ])
    def test_dense_reads_parenthesized_points(self, capsys, points, labels):
        code, out, _ = run(
            capsys, "check", "--instance", str(GOLDEN / "ex29.json"),
            "--prop", "dense", "--set", points, "--json",
        )
        assert code == 0
        assert json_body(out)["report"]["detail"] == {"set": labels}

    @pytest.mark.parametrize("point", ["(0,0)", "0,0,0,0"])
    def test_dense_rejects_a_point_with_the_wrong_coordinate_count(self, capsys, point):
        code, out, err = run(
            capsys, "check", "--instance", str(GOLDEN / "ex29.json"), "--prop", "dense", "--set", point
        )
        assert code == 2 and out == ""
        assert err == f"error: input: point {point!r} needs 3 coordinates\n"

    def test_resolvable_text_lists_the_dense_family(self, capsys):
        code, out, _ = run(
            capsys, "check", "--instance", str(GOLDEN / "ex29.json"), "--prop", "resolvable", "--n", "2"
        )
        assert code == 0
        assert out == (
            "check resolvable: true\n"
            'dense family: [["(0,0,0)", "(0,0,1)", "(0,1,0)", "(0,1,1)"], '
            '["(1,0,0)", "(1,0,1)", "(1,1,0)", "(1,1,1)"]]\n'
        )

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

    @pytest.mark.parametrize(
        "n, verdict, family",
        [
            (1, True, [["(0,0,0,0,0)"]]),
            (2, True, [["(0,0,0,0,0)"], ["(1,0,0,0,0)"]]),
            (3, False, None),
        ],
    )
    def test_resolvable_beyond_sixteen_points(self, capsys, tmp_path, n, verdict, family):
        # sierpinski^5 pinned at index 1: the one minimal open set is {(0,0,0,0,0), (1,0,0,0,0)}
        factor = {"points": ["0", "1"], "opens": [["0"], ["0", "1"]]}
        instance = {
            "index_set": ["1", "2", "3", "4", "5"],
            "factors": [factor] * 5,
            "index_filter": {"generators": [["1"]], "trivial": False},
        }
        path = tmp_path / "sierpinski5.json"
        path.write_text(json.dumps(instance))
        code, out, err = run(
            capsys, "check", "--instance", str(path), "--prop", "resolvable", "--n", str(n), "--json",
        )
        assert code == 0 and err == ""
        body = json_body(out)["report"]
        assert body["verdict"] is verdict
        assert body["detail"].get("dense_family") == family

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

    def test_a_factor_label_with_a_separator_exits_two_with_one_line(self, capsys, tmp_path):
        # the points a x "b,c" and "a,b" x c would both be labelled (a,b,c)
        instance = {
            "index_set": ["1", "2"],
            "factors": [
                {"points": ["a", "a,b"], "opens": [["a"], ["a,b"]]},
                {"points": ["b,c", "c"], "opens": [["b,c"], ["c"]]},
            ],
            "index_filter": {"generators": [], "trivial": True},
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        code, out, err = run(capsys, "construct", "--instance", str(path), "--what", "f-topology")
        assert code == 2 and out == ""
        assert err == "error: input: factor point label 'a,b' contains a separator, ',' or ';'\n"

    def test_a_factor_label_with_outer_whitespace_exits_two_with_one_line(self, capsys, tmp_path):
        # its point ( a,c) would be listed by construct but could not be named in --set
        instance = {
            "index_set": ["1", "2"],
            "factors": [
                {"points": [" a", "b"], "opens": [[" a"], ["b"]]},
                {"points": ["c", "d"], "opens": [["c"], ["d"]]},
            ],
            "index_filter": {"generators": [], "trivial": True},
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        code, out, err = run(capsys, "construct", "--instance", str(path), "--what", "f-topology")
        assert code == 2 and out == ""
        assert err == "error: input: factor point label ' a' has leading or trailing whitespace\n"


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

    def test_d_complements_needs_d(self, capsys):
        code, out, err = run(capsys, "enumerate", "--what", "d-complements", "--size", "3")
        assert code == 2 and out == ""
        assert err == "error: input: enumerate d-complements needs --d\n"

    def test_d_complements_above_the_member_cap_exits_2(self, capsys):
        code, out, err = run(
            capsys, "enumerate", "--what", "d-complements", "--size", "17", "--d", "2"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: resource:")


class TestInstanceRoundTrip:
    @pytest.mark.parametrize("name", ["ex29.json", "mixed132.json", "uniform2x2.json"])
    def test_parse_then_serialize_is_identity_on_goldens(self, name):
        # ex29 repeats one factor three times, so its factors share one parse
        data = json.loads((GOLDEN / name).read_text())
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
