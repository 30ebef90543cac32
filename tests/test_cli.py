import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from gasloss import approx, cli, formats
from gasloss.errors import InstanceError, NumericalFailure, TooManyResources


@pytest.fixture
def table1_path(tmp_path):
    path = tmp_path / "table1.json"
    path.write_text(formats.serialize_instance(formats.preset_doc("table1")))
    return str(path)


@pytest.fixture
def table3_path(tmp_path):
    path = tmp_path / "table3.json"
    path.write_text(formats.serialize_instance(formats.preset_doc("table3")))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeasure:
    def test_table1(self, capsys, table1_path):
        code, out, _ = run(capsys, "measure", table1_path)
        assert code == 0
        assert "Op1: g = 0.333333333333" in out
        assert "Op3: g = 0.6" in out

    def test_zero_row_warning(self, capsys, tmp_path):
        path = tmp_path / "z.json"
        path.write_text(
            '{"resources": [{"name": "r", "capacity": 1}],'
            ' "operations": [{"name": "a", "usage": {}},'
            '  {"name": "b", "usage": {"r": 1}}]}')
        code, out, err = run(capsys, "measure", str(path))
        assert code == 0
        assert "warning" in err and "'a'" in err
        assert "b: g = 1" in out

    def test_nan_capacity_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"resources": [{"name": "r", "capacity": NaN}],'
            ' "operations": [{"name": "a", "usage": {"r": 1}}]}')
        code, out, err = run(capsys, "measure", str(path))
        assert code == 2
        assert out == ""
        assert "must be finite" in err

    @pytest.mark.parametrize("text", [
        '{"resources": [{"name": "r", "capacity": 1}], "operations": [5]}',
        '{"resources": [{"name": "r", "capacity": 1}],'
        ' "operations": [{"name": "a", "usage": [1]}]}',
        '{"notes": 3, "resources": [{"name": "r", "capacity": 1}],'
        ' "operations": [{"name": "a", "usage": {"r": 1}}]}',
        '{"notes": "abc", "resources": [{"name": "r", "capacity": 1}],'
        ' "operations": [{"name": "a", "usage": {"r": 1}}]}',
        '{"resources": [{"name": "r", "capacity": true}],'
        ' "operations": [{"name": "a", "usage": {"r": 1}}]}',
        '{"resources": [{"name": "r", "capacity": "2"}],'
        ' "operations": [{"name": "a", "usage": {"r": 1}}]}',
        '{"resources": [{"name": "r", "capacity": 1}],'
        ' "operations": [{"name": "a", "usage": {"r": "2"}}]}',
        '{"resources": [{"name": "r", "capacity": 1}],'
        ' "operations": [{"name": "a", "usage": {"r": false}}]}',
        '{"resources": [{"name": "r", "capacity": 1, "congesting": "no"}],'
        ' "operations": [{"name": "a", "usage": {"r": 1}}]}',
        # integers beyond float range, or beyond the digits json reads
        '{"resources": [{"name": "r", "capacity": %s}],'
        ' "operations": [{"name": "a", "usage": {"r": 1}}]}' % ("9" * 401),
        '{"resources": [{"name": "r", "capacity": 1}],'
        ' "operations": [{"name": "a", "usage": {"r": %s}}]}' % ("9" * 401),
        '{"resources": [{"name": "r", "capacity": %s}],'
        ' "operations": [{"name": "a", "usage": {"r": 1}}]}' % ("9" * 5001),
        # not UTF-8: a Latin-1 byte in a resource name
        b'{"resources": [{"name": "r\xe9", "capacity": 1}],'
        b' "operations": [{"name": "a", "usage": {"r\xe9": 1}}]}',
    ], ids=["operation-not-object", "usage-not-object", "notes-not-list",
            "notes-string", "capacity-boolean", "capacity-string",
            "usage-string", "usage-boolean", "congesting-string",
            "capacity-401-digits", "usage-401-digits",
            "capacity-5001-digits", "not-utf8"])
    def test_malformed_shape_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        code, out, err = run(capsys, "measure", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed instance file")

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "measure", "/nonexistent/instance.json")
        assert code == 2
        assert "no such instance file" in err

    def test_directory_instance_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "measure", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot read {tmp_path}: Is a directory\n"


class TestApprox:
    def test_table1_alpha(self, capsys, table1_path):
        code, out, _ = run(capsys, "approx", table1_path)
        assert code == 0
        assert "alpha = 1.375" in out

    def test_table3_alpha(self, capsys, table3_path):
        code, out, _ = run(capsys, "approx", table3_path)
        assert code == 0
        assert "alpha = 2" in out

    def test_figure1_preset_alpha(self, capsys, tmp_path):
        path = tmp_path / "f1.json"
        path.write_text(
            formats.serialize_instance(formats.preset_doc("figure1")))
        code, out, _ = run(capsys, "approx", str(path))
        assert code == 0
        assert "alpha = 2" in out

    def test_json_matches_human_output(self, capsys, table1_path):
        code, out, _ = run(capsys, "approx", table1_path, "--json",
                           "--oracle")
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] == pytest.approx(1.375, abs=1e-9)
        assert doc["game_value"] == pytest.approx(8 / 11, abs=1e-9)
        assert doc["oracle_alpha"] == pytest.approx(1.375, abs=1e-7)

    def test_exclude_resources_flag(self, capsys, table1_path):
        code, out, err = run(capsys, "approx", table1_path,
                             "--exclude-resources", "r2")
        assert code == 0
        assert "alpha = 1" in out
        assert "unpriced" in err


    def test_tie_instance_witness_is_pinned(self, capsys, tmp_path):
        # two pairs of identical operations, so four blocks of gas 2 tie;
        # a change to the LP kernel must not move the one reported
        path = tmp_path / "tie.json"
        path.write_text(json.dumps({
            "resources": [{"name": "r1", "capacity": 1},
                          {"name": "r2", "capacity": 1}],
            "operations": [{"name": "a", "usage": {"r2": 1}},
                           {"name": "a_twin", "usage": {"r2": 1}},
                           {"name": "both", "usage": {"r1": 1, "r2": 1}},
                           {"name": "b", "usage": {"r1": 1}},
                           {"name": "b_twin", "usage": {"r1": 1}}]}))
        code, out, _ = run(capsys, "approx", str(path), "--json")
        assert code == 0
        answer = json.loads(out)
        assert answer["alpha"] == 2.0
        assert answer["witness_block"] == [1.0, 0.0, 0.0, 1.0, 0.0]


class TestPartition:
    def test_ecp_fixture(self, capsys, tmp_path):
        path = tmp_path / "ecp.json"
        path.write_text(formats.serialize_instance(
            formats.ecp_instance_doc([1, 3, 2, 2], 0.1)))
        code, out, _ = run(capsys, "partition", str(path), "--k", "2")
        assert code == 0
        assert "overall loss = 2.4" in out

    def test_table1_k2_singletons(self, capsys, table1_path):
        code, out, _ = run(capsys, "partition", table1_path, "--k", "2")
        assert code == 0
        assert "overall loss = 1" in out

    def test_table1_k1(self, capsys, table1_path):
        code, out, _ = run(capsys, "partition", table1_path, "--k", "1")
        assert code == 0
        assert "overall loss = 1.375" in out

    def test_too_many_resources_exits_4(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(formats.serialize_instance(
            formats.random_instance_doc(3, 13, 1.0, seed=1)))
        code, _, err = run(capsys, "partition", str(path), "--k", "2")
        assert code == 4
        assert "exceed" in err

    def test_greedy_mode_allows_more_resources(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(formats.serialize_instance(
            formats.random_instance_doc(3, 13, 1.0, seed=1)))
        code, out, _ = run(capsys, "partition", str(path), "--k", "2",
                           "--mode", "greedy")
        assert code == 0
        assert "overall loss" in out


class TestFactorize:
    def test_table1_k1(self, capsys, table1_path):
        code, out, _ = run(capsys, "factorize", table1_path, "--k", "1")
        assert code == 0
        assert "alpha = 1.375" in out

    def test_ecp_from_partition(self, capsys, tmp_path):
        path = tmp_path / "ecp.json"
        path.write_text(formats.serialize_instance(
            formats.ecp_instance_doc([1, 3, 2, 2], 0.1)))
        code, out, _ = run(capsys, "factorize", str(path), "--k", "2",
                           "--json")
        assert code == 0
        assert json.loads(out)["alpha"] <= 2.4 + 1e-9

    def test_table1_alternate(self, capsys, table1_path):
        code, out, _ = run(capsys, "factorize", table1_path, "--k", "2",
                           "--mode", "alternate")
        assert code == 0
        assert json_alpha(out) <= 1.0 + 1e-9


    def test_k_above_resource_count(self, capsys, table1_path):
        for k in ("5", "0"):
            code, out, err = run(capsys, "factorize", table1_path, "--k", k)
            assert code == 2
            assert out == "" and "error: k must be in 1..2" in err
        code, out, _ = run(capsys, "factorize", table1_path, "--k", "5",
                           "--mode", "alternate", "--json")
        assert code == 0
        assert json.loads(out)["k"] == 2
        code, out, err = run(capsys, "factorize", table1_path, "--k", "0",
                             "--mode", "alternate")
        assert code == 2
        assert out == "" and "error: k must be at least 1" in err

    def test_alternate_equals_from_partition(self, capsys, tmp_path):
        docs = {name: formats.preset_doc(name)
                for name in ("table1", "table3", "figure1")}
        docs["r30x8"] = formats.random_instance_doc(30, 8, 0.5, 0)
        docs["r60x8"] = formats.random_instance_doc(60, 8, 0.5, 1)
        for name, doc in docs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(formats.serialize_instance(doc))
            for k in range(1, min(3, len(doc.resources)) + 1):
                answers = []
                for mode in ("from-partition", "alternate"):
                    code, out, _ = run(capsys, "factorize", str(path),
                                       "--k", str(k), "--mode", mode,
                                       "--json")
                    assert code == 0
                    answer = json.loads(out)
                    assert answer.pop("mode") == mode
                    answers.append(answer)
                assert answers[0] == answers[1], (name, k)


def json_alpha(text):
    for line in text.splitlines():
        if "alpha = " in line:
            return float(line.split("alpha = ")[1].split(",")[0])
    raise AssertionError("no alpha in output")


class TestHist:
    def test_table1_uniform(self, capsys, table1_path, tmp_path):
        f = tmp_path / "f.json"
        f.write_text('{"Op1": 1, "Op2": 1, "Op3": 1, "Op4": 1}')
        code, out, _ = run(capsys, "hist", table1_path, "--freq", str(f))
        assert code == 0
        assert "alpha_hist = 1.25925925926" in out

    def test_table3_discrepancy_note(self, capsys, table3_path, tmp_path):
        f = tmp_path / "f.json"
        f.write_text('{"Op1": 0.05, "Op2": 0.80, "Op3": 0.15}')
        code, out, _ = run(capsys, "hist", table3_path, "--freq", str(f),
                           "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha_hist"] == pytest.approx(20 / 19, abs=1e-9)
        assert doc["column_payoffs"] == pytest.approx([0.95, 0.85])

    def test_full_simplex_range(self, capsys, table1_path, tmp_path):
        lo = tmp_path / "lo.json"
        lo.write_text("{}")
        hi = tmp_path / "hi.json"
        hi.write_text('{"Op1": 1, "Op2": 1, "Op3": 1, "Op4": 1}')
        code, out, _ = run(capsys, "hist", table1_path,
                           "--low", str(lo), "--high", str(hi))
        assert code == 0
        assert "alpha_hist = 1.375" in out

    def test_unknown_profile_name_exits_2(self, capsys, table1_path,
                                          tmp_path):
        f = tmp_path / "f.json"
        f.write_text('{"bogus": 1}')
        code, _, err = run(capsys, "hist", table1_path, "--freq", str(f))
        assert code == 2
        assert "unknown operations" in err

    @pytest.mark.parametrize("weight, problem", [
        ("NaN", "non-finite"), ("Infinity", "non-finite"),
        ("null", "non-numeric"), ('"abc"', "non-numeric"),
        ("true", "non-numeric"), ('"0.5"', "non-numeric"),
        pytest.param("9" * 401, "non-finite", id="401-digits")])
    def test_bad_frequency_weight_exits_2(self, capsys, table1_path,
                                          tmp_path, weight, problem):
        f = tmp_path / "f.json"
        f.write_text('{"Op1": %s, "Op2": 1}' % weight)
        code, out, err = run(capsys, "hist", table1_path, "--freq", str(f))
        assert code == 2
        assert out == ""
        assert f"error: {problem} weight for operation 'Op1'" in err

    # the instance file declares the operation, but it loads no resource
    # (an all-zero row, or one whose only resource is excluded)
    @pytest.mark.parametrize("flags, dropped", [
        ([], "idle"), (["--exclude-resources", "r3"], "r3_only")])
    def test_profile_may_name_dropped_operation(self, capsys, tmp_path,
                                                flags, dropped):
        table = tmp_path / "t.csv"
        table.write_text("op,r1,r2,r3\na,1,0,0\nidle,0,0,0\nb,0,2,0\n"
                         "r3_only,0,0,1\nc,1,1,1\ncapacity,4,6,5\n")
        profiles = {}
        for tag, extra in (("named", {dropped: 7}), ("unnamed", {})):
            for kind, weight in (("freq", 1), ("low", 0.1), ("high", 0.6)):
                path = tmp_path / f"{tag}-{kind}.json"
                path.write_text(json.dumps(
                    {"a": weight, "b": 2 * weight / 3, "c": weight, **extra}))
                profiles[tag, kind] = str(path)
        for mode in (["freq"], ["low", "high"]):
            results = [run(capsys, "hist", str(table), *flags, *(
                arg for kind in mode
                for arg in (f"--{kind}", profiles[tag, kind])))
                for tag in ("named", "unnamed")]
            assert results[0] == results[1]
            code, out, err = results[0]
            assert code == 0 and "alpha_hist" in out
            assert f"operation '{dropped}' uses no resources" in err

    def test_missing_profile_exits_2(self, capsys, table1_path, tmp_path):
        code, out, err = run(capsys, "hist", table1_path,
                             "--freq", str(tmp_path / "none.json"))
        assert code == 2
        assert out == ""
        assert err == f"error: no such profile file: {tmp_path}/none.json\n"

    def test_directory_profile_exits_2(self, capsys, table1_path, tmp_path):
        code, out, err = run(capsys, "hist", table1_path,
                             "--freq", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot read {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("side, weight", [
        ("low", "NaN"), ("high", "Infinity"), ("low", "null"),
        ("high", "true"), ("low", '"0.5"'),
        pytest.param("high", "9" * 401, id="high-401-digits")])
    def test_bad_bound_weight_exits_2(self, capsys, table1_path, tmp_path,
                                      side, weight):
        bounds = {"low": "{}", "high": '{"Op1": 1, "Op2": 1, "Op3": 1}'}
        bounds[side] = '{"Op1": %s, "Op2": 1, "Op3": 1}' % weight
        paths = []
        for name, text in bounds.items():
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            paths += [f"--{name}", str(path)]
        code, out, err = run(capsys, "hist", table1_path, *paths)
        assert code == 2
        assert out == ""
        assert "weight for operation 'Op1'" in err

    @pytest.mark.parametrize("text", [
        b'{"Op1": 1,', b'{"Op1": %s}' % (b"9" * 5001), b'{"Op\xe9": 1}'],
        ids=["bad-json", "5001-digits", "not-utf8"])
    def test_malformed_profile_exits_2(self, capsys, table1_path, tmp_path,
                                       text):
        f = tmp_path / "f.json"
        f.write_bytes(text)
        for flags in (["--freq", str(f)], ["--low", str(f), "--high", str(f)]):
            code, out, err = run(capsys, "hist", table1_path, *flags)
            assert code == 2
            assert out == ""
            assert err.startswith("error: malformed profile file")

    def test_mode_flags_required(self, capsys, table1_path):
        code, _, err = run(capsys, "hist", table1_path)
        assert code == 2
        assert "--freq" in err

    @pytest.mark.parametrize("bounds", [["--low"], ["--high"],
                                        ["--low", "--high"]],
                             ids=["low", "high", "low-and-high"])
    def test_freq_with_bound_flag_exits_2(self, capsys, table1_path,
                                          tmp_path, bounds):
        f = tmp_path / "f.json"
        f.write_text('{"Op1": 1, "Op2": 1, "Op3": 1, "Op4": 1}')
        flags = ["--freq", str(f)]
        for flag in bounds:
            flags += [flag, str(f)]
        code, out, err = run(capsys, "hist", table1_path, *flags)
        assert code == 2
        assert out == ""
        assert err == "error: give either --freq or both --low and --high\n"


class TestGen:
    def test_ecp(self, capsys, tmp_path):
        out_path = tmp_path / "ecp.json"
        code, _, _ = run(capsys, "gen", "ecp", "--set", "1,3,2,2",
                         "--epsilon", "0.1", "--out", str(out_path))
        assert code == 0
        inst = formats.load_instance_doc(out_path).to_instance()
        assert inst.num_operations == 8 and inst.num_resources == 8

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        for target in (tmp_path / "missing" / "x.json", tmp_path):
            code, out, err = run(capsys, "gen", "preset", "--preset",
                                 "table1", "--out", str(target))
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: cannot write {target}")

    def test_bad_epsilon_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "ecp", "--set", "1,3,2,2",
                           "--epsilon", "0.2",
                           "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "epsilon" in err

    def test_non_integer_set_names_the_flag(self, capsys):
        code, out, err = run(capsys, "gen", "ecp", "--set", "1,x",
                             "--epsilon", "0.1")
        assert code == 2
        assert out == ""
        assert err == ("error: --set must be comma-separated integers, "
                       "got '1,x'\n")

    def test_random_deterministic_files(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for target in (a, b):
            code, _, _ = run(capsys, "gen", "random", "--ops", "6",
                             "--resources", "4", "--seed", "7",
                             "--out", str(target))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv, digest", [
        (("random", "--ops", "400", "--resources", "100", "--density", "0.3",
          "--seed", "6"),
         "22e7100c2c4b98e1b2cc95c4595fca95b7c375a5221840b87d66255824b8bdd9"),
        (("preset", "--preset", "table1"),
         "8a4e7d52c8dfd323e298dfc56e8c2adeaec2e27e343e138067973e340f930a19"),
    ], ids=["random-400x100-sparse", "table1"])
    def test_stdout_is_pinned_bytes(self, capsys, argv, digest):
        # digests of tests/test_formats.py::test_generated_files_pinned
        code, out, err = run(capsys, "gen", *argv, "--out", "-")
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_preset_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "t1.json"
        code, _, _ = run(capsys, "gen", "preset", "--preset", "table1",
                         "--out", str(out_path))
        assert code == 0
        inst = formats.load_instance_doc(out_path).to_instance()
        assert np.array_equal(inst.usage, [[2, 1], [6, 2], [9, 1], [10, 1]])
        assert np.array_equal(inst.capacities, [15, 3])


class TestExcludeEquivalence:
    def test_flag_equals_column_deletion(self, capsys, tmp_path,
                                         table1_path):
        trimmed = tmp_path / "trim.json"
        doc = formats.preset_doc("table1")
        doc.resources = [r for r in doc.resources if r[0] != "r2"]
        doc.operations = [(n, {k: v for k, v in u.items() if k != "r2"})
                          for n, u in doc.operations]
        trimmed.write_text(formats.serialize_instance(doc))
        code1, out1, _ = run(capsys, "approx", table1_path, "--json",
                             "--exclude-resources", "r2")
        code2, out2, _ = run(capsys, "approx", str(trimmed), "--json")
        assert code1 == code2 == 0
        d1, d2 = json.loads(out1), json.loads(out2)
        for key in ("alpha", "game_value", "measure", "witness_block"):
            assert d1[key] == pytest.approx(d2[key])


# Whole stdout of each text renderer, pinned literally: the substring
# tests above would miss a moved, dropped or reworded line.
GOLDEN_TEXT = {
    "measure": (("measure", "{table1}"), """\
Op1: g = 0.333333333333  (binding resource: r2)
Op2: g = 0.666666666667  (binding resource: r2)
Op3: g = 0.6  (binding resource: r1)
Op4: g = 0.666666666667  (binding resource: r1)
"""),
    "approx-oracle": (("approx", "{table1}", "--oracle"), """\
alpha = 1.375  (game value 0.727272727273)
row strategy  x* = (0.454545454545, 0, 0, 0.545454545455)
col strategy  y* = (0.454545454545, 0.545454545455)
witness block    = (1.875, 0, 0, 1.125) (gas = 1.375)
oracle alpha = 1.375  (gap 2.22044604925e-16)
"""),
    "approx-table3": (("approx", "{table3}"), """\
alpha = 2  (game value 0.5)
row strategy  x* = (0.5, 0, 0.5)
col strategy  y* = (0.5, 0.5)
witness block    = (1, 0, 1) (gas = 2)
"""),
    "partition-k2": (("partition", "{table1}", "--k", "2"), """\
group {r1}: loss = 1
group {r2}: loss = 1
overall loss = 1
"""),
    "factorize-k2": (("factorize", "{table1}", "--k", "2"), """\
k = 2, alpha = 1, represents = True
dimension 0: game value = 1
dimension 1: game value = 1
A (operations x k):
  Op1: (0.133333333333, 0.333333333333)
  Op2: (0.4, 0.666666666667)
  Op3: (0.6, 0.333333333333)
  Op4: (0.666666666667, 0.333333333333)
R (k x resources):
  (1, 0)
  (0, 1)
"""),
    "hist-point": (("hist", "{table1}", "--freq", "{ones}"), """\
x_hist = (0.147058823529, 0.294117647059, 0.264705882353, 0.294117647059)
column payoffs = (0.794117647059, 0.735294117647) (best reply: r1)
alpha_hist = 1.25925925926  (nu_hist = 0.794117647059)
"""),
    "hist-range": (("hist", "{table1}", "--low", "{empty}", "--high",
                    "{ones}"), """\
worst-case frequency f = (0.625, 0, 0, 0.375)
x_hist = (0.454545454545, 0, 0, 0.545454545455)
column payoffs = (0.727272727273, 0.727272727273) (best reply: r1)
alpha_hist = 1.375  (nu_hist = 0.727272727273)
"""),
}


@pytest.fixture
def golden_paths(tmp_path, table1_path, table3_path):
    ones = tmp_path / "ones.json"
    ones.write_text('{"Op1": 1, "Op2": 1, "Op3": 1, "Op4": 1}')
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    return {"table1": table1_path, "table3": table3_path,
            "ones": str(ones), "empty": str(empty)}


class TestGoldenText:
    @pytest.mark.parametrize("case", sorted(GOLDEN_TEXT))
    def test_whole_stdout(self, capsys, golden_paths, case):
        argv, expected = GOLDEN_TEXT[case]
        code, out, err = run(capsys, *(a.format(**golden_paths)
                                       for a in argv))
        assert code == 0
        assert out == expected
        if case == "approx-table3":
            assert err.startswith("note: for the mix (5%, 80%, 15%)")
        else:
            assert err == ""

    @pytest.mark.parametrize("argv, message", [
        (("gen", "ecp"), "gen ecp needs --set and --epsilon"),
        (("gen", "ecp", "--set", "1,2"), "gen ecp needs --set and --epsilon"),
        (("gen", "preset"), "gen preset needs --preset"),
    ], ids=["ecp-no-set", "ecp-no-epsilon", "preset-no-name"])
    def test_gen_missing_flag_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestExitCodes:
    @pytest.mark.parametrize("json_flag", [[], ["--json"]],
                             ids=["text", "json"])
    @pytest.mark.parametrize("cls, expected", [
        (InstanceError, 2), (NumericalFailure, 3), (TooManyResources, 4)])
    def test_error_class_sets_exit_code(self, capsys, monkeypatch,
                                        table1_path, json_flag, cls,
                                        expected):
        def refuse(*args, **kwargs):
            raise cls("refused for the test")

        monkeypatch.setattr(approx, "approximability", refuse)
        code, out, err = run(capsys, "approx", table1_path, *json_flag)
        assert code == expected == cls.exit_code
        assert out == ""
        assert err == "error: refused for the test\n"

    def test_readme_table_matches_classes(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        table = re.findall(r"^\| `(\d)` \| `(\w+)` \|", text, re.M)
        classes = (InstanceError, NumericalFailure, TooManyResources)
        assert {name: int(code) for code, name in table} == {
            cls.__name__: cls.exit_code for cls in classes}


def run_first(capsys, *argv):
    """run() as the first call of a process: with a newly built parser."""
    cli._build_parser.cache_clear()
    return run(capsys, *argv)


# pairs of calls that differ in one option or mode, so that a default or
# a value left behind in the shared parser by the first would show
REUSE_PAIRS = {
    "approx-oracle": (("approx", "{table1}", "--oracle"),
                      ("approx", "{table1}")),
    "partition-mode": (("partition", "{table1}", "--k", "2", "--mode",
                        "greedy", "--json"),
                       ("partition", "{table1}", "--k", "2", "--json")),
    "hist-mode": (("hist", "{table1}", "--freq", "{ones}"),
                  ("hist", "{table1}", "--low", "{empty}", "--high",
                   "{ones}")),
    "exclude": (("approx", "{table1}", "--exclude-resources", "r2"),
                ("approx", "{table1}")),
    "json": (("measure", "{table1}", "--json"), ("measure", "{table1}")),
}


class TestParserReuse:
    def test_parser_built_once(self, capsys, golden_paths):
        cli._build_parser.cache_clear()
        calls = [argv for pair in REUSE_PAIRS.values() for argv in pair]
        for argv in calls:
            assert run(capsys, *(a.format(**golden_paths)
                                 for a in argv))[0] == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(calls) - 1)

    @pytest.mark.parametrize("pair", sorted(REUSE_PAIRS))
    def test_sequence_matches_first_calls(self, capsys, golden_paths, pair):
        first, second = ([a.format(**golden_paths) for a in argv]
                         for argv in REUSE_PAIRS[pair])
        alone = [run_first(capsys, *first), run_first(capsys, *second)]
        assert alone[0] != alone[1]
        for argvs, expected in (((first, second), alone),
                                ((second, first), alone[::-1])):
            cli._build_parser.cache_clear()
            assert [run(capsys, *argv) for argv in argvs] == expected

    def test_help_follows_columns_when_printed(self, capsys, monkeypatch,
                                               table1_path):
        monkeypatch.setenv("COLUMNS", "100")
        run_first(capsys, "measure", table1_path)
        texts = []
        for columns in ("50", "160"):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit) as info:
                cli.main(["approx", "--help"])
            assert info.value.code == 0
            shared = capsys.readouterr().out
            with pytest.raises(SystemExit):
                cli._build_parser.__wrapped__().parse_args(
                    ["approx", "--help"])
            assert shared == capsys.readouterr().out
            texts.append(shared)
        assert texts[0] != texts[1]
