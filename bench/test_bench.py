"""Tests of the benchmark itself: the checker, the span arithmetic, the
seeded inputs, and a smoke run of every workload.

    python3 -m pytest bench
"""

import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import check
import run
import spans
import workloads

MODULES = run.import_program()
ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    CONTRACT = json.load(fh)


def answer(argv):
    code, _, out, err = run.run_job(MODULES["cli"], argv + ["--json"])
    assert code == 0, err
    return json.loads(out)


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A 20x6 random instance, its certified alpha, and a mix box."""
    d = tmp_path_factory.mktemp("small")
    doc = MODULES["formats"].random_instance_doc(20, 6, 0.5, 11)
    path = str(d / "inst.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MODULES["formats"].serialize_instance(doc))
    names = [name for name, _ in doc.operations]
    low = dict.fromkeys(names, 0.01)
    high = dict.fromkeys(names, 0.2)
    for name, values in (("lo", low), ("hi", high)):
        with open(d / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(values, fh)
    inst = check.Instance.load(path)
    alpha = check.check_approx(inst, answer(["approx", path]))
    return types.SimpleNamespace(path=path, inst=inst, alpha=alpha,
                                 low=low, high=high, dir=d)


def test_genuine_answers_pass(small):
    check.check_measure(small.inst, answer(["measure", small.path]))
    hist = answer(["hist", small.path, "--low", str(small.dir / "lo.json"),
                   "--high", str(small.dir / "hi.json")])
    check.check_hist(small.inst, hist, small.alpha, low=small.low,
                     high=small.high)
    loss = check.check_partition(small.inst, answer(
        ["partition", small.path, "--k", "2"]), 2)
    check.check_factorize(small.inst, answer(
        ["factorize", small.path, "--k", "2", "--mode", "alternate"]),
        small.alpha, loss)


def test_rejects_inflated_alpha(small):
    ans = answer(["approx", small.path])
    ans["alpha"] *= 1.01
    with pytest.raises(check.CheckFailed, match="bound on alpha"):
        check.check_approx(small.inst, ans)


def test_rejects_infeasible_witness(small):
    ans = answer(["approx", small.path])
    block = np.array(ans["witness_block"])
    j = int(np.argmax(block))
    block[j] += small.inst.B.max() / small.inst.W[j].max()
    ans["witness_block"] = block.tolist()
    with pytest.raises(check.CheckFailed, match="exceeds a capacity"):
        check.check_approx(small.inst, ans)


def test_rejects_overlapping_partition(small):
    ans = answer(["partition", small.path, "--k", "2"])
    ans["groups"][1].append(ans["groups"][0][0])
    with pytest.raises(check.CheckFailed, match="overlap"):
        check.check_partition(small.inst, ans, 2)


def test_rejects_wrong_ecp_value(tmp_path):
    elements, eps, loss = workloads.ECP_FIXED
    path = str(tmp_path / "ecp.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MODULES["formats"].serialize_instance(
            MODULES["formats"].ecp_instance_doc(elements, eps)))
    inst = check.Instance.load(path)
    ans = answer(["partition", path, "--k", "2"])
    check.check_partition(inst, ans, 2, ("equal", loss))
    with pytest.raises(check.CheckFailed, match="known value"):
        check.check_partition(inst, ans, 2, ("equal", loss - 0.2))


def test_rejects_mix_outside_box(small):
    ans = answer(["hist", small.path, "--low", str(small.dir / "lo.json"),
                  "--high", str(small.dir / "hi.json")])
    tight = dict.fromkeys(small.high, 0.02)
    with pytest.raises(check.CheckFailed, match="outside its box"):
        check.check_hist(small.inst, ans, small.alpha, low=small.low,
                         high=tight)


def test_rejects_zero_nu_hist(small):
    ans = answer(["hist", small.path, "--low", str(small.dir / "lo.json"),
                  "--high", str(small.dir / "hi.json")])
    ans["nu_hist"] = 0.0
    with pytest.raises(check.CheckFailed, match="not positive"):
        check.check_hist(small.inst, ans, small.alpha, low=small.low,
                         high=small.high)


def test_rejects_strategy_that_guarantees_nothing(small):
    """A column strategy on one resource that some operation does not use
    bounds alpha by infinity; the check must fail, not divide by zero."""
    ans = answer(["approx", small.path])
    j = int(np.flatnonzero((small.inst.U == 0).any(axis=0))[0])
    ans["col_strategy"] = np.eye(len(small.inst.resources))[j].tolist()
    with pytest.raises(check.CheckFailed, match="guarantees nothing"):
        check.check_approx(small.inst, ans)


def test_refusal_is_wrong_where_none_is_expected():
    job = workloads.Job(0, 0, "partition", ("partition", "x.json"),
                        "x.json", "8x8", None, 0)
    err = "error: simplex iteration limit exceeded\n"
    assert run.verdict(job, run.EXIT_NUMERICAL, "", err, None, {},
                       may_refuse=True)[:2] == (True, False)
    assert run.verdict(job, run.EXIT_NUMERICAL, "", err, None, {},
                       may_refuse=False)[:2] == (False, False)
    assert workloads.MAY_REFUSE == {"single_lp"}


def _span(span_id, parent, name, start, end, **info):
    return spans.Span(span_id, parent, name, start, end, 0, True, info)


def test_self_time_of_a_span_nest():
    nest = [_span(0, None, "cli.main", 0.0, 10.0),
            _span(1, 0, "a", 1.0, 4.0), _span(2, 1, "c", 2.0, 3.0),
            _span(3, 0, "b", 5.0, 9.0), _span(4, 3, "d", 6.0, 7.5),
            _span(5, None, "e", 20.0, 25.0),
            _span(6, 5, "f", 21.0, 23.0), _span(7, 5, "g", 22.0, 24.0)]
    got = spans.self_times(nest)
    assert got == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 2.5, 4: 1.5,
                                 5: 2.0, 6: 2.0, 7: 2.0})


def test_layer_counts_of_a_span_nest():
    lp = "lpcore.solve_lp"
    nest = [_span(0, None, "partition.optimal_partition_exact", 0, 9,
                  resources=2),
            _span(1, 0, "approx.approximability", 0, 4),
            _span(2, 1, "lpcore.solve_zero_sum", 0, 4),
            _span(3, 2, lp, 0, 1, cells=6, status="optimal"),
            _span(4, 2, lp, 2, 3, cells=6, status="optimal"),
            _span(5, 0, "approx.approximability", 5, 8),
            _span(6, 5, "lpcore.solve_zero_sum", 5, 8),
            _span(7, 6, lp, 5, 6, cells=4, status="infeasible"),
            _span(8, None, "hist.hist_loss_range", 10, 20),
            _span(9, 8, lp, 11, 12, cells=1, status="optimal"),
            _span(10, 8, lp, 13, 14, cells=1, status="optimal")]
    m = spans.layer_metrics(nest, 0.5)
    assert m["lpcore.solve_lp.calls"] == 5
    assert m["lpcore.solve_lp.cells"] == 18
    assert m["lpcore.solve_lp.nonoptimal"] == 1
    assert m["lpcore.solve_zero_sum.extra_lps"] == 1
    assert m["partition.group_solves"] == 2
    assert m["partition.group_solve_ratio"] == pytest.approx(2 / 3)
    assert m["hist.hist_loss_range.lps_per_call"] == 2
    assert m["partition.optimal_partition_exact.self_s"] == 2
    assert m["trace.overhead_frac"] == 0.5
    assert set(m) == {item["name"] for item in CONTRACT["per_layer"]}


def test_tracer_sees_calls_through_module_attributes():
    mod = types.ModuleType("fake.layer")
    exec("def outer(x):\n    return inner(x) + 1\n"
         "def inner(x):\n    return 2 * x\n", mod.__dict__)
    original = mod.outer
    ticks = iter(range(100))
    tracer = spans.Tracer([mod], lambda: next(ticks))
    with tracer:
        assert mod.outer(3) == 7
    assert mod.outer is original
    (inner, outer) = tracer.spans
    assert (outer.name, inner.name) == ("layer.outer", "layer.inner")
    assert inner.parent == outer.span_id and outer.parent is None


def test_ecp_elements_match_the_request():
    rng = np.random.default_rng(5)
    for count in (4, 6):
        for balanced in (True, False):
            elements = workloads.ecp_elements(rng, count, balanced)
            assert len(elements) == count and sum(elements) % 2 == 0
            assert workloads._balanced(elements) == balanced


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    contents = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        jobs = workloads.build(workload, MODULES["formats"], 7, 1, str(d))
        contents.append(([(j.label(), [os.path.basename(a) for a in j.argv])
                          for j in jobs],
                         {f.name: f.read_text() for f in d.iterdir()}))
    assert contents[0] == contents[1]


def _smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seed", "2", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        lines = _smoke(workload, trace)
        last = json.loads(lines[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["attempted"] >= 11
        names = {item["name"] for item in CONTRACT[section]}
        assert set(last["metrics"]) == names
        printed = {line.split()[2] for line in lines
                   if line.startswith("metric ")}
        assert names <= printed
        if trace == 0:
            assert "failed_frac" in printed


def test_traced_counts_repeat():
    counts = ("lpcore.solve_lp.calls", "lpcore.solve_lp.cells",
              "partition.group_solves", "hist.hist_loss_range.lps_per_call")
    runs = [json.loads(_smoke("hist_factor", 1)[-1])["metrics"]
            for _ in range(2)]
    for name in counts:
        assert runs[0][name] == runs[1][name]
    assert runs[0]["hist.hist_loss_range.lps_per_call"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(run.BENCH_DIR):
        if name.endswith((".py", ".md")):
            (bench / name).write_bytes(
                open(os.path.join(run.BENCH_DIR, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONTRACT))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "single_lp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
