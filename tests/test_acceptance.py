"""Acceptance suite: one test per criterion, each printing a PASS line
(run with -s to see them on success)."""

import time

import numpy as np
import pytest

from gasloss import (
    approx,
    factorize,
    formats,
    hist,
    lpcore,
    model,
    partition,
)
from helpers import random_instance
from test_factorize import all_two_partitions


def _passed(n, message):
    print(f"PASS criterion {n}: {message}")


@pytest.fixture(scope="module")
def random_sweep():
    """200 seeded instances (<= 6 ops, <= 4 resources) with game and
    oracle results, plus the time spent solving."""
    out = []
    start = time.perf_counter()
    for seed in range(200):
        inst = random_instance(seed)
        rep = approx.approximability(inst, with_oracle=True)
        out.append((inst, rep))
    elapsed = time.perf_counter() - start
    return out, elapsed


@pytest.fixture(scope="module")
def sweep_50():
    """50 small instances with at least two resources each."""
    out = []
    seed = 0
    while len(out) < 50:
        inst = random_instance(seed, max_ops=5, max_res=4)
        if inst.num_resources >= 2:
            out.append(inst)
        seed += 1
    return out


def test_criterion_1_table1_minimal_measure(table1):
    g = model.minimal_gas_measure(table1).costs
    expected = np.array([1 / 3, 2 / 3, 3 / 5, 2 / 3])
    assert np.all(np.abs(g - expected) <= 1e-12)
    _passed(1, "table1 minimal measure is (1/3, 2/3, 3/5, 2/3)")


def test_criterion_2_table2_game(table1):
    U = approx.build_game(table1)
    rep = approx.approximability(table1)
    assert rep.game.value == pytest.approx(8 / 11, abs=1e-9)
    assert rep.alpha == pytest.approx(11 / 8, abs=1e-9)
    published = lpcore.GameSolution(
        8 / 11, np.array([5 / 11, 0, 0, 6 / 11]),
        np.array([5 / 11, 6 / 11]))
    assert lpcore.verify_equilibrium(U, published, 1e-9)
    assert model.is_feasible(table1, rep.witness)
    assert model.gas_of(rep.measure, rep.witness) == pytest.approx(
        rep.alpha, abs=1e-8)
    _passed(2, "table1 game value 8/11, alpha 11/8, published equilibrium "
               "verifies, witness block is tight")


def test_criterion_3_oracle_equivalence(random_sweep):
    sweep, elapsed = random_sweep
    for _, rep in sweep:
        assert abs(rep.alpha - rep.oracle_alpha) <= 1e-7
    assert elapsed < 10.0
    _passed(3, f"game alpha matches the LP oracle on 200 random instances "
               f"({elapsed:.1f}s)")


def test_criterion_4_table3(table3):
    assert approx.approximability(table3).alpha == pytest.approx(
        2.0, abs=1e-9)
    report = hist.hist_loss(table3, [0.05, 0.80, 0.15])
    assert np.all(np.abs(report.column_payoffs
                         - np.array([0.95, 0.85])) <= 1e-12)
    assert report.alpha_hist == pytest.approx(20 / 19, abs=1e-9)
    # the 20/17 figure sometimes quoted for this mix is documented as a
    # discrepancy in the bundled preset's notes
    notes = " ".join(formats.preset_doc("table3").notes)
    assert "20/17" in notes and "20/19" in notes
    _passed(4, "table3 alpha 2, historical loss 20/19 with the 20/17 "
               "discrepancy documented")


def test_criterion_5_appendix_distribution(table1):
    g = model.minimal_gas_measure(table1)
    x = hist.hist_strategy(g, [0.25] * 4)
    expected = np.array([5 / 34, 10 / 34, 9 / 34, 10 / 34])
    assert np.all(np.abs(x - expected) <= 1e-12)
    report = hist.hist_loss(table1, [0.25] * 4)
    assert np.allclose(report.column_payoffs, [27 / 34, 25 / 34],
                       atol=1e-12)
    assert report.alpha_hist == pytest.approx(34 / 27, abs=1e-9)
    _passed(5, "uniform-mix loss on table1 is 34/27 with "
               "x_hist (5/34, 10/34, 9/34, 10/34)")


def test_criterion_6_alpha_bounds(figure1, random_sweep):
    assert approx.approximability(figure1).alpha == pytest.approx(
        2.0, abs=1e-12)
    sweep, _ = random_sweep
    for inst, rep in sweep:
        assert 1 - 1e-9 <= rep.alpha <= inst.num_resources + 1e-9
    _passed(6, "two-orthogonal-ops alpha is exactly 2; 1 <= alpha <= n "
               "on all 200 random instances")


def _halves(size):
    """The groups the exact search picks on every fixture below: the
    resources of the first half of the elements, then the rest.  Many
    partitions tie on loss, so this pins the tie-breaking too."""
    return (tuple(range(size // 2)), tuple(range(size // 2, size)))


def test_criterion_7_ecp_reduction():
    ecp = partition.generate_ecp([1, 3, 2, 2], 0.1)
    plan = partition.optimal_partition_exact(ecp.instance, 2)
    assert plan.loss == pytest.approx(2.4, abs=1e-8)
    assert plan.groups == _halves(8)

    ecp_no = partition.generate_ecp([1, 1, 1, 5], 0.1)
    plan_no = partition.optimal_partition_exact(ecp_no.instance, 2)
    assert plan_no.loss == pytest.approx(2.6, abs=1e-8)
    assert plan_no.loss > 2.4
    assert plan_no.groups == _halves(8)

    rng = np.random.default_rng(1234)
    for trial in range(20):
        half = 3 if trial % 4 == 0 else 2
        first = rng.integers(1, 10, size=half)
        elements = list(first) + list(rng.permutation(first))
        T = int(sum(first))
        eps = 1 / (4 * T)
        inst = partition.generate_ecp(elements, eps).instance
        plan = partition.optimal_partition_exact(inst, 2)
        assert plan.loss == pytest.approx(half + T * eps, abs=1e-8)
        assert plan.groups == _halves(4 * half)
    _passed(7, "ECP reduction: yes-instances hit k + T*eps (2.4), the "
               "no-instance {1,1,1,5} gives 2.6, 20 random yes-instances "
               "match; all 22 keep their pinned groups")


def test_criterion_8_corollary(table1, sweep_50):
    for inst in sweep_50:
        for groups in all_two_partitions(inst.num_resources):
            plan = partition.partition_loss(inst, groups)
            fact = factorize.partition_to_factorization(inst, plan)
            report = factorize.factor_loss(inst, fact.A, fact.R)
            assert report.alpha <= plan.loss + 1e-9
    g = model.minimal_gas_measure(table1).costs
    k1 = factorize.factor_loss(table1, g[:, None])
    assert k1.alpha == pytest.approx(
        approx.approximability(table1).alpha, abs=1e-9)
    _passed(8, "factorized loss never exceeds partition loss over every "
               "2-partition of 50 instances; k=1 factorization matches "
               "the single-dimensional alpha")


def test_criterion_9_factorization_soundness(sweep_50):
    rng = np.random.default_rng(99)
    for inst in sweep_50:
        plan = partition.optimal_partition_exact(inst, 2)
        fact = factorize.partition_to_factorization(inst, plan)
        assert factorize.kdim_represents(inst, fact.A)
        u = rng.random((1000, inst.num_operations))
        load = (u @ fact.A).max(axis=1)
        x = u * (rng.random(1000) / np.maximum(load, 1e-30))[:, None]
        assert np.all(x @ fact.A <= 1 + 1e-9)
        assert np.all(x @ inst.normalized_usage <= 1 + 1e-9)
    _passed(9, "1000 sampled A-feasible blocks per factorization are "
               "always feasible, for 50 valid factorizations")


def test_criterion_10_range_minimax(table1):
    full = hist.hist_loss_range(table1, np.zeros(4), np.ones(4))
    assert full.alpha_hist == pytest.approx(11 / 8, abs=1e-7)
    alpha = approx.approximability(table1).alpha
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = rng.random(4)
        f /= f.sum()
        point = hist.hist_loss(table1, f)
        box = hist.hist_loss_range(table1, f, f)
        assert abs(box.alpha_hist - point.alpha_hist) <= 1e-8
        for got in (point.alpha_hist, box.alpha_hist):
            assert 1 - 1e-9 <= got <= alpha + 1e-9
    _passed(10, "full-simplex range minimax recovers 11/8; degenerate "
                "boxes match point losses; 1 <= alpha_hist <= alpha "
                "throughout")
