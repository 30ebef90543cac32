import itertools

import numpy as np
import pytest

from gasloss import factorize, formats, lpcore, model, partition
from gasloss.errors import InstanceError
from helpers import random_instance


def per_dimension_oracle(instance, A, ell):
    """LP oracle for one dimension: max total dimension-ell cost of any
    feasible block."""
    n = instance.normalized_usage.shape[1]
    lp = lpcore.LinearProgram(A[:, ell], instance.normalized_usage.T,
                              np.ones(n))
    res = lpcore.solve_lp(lp)
    assert res.status == "optimal"
    return float(res.value)


def all_two_partitions(n):
    for size in range(1, n // 2 + 1):
        for combo in itertools.combinations(range(1, n), size - 1):
            first = (0,) + combo
            second = tuple(j for j in range(n) if j not in first)
            if second:
                yield (first, second)


class TestKdimRepresents:
    def test_minimal_measure_column(self, table1):
        g = model.minimal_gas_measure(table1).costs
        assert factorize.kdim_represents(table1, g[:, None])

    def test_all_zero_column_fails(self, table1):
        assert not factorize.kdim_represents(table1, np.zeros((4, 1)))

    def test_partition_derived_always_represents(self):
        for seed in range(10):
            inst = random_instance(seed)
            n = inst.num_resources
            k = min(2, n)
            plan = partition.optimal_partition_exact(inst, k)
            fact = factorize.partition_to_factorization(inst, plan)
            assert factorize.kdim_represents(inst, fact.A)


class TestPartitionToFactorization:
    def test_single_group_recovers_minimal_measure(self, table1):
        plan = partition.partition_loss(table1, [(0, 1)])
        fact = factorize.partition_to_factorization(table1, plan)
        g = model.minimal_gas_measure(table1).costs
        assert np.allclose(fact.A[:, 0], g, rtol=1e-15)
        assert np.array_equal(fact.R, [[1, 1]])

    def test_singletons_recover_normalized_matrix(self, table1):
        plan = partition.partition_loss(table1, [(0,), (1,)])
        fact = factorize.partition_to_factorization(table1, plan)
        assert np.allclose(fact.A, table1.normalized_usage)
        assert np.array_equal(fact.R, np.eye(2))

    def test_conditions_hold_by_construction(self):
        for seed in range(10):
            inst = random_instance(seed)
            k = min(2, inst.num_resources)
            plan = partition.optimal_partition_exact(inst, k)
            fact = factorize.partition_to_factorization(inst, plan)
            w = inst.normalized_usage
            assert np.all(fact.A @ fact.R >= w - 1e-9)
            assert np.all(fact.R.sum(axis=0) <= 1 + 1e-9)

    def test_ecp_corollary_bound(self):
        ecp = partition.generate_ecp([1, 3, 2, 2], 0.1)
        plan = partition.optimal_partition_exact(ecp.instance, 2)
        fact = factorize.partition_to_factorization(ecp.instance, plan)
        report = factorize.factor_loss(ecp.instance, fact.A, fact.R)
        assert report.alpha <= 2.4 + 1e-9


class TestFactorLoss:
    def test_k1_agrees_with_single_dimensional_alpha(self, table1):
        g = model.minimal_gas_measure(table1).costs
        report = factorize.factor_loss(table1, g[:, None])
        assert report.alpha == pytest.approx(11 / 8, abs=1e-9)

    def test_per_dimension_oracle_equivalence(self):
        for seed in range(15):
            inst = random_instance(seed)
            k = min(2, inst.num_resources)
            plan = partition.optimal_partition_exact(inst, k)
            fact = factorize.partition_to_factorization(inst, plan)
            report = factorize.factor_loss(inst, fact.A, fact.R)
            for ell, value in enumerate(report.per_dimension_values):
                oracle = per_dimension_oracle(inst, fact.A, ell)
                assert abs(1 / value - oracle) <= 1e-7
            assert report.alpha == pytest.approx(
                max(per_dimension_oracle(inst, fact.A, ell)
                    for ell in range(fact.A.shape[1])), abs=1e-7)

    def test_representation_violated(self, table1):
        g = model.minimal_gas_measure(table1).costs
        with pytest.raises(
                InstanceError,
                match="the k-dimensional measure does not represent the "
                      "instance"):
            factorize.factor_loss(table1, 0.1 * g[:, None])

    def test_all_zero_dimension_skipped_with_warning(self, table1):
        g = model.minimal_gas_measure(table1).costs
        A = np.column_stack([g, np.zeros(4)])
        report = factorize.factor_loss(table1, A)
        assert np.isnan(report.per_dimension_values[1])
        assert report.alpha == pytest.approx(11 / 8, abs=1e-9)
        assert any("all-zero" in w for w in report.warnings)


def bench_style_instances():
    """Random density-0.5 instances of the sizes the benchmark factorizes."""
    for s, (m, n) in enumerate(((30, 8), (60, 8), (100, 10))):
        yield formats.random_instance_doc(m, n, 0.5, s).to_instance()


class TestCoverCheck:
    def test_agrees_with_kdim_represents(self, monkeypatch):
        calls = []
        evaluate = factorize.factor_loss

        def record(instance, A, R=None):
            calls.append((instance, A, R))
            return evaluate(instance, A, R)

        monkeypatch.setattr(factorize, "factor_loss", record)
        assert ((1 + factorize._COVER_SLACK) ** 2
                <= 1 + factorize.REPRESENT_TOL)
        cases = [(random_instance(seed), 2) for seed in range(12)]
        cases += [(inst, k) for inst in bench_style_instances()
                  for k in (2, 3)]
        for inst, k in cases:
            factorize.alternating_factorization(inst,
                                                min(k, inst.num_resources))
        # the partition-derived pair, and no alternating round, per case
        assert len(calls) == len(cases)
        for instance, A, R in calls:
            w = instance.normalized_usage
            # every pair the factorization evaluates covers W'
            assert factorize._covers(w, A, R)
            assert factorize.kdim_represents(instance, A)
            # a cover of a scaled-down measure fails, and so does A itself
            assert not factorize._covers(w, 0.5 * A, R)
            assert not factorize.kdim_represents(instance, 0.5 * A)

    def test_non_covering_column_falls_back_to_the_lps(self, monkeypatch,
                                                       table1):
        # a column the cover does not reach; A itself still represents
        fact = factorize.partition_to_factorization(
            table1, partition.partition_loss(table1, [(0,), (1,)]))
        R = fact.R.copy()
        R[:, 1] = 0.0
        assert not factorize._covers(table1.normalized_usage, fact.A, R)
        checked = []
        check = factorize.kdim_represents

        def record(instance, A):
            checked.append(1)
            return check(instance, A)

        monkeypatch.setattr(factorize, "kdim_represents", record)
        report = factorize.factor_loss(table1, fact.A, R)
        assert checked
        assert report.alpha == pytest.approx(
            factorize.factor_loss(table1, fact.A).alpha, rel=1e-12)
        checked.clear()
        factorize.factor_loss(table1, fact.A, fact.R)
        assert not checked

    def test_non_representing_measure_is_refused(self, table1):
        # 0.1 g with R = [[1, 1]] neither covers nor represents; the
        # refusal is an InstanceError, which the CLI exits with 2
        g = model.minimal_gas_measure(table1).costs
        with pytest.raises(
                InstanceError,
                match="the k-dimensional measure does not represent the "
                      "instance"):
            factorize.factor_loss(table1, 0.1 * g[:, None], np.ones((1, 2)))

    @pytest.mark.parametrize("A, R", [
        # A R = W' but the column sums of R are 2
        ([[0.5], [0.5], [0.5]], [[2.0, 2.0]]),
        # A R = W' where W' > 0, but a negative cost lets x grow freely
        ([[-1.0, 1.0], [1.0, 1.0], [1.0, -1.0]], np.eye(2)),
    ])
    def test_cover_without_its_conditions_is_refused(self, table3, A, R):
        assert not factorize.kdim_represents(table3, np.array(A))
        assert not factorize._covers(table3.normalized_usage, np.array(A), R)
        with pytest.raises(InstanceError):
            factorize.factor_loss(table3, A, R)

    def test_alternation_matches_the_lp_checks(self, monkeypatch):
        instances = list(bench_style_instances())[:2]
        reports = [factorize.alternating_factorization(i, k)
                   for i in instances for k in (2, 3)]
        monkeypatch.setattr(factorize, "_covers", lambda w, A, R: False)
        for report, (inst, k) in zip(reports, [(i, k) for i in instances
                                              for k in (2, 3)]):
            ref = factorize.alternating_factorization(inst, k)
            assert np.array_equal(report.factorization.A, ref.factorization.A)
            assert report.alpha == ref.alpha
            assert np.array_equal(report.per_dimension_values,
                                  ref.per_dimension_values)

    def test_alternation_solves_no_representation_lps(self, lp_calls,
                                                      monkeypatch):
        represent_lps = []
        check = factorize.kdim_represents

        def counted(instance, A):
            before = len(lp_calls)
            result = check(instance, A)
            represent_lps.append(len(lp_calls) - before)
            return result

        monkeypatch.setattr(factorize, "kdim_represents", counted)
        for inst in bench_style_instances():
            factorize.alternating_factorization(inst, 2)
        assert lp_calls
        assert sum(represent_lps) == 0


class TestAlternating:
    def test_k1_cannot_beat_minimal_measure(self, table1):
        report = factorize.alternating_factorization(table1, 1)
        assert report.alpha == pytest.approx(11 / 8, abs=1e-9)

    def test_k_equals_n_matches_singleton_partition(self, table1):
        report = factorize.alternating_factorization(table1, 2)
        singleton_loss = partition.partition_loss(
            table1, [(0,), (1,)]).loss
        assert report.alpha <= singleton_loss + 1e-9

    def test_never_worse_than_exact_partition(self):
        for seed in (2, 5, 9, 14):
            inst = random_instance(seed, max_ops=6, max_res=4)
            if inst.num_resources < 2:
                continue
            exact = partition.optimal_partition_exact(inst, 2).loss
            report = factorize.alternating_factorization(inst, 2)
            assert report.alpha <= exact + 1e-9

    def test_row_update_reproduces_the_partition_measure(self):
        # why no alternating round runs: given the group-indicator R, the
        # cheapest row a >= 0 with a @ R >= w'_i is row i of the
        # partition's own A, so a row update cannot change the measure;
        # that row is the dual of max w'_i @ y s.t. R y <= 1
        for inst in bench_style_instances():
            for k in (2, 3):
                fact = factorize.partition_to_factorization(
                    inst, partition.best_partition(inst, k))
                for w_i, a_i in zip(inst.normalized_usage, fact.A):
                    res = lpcore.solve_lp(lpcore.LinearProgram(
                        w_i, fact.R, np.ones(k)))
                    assert res.status == "optimal"
                    assert np.allclose(res.y, a_i, rtol=1e-12, atol=1e-15)
                report = factorize.alternating_factorization(inst, k)
                assert np.array_equal(report.factorization.A, fact.A)
                assert np.array_equal(report.factorization.R, fact.R)


    @pytest.mark.parametrize("n", (16, 20))
    @pytest.mark.parametrize("k", (2, 3))
    def test_greedy_partition_above_the_exact_limit(self, n, k):
        # best_partition hands instances above the exact enumeration
        # limit to the greedy search
        assert n > partition.EXACT_ENUMERATION_LIMIT
        for seed in range(2):
            inst = formats.random_instance_doc(40, n, 1.0, seed).to_instance()
            fact = factorize.partition_to_factorization(
                inst, partition.optimal_partition_greedy(inst, k))
            report = factorize.alternating_factorization(inst, k)
            assert np.array_equal(report.factorization.A, fact.A)
            assert np.array_equal(report.factorization.R, fact.R)


class TestSoundness:
    def test_factorization_feasibility_sampling(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            inst = random_instance(seed)
            k = min(2, inst.num_resources)
            plan = partition.optimal_partition_exact(inst, k)
            fact = factorize.partition_to_factorization(inst, plan)
            assert factorize.kdim_represents(inst, fact.A)
            u = rng.random((200, inst.num_operations))
            load = u @ fact.A                     # per-dimension costs
            scale = 1.0 / np.maximum(load.max(axis=1), 1e-30)
            x = u * (scale * rng.random(200))[:, None]
            assert np.all(x @ fact.A <= 1 + 1e-9)
            assert np.all(x @ inst.normalized_usage <= 1 + 1e-9)

    def test_corollary_over_all_two_partitions(self):
        for seed in range(8):
            inst = random_instance(seed, max_ops=5, max_res=4)
            if inst.num_resources < 2:
                continue
            for groups in all_two_partitions(inst.num_resources):
                plan = partition.partition_loss(inst, groups)
                fact = factorize.partition_to_factorization(inst, plan)
                report = factorize.factor_loss(inst, fact.A, fact.R)
                assert report.alpha <= plan.loss + 1e-9
