import numpy as np
import pytest

from gasloss import approx, lpcore, model, partition
from gasloss.errors import InstanceError, TooManyResources
from helpers import random_instance


def balanced_ecp_elements(rng, half_size):
    """A yes-instance: the second half is a shuffle of the first."""
    first = rng.integers(1, 10, size=half_size)
    second = rng.permutation(first)
    return list(first) + list(second)


class TestPartitionLoss:
    def test_singleton_groups_are_lossless(self, table1):
        plan = partition.partition_loss(table1, [(0,), (1,)])
        assert plan.loss == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(plan.per_group_losses, 1.0)

    def test_single_group_reproduces_worst_case(self, table1):
        plan = partition.partition_loss(table1, [(0, 1)])
        assert plan.loss == pytest.approx(11 / 8, abs=1e-9)

    def test_ecp_balanced_pairing(self):
        ecp = partition.generate_ecp([1, 3, 2, 2], 0.1)
        # pair resources of elements {1,3} and {2,2}: indices per element
        groups = [(0, 1, 2, 3), (4, 5, 6, 7)]
        plan = partition.partition_loss(ecp.instance, groups)
        assert plan.loss == pytest.approx(2.4, abs=1e-8)

    def test_per_group_measures_are_group_row_maxima(self, table1):
        plan = partition.partition_loss(table1, [(0,), (1,)])
        norm = model.normalize(table1).matrix
        assert np.allclose(plan.per_group_measures[0], norm[:, 0])
        assert np.allclose(plan.per_group_measures[1], norm[:, 1])

    def test_loss_is_max_of_group_losses(self):
        for seed in range(10):
            inst = random_instance(seed)
            if inst.num_resources < 2:
                continue
            groups = [(0,), tuple(range(1, inst.num_resources))]
            plan = partition.partition_loss(inst, groups)
            assert plan.loss == pytest.approx(
                plan.per_group_losses.max(), abs=1e-12)
            assert np.all(plan.per_group_losses >= 1 - 1e-9)

    def test_invalid_partitions_rejected(self, table1):
        with pytest.raises(InstanceError,
                           match="resource index 0 assigned twice"):
            partition.partition_loss(table1, [(0,), (0, 1)])
        with pytest.raises(InstanceError,
                           match="groups must cover every resource index"):
            partition.partition_loss(table1, [(0,)])
        with pytest.raises(InstanceError, match="empty group"):
            partition.partition_loss(table1, [(0, 1), ()])


class TestExactSearch:
    def test_ecp_yes_instance(self):
        ecp = partition.generate_ecp([1, 3, 2, 2], 0.1)
        plan = partition.optimal_partition_exact(ecp.instance, 2)
        assert plan.loss == pytest.approx(2.4, abs=1e-9)

    def test_ecp_no_instance(self):
        # {1,1,1,5} has no equal-sum equal-cardinality split
        ecp = partition.generate_ecp([1, 1, 1, 5], 0.1)
        plan = partition.optimal_partition_exact(ecp.instance, 2)
        assert plan.loss == pytest.approx(2.6, abs=1e-9)
        assert plan.loss > 2.4

    def test_k_equals_n_is_lossless(self):
        inst = random_instance(3)
        plan = partition.optimal_partition_exact(inst, inst.num_resources)
        assert plan.loss == pytest.approx(1.0, abs=1e-9)

    def test_table1_k1(self, table1):
        plan = partition.optimal_partition_exact(table1, 1)
        assert plan.loss == pytest.approx(11 / 8, abs=1e-9)
        assert plan.groups == ((0, 1),)

    def test_limit_enforced(self):
        doc_ops = [f"op{i}" for i in range(2)]
        res = [f"r{j}" for j in range(13)]
        usage = np.ones((2, 13))
        inst = model.instance_from_arrays(doc_ops, res, usage, np.ones(13))
        with pytest.raises(TooManyResources):
            partition.optimal_partition_exact(inst, 2)

    def test_monotone_in_k(self):
        for seed in (1, 8, 15):
            inst = random_instance(seed, max_ops=5, max_res=4)
            losses = [partition.optimal_partition_exact(inst, k).loss
                      for k in range(1, inst.num_resources + 1)]
            assert all(a >= b - 1e-9 for a, b in zip(losses, losses[1:]))


class TestGreedy:
    def test_no_merges_at_k_equals_n(self, table1):
        plan = partition.optimal_partition_greedy(table1, 2)
        assert plan.groups == ((0,), (1,))
        assert plan.loss == pytest.approx(1.0)

    def test_forced_single_group(self, table1):
        plan = partition.optimal_partition_greedy(table1, 1)
        assert plan.loss == pytest.approx(11 / 8, abs=1e-9)

    def test_never_beats_exact(self):
        rng = np.random.default_rng(2)
        cases = [partition.generate_ecp([1, 3, 2, 2], 0.1).instance]
        cases += [random_instance(s, max_ops=5, max_res=4)
                  for s in range(8)]
        for inst in cases:
            for k in (1, 2):
                if k > inst.num_resources:
                    continue
                exact = partition.optimal_partition_exact(inst, k).loss
                greedy = partition.optimal_partition_greedy(inst, k).loss
                assert greedy >= exact - 1e-9


class TestGenerateEcp:
    def test_kappa_values(self):
        ecp = partition.generate_ecp([1, 3, 2, 2], 0.1)
        expected = [0.2 / 1.1, 0.6 / 1.3, 0.4 / 1.2, 0.4 / 1.2]
        assert np.allclose(ecp.kappa, expected, rtol=1e-15)
        assert ecp.instance.num_operations == 8
        assert ecp.instance.num_resources == 8

    def test_block_diagonal_structure(self):
        ecp = partition.generate_ecp([2, 4], 0.05)
        usage = ecp.instance.usage
        for idx, kappa in enumerate(ecp.kappa):
            a, b = 2 * idx, 2 * idx + 1
            block = usage[np.ix_([a, b], [a, b])]
            assert np.allclose(block, [[1, 1 - kappa], [1 - kappa, 1]])
        mask = np.ones_like(usage, dtype=bool)
        for idx in range(2):
            mask[np.ix_([2 * idx, 2 * idx + 1],
                        [2 * idx, 2 * idx + 1])] = False
        assert np.all(usage[mask] == 0)

    def test_pair_game_closed_form(self):
        ecp = partition.generate_ecp([1, 1], 0.2)
        value = lpcore.solve_zero_sum(
            np.array([[1, 1 - ecp.kappa[0]], [1 - ecp.kappa[0], 1]])).value
        assert value == pytest.approx(1 / 1.2, abs=1e-9)
        plan = partition.optimal_partition_exact(ecp.instance, 2)
        assert plan.loss == pytest.approx(1.2, abs=1e-9)

    def test_epsilon_bound(self):
        with pytest.raises(
                InstanceError,
                match="epsilon must lie strictly between 0 and 1/8"):
            partition.generate_ecp([1, 3, 2, 2], 0.2)   # 0.2 >= 1/8
        with pytest.raises(
                InstanceError,
                match="epsilon must lie strictly between 0 and 1/8"):
            partition.generate_ecp([1, 3, 2, 2], 0.0)

    def test_odd_cardinality_and_sum(self):
        with pytest.raises(InstanceError,
                           match="an even number of elements is required"):
            partition.generate_ecp([1, 2, 3], 0.01)
        with pytest.raises(InstanceError,
                           match="the elements must have an even sum"):
            partition.generate_ecp([1, 2, 3, 1], 0.01)


class TestReduction:
    def test_yes_instances_hit_k_plus_T_epsilon(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            elements = balanced_ecp_elements(rng, 2)
            T = sum(elements) // 2
            eps = 1 / (4 * T)
            ecp = partition.generate_ecp(elements, eps)
            plan = partition.optimal_partition_exact(ecp.instance, 2)
            assert plan.loss == pytest.approx(2 + T * eps, abs=1e-8)

    def test_no_instances_separated(self):
        # odd total imbalance is impossible here, so use multisets whose
        # best equal-cardinality split misses T by at least 1
        for elements in ([1, 1, 1, 5], [1, 1, 2, 8], [2, 2, 3, 9]):
            total = sum(elements)
            T = total // 2
            eps = 1 / (4 * T)
            ecp = partition.generate_ecp(elements, eps)
            plan = partition.optimal_partition_exact(ecp.instance, 2)
            assert plan.loss > 2 + T * eps + eps - 1e-9
