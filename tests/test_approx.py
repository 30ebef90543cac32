import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasloss import approx, formats, lpcore, model, partition
from helpers import (exact_vertex_oracle, feasible_region_gas_max,
                     random_instance)


def _scaled_pair(seed, elementwise, max_ops=6, max_res=3):
    """A random instance of 1..max_ops operations x 1..max_res resources,
    and a copy whose usage is scaled by 10^U(-6, 6) per operation row, or
    per entry when elementwise."""
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, max_ops + 1), rng.integers(1, max_res + 1)
    w = rng.random((m, n)) * (rng.random((m, n)) < 0.6)
    w[np.arange(m), rng.integers(0, n, m)] += 0.5
    scale = 10.0 ** rng.uniform(-6, 6, (m, n) if elementwise else (m, 1))
    caps = 10.0 ** rng.uniform(-1, 1, n)
    ops, res = [f"op{i}" for i in range(m)], [f"r{j}" for j in range(n)]
    return (model.instance_from_arrays(ops, res, w, caps),
            model.instance_from_arrays(ops, res, w * scale, caps))


def _oracle_group_loss(instance, cols):
    """1 / value of the block's game, by the zero-sum game solver, over
    the operations the block uses; a block no operation uses has loss 1."""
    sub = instance.normalized_usage[:, list(cols)]
    sub = sub[np.any(sub > 0, axis=1)]
    if sub.size == 0:
        return 1.0
    return 1.0 / lpcore.solve_zero_sum(sub / sub.max(axis=1)[:, None]).value


class TestBuildGame:
    def test_table1_matches_table2(self, table1):
        U = approx.build_game(table1)
        expected = [[2 / 5, 1], [3 / 5, 1], [1, 5 / 9], [1, 1 / 2]]
        assert np.allclose(U, expected, rtol=1e-15)

    def test_table3(self, table3):
        U = approx.build_game(table3)
        assert np.array_equal(U, [[0, 1], [1, 1], [1, 0]])

    def test_single_op_single_resource(self):
        inst = model.instance_from_arrays(["a"], ["r"], [[3]], [7])
        assert np.array_equal(approx.build_game(inst), [[1.0]])

    def test_every_row_attains_one(self):
        for seed in range(20):
            U = approx.build_game(random_instance(seed))
            assert np.all(U >= 0) and np.all(U <= 1 + 1e-15)
            assert np.allclose(U.max(axis=1), 1.0)


class TestApproximability:
    def test_table1(self, table1):
        rep = approx.approximability(table1)
        assert rep.alpha == pytest.approx(11 / 8, abs=1e-9)
        assert rep.game.value == pytest.approx(8 / 11, abs=1e-9)

    def test_table3(self, table3):
        assert approx.approximability(table3).alpha == pytest.approx(
            2.0, abs=1e-9)

    def test_figure1_preset(self, figure1):
        rep = approx.approximability(figure1)
        assert rep.alpha == pytest.approx(2.0, abs=1e-12)
        # independent check: dual-vertex brute force over the polygon
        assert feasible_region_gas_max(figure1) == pytest.approx(2.0)

    def test_witness_is_feasible_with_gas_alpha(self, table1):
        rep = approx.approximability(table1)
        assert model.is_feasible(table1, rep.witness)
        assert model.gas_of(rep.measure, rep.witness) == pytest.approx(
            rep.alpha, abs=1e-8)


class TestOracle:
    def test_table1(self, table1):
        assert approx.approximability_oracle(table1) == pytest.approx(
            11 / 8, abs=1e-9)

    def test_table3(self, table3):
        assert approx.approximability_oracle(table3) == pytest.approx(
            2.0, abs=1e-9)

    def test_trivial(self):
        inst = model.instance_from_arrays(["a"], ["r"], [[1]], [1])
        assert approx.approximability_oracle(inst) == pytest.approx(1.0)

    def test_with_oracle_flag(self, table1):
        rep = approx.approximability(table1, with_oracle=True)
        assert rep.oracle_alpha == pytest.approx(rep.alpha, abs=1e-7)

    @pytest.mark.parametrize("size", [(400, 100, 0.3, 100005),
                                      (200, 50, 0.3, 100103)])
    def test_sparse_instances_are_certified(self, size):
        # sparse games whose row LP runs long degenerate pivot sequences
        inst = formats.random_instance_doc(*size).to_instance()
        rep = approx.approximability(inst, with_oracle=True)
        U = approx.build_game(inst)
        lower = 1.0 / np.max(rep.game.row_strategy @ U)
        upper = 1.0 / np.min(U @ rep.game.col_strategy)
        assert lower == pytest.approx(rep.alpha, rel=1e-9)
        assert upper == pytest.approx(rep.alpha, rel=1e-9)
        assert rep.oracle_alpha == pytest.approx(rep.alpha, rel=1e-9)


class TestOracleUnderScaling:
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_row_scaling_leaves_alpha_unchanged(self, seed):
        inst, scaled = _scaled_pair(seed, elementwise=False)
        assert approx.approximability_oracle(scaled) == pytest.approx(
            approx.approximability_oracle(inst), rel=1e-9)

    # an operation's scale does not change alpha, nor any group loss:
    # the loss LPs, solved in game coordinates, must agree with the
    # oracle on the unscaled instance however far apart the scales lie
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=300, deadline=None)
    def test_row_scaling_leaves_every_loss_lp_unchanged(self, seed):
        inst, scaled = _scaled_pair(seed, elementwise=False, max_ops=8,
                                    max_res=5)
        assert approx.approximability(scaled).alpha == pytest.approx(
            approx.approximability_oracle(inst), rel=1e-9)
        groups = partition._GroupLosses(scaled)
        for mask in range(1, 1 << inst.num_resources):
            assert groups.loss(mask) == pytest.approx(
                _oracle_group_loss(inst, partition._members(mask)),
                rel=1e-9)

    # a solver fault that shows on about 1% of such instances must still
    # show here, hence 300 examples
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=300, deadline=None)
    def test_elementwise_scaling_matches_exact_alpha(self, seed):
        _, scaled = _scaled_pair(seed, elementwise=True)
        g = model.minimal_gas_measure(scaled).costs
        exact = exact_vertex_oracle(scaled.normalized_usage,
                                    np.ones(scaled.num_resources), g)
        assert approx.approximability_oracle(scaled) == pytest.approx(
            float(exact), rel=1e-8)


class TestProperties:
    def test_oracle_equivalence_random_sweep(self):
        for seed in range(60):
            inst = random_instance(seed)
            rep = approx.approximability(inst, with_oracle=True)
            assert abs(rep.alpha - rep.oracle_alpha) <= 1e-7

    def test_alpha_bounds(self):
        for seed in range(60):
            inst = random_instance(seed)
            alpha = approx.approximability(inst).alpha
            assert 1 - 1e-9 <= alpha <= inst.num_resources + 1e-9

    def test_witness_validity_random_sweep(self):
        for seed in range(30):
            inst = random_instance(seed)
            rep = approx.approximability(inst)
            assert model.is_feasible(inst, rep.witness)
            assert model.gas_of(rep.measure, rep.witness) == pytest.approx(
                rep.alpha, abs=1e-8)
            assert lpcore.verify_equilibrium(
                approx.build_game(inst), rep.game, 1e-9)

    def test_column_scaling_leaves_alpha_unchanged(self):
        for seed in range(10):
            inst = random_instance(seed)
            j = seed % inst.num_resources
            usage = inst.usage.copy()
            caps = inst.capacities.copy()
            usage[:, j] *= 37.5
            caps[j] *= 37.5
            scaled = model.instance_from_arrays(
                inst.operation_names, inst.resource_names, usage, caps)
            assert approx.approximability(scaled).alpha == pytest.approx(
                approx.approximability(inst).alpha, abs=1e-12)

    def test_duplicate_operation_row_leaves_alpha_unchanged(self):
        for seed in range(10):
            inst = random_instance(seed)
            usage = np.vstack([inst.usage, inst.usage[0]])
            names = inst.operation_names + ("dup",)
            dup = model.instance_from_arrays(
                names, inst.resource_names, usage, inst.capacities)
            assert approx.approximability(dup).alpha == pytest.approx(
                approx.approximability(inst).alpha, abs=1e-9)
