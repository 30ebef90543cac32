import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasloss import model
from gasloss.errors import InstanceError
from helpers import dual_vertex_oracle, random_instance


class TestValidation:
    def test_table1_accepted_unchanged(self, table1):
        assert table1.operation_names == ("Op1", "Op2", "Op3", "Op4")
        assert np.array_equal(table1.usage,
                              [[2, 1], [6, 2], [9, 1], [10, 1]])
        assert np.array_equal(table1.capacities, [15, 3])
        assert table1.warnings == ()

    def test_all_zero_row_dropped_with_warning(self):
        inst = model.instance_from_arrays(
            ["a", "b"], ["r"], [[0], [1]], [1])
        assert inst.operation_names == ("b",)
        assert len(inst.warnings) == 1 and "'a'" in inst.warnings[0]

    def test_dropped_operations_recorded(self):
        inst = model.instance_from_arrays(
            ["a", "b", "c"], ["r1", "r2"], [[0, 0], [1, 0], [0, 2]], [1, 1])
        assert inst.dropped_operations == ("a",)
        assert inst.operation_names == ("b", "c")
        # a row that the exclusion empties is dropped as well
        inst = model.instance_from_arrays(
            ["a", "b", "c"], ["r1", "r2"], [[0, 0], [1, 0], [0, 2]], [1, 1],
            extra_excluded=["r2"])
        assert inst.dropped_operations == ("a", "c")
        assert len(inst.warnings) == 2 and "'c'" in inst.warnings[1]

    def test_zero_capacity_rejected(self):
        with pytest.raises(InstanceError,
                           match="capacity of resource 'r2' must be positive"):
            model.instance_from_arrays(["a"], ["r1", "r2"], [[1, 1]], [1, 0])

    def test_non_finite_values_rejected(self):
        with pytest.raises(InstanceError,
                           match="usage and capacities must be finite"):
            model.instance_from_arrays(["a"], ["r1", "r2"], [[1, 1]],
                                       [1, np.nan])
        with pytest.raises(InstanceError,
                           match="usage and capacities must be finite"):
            model.instance_from_arrays(["a"], ["r"], [[np.inf]], [1])

    def test_negative_usage_rejected(self):
        with pytest.raises(
                InstanceError,
                match="usage of operation 'a' on resource 'r' is negative"):
            model.instance_from_arrays(["a"], ["r"], [[-1]], [1])

    def test_duplicate_names_rejected(self):
        with pytest.raises(InstanceError,
                           match="duplicate operation name 'a'"):
            model.instance_from_arrays(["a", "a"], ["r"], [[1], [1]], [1])
        with pytest.raises(InstanceError,
                           match="duplicate resource name 'r'"):
            model.instance_from_arrays(["a"], ["r", "r"], [[1, 1]], [1, 1])

    def test_empty_instance_rejected(self):
        with pytest.raises(InstanceError,
                           match="no operations with positive usage remain"):
            model.instance_from_arrays(["a"], ["r"], [[0]], [1])

    def test_mapping_form(self):
        inst = model.validate_instance({
            "resources": [{"name": "r1", "capacity": 2},
                          {"name": "r2", "capacity": 1, "congesting": False}],
            "operations": [{"name": "a", "usage": {"r1": 1, "r2": 5}}],
        })
        assert inst.resource_names == ("r1",)
        assert inst.excluded_resources == ("r2",)
        assert np.array_equal(inst.usage, [[1]])


class TestNormalize:
    def test_table1(self, table1):
        expected = [[2 / 15, 1 / 3], [2 / 5, 2 / 3],
                    [3 / 5, 1 / 3], [2 / 3, 1 / 3]]
        assert np.allclose(table1.normalized_usage, expected, rtol=0, atol=0)

    def test_identity_on_unit_capacities(self, table3):
        assert np.array_equal(table3.normalized_usage, table3.usage)

    def test_scalar(self):
        inst = model.instance_from_arrays(["a"], ["r"], [[6]], [3])
        assert inst.normalized_usage[0, 0] == 2.0


class TestMinimalMeasure:
    def test_table1(self, table1):
        g = model.minimal_gas_measure(table1).costs
        assert np.allclose(g, [1 / 3, 2 / 3, 3 / 5, 2 / 3], rtol=1e-15)

    def test_table3(self, table3):
        assert np.array_equal(model.minimal_gas_measure(table3).costs,
                              [1, 1, 1])

    def test_usage_equal_capacity_gives_ones(self):
        inst = model.instance_from_arrays(
            ["a", "b"], ["r"], [[7], [7]], [7])
        assert np.array_equal(model.minimal_gas_measure(inst).costs, [1, 1])


class TestRepresents:
    def test_minimal_measure_represents(self, table1):
        g = model.minimal_gas_measure(table1)
        assert model.represents(g, table1)

    def test_slightly_below_minimal_fails(self, table1):
        g = model.minimal_gas_measure(table1).costs.copy()
        g[3] -= 1e-3
        assert not model.represents(model.GasMeasure(g), table1)

    def test_scaled_minimal_represents(self, table1):
        g = model.minimal_gas_measure(table1).costs * 2
        assert model.represents(model.GasMeasure(g), table1)

    def test_length_mismatch(self, table1):
        with pytest.raises(InstanceError,
                           match="one cost per operation required"):
            model.represents(model.GasMeasure(np.ones(3)), table1)


class TestFeasibility:
    def test_single_op4_block(self, table1):
        assert model.is_feasible(table1, [0, 0, 0, 1])

    def test_two_op4_exceed_capacity(self, table1):
        assert not model.is_feasible(table1, [0, 0, 0, 2])

    def test_empty_block(self, table1):
        assert model.is_feasible(table1, np.zeros(4))

    def test_gas_of_saturating_block(self, table1):
        g = model.minimal_gas_measure(table1)
        assert model.gas_of(g, [3, 0, 0, 0]) == pytest.approx(1.0)

    def test_gas_of_table3_equilibrium_witness(self, table3):
        g = model.minimal_gas_measure(table3)
        assert model.gas_of(g, [0.5, 0, 0.5]) == 1.0
        assert model.gas_of(g, np.zeros(3)) == 0.0

    def test_length_mismatch(self, table1):
        with pytest.raises(InstanceError,
                           match="one count per operation required"):
            model.is_feasible(table1, [1, 2])
        with pytest.raises(InstanceError,
                           match="measure and block lengths differ"):
            model.gas_of(model.minimal_gas_measure(table1), [1, 2])


class TestMaxBlockSize:
    def test_orthogonal_units(self):
        inst = model.instance_from_arrays(
            ["a", "b"], ["r1", "r2"], [[1, 0], [0, 1]], [1, 1])
        assert model.max_block_size(inst).K == pytest.approx(2.0)

    def test_single_resource(self):
        inst = model.instance_from_arrays(["a"], ["r"], [[1]], [5])
        assert model.max_block_size(inst).K == pytest.approx(5.0)

    def test_table1_against_vertex_oracle(self, table1):
        # independent oracle: 2-variable dual solved by enumerating
        # pairwise intersections of constraint lines
        oracle = dual_vertex_oracle(table1.usage, table1.capacities,
                                    np.ones(4))
        k = model.max_block_size(table1).K
        assert oracle == pytest.approx(3.0)
        assert k == pytest.approx(oracle, abs=1e-9)

    def test_lower_bound_single_op_blocks(self):
        for seed in range(10):
            inst = random_instance(seed)
            w_norm = inst.usage / inst.capacities
            bound = np.max(1.0 / np.max(w_norm, axis=1))
            assert model.max_block_size(inst).K >= bound - 1e-9


class TestProperties:
    def test_minimality_by_construction(self):
        # any measure below the minimal one in coordinate i admits a
        # gas-feasible single-operation block violating some resource
        for seed in range(20):
            inst = random_instance(seed)
            g_min = model.minimal_gas_measure(inst).costs
            i = seed % inst.num_operations
            g_bad = g_min.copy()
            g_bad[i] *= 0.9
            x = np.zeros(inst.num_operations)
            x[i] = 1.0 / g_bad[i]
            assert model.gas_of(model.GasMeasure(g_bad), x) <= 1 + 1e-12
            assert not model.is_feasible(inst, x)

    def test_representation_soundness(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            inst = random_instance(seed)
            g = model.minimal_gas_measure(inst)
            for _ in range(200):
                x = rng.random(inst.num_operations)
                x /= model.gas_of(g, x)          # gas exactly 1
                assert model.is_feasible(inst, x)

    @given(scale=st.floats(min_value=1e-3, max_value=1e3),
           seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_column_scale_invariance(self, scale, seed):
        inst = random_instance(seed)
        j = seed % inst.num_resources
        usage = inst.usage.copy()
        usage[:, j] *= scale
        caps = inst.capacities.copy()
        caps[j] *= scale
        scaled = model.instance_from_arrays(
            inst.operation_names, inst.resource_names, usage, caps)
        assert np.allclose(scaled.normalized_usage,
                           inst.normalized_usage, rtol=1e-12)
        assert np.allclose(model.minimal_gas_measure(scaled).costs,
                           model.minimal_gas_measure(inst).costs, rtol=1e-12)
        rng = np.random.default_rng(seed)
        x = rng.random(inst.num_operations) * 2
        assert (model.is_feasible(scaled, x)
                == model.is_feasible(inst, x))
