import pytest

from gasloss import lpcore, model


@pytest.fixture
def table1():
    """Four operations, two resources, capacities (15, 3)."""
    return model.instance_from_arrays(
        ["Op1", "Op2", "Op3", "Op4"], ["r1", "r2"],
        [[2, 1], [6, 2], [9, 1], [10, 1]], [15, 3])


@pytest.fixture
def table3():
    """Three operations on two unit-capacity resources; worst case 2."""
    return model.instance_from_arrays(
        ["Op1", "Op2", "Op3"], ["r1", "r2"],
        [[0, 1], [1, 1], [1, 0]], [1, 1])


@pytest.fixture
def figure1():
    """Two orthogonal unit operations with capacities (30, 6)."""
    return model.instance_from_arrays(
        ["gas_unit", "blob_unit"], ["gas", "blobs"],
        [[1, 0], [0, 1]], [30, 6])


@pytest.fixture
def lp_calls(monkeypatch):
    """One entry per lpcore.loss_lp call made during the test."""
    calls = []
    solve = lpcore.loss_lp

    def count(a, M, low=None, high=None):
        calls.append(1)
        return solve(a, M, low, high)

    monkeypatch.setattr(lpcore, "loss_lp", count)
    return calls


@pytest.fixture
def simplex_passes(monkeypatch):
    """One entry per lpcore._run_simplex call made during the test."""
    passes = []
    simplex = lpcore._run_simplex

    def count(T, basis):
        passes.append(1)
        return simplex(T, basis)

    monkeypatch.setattr(lpcore, "_run_simplex", count)
    return passes
