"""Shared test utilities: seeded instance generation and independent
brute-force oracles kept deliberately separate from the library code."""

import itertools
from fractions import Fraction

import numpy as np

from gasloss import formats, model


def random_instance(seed, max_ops=6, max_res=4):
    """Seeded small instance via the package's deterministic generator."""
    num_ops = 1 + seed % max_ops
    num_res = 1 + (seed // max_ops) % max_res
    doc = formats.random_instance_doc(num_ops, num_res, density=1.0,
                                      seed=seed * 1_000_003 + 17)
    return doc.to_instance()


def dual_vertex_oracle(weights, bounds, objective):
    """Brute-force oracle for max objective @ x s.t. weights @ x <= bounds,
    x >= 0, valid for exactly two resources.

    Works on the 2-variable dual min bounds @ y s.t. weights^T-rows
    y >= objective, y >= 0, by enumerating pairwise intersections of the
    constraint lines and taking the best feasible point.
    """
    W = np.asarray(weights, dtype=float)
    B = np.asarray(bounds, dtype=float)
    c = np.asarray(objective, dtype=float)
    assert W.shape[1] == 2
    # constraint rows a @ y >= b: the m operation rows plus y1,y2 >= 0
    rows = [(W[i], c[i]) for i in range(W.shape[0])]
    rows.append((np.array([1.0, 0.0]), 0.0))
    rows.append((np.array([0.0, 1.0]), 0.0))
    best = np.inf
    for (a1, b1), (a2, b2) in itertools.combinations(rows, 2):
        mat = np.array([a1, a2])
        if abs(np.linalg.det(mat)) < 1e-12:
            continue
        y = np.linalg.solve(mat, np.array([b1, b2]))
        if np.any(y < -1e-9):
            continue
        if all(a @ y >= b - 1e-9 for a, b in rows):
            best = min(best, float(B @ y))
    return best


def exact_vertex_oracle(weights, bounds, objective):
    """Exact rational oracle for max objective @ x s.t. weights^T x <=
    bounds, x >= 0, for any number of resources.

    Reads every float as the exact fraction it stores and enumerates the
    vertices of the dual min bounds @ y s.t. weights y >= objective,
    y >= 0 in rational arithmetic; returns the optimum as a Fraction.
    """
    W = [[Fraction(float(v)) for v in row] for row in np.atleast_2d(weights)]
    B = [Fraction(float(v)) for v in bounds]
    c = [Fraction(float(v)) for v in objective]
    n = len(B)
    rows = list(zip(W, c)) + [
        ([Fraction(int(k == j)) for k in range(n)], Fraction(0))
        for j in range(n)]
    best = None
    for chosen in itertools.combinations(rows, n):
        y = _solve_exact([a for a, _ in chosen], [b for _, b in chosen])
        if y is None or any(sum(map(Fraction.__mul__, a, y)) < b
                            for a, b in rows):
            continue
        value = sum(map(Fraction.__mul__, B, y))
        if best is None or value < best:
            best = value
    return best


def _solve_exact(A, b):
    """The solution of the square rational system A y = b, or None when
    A is singular (Gauss-Jordan elimination)."""
    n = len(b)
    M = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col] / M[col][col]
                M[r] = [v - f * p for v, p in zip(M[r], M[col])]
    return [M[r][n] / M[r][r] for r in range(n)]


def feasible_region_gas_max(instance):
    """Oracle for the worst-case loss: the dual-vertex maximum of total
    minimal-measure gas over the feasible region (two resources only)."""
    g = model.minimal_gas_measure(instance).costs
    return dual_vertex_oracle(instance.usage, instance.capacities, g)
