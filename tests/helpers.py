"""Shared test utilities: seeded instance generation and independent
brute-force oracles kept deliberately separate from the library code."""

import itertools
import json
from fractions import Fraction

import numpy as np

from gasloss import formats, model
from gasloss.errors import InstanceError


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


def reference_read(raw, extra_excluded=()):
    """Per-entry reference for model.walk_instance + instance_from_pairs:
    every amount goes through float() on its own (booleans and strings
    refused), zeros are dropped, unknown resources refused, and the matrix
    is filled one entry at a time before model.instance_from_arrays
    validates it."""
    try:
        resources = []
        for r in raw.get("resources", []):
            name, capacity = str(r["name"]), r["capacity"]
            if isinstance(capacity, (bool, str)):
                raise TypeError(f"expected a number, got {capacity!r}")
            flag = r.get("congesting", True)
            if isinstance(flag, str):
                raise TypeError(f"congesting must be true or false, "
                                f"got {flag!r}")
            resources.append((name, float(capacity), bool(flag)))
        known = {name for name, _, _ in resources}
        operations = []
        for op in raw.get("operations", []):
            amounts = op.get("usage", {})
            usage = {}
            for k, v in amounts.items():
                if isinstance(v, (bool, str)):
                    raise TypeError(f"expected a number, got {v!r}")
                if float(v) != 0:
                    usage[str(k)] = float(v)
            unknown = {str(k) for k in amounts.keys() - known} - known
            if unknown:
                raise InstanceError(
                    f"operation {op.get('name')!r} uses unknown "
                    f"resources {sorted(unknown)}")
            operations.append((str(op["name"]), usage))
        notes = raw.get("notes", [])
        if not isinstance(notes, (list, tuple)):
            raise TypeError(f"notes must be a list, got {notes!r}")
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        if isinstance(exc, InstanceError):
            raise
        raise InstanceError(f"malformed instance file: {exc}") from exc
    res_names = [name for name, _, _ in resources]
    usage = np.zeros((len(operations), len(res_names)))
    for i, (_, amounts) in enumerate(operations):
        for k, v in amounts.items():
            usage[i, res_names.index(k)] = v
    return model.instance_from_arrays(
        [name for name, _ in operations], res_names, usage,
        [c for _, c, _ in resources], [flag for _, _, flag in resources],
        extra_excluded)


def reference_serialize_instance(doc):
    """formats.serialize_instance as first written, through
    json.dumps(..., indent=2); the serializer must match it byte for
    byte."""
    rank = {name: j for j, (name, _, _) in enumerate(doc.resources)}
    out = {}
    if doc.notes:
        out["notes"] = list(doc.notes)
    out["resources"] = [
        {"name": n, "capacity": formats._format_number(c),
         "congesting": flag}
        for n, c, flag in doc.resources]
    out["operations"] = [
        {"name": n, "usage": {k: formats._format_number(u[k])
                              for k in sorted(u, key=rank.__getitem__)}}
        for n, u in doc.operations]
    return json.dumps(out, indent=2) + "\n"


_MASK64 = (1 << 64) - 1


class TinyRng:
    """Scalar splitmix64, one output per call: state += 0x9E3779B97F4A7C15;
    z = state; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9;
    z = (z ^ z>>27) * 0x94D049BB133111EB; return z ^ z>>31."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def uniform(self) -> float:
        return self.next_u64() / 2.0 ** 64


def reference_random_instance_doc(num_ops, num_resources, density=1.0,
                                  seed=0):
    """Scalar reference for formats.random_instance_doc, one draw at a
    time: capacities 1 + below(10); per entry below(11), then, when
    density < 1, one uniform that zeroes the entry when >= density; an
    all-zero row is drawn again.  Returns the document and the number of
    rows drawn again."""
    rng = TinyRng(seed)
    res_names = [f"res{j + 1}" for j in range(num_resources)]
    capacities = [float(1 + rng.below(10)) for _ in range(num_resources)]
    operations = []
    rerolls = 0
    for i in range(num_ops):
        while True:
            row = []
            for _ in range(num_resources):
                value = rng.below(11)
                if density < 1 and rng.uniform() >= density:
                    value = 0
                row.append(float(value))
            if any(row):
                break
            rerolls += 1
        operations.append(
            (f"op{i + 1}",
             {rn: v for rn, v in zip(res_names, row) if v != 0}))
    resources = [(n, c, True) for n, c in zip(res_names, capacities)]
    return formats.InstanceDoc(resources, operations), rerolls


def reference_pivot(T, basis, row, col):
    """The simplex pivot as first written, np.outer and all; the
    reference that lpcore._pivot must match bit for bit."""
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def reference_run_simplex(T, basis):
    """The simplex loop as first written, one numpy wrapper call per
    step; lpcore._run_simplex must leave T and basis bit-identical.
    Reads lpcore's tolerances and budgets, so a monkeypatch of them
    reaches both."""
    from gasloss import lpcore
    from gasloss.errors import NumericalFailure
    m = T.shape[0] - 1
    degenerate = 0
    use_bland = False
    for _ in range(lpcore.MAX_ITERATIONS):
        red = T[-1, :-1]
        if use_bland:
            candidates = np.flatnonzero(red < -lpcore.PIVOT_TOL)
            if candidates.size == 0:
                return "optimal"
            col = candidates[0]
        else:
            col = int(np.argmin(red))
            if red[col] >= -lpcore.FEAS_TOL:
                return "optimal"
        column = T[:m, col]
        rows = np.flatnonzero(column > lpcore.PIVOT_TOL)
        if rows.size == 0:
            return "unbounded"
        ratios = T[rows, -1] / column[rows]
        best = ratios.min()
        ties = rows[ratios <= best + lpcore.PIVOT_TOL]
        row = ties[int(np.argmin(basis[ties]))]
        if best <= lpcore.PIVOT_TOL:
            degenerate += 1
            if degenerate > lpcore.DEGENERATE_BUDGET:
                use_bland = True
        else:
            degenerate = 0
        reference_pivot(T, basis, row, col)
    raise NumericalFailure("simplex iteration limit exceeded")


def reference_tableau(lp):
    """The slack-basis tableau and basis of lpcore.solve_lp, built with
    np.eye as first written."""
    a, b = lp.matrix, lp.bounds
    m, n = a.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = a
    T[:m, n:-1] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n] = -lp.objective
    return T, n + np.arange(m)


def reference_solve_lp(lp):
    """(status, value, x, y) of lpcore.solve_lp, before its certificate
    check, computed with the reference tableau and loop."""
    m, n = lp.matrix.shape
    T, basis = reference_tableau(lp)
    ceq = T[-1, :-1].copy()
    status = reference_run_simplex(T, basis)
    if status == "unbounded":
        return status, None, None, None
    x_full = np.zeros(n + m)
    x_full[basis] = T[:m, -1]
    return status, -float(ceq @ x_full), x_full[:n], T[-1, n:-1]


def reference_range_lp(instance, f_low, f_high):
    """(alpha, mix) of the range minimax as first written: the
    Charnes-Cooper LP in s = z / max_j (z . U_j), z = f g, whose value
    sum(s) is the loss, with the box f_low <= f <= f_high, sum f = 1 as
    dense rows z_low (s . 1/g) <= s <= z_high (s . 1/g).  The reference
    that hist.hist_loss_range's alpha must match."""
    from gasloss import approx, lpcore
    from gasloss.errors import NumericalFailure
    g = model.minimal_gas_measure(instance).costs
    U = approx.build_game(instance)
    m, n = U.shape
    z_low = f_low * g
    z_high = f_high * g
    # f_i <= 1 and f_i >= 0 always hold, so those bounds need no row
    upper = np.flatnonzero(f_high < 1)
    lower = np.flatnonzero(f_low > 0)
    eye = np.eye(m)
    rows = np.vstack([U.T,
                      eye[upper] - np.outer(z_high[upper], 1.0 / g),
                      np.outer(z_low[lower], 1.0 / g) - eye[lower]])
    bounds = np.zeros(rows.shape[0])
    bounds[:n] = 1.0
    res = lpcore.solve_lp(lpcore.LinearProgram(np.ones(m), rows, bounds))
    if res.status != "optimal" or res.value <= 0:
        raise NumericalFailure("range minimax: no feasible frequency found")
    f = np.maximum(res.x, 0.0) / g
    return res.value, f / f.sum()
