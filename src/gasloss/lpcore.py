"""Dense LP and zero-sum matrix game engine.

A tableau simplex with a largest-coefficient pivot rule and a
Bland's-rule fallback once a budget of degenerate pivots is exhausted.
An LP with only "<=" rows and b >= 0 (every production LP) starts in
phase 2 at its slack basis; its dual u, read off the slack columns, must
satisfy u >= 0, A^T u >= c and b @ u = c @ x.  Other LPs run phase 1,
with an artificial only on "==" and sign-flipped rows.  An "optimal" x
must be finite, nonnegative and feasible; each check allows a tolerance
scaled by the data, and a failure raises NumericalFailure.  Problems
here are tiny (a few hundred variables at most): a dense tableau fits.

loss_lp, max a @ x s.t. M^T x <= 1, solves a zero-sum game u = M / a
through its primal and dual; solve_zero_sum solves the game directly.

All numeric tolerances used by the solver live here as module constants.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

# Solver tolerances (single source of truth).
PIVOT_TOL = 1e-10        # entries below this are treated as zero pivots
FEAS_TOL = 1e-9          # feasibility / optimality tolerance
VALUE_AGREEMENT_TOL = 2e-9   # row-LP vs column-LP game value agreement
DEGENERATE_BUDGET = 50   # degenerate pivots before switching to Bland's rule
MAX_ITERATIONS = 20000


@dataclass(frozen=True)
class LinearProgram:
    """min/max objective @ x  s.t.  matrix @ x (<= | ==) bounds, x >= 0."""

    objective: np.ndarray
    matrix: np.ndarray
    bounds: np.ndarray
    senses: tuple
    maximize: bool = False

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        b = np.asarray(self.bounds, dtype=float)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "bounds", b)
        object.__setattr__(self, "senses", tuple(self.senses))
        if a.shape[0] != b.shape[0]:
            raise ValueError("constraint matrix and bounds length mismatch")
        if a.shape[1] != c.shape[0]:
            raise ValueError("constraint matrix and objective length mismatch")
        if len(self.senses) != a.shape[0]:
            raise ValueError("one sense per constraint required")
        for s in self.senses:
            if s not in ("<=", "=="):
                raise ValueError(f"unsupported constraint sense {s!r}")


@dataclass(frozen=True)
class LPResult:
    status: str          # "optimal" | "infeasible" | "unbounded"
    value: float
    x: np.ndarray        # primal solution (original variables)
    y: np.ndarray        # dual solution, one entry per original constraint


@dataclass(frozen=True)
class GameSolution:
    """Equilibrium of a finite zero-sum matrix game."""

    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray


@dataclass(frozen=True)
class LossSolution:
    """Optimum of loss_lp: alpha (inf when unbounded), the primal x and
    the dual y (M y >= a, 1 @ y = alpha), both clipped at 0."""

    alpha: float
    x: np.ndarray
    y: np.ndarray
    a: np.ndarray

    @property
    def game(self) -> GameSolution:
        """Equilibrium of the game u_ij = M_ij / a_i, of value 1/alpha."""
        return GameSolution(1.0 / self.alpha, _clean_simplex(self.a * self.x),
                            _clean_simplex(self.y))


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    # kill round-off in the pivot column
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run_simplex(T, basis):
    """Minimize the objective encoded in the last tableau row.

    T has shape (m+1, n+1): m constraint rows, reduced-cost row last,
    right-hand side in the last column.  Returns "optimal" or "unbounded".
    """
    m = T.shape[0] - 1
    degenerate = 0
    use_bland = False
    for _ in range(MAX_ITERATIONS):
        red = T[-1, :-1]
        if use_bland:
            candidates = np.flatnonzero(red < -PIVOT_TOL)
            if candidates.size == 0:
                return "optimal"
            col = candidates[0]
        else:
            col = int(np.argmin(red))
            if red[col] >= -FEAS_TOL:
                return "optimal"
        column = T[:m, col]
        rows = np.flatnonzero(column > PIVOT_TOL)
        if rows.size == 0:
            return "unbounded"
        ratios = T[rows, -1] / column[rows]
        best = ratios.min()
        ties = rows[ratios <= best + PIVOT_TOL]
        # lowest basis index among ties (Bland-compatible leaving rule)
        row = ties[int(np.argmin(basis[ties]))]
        if best <= PIVOT_TOL:
            degenerate += 1
            if degenerate > DEGENERATE_BUDGET:
                use_bland = True
        else:
            degenerate = 0
        _pivot(T, basis, row, col)
    raise NumericalFailure("simplex iteration limit exceeded")


def solve_lp(lp: LinearProgram) -> LPResult:
    """Solve a small dense LP, returning primal and dual solutions.

    When the status is "optimal" the primal is finite, nonnegative and
    satisfies every constraint within FEAS_TOL scaled by the size of the
    data (NumericalFailure otherwise), and the dual closes the
    strong-duality gap.
    """
    if set(lp.senses) <= {"<="} and np.all(lp.bounds >= 0):
        return _solve_from_slack_basis(lp)
    return _solve_two_phase(lp)


def _solve_from_slack_basis(lp: LinearProgram) -> LPResult:
    """One simplex pass from the slack basis of A x <= b, b >= 0: the
    tableau and pivots of _solve_two_phase's phase 2, with the dual read
    off the slack columns' reduced costs and certified by _checked."""
    a, b = lp.matrix, lp.bounds
    m, n = a.shape
    ceq = np.zeros(n + m)
    ceq[:n] = -lp.objective if lp.maximize else lp.objective
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = a
    T[:m, n:-1] = np.eye(m)
    T[:m, -1] = b
    T[-1, :-1] = ceq
    basis = n + np.arange(m)
    if _run_simplex(T, basis) == "unbounded":
        return _nan_result("unbounded", n, m)
    x_full = np.zeros(n + m)
    x_full[basis] = T[:m, -1]
    return _checked(lp, x_full[:n], -T[-1, n:-1], float(ceq @ x_full),
                    False, certify_dual=True)


def _solve_two_phase(lp: LinearProgram) -> LPResult:
    """Phase 1 from the slack basis plus artificials for "==" and
    negative-bound rows, then phase 2; duals from the final basis."""
    a, b = lp.matrix, lp.bounds
    m, n = a.shape

    # Equality standard form: slacks for "<=" rows, then make b >= 0.
    is_slack = np.array([s == "<=" for s in lp.senses], dtype=bool)
    slack_rows = np.flatnonzero(is_slack)
    n_slack = slack_rows.size
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = n + np.arange(n_slack)
    aeq = np.hstack([a, np.zeros((m, n_slack))])
    aeq[slack_rows, basis[slack_rows]] = 1.0
    ceq = np.concatenate([-lp.objective if lp.maximize else lp.objective,
                          np.zeros(n_slack)])
    flipped = b < 0
    aeq[flipped] *= -1.0
    b = np.where(flipped, -b, b)
    n_real = n + n_slack

    # Phase 1: a "<=" row with b >= 0 starts from its own slack; "==" and
    # flipped rows start from an artificial.  Minimize artificial mass.
    art_rows = np.flatnonzero(flipped | ~is_slack)
    n_art = art_rows.size
    basis[art_rows] = n_real + np.arange(n_art)
    T = np.zeros((m + 1, n_real + n_art + 1))
    T[:m, :n_real] = aeq
    T[art_rows, basis[art_rows]] = 1.0
    T[:m, -1] = b
    T[-1, n_real:-1] = 1.0
    T[-1] -= T[art_rows].sum(axis=0)
    if _run_simplex(T, basis) != "optimal" or -T[-1, -1] > 1e-7:
        return _nan_result("infeasible", n, m)

    # Drive remaining artificials out of the basis; drop redundant rows.
    keep_rows = np.ones(m, dtype=bool)
    for r in range(m):
        if basis[r] >= n_real:
            real = np.flatnonzero(np.abs(T[r, :n_real]) > PIVOT_TOL)
            if real.size:
                _pivot(T, basis, r, real[0])
            else:
                keep_rows[r] = False

    rows_idx = np.flatnonzero(keep_rows)
    basis2 = basis[rows_idx]
    T2 = np.vstack([T[rows_idx][:, np.r_[:n_real, -1]], np.append(ceq, 0.0)])
    for r, bv in enumerate(basis2):
        coeff = T2[-1, bv]
        if abs(coeff) > 0.0:
            T2[-1] -= coeff * T2[r]
    if _run_simplex(T2, basis2) == "unbounded":
        return _nan_result("unbounded", n, m)
    x_full = np.zeros(n_real)
    x_full[basis2] = T2[:-1, -1]

    # Duals from the final basis: y solves B^T y = c_B over kept rows.
    y = np.zeros(m)
    if rows_idx.size:
        bmat = aeq[np.ix_(rows_idx, basis2)]
        try:
            y[rows_idx] = np.linalg.solve(bmat.T, ceq[basis2])
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("singular basis in dual recovery") from exc
    y = np.where(flipped, -y, y)
    return _checked(lp, x_full[:n], y, float(ceq @ x_full), ~is_slack)


def _nan_result(status, n, m) -> LPResult:
    return LPResult(status, np.nan, np.full(n, np.nan), np.full(m, np.nan))


def _checked(lp, x, y, value, eq_rows, certify_dual=False) -> LPResult:
    """The "optimal" result from x and the minimization form's value and
    dual y, once x is finite, nonnegative and feasible and y is finite;
    with certify_dual, once also u = -y >= 0, A^T u >= c and b @ u = c @ x.
    Every check allows FEAS_TOL scaled by the data."""
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NumericalFailure("LP solution is not finite")
    a, b = lp.matrix, lp.bounds
    a_max, b_max, x_max = (np.abs(v).max(initial=0.0) for v in (a, b, x))
    tol = FEAS_TOL * (1 + a_max * max(x_max, 1.0) + b_max)
    resid = a @ x - b
    resid = np.where(eq_rows, np.abs(resid), resid)
    if not (x.min(initial=0.0) >= -tol and resid.max(initial=0.0) <= tol):
        raise NumericalFailure("LP solution fails its feasibility check")
    if certify_dual:
        u, c = -y, (lp.objective if lp.maximize else -lp.objective)
        u_max, c_max = np.abs(u).max(initial=0.0), np.abs(c).max(initial=0.0)
        tol_dual = FEAS_TOL * (1 + a_max * u_max + c_max)
        tol_gap = FEAS_TOL * (1 + b_max * u_max + c_max * x_max)
        if not (u.min(initial=0.0) >= -tol_dual
                and (a.T @ u - c).min(initial=0.0) >= -tol_dual
                and abs(b @ u - c @ x) <= tol_gap):
            raise NumericalFailure("LP dual fails its optimality certificate")
    if lp.maximize:
        return LPResult("optimal", -value, x, -y)
    return LPResult("optimal", value, x, y)


def loss_lp(a, M) -> LossSolution:
    """max a @ x s.t. M^T x <= 1, x >= 0, the LP form of every loss here;
    its slack basis is feasible, so solve_lp starts it in phase 2."""
    n = np.shape(M)[1]
    lp = LinearProgram(a, np.transpose(M), np.ones(n), ("<=",) * n,
                       maximize=True)
    res = solve_lp(lp)
    # x = 0 is feasible, so the LP is never infeasible
    alpha = res.value if res.status == "optimal" else np.inf
    return LossSolution(alpha, np.maximum(res.x, 0.0),
                        np.maximum(res.y, 0.0), lp.objective)


def _clean_simplex(v):
    v = np.where(np.abs(v) < 1e-12, 0.0, np.maximum(v, 0.0))
    total = v.sum()
    if total > 0:
        v = v / total
    return v


def _row_lp(U):
    """min v s.t. U^T x <= v, sum(x) = 1, x >= 0; v free (split)."""
    m, n = U.shape
    c = np.zeros(m + 2)
    c[m] = 1.0
    c[m + 1] = -1.0
    a = np.zeros((n + 1, m + 2))
    a[:n, :m] = U.T
    a[:n, m] = -1.0
    a[:n, m + 1] = 1.0
    a[n, :m] = 1.0
    b = np.zeros(n + 1)
    b[n] = 1.0
    senses = ("<=",) * n + ("==",)
    return solve_lp(LinearProgram(c, a, b, senses))


def _column_lp(U):
    """max u s.t. U y >= u, sum(y) = 1, y >= 0; the maximizer's side."""
    m, n = U.shape
    c = np.zeros(n + 2)
    c[n] = 1.0
    c[n + 1] = -1.0
    a = np.zeros((m + 1, n + 2))
    a[:m, :n] = -U
    a[:m, n] = 1.0
    a[:m, n + 1] = -1.0
    a[m, :n] = 1.0
    b = np.zeros(m + 1)
    b[m] = 1.0
    senses = ("<=",) * m + ("==",)
    return solve_lp(LinearProgram(c, a, b, senses, maximize=True))


def solve_zero_sum(U, row_minimizes: bool = True) -> GameSolution:
    """Value and equilibrium strategies of a finite zero-sum matrix game.

    With row_minimizes=True the value is min over row mixtures x of
    max_j sum_i x_i U_ij; the column strategy is recovered from the
    row LP's duals, with a second symmetric LP as fallback.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if U.size == 0 or not np.all(np.isfinite(U)):
        raise ValueError("game matrix must be finite and non-empty")
    if not row_minimizes:
        inner = solve_zero_sum(-U, row_minimizes=True)
        return GameSolution(-inner.value, inner.row_strategy,
                            inner.col_strategy)

    m, n = U.shape
    res = _row_lp(U)
    if res.status != "optimal":
        raise NumericalFailure(f"row LP ended with status {res.status}")
    value = float(res.value)
    x = _clean_simplex(res.x[:m])
    # duals of the "<=" rows are nonpositive for this minimization
    y = _clean_simplex(-res.y[:n])
    sol = GameSolution(value, x, y)
    if not verify_equilibrium(U, sol, FEAS_TOL * 10):
        col = _column_lp(U)
        if col.status != "optimal":
            raise NumericalFailure(f"column LP ended with status {col.status}")
        if abs(col.value - value) > VALUE_AGREEMENT_TOL:
            raise NumericalFailure("row and column LP values disagree")
        sol = GameSolution(value, x, _clean_simplex(col.x[:n]))
    return sol


def verify_equilibrium(U, sol: GameSolution, tol: float) -> bool:
    """Check simplex membership and best-response gaps of a solution.

    The row player is the minimizer: no pure column may earn more than
    value + tol against the row strategy, and no pure row may pay less
    than value - tol against the column strategy.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    x = np.asarray(sol.row_strategy, dtype=float)
    y = np.asarray(sol.col_strategy, dtype=float)
    if x.shape[0] != U.shape[0] or y.shape[0] != U.shape[1]:
        return False
    for v in (x, y):
        if np.any(v < -1e-9) or abs(v.sum() - 1.0) > 1e-9:
            return False
    if np.max(x @ U) > sol.value + tol:
        return False
    if np.min(U @ y) < sol.value - tol:
        return False
    return True
