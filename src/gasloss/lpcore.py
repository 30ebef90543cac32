"""Dense LP and zero-sum matrix game engine.

Every LP here is max c @ x s.t. A x <= b, x >= 0 with b >= 0, so its
slack basis is feasible and one simplex pass from it solves the LP: a
tableau simplex with a largest-coefficient pivot rule and a Bland's-rule
fallback once a budget of degenerate pivots is exhausted.  Every
"optimal" answer, primal and dual, is certified within a tolerance
scaled by the data (_checked), or NumericalFailure is raised.  Problems
here are tiny (a few hundred variables at most): a dense tableau fits.

loss_lp, max a @ x s.t. M^T x <= 1, solves the zero-sum game u = M / a
as the LP max 1 @ z s.t. u^T z <= 1 in the game coordinates z = a x,
and its primal and dual are the game's strategies.  A box on the mix,
low <= x / (1 @ x) <= high, is written in offset coordinates
x = tau low + e, e >= 0: tau is one more operation, of value a @ low
and usage M^T low, and with r = 1 - sum(low) the mix rows are
1 @ e = r tau (two rows) and e_i <= (high_i - low_i) tau, kept only
where high_i - low_i < r.  So no lower-bound row is needed and every
right-hand side is 0 or 1.  r is capped at sum(high - low), and an r
of at most FEAS_TOL is round-off and counts as 0, so that a box whose
sums are off by round-off stays feasible and makes no tiny pivot.

solve_zero_sum solves a game U as one loss_lp call on the shifted game
U + 1 - min U, whose entries are all at least 1.  The shift stays even
for a nonnegative U such as the game of approx.build_game: unshifted,
that call is approx's own loss LP, so the oracle would check nothing.

All numeric tolerances used by the solver live here as module constants."""

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalFailure

# Solver tolerances (single source of truth).
PIVOT_TOL = 1e-10        # entries below this are treated as zero pivots
FEAS_TOL = 1e-9          # feasibility / optimality tolerance
DEGENERATE_BUDGET = 50   # degenerate pivots before switching to Bland's rule
MAX_ITERATIONS = 20000


@dataclass(frozen=True)
class LinearProgram:
    """max objective @ x  s.t.  matrix @ x <= bounds, x >= 0, with
    bounds >= 0 so that x = 0 is feasible."""

    objective: np.ndarray
    matrix: np.ndarray
    bounds: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        b = np.asarray(self.bounds, dtype=float)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "bounds", b)
        if a.shape[0] != b.shape[0]:
            raise ValueError("constraint matrix and bounds length mismatch")
        if a.shape[1] != c.shape[0]:
            raise ValueError("constraint matrix and objective length mismatch")
        if not np.all(b >= 0):
            raise ValueError("bounds must be >= 0")


@dataclass(frozen=True)
class LPResult:
    status: str          # "optimal" | "unbounded"
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
    the dual y of the M rows (M y >= a, 1 @ y = alpha when there is no
    box), both clipped at 0."""

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
    prow = T[row]
    prow /= prow[col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= colvals[:, None] * prow
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
    # views: every pivot updates T in place
    red = T[-1, :-1]
    rhs = T[:m, -1]
    degenerate = 0
    use_bland = False
    for _ in range(MAX_ITERATIONS):
        if use_bland:
            # the first improving column
            col = (red < -PIVOT_TOL).argmax()
            if not red[col] < -PIVOT_TOL:
                return "optimal"
        else:
            col = red.argmin()
            if red[col] >= -FEAS_TOL:
                return "optimal"
        column = T[:m, col]
        rows = (column > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        ratios = rhs[rows] / column[rows]
        best = ratios.min()
        ties = rows[ratios <= best + PIVOT_TOL]
        # lowest basis index among ties (Bland-compatible leaving rule)
        row = ties[0] if ties.size == 1 else ties[basis[ties].argmin()]
        if best <= PIVOT_TOL:
            degenerate += 1
            if degenerate > DEGENERATE_BUDGET:
                use_bland = True
        else:
            degenerate = 0
        _pivot(T, basis, row, col)
    raise NumericalFailure("simplex iteration limit exceeded")


def solve_lp(lp: LinearProgram) -> LPResult:
    """Solve a small dense LP in one simplex pass from its slack basis,
    returning primal and dual solutions.

    When the status is "optimal" the primal is finite, nonnegative and
    satisfies every constraint, and the dual, read off the slack
    columns' reduced costs, certifies its optimality (_checked; within
    FEAS_TOL scaled by the data, NumericalFailure otherwise).
    """
    a, b = lp.matrix, lp.bounds
    m, n = a.shape
    ceq = np.zeros(n + m)
    ceq[:n] = -lp.objective     # the tableau minimizes
    T = np.zeros((m + 1, n + m + 1))
    slack_rows = np.arange(m)
    basis = n + slack_rows
    T[:m, :n] = a
    T[slack_rows, basis] = 1.0
    T[:m, -1] = b
    T[-1, :-1] = ceq
    if _run_simplex(T, basis) == "unbounded":
        return LPResult("unbounded", np.nan, np.full(n, np.nan),
                        np.full(m, np.nan))
    x_full = np.zeros(n + m)
    x_full[basis] = T[:m, -1]
    return _checked(lp, x_full[:n], T[-1, n:-1], -float(ceq @ x_full))


def _checked(lp, x, u, value) -> LPResult:
    """The "optimal" result (value, x, u) once x is finite, nonnegative
    and feasible, and the dual u is finite and certifies x: u >= 0,
    A^T u >= c and b @ u = c @ x.  Every check allows FEAS_TOL scaled by
    the data."""
    if not (np.isfinite(x).all() and np.isfinite(u).all()):
        raise NumericalFailure("LP solution is not finite")
    a, b = lp.matrix, lp.bounds
    a_max, b_max, x_max = (np.abs(v).max(initial=0.0) for v in (a, b, x))
    tol = FEAS_TOL * (1 + a_max * max(x_max, 1.0) + b_max)
    if not (x.min(initial=0.0) >= -tol
            and (a @ x - b).max(initial=0.0) <= tol):
        raise NumericalFailure("LP solution fails its feasibility check")
    c = lp.objective
    u_max, c_max = np.abs(u).max(initial=0.0), np.abs(c).max(initial=0.0)
    tol_dual = FEAS_TOL * (1 + a_max * u_max + c_max)
    tol_gap = FEAS_TOL * (1 + b_max * u_max + c_max * x_max)
    if not (u.min(initial=0.0) >= -tol_dual
            and (a.T @ u - c).min(initial=0.0) >= -tol_dual
            and abs(b @ u - c @ x) <= tol_gap):
        raise NumericalFailure("LP dual fails its optimality certificate")
    return LPResult("optimal", value, x, u)


def loss_lp(a, M, low=None, high=None) -> LossSolution:
    """max a @ x s.t. M^T x <= 1, x >= 0, the LP form of every loss here,
    with the mix x / (1 @ x) in [low, high] when a box is given.

    It is solved in game coordinates z_i = a_i x_i: row i of M becomes
    u_i = M_i / a_i with objective 1, so the absolute tolerances see
    every operation at one scale whatever its units.  A row with
    a_i <= 0 keeps M_i and its objective a_i.  x is z / a, and the dual
    of the M rows is the same in both coordinates.  A box is written in
    the offset coordinates of the module docstring."""
    a = np.asarray(a, dtype=float)
    rows, bounds = np.transpose(M), np.ones(np.shape(M)[1])
    if low is not None:
        width = np.maximum(high - low, 0.0)
        r = min(1.0 - low.sum(), width.sum())
        r = r if r > FEAS_TOL else 0.0
        tight = width < r
        mix = np.append(np.ones(a.size), -r)
        rows = np.vstack([np.c_[rows, rows @ low], mix, -mix,
                          np.c_[np.eye(a.size)[tight], -width[tight]]])
        bounds = np.r_[bounds, np.zeros(len(rows) - len(bounds))]
        a = np.append(a, a @ low)
    scale = np.where(a > 0, a, 1.0)
    res = solve_lp(LinearProgram(a / scale, rows / scale, bounds))
    alpha = res.value if res.status == "optimal" else np.inf
    x, y = np.maximum(res.x / scale, 0.0), np.maximum(res.y, 0.0)
    if low is not None:
        x, y, a = x[:-1] + x[-1] * low, y[:np.shape(M)[1]], a[:-1]
    return LossSolution(alpha, x, y, a)


def _clean_simplex(v):
    v = np.where(np.abs(v) < 1e-12, 0.0, np.maximum(v, 0.0))
    total = v.sum()
    if total > 0:
        v = v / total
    return v


def solve_zero_sum(U) -> GameSolution:
    """Value and equilibrium strategies of a finite zero-sum matrix game
    whose row player minimizes.

    The value is min over row mixtures x of max_j sum_i x_i U_ij.  With
    s = 1 - min U every entry of U + s is at least 1, so the game of one
    loss_lp call, max 1 @ z s.t. (U + s)^T z <= 1, is bounded and is the
    shifted game: the value is its value minus s, the strategies are its
    own.  The shift is applied even when U >= 0 (see the module
    docstring).  A solution that fails verify_equilibrium within
    10 FEAS_TOL raises NumericalFailure.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if U.size == 0 or not np.all(np.isfinite(U)):
        raise ValueError("game matrix must be finite and non-empty")
    shift = 1.0 - U.min()
    res = loss_lp(np.ones(U.shape[0]), U + shift)
    if res.alpha == np.inf:
        raise NumericalFailure("game LP ended with status unbounded")
    game = res.game
    sol = replace(game, value=game.value - shift)
    if not verify_equilibrium(U, sol, FEAS_TOL * 10):
        raise NumericalFailure("game strategies fail the equilibrium check")
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
