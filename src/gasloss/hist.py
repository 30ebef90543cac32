"""Distribution-aware loss of the minimal gas measure.

A historical operation mix induces a (generally suboptimal) row strategy
in the worst-case game; the column player's best reply to it gives a
loss that is never worse than the worst case.  For a box of plausible
frequency vectors, the worst loss over the box is a linear-fractional
minimax in the gas-scaled variables z_i = f_i * g_i; the Charnes-Cooper
substitution s = z / max_j (z . U_j) turns it into one LP whose slack
basis is feasible.
"""

from dataclasses import dataclass

import numpy as np

from . import approx, lpcore, model
from .errors import InstanceError, NumericalFailure


@dataclass(frozen=True)
class HistReport:
    frequency: np.ndarray        # the operation mix the report is about
    x_hist: np.ndarray           # induced row strategy
    column_payoffs: np.ndarray
    nu_hist: float
    alpha_hist: float
    best_reply_column: int


def hist_strategy(g: model.GasMeasure, f) -> np.ndarray:
    """Row strategy induced by an operation mix: gas-weight the
    frequencies and renormalize, x_i = f_i g_i / sum f g."""
    costs = np.asarray(g.costs, dtype=float)
    f = np.asarray(f, dtype=float)
    if f.shape != costs.shape:
        raise InstanceError("frequency vector length must match the measure")
    if not np.all(np.isfinite(f) & (f >= 0)):
        raise InstanceError("frequencies must be finite and nonnegative")
    weighted = f * costs
    total = weighted.sum()
    if total <= 0:
        raise InstanceError("all frequency mass on zero-cost operations")
    return weighted / total


def _report_for_strategy(U, f, x):
    payoffs = x @ U
    best = int(np.argmax(payoffs))        # ties resolve to the lowest index
    nu = float(payoffs[best])
    return HistReport(np.asarray(f, dtype=float), x, payoffs, nu,
                      1.0 / nu, best)


def hist_loss(instance: model.ResourceInstance, f) -> HistReport:
    """Best reply of the resource (maximizing) player to the mix-induced
    row strategy; the reciprocal is the loss under this mix."""
    g = model.minimal_gas_measure(instance)
    U = approx.build_game(instance)
    return _report_for_strategy(U, f, hist_strategy(g, f))


def hist_loss_range(instance: model.ResourceInstance, f_low,
                    f_high) -> HistReport:
    """Worst loss over all frequency vectors in a box intersected with
    the simplex: min over f of the best-reply payoff, as one LP.

    With s = z / max_j (z . U_j) the payoff level is 1 / sum(s), and the
    box f_low <= f <= f_high, sum f = 1 becomes z_low * (s . 1/g) <= s <=
    z_high * (s . 1/g); so the LP is max sum(s) s.t. U^T s <= 1 and the
    scaled box, all "<=" rows with right-hand side 0 or 1.
    """
    f_low = np.asarray(f_low, dtype=float)
    f_high = np.asarray(f_high, dtype=float)
    m = instance.num_operations
    if f_low.shape != (m,) or f_high.shape != (m,):
        raise InstanceError("box bounds need one entry per operation")
    if not (np.all(np.isfinite(f_low)) and np.all(np.isfinite(f_high))):
        raise InstanceError("box bounds must be finite")
    if np.any(f_low < 0) or np.any(f_low > f_high + 1e-12):
        raise InstanceError("need 0 <= f_low <= f_high componentwise")
    if f_low.sum() > 1 + 1e-9 or f_high.sum() < 1 - 1e-9:
        raise InstanceError("the box does not intersect the simplex")

    g = model.minimal_gas_measure(instance).costs
    U = approx.build_game(instance)
    n = U.shape[1]
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
    s = np.maximum(res.x, 0.0)
    f = s / g
    return _report_for_strategy(U, f / f.sum(), s / s.sum())
