"""Distribution-aware loss of the minimal gas measure.

A historical operation mix induces a (generally suboptimal) row strategy
in the worst-case game; the column player's best reply to it gives a
loss that is never worse than the worst case.  For a box of plausible
mixes, the worst loss over the box is the largest gas g @ x of a
feasible block x whose mix x / (1 @ x) lies in the box: one
lpcore.loss_lp call with the box."""

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


def hist_loss(instance: model.ResourceInstance, f) -> HistReport:
    """Best reply of the resource (maximizing) player to the mix-induced
    row strategy; the reciprocal is the loss under this mix."""
    x = hist_strategy(model.minimal_gas_measure(instance), f)
    payoffs = x @ approx.build_game(instance)
    nu = float(payoffs.max())
    # ties, within round-off, resolve to the lowest index
    best = int((payoffs >= nu * (1 - 1e-12)).argmax())
    return HistReport(np.asarray(f, dtype=float), x, payoffs, nu,
                      1.0 / nu, best)


def hist_loss_range(instance: model.ResourceInstance, f_low,
                    f_high) -> HistReport:
    """Worst loss over all frequency vectors in a box intersected with
    the simplex: min over f of the best-reply payoff, as one LP.

    Under the mix f the loss is g @ f / max_j (W'^T f)_j, and it does not
    change when f is scaled; so its largest value over the box is
    max g @ x s.t. W'^T x <= 1, f_low <= x / (1 @ x) <= f_high, and the
    worst-case mix is x / (1 @ x).
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
    sol = lpcore.loss_lp(g, instance.normalized_usage, f_low, f_high)
    if not 0 < sol.alpha < np.inf:
        raise NumericalFailure("range minimax: no feasible frequency found")
    return hist_loss(instance, sol.x / sol.x.sum())
