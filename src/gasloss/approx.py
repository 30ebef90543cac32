"""Single-dimensional approximability.

The worst-case loss of the minimal gas measure g is the largest gas of
a feasible block, max g @ x s.t. W'^T x <= 1 (lpcore.loss_lp); its
primal and dual solve the zero-sum game between operations (the
minimizing player) and resources with utilities u_ij = w_ij / (B_j * g_i),
whose value is 1 / alpha.  The oracle solves that game directly.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lpcore, model
from .errors import NumericalFailure


@dataclass(frozen=True)
class ApproxReport:
    alpha: float
    measure: model.GasMeasure
    game: lpcore.GameSolution
    witness: np.ndarray
    oracle_alpha: Optional[float] = None


def build_game(instance: model.ResourceInstance) -> np.ndarray:
    """Read-only utility matrix u_ij = w_ij / (B_j * g_i) with g the
    minimal measure.

    Every row attains 1 in the column realizing the row's max; entries
    lie in [0, 1].
    """
    g = model.minimal_gas_measure(instance).costs
    entries = instance.normalized_usage / g[:, None]
    entries.setflags(write=False)
    return entries


def approximability(instance: model.ResourceInstance,
                    with_oracle: bool = False) -> ApproxReport:
    """Worst-case loss of the minimal measure, by lpcore.loss_lp.

    The witness block, the LP's optimum, is feasible and has gas exactly
    alpha, certifying tightness.
    """
    g = model.minimal_gas_measure(instance)
    sol = lpcore.loss_lp(g.costs, instance.normalized_usage)
    if not 0 < sol.alpha < np.inf:
        raise NumericalFailure(f"loss LP ended with alpha {sol.alpha}")
    oracle = approximability_oracle(instance) if with_oracle else None
    return ApproxReport(alpha=sol.alpha, measure=g, game=sol.game,
                        witness=sol.x, oracle_alpha=oracle)


def approximability_oracle(instance: model.ResourceInstance) -> float:
    """The loss as the reciprocal of the game value, by the zero-sum game
    solver.  Its LP is over the shifted game U + 1 - min U, not the
    unshifted game that approximability's LP solves, so the two answers
    check each other."""
    game = lpcore.solve_zero_sum(build_game(instance))
    if game.value <= 0:
        raise NumericalFailure("nonpositive game value")
    return 1.0 / game.value
