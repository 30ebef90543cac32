"""Independent checks of gasloss answers, in numpy only.

Each check takes the instance as read from its JSON file and one parsed
`--json` answer, and raises CheckFailed when the answer is not proven
right.  No gasloss code runs here: alpha is certified from both sides by
the printed strategies, partitions and factorizations are checked
element by element, and the ECP reduction values are known in closed
form.  Where a check needs alpha or a partition loss for comparison,
the caller passes a value that itself passed these checks.
"""

import json

import numpy as np

REL_TOL = 1e-7      # agreement of alpha with its two certified bounds
FEAS_TOL = 1e-7     # relative slack on capacities and box bounds
SIMPLEX_TOL = 1e-9  # strategies and mixes: sum to 1, no negative entry


class CheckFailed(Exception):
    """An answer failed its certificate check."""


class Instance:
    """Usage matrix W and capacities B read straight from an instance file."""

    def __init__(self, doc):
        self.resources = [r["name"] for r in doc["resources"]]
        self.operations = [op["name"] for op in doc["operations"]]
        col = {name: j for j, name in enumerate(self.resources)}
        self.W = np.zeros((len(self.operations), len(self.resources)))
        for i, op in enumerate(doc["operations"]):
            for name, value in op["usage"].items():
                self.W[i, col[name]] = float(value)
        self.B = np.array([float(r["capacity"]) for r in doc["resources"]])
        self.Wn = self.W / self.B
        self.g = self.Wn.max(axis=1)
        self.U = self.Wn / self.g[:, None]

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(a, b, rel, what):
    _require(np.isfinite(a) and np.isfinite(b), f"{what}: not finite")
    _require(abs(a - b) <= rel * max(abs(a), abs(b), 1.0),
             f"{what}: {a!r} != {b!r}")


def _on_simplex(v, what):
    v = np.asarray(v, dtype=float)
    _require(np.all(np.isfinite(v)), f"{what} is not finite")
    _require(v.min() >= -SIMPLEX_TOL and abs(v.sum() - 1.0) <= SIMPLEX_TOL,
             f"{what} is not on the simplex")
    return v


def check_measure(inst, ans):
    """g_i = max_j w_ij / B_j, and the named resource attains it."""
    g = np.array([ans["measure"][name] for name in inst.operations])
    _require(np.allclose(g, inst.g, rtol=1e-12, atol=0.0),
             "measure is not the row max of W/B")
    for i, name in enumerate(inst.operations):
        j = inst.resources.index(ans["attaining_resource"][name])
        _require(inst.Wn[i, j] == inst.g[i],
                 f"resource named for {name} does not attain g")


def check_approx(inst, ans):
    """Certify alpha from both sides and its witness block; return alpha.

    For the row strategy x, 1/max_j (xU)_j is a lower bound on alpha; for
    the column strategy y, 1/min_i (Uy)_i is an upper bound.  Both must
    agree with the reported alpha.  The witness block must fit every
    capacity and have gas alpha under the minimal measure.
    """
    alpha = float(ans["alpha"])
    _require(np.isfinite(alpha), "alpha is not finite")
    x = _on_simplex(ans["row_strategy"], "row strategy")
    y = _on_simplex(ans["col_strategy"], "column strategy")
    _require(x.shape == (len(inst.operations),)
             and y.shape == (len(inst.resources),), "strategy length")
    best_col, best_row = np.max(x @ inst.U), np.min(inst.U @ y)
    _require(best_col > 0 and best_row > 0, "a strategy guarantees nothing")
    _close(1.0 / best_col, alpha, REL_TOL, "lower bound on alpha")
    _close(1.0 / best_row, alpha, REL_TOL, "upper bound on alpha")
    _require(np.allclose(ans["measure"], inst.g, rtol=1e-12, atol=0.0),
             "measure is not the row max of W/B")
    block = np.asarray(ans["witness_block"], dtype=float)
    _require(block.min() >= 0.0, "witness block has a negative entry")
    _require(np.all(block @ inst.W <= inst.B * (1 + FEAS_TOL)),
             "witness block exceeds a capacity")
    _close(float(inst.g @ block), alpha, REL_TOL, "gas of the witness block")
    return alpha


def check_partition(inst, ans, k, expect=None):
    """Groups disjoint and exhaustive, loss the largest group loss.

    `expect` is None, ("equal", v) for a loss known in closed form, or
    ("above", v) for a loss that must be at least v.
    """
    groups = ans["groups"]
    _require(1 <= len(groups) <= k, f"{len(groups)} groups for k={k}")
    names = [name for group in groups for name in group]
    _require(all(groups), "empty group")
    _require(len(names) == len(set(names)), "groups overlap")
    _require(sorted(names) == sorted(inst.resources),
             "groups do not cover the resources")
    losses = [float(v) for v in ans["per_group_loss"]]
    _require(len(losses) == len(groups), "one loss per group")
    for group, loss in zip(groups, losses):
        _require(1 - REL_TOL <= loss <= len(group) * (1 + REL_TOL),
                 f"group loss {loss!r} outside [1, group size]")
    loss = float(ans["loss"])
    _close(loss, max(losses), 1e-12, "loss vs. largest group loss")
    if expect is not None:
        how, value = expect
        if how == "equal":
            _close(loss, value, REL_TOL, "loss vs. known value")
        else:
            _require(loss >= value, f"loss {loss!r} below {value!r}")
    return loss


def check_factorize(inst, ans, alpha, partition_loss):
    """A R >= W', column sums of R <= 1, alpha = 1 / min dimension value,
    and 1 <= alpha <= the loss of the partition it starts from."""
    A = np.asarray(ans["A"], dtype=float)
    R = np.asarray(ans["R"], dtype=float)
    k = int(ans["k"])
    m, n = inst.Wn.shape
    _require(A.shape == (m, k) and R.shape == (k, n), "factor shapes")
    _require(A.min() >= 0.0 and R.min() >= 0.0, "negative factor entry")
    _require(np.all(A @ R >= inst.Wn - FEAS_TOL * inst.Wn.max()),
             "A R does not cover W'")
    _require(np.all(R.sum(axis=0) <= 1 + FEAS_TOL), "R column sum above 1")
    _require(ans["represents"] is True, "measure does not represent")
    values = [float(v) for v in ans["per_dimension_value"] if v is not None]
    _require(values and min(values) > 0, "no dimension has a positive value")
    factor_alpha = float(ans["alpha"])
    _close(factor_alpha, 1.0 / min(values), 1e-12, "alpha vs. dimensions")
    _require(1 - REL_TOL <= factor_alpha <= partition_loss * (1 + REL_TOL),
             f"alpha {factor_alpha!r} outside [1, {partition_loss!r}]")
    _require(factor_alpha <= alpha * (1 + REL_TOL),
             f"alpha {factor_alpha!r} above the k=1 alpha {alpha!r}")


def check_hist(inst, ans, alpha, low=None, high=None, profile=None,
               full=False):
    """Mix on the simplex and in its box (or equal to the profile), the
    induced strategy and best reply recomputed, 1 <= alpha_hist <= alpha,
    and alpha_hist = alpha when the box is the whole simplex."""
    f = _on_simplex(ans["frequency"], "frequency")
    _require(f.shape == (len(inst.operations),), "frequency length")
    if profile is not None:
        expected = np.array([profile.get(name, 0.0)
                             for name in inst.operations])
        _require(np.allclose(f, expected / expected.sum(), rtol=1e-12,
                             atol=1e-15), "frequency is not the profile")
    else:
        lo = np.array([low.get(name, 0.0) for name in inst.operations])
        hi = np.array([high.get(name, 0.0) for name in inst.operations])
        _require(np.all(f >= lo - FEAS_TOL) and np.all(f <= hi + FEAS_TOL),
                 "frequency outside its box")
    x = f * inst.g / (f @ inst.g)
    _require(np.allclose(ans["x_hist"], x, rtol=1e-6, atol=1e-9),
             "x_hist is not the gas-weighted mix")
    payoffs = np.asarray(ans["x_hist"], dtype=float) @ inst.U
    _require(np.allclose(ans["column_payoffs"], payoffs, rtol=1e-9,
                         atol=1e-12), "column payoffs")
    nu = float(ans["nu_hist"])
    _require(nu > 0, f"nu_hist {nu!r} is not positive")
    _close(nu, payoffs.max(), 1e-9, "nu_hist vs. best reply")
    best = inst.resources.index(ans["best_reply_resource"])
    _close(payoffs[best], nu, 1e-9, "best reply resource")
    alpha_hist = float(ans["alpha_hist"])
    _close(alpha_hist, 1.0 / nu, 1e-12, "alpha_hist vs. 1/nu_hist")
    _require(1 - REL_TOL <= alpha_hist <= alpha * (1 + REL_TOL),
             f"alpha_hist {alpha_hist!r} outside [1, {alpha!r}]")
    if full:
        _close(alpha_hist, alpha, REL_TOL, "alpha_hist on the full simplex")
