"""k-dimensional gas measures via upper-bounding factorization.

A pair of nonnegative matrices (A, R) with W' <= A @ R elementwise and
R column sums at most 1 guarantees that the k-dimensional costs A
represent the instance (W' = W / B, the instance's normalized_usage).
The loss of such a measure is the largest per-dimension loss, each the
reciprocal of a zero-sum game value.  The factorization reported, in
both CLI modes, is the one alternating_factorization derives from the
best resource partition.  A row update from that partition's
group-indicator R returns the partition's own A, so no alternating round
runs.  That is no optimality claim: a fractional R can give a lower
loss, and finding the optimal factorization is left open.  Every LP here
is an lpcore.loss_lp.
"""

from dataclasses import dataclass

import numpy as np

from . import lpcore, model, partition
from .errors import InstanceError

REPRESENT_TOL = 1e-9
# slack of the elementwise cover check: (1 + s)^2 <= 1 + REPRESENT_TOL
_COVER_SLACK = REPRESENT_TOL / 3


@dataclass(frozen=True)
class Factorization:
    A: np.ndarray   # operations x k: the k-dimensional gas costs
    R: np.ndarray   # k x resources: the right factor (column sums <= 1);
    k: int          # R is None when only the measure A is known


@dataclass(frozen=True)
class FactorReport:
    factorization: Factorization
    per_dimension_values: np.ndarray   # game value per dimension (nan: skipped)
    alpha: float
    represents: bool
    warnings: tuple = ()


def kdim_represents(instance: model.ResourceInstance, A) -> bool:
    """True iff A-feasibility implies feasibility for every resource:
    per resource j, max {sum_i x_i w'_ij : x A-feasible} <= 1."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    w = instance.normalized_usage
    if A.shape[0] != w.shape[0]:
        raise InstanceError("A needs one row per operation")
    return all(lpcore.loss_lp(w[:, j], A).alpha <= 1 + REPRESENT_TOL
               for j in range(w.shape[1]))


def _covers(w, A, R):
    """True when A >= 0, R >= 0, every column sum of R is at most 1 + s
    and W' <= (1 + s) A R wherever W' > 0, for s = _COVER_SLACK.  Then an
    A-feasible x (x @ A <= 1) loads resource j at most
    (1 + s) x @ A @ R_j <= (1 + s)^2 <= 1 + REPRESENT_TOL, which certifies
    what kdim_represents checks with one LP per resource."""
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if R.shape != (A.shape[1], w.shape[1]) or A.shape[0] != w.shape[0]:
        return False
    return bool(np.all(A >= 0) and np.all(R >= 0)
                and np.all(R.sum(axis=0) <= 1 + _COVER_SLACK)
                and np.all((w <= (1 + _COVER_SLACK) * (A @ R)) | (w <= 0)))


def partition_to_factorization(instance: model.ResourceInstance,
                               plan: partition.PartitionPlan) -> Factorization:
    """A_il = max over group l of w'_ij (the plan's per-group measures),
    R = group indicator matrix.

    Satisfies both factorization conditions by construction, so the
    resulting A is never worse than the partition it came from.
    """
    k = len(plan.groups)
    A = np.column_stack(plan.per_group_measures)
    R = np.zeros((k, instance.num_resources))
    for ell, group in enumerate(plan.groups):
        R[ell, list(group)] = 1.0
    return Factorization(A, R, k)


def factor_loss(instance: model.ResourceInstance, A,
                R=None) -> FactorReport:
    """Loss of the k-dimensional measure A: per dimension, the game on
    u_ij = w'_ij / A_il over operations with A_il > 0; overall the
    largest per-dimension loss.  A must represent the instance: a given
    right factor R that covers W' elementwise certifies this (_covers),
    and otherwise kdim_represents decides it with its LPs."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    w = instance.normalized_usage
    if not (R is not None and _covers(w, A, R)
            or kdim_represents(instance, A)):
        raise InstanceError(
            "the k-dimensional measure does not represent the instance")
    k = A.shape[1]
    values = np.full(k, np.nan)
    warnings = []
    for ell in range(k):
        active = np.flatnonzero(A[:, ell] > 0)
        if active.size == 0:
            warnings.append(f"dimension {ell} has all-zero costs; skipped")
            continue
        # zero-cost operations are free in this dimension and drop out
        values[ell] = 1.0 / lpcore.loss_lp(A[active, ell], w[active]).alpha
    if np.all(np.isnan(values)):
        raise InstanceError("every dimension is all-zero")
    alpha = float(1.0 / np.nanmin(values))
    return FactorReport(Factorization(A, R, k), values, alpha, True,
                        tuple(warnings))


def alternating_factorization(instance: model.ResourceInstance,
                              k: int) -> FactorReport:
    """The partition-derived factorization, with k clamped to 1..n.  No
    alternating round runs: given the group-indicator R, the row update's
    unique optimum is A_il = max over group l of w'_ij, the partition's
    own A, and factor_loss depends only on A."""
    if k < 1:
        raise InstanceError("k must be at least 1")
    k = min(k, instance.num_resources)
    fact = partition_to_factorization(instance,
                                      partition.best_partition(instance, k))
    return factor_loss(instance, fact.A, fact.R)
