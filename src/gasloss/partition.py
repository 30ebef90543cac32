"""Resource partitioning into k groups.

Each group gets its own single-dimensional measure (row max over the
group's normalized columns); the plan's loss is the worst group loss.
Exact search enumerates set partitions block-by-block with
branch-and-bound pruning; a greedy agglomerative merger covers larger
instances.  The equal-cardinality-partition reduction instance doubles
as a hardness fixture and a verification target.
"""

from dataclasses import dataclass

import numpy as np

from . import lpcore, model
from .errors import InstanceError, TooManyResources

EXACT_ENUMERATION_LIMIT = 12  # Bell-number growth beyond this
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class PartitionPlan:
    groups: tuple               # disjoint, exhaustive resource index sets
    per_group_measures: tuple   # one cost vector per group (full op set)
    per_group_losses: np.ndarray
    loss: float


@dataclass(frozen=True)
class EcpInstance:
    """Reduction instance: per element s, two operations and two resources
    coupled by the 2x2 block [[1, 1-kappa], [1-kappa, 1]] with
    kappa = 2*s*eps / (1 + s*eps); all capacities 1."""

    elements: tuple
    epsilon: float
    kappa: np.ndarray
    instance: model.ResourceInstance


def _group_loss(instance, cols, cache):
    """Single-dimensional approximability of the sub-instance restricted
    to the given resource columns; operations with no usage there are
    dropped, and an untouched group has loss 1."""
    key = frozenset(cols)
    if key in cache:
        return cache[key]
    sub = instance.normalized_usage[:, sorted(cols)]
    sub = sub[np.any(sub > 0, axis=1)]
    if sub.size == 0:
        loss = 1.0
    else:
        loss = lpcore.loss_lp(sub.max(axis=1), sub).alpha
    cache[key] = loss
    return loss


def _check_partition(n, groups):
    seen = set()
    for group in groups:
        if not group:
            raise InstanceError("empty group")
        for j in group:
            if j in seen:
                raise InstanceError(f"resource index {j} assigned twice")
            seen.add(j)
    if seen != set(range(n)):
        raise InstanceError("groups must cover every resource index")


def partition_loss(instance: model.ResourceInstance, groups,
                   _cache=None) -> PartitionPlan:
    """Evaluate a given partition of the resource indices."""
    groups = tuple(tuple(sorted(g)) for g in groups)
    _check_partition(instance.num_resources, groups)
    cache = _cache if _cache is not None else {}
    losses = np.array([_group_loss(instance, g, cache) for g in groups])
    measures = tuple(np.max(instance.normalized_usage[:, list(g)], axis=1)
                     for g in groups)
    return PartitionPlan(groups, measures, losses, float(losses.max()))


def _assignment_key(groups, n):
    """Restricted-growth label per resource; groups are in order of their
    smallest member, so labels follow first appearance."""
    labels = [0] * n
    for r, group in enumerate(groups):
        for j in group:
            labels[j] = r
    return tuple(labels)


def optimal_partition_exact(instance: model.ResourceInstance,
                            k: int) -> PartitionPlan:
    """Minimize the loss over all partitions into at most k non-empty
    groups, by block-at-a-time enumeration with branch-and-bound.

    A branch is pruned as soon as a completed block's loss exceeds the
    incumbent.  Ties break to the lexicographically smallest assignment.
    """
    n = instance.num_resources
    if not 1 <= k <= n:
        raise InstanceError(f"k must be in 1..{n}")
    if n > EXACT_ENUMERATION_LIMIT:
        raise TooManyResources(
            f"{n} resources exceed the exact enumeration limit "
            f"{EXACT_ENUMERATION_LIMIT}; use the greedy search")
    cache = {}
    best = {"loss": np.inf, "key": None, "groups": None}

    def recurse(remaining, groups, worst):
        if not remaining:
            key = _assignment_key(groups, n)
            if (worst < best["loss"] - _TIE_TOL
                    or (worst <= best["loss"] + _TIE_TOL
                        and (best["key"] is None or key < best["key"]))):
                best["loss"] = min(worst, best["loss"])
                best["key"] = key
                best["groups"] = tuple(groups)
            return
        if len(groups) == k:
            return
        first = remaining[0]
        rest = remaining[1:]
        # every subset of the rest can join the block containing `first`
        for bits in range(1 << len(rest)):
            block = (first,) + tuple(
                rest[t] for t in range(len(rest)) if bits >> t & 1)
            loss = _group_loss(instance, block, cache)
            if loss > best["loss"] + _TIE_TOL:
                continue
            left = tuple(j for j in rest if j not in block)
            recurse(left, groups + [block], max(worst, loss))

    recurse(tuple(range(n)), [], 1.0)
    return partition_loss(instance, best["groups"], _cache=cache)


def optimal_partition_greedy(instance: model.ResourceInstance,
                             k: int) -> PartitionPlan:
    """Agglomerative heuristic: start from singletons and repeatedly merge
    the pair of groups giving the smallest resulting loss (ties: lowest
    indices) until k groups remain."""
    n = instance.num_resources
    if not 1 <= k <= n:
        raise InstanceError(f"k must be in 1..{n}")
    cache = {}
    groups = [(j,) for j in range(n)]
    losses = [_group_loss(instance, g, cache) for g in groups]
    while len(groups) > k:
        best_pair = None
        best_loss = np.inf
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                merged = _group_loss(instance, groups[a] + groups[b], cache)
                others = [losses[t] for t in range(len(groups))
                          if t not in (a, b)]
                total = max([merged] + others)
                if total < best_loss - _TIE_TOL:
                    best_loss = total
                    best_pair = (a, b)
        a, b = best_pair
        groups[a] = tuple(sorted(groups[a] + groups[b]))
        losses[a] = _group_loss(instance, groups[a], cache)
        del groups[b], losses[b]
    return partition_loss(instance, groups, _cache=cache)


def best_partition(instance: model.ResourceInstance,
                   k: int) -> PartitionPlan:
    """Exact search up to EXACT_ENUMERATION_LIMIT resources, greedy
    beyond it."""
    if instance.num_resources <= EXACT_ENUMERATION_LIMIT:
        return optimal_partition_exact(instance, k)
    return optimal_partition_greedy(instance, k)


def generate_ecp(elements, epsilon: float) -> EcpInstance:
    """Build the block-diagonal reduction instance for a multiset of
    positive integers.

    A balanced equal-cardinality split of the elements exists iff the
    optimal 2-partition of the resources has loss k + T*eps, where the
    elements are 2k integers summing to 2T.
    """
    elements = tuple(int(s) for s in elements)
    if any(s <= 0 for s in elements):
        raise InstanceError("elements must be positive integers")
    if len(elements) % 2:
        raise InstanceError("an even number of elements is required")
    total = sum(elements)
    if total % 2:
        raise InstanceError("the elements must have an even sum")
    T = total // 2
    if not 0 < epsilon < 1 / (2 * T):
        raise InstanceError(
            f"epsilon must lie strictly between 0 and 1/{2 * T}")
    kappa = np.array([2 * s * epsilon / (1 + s * epsilon) for s in elements])

    m = len(elements)
    usage = np.zeros((2 * m, 2 * m))
    op_names, res_names = [], []
    for idx, s in enumerate(elements):
        a, b = 2 * idx, 2 * idx + 1
        usage[a, a] = usage[b, b] = 1.0
        usage[a, b] = usage[b, a] = 1.0 - kappa[idx]
        op_names += [f"op{idx + 1}a", f"op{idx + 1}b"]
        res_names += [f"res{idx + 1}a", f"res{idx + 1}b"]
    instance = model.instance_from_arrays(
        op_names, res_names, usage, np.ones(2 * m))
    return EcpInstance(elements, float(epsilon), kappa, instance)
