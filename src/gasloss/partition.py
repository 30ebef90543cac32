"""Resource partitioning into k groups.

Each group gets its own single-dimensional measure (row max over the
group's normalized columns); the plan's loss is the worst group loss.
Group losses are cached per block of resources with their witness
blocks.  Restricted to a block, the operation-resource support graph
splits into connected components over which gas and feasibility both
add, so only a connected block can cost an LP; any other block's loss is
the sum of its components' losses.  A connected block whose every
resource has a private operation (one that uses no other resource of
the block) has loss exactly its size, with no LP.

Exact search enumerates set partitions block-by-block with
branch-and-bound pruning.  The k-th block is forced to be the whole
remainder.  Before a block's LP, the number of its resources with a
private operation, then every cached witness block, gives a certified
lower bound on its loss, and a bound above the incumbent prunes the
block with no LP.  A greedy agglomerative merger covers larger
instances; it skips a merge's LP when the merge cannot beat the best
one of its round.  The equal-cardinality-partition reduction instance
doubles as a hardness fixture and a verification target.
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


def _mask(cols):
    return sum(1 << int(j) for j in cols)


def _members(mask):
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


class _GroupLosses:
    """Exact group losses of one instance and their witness blocks, by
    resource bitmask.  A block's loss and witness are its connected
    components' summed, so only a connected block can cost an LP; a block
    that no operation uses has loss 1.  A disconnected block's witness is
    summed only when witness() asks for it.  A block pruned at a cutoff
    keeps its certified lower bound, which prunes it again at any cutoff
    below that bound with no scan.  A search passes its incumbent, the
    engine sets the margin a bound must clear, and plan() builds the plan.

    Operation i is private to resource j in block S when j is the only
    resource of S that i uses.  The dual y = 1_S is feasible, so
    alpha(S) <= |S|, and one private operation per resource, each at
    x_i = 1/w'_ij, loads every resource of S to 1 and carries gas |S|.
    So a block whose every resource has a private operation has loss
    exactly |S| with no LP, and the number of resources that have one is
    a certified lower bound on any block's loss."""

    def __init__(self, instance):
        self.usage = instance.normalized_usage
        support = self.usage > 0
        self.used = _mask(np.flatnonzero(support.any(axis=0)))
        # resources joined through a shared operation, one bitmask each
        self.neighbours = [_mask(np.flatnonzero(row))
                           for row in support.T @ support]
        # per resource j: (other resources, i) of the operations i using
        # j whose support is minimal by inclusion, smallest first; i is
        # private to j in S exactly when S holds none of the others
        ops = sorted(((_mask(np.flatnonzero(row)), i)
                      for i, row in enumerate(support)),
                     key=lambda op: op[0].bit_count())
        self.private = [[] for _ in range(self.usage.shape[1])]
        for mask, i in ops:
            for j in _members(mask):
                others = mask ^ (1 << j)
                kept = self.private[j]
                if all(o & ~others for o, _ in kept):
                    kept.append((others, i))
        # mask -> (loss, witness over all operations); the witness of a
        # disconnected block is None until witness() sums it
        self.entries = {}
        self.lower = {}     # mask -> certified lower bound of a pruned block
        # the witness b of every connected block settled, by certificate
        # or LP, and its loads b @ W', for the bounds
        self.witnesses = np.empty((8, self.usage.shape[0]))
        self.loads = np.empty((8, self.usage.shape[1]))
        self.size = 0

    def _component(self, mask):
        """The block's support-graph component holding its lowest member."""
        part = frontier = mask & -mask
        while frontier:
            j = frontier.bit_length() - 1
            frontier ^= 1 << j
            new = self.neighbours[j] & mask & ~part
            part |= new
            frontier |= new
        return part

    def _private_ops(self, mask, cutoff):
        """(j, i) for each resource j of the block that has an operation
        private to it, i the first such one in j's list; after a resource
        with none, the scan stops once the count cannot exceed the
        cutoff."""
        found = []
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            for others, i in self.private[j]:
                if not others & mask:
                    found.append((j, i))
                    break
            else:
                if len(found) + rest.bit_count() <= cutoff:
                    break
        return found

    def _bound(self, mask):
        """max_b (g_S . b) / max_{j in S} (b . w'_j) over the witnesses b
        of the connected blocks settled so far, a lower bound on alpha(S)
        (0 before the first)."""
        cols = _members(mask)
        top = self.loads[:self.size, cols].max(axis=1)
        gas = self.witnesses[:self.size] @ self.usage[:, cols].max(axis=1)
        return float(np.max(gas / np.where(top > 0, top, np.inf),
                            initial=0.0))

    def loss(self, mask, incumbent=np.inf):
        """alpha of the block; where the private count or a witness
        certifies, before an LP, that it clears a finite incumbent by more
        than LP round-off, that bound instead, kept in lower, not entries."""
        entry = self.entries.get(mask)
        if entry is not None:
            return entry[0]
        cutoff = incumbent * (1 + 1e-9) + _TIE_TOL
        # a remembered bound is at most a fresh one (the witness pool only
        # grows), so it prunes only blocks that a fresh scan would prune
        bound = self.lower.get(mask, -np.inf)
        if bound > cutoff:
            return bound
        live = mask & self.used
        part = self._component(live)
        if not live:
            entry = (1.0, np.zeros(self.usage.shape[0]))
        elif part == mask:      # connected: a certificate or one LP
            found = self._private_ops(mask, cutoff)
            if len(found) == mask.bit_count():
                witness = np.zeros(self.usage.shape[0])
                for j, i in found:
                    witness[i] = 1.0 / self.usage[i, j]
                entry = (float(len(found)), witness)
            else:
                # the private count, then the witnesses, bound alpha below
                bound = float(len(found))
                if bound <= cutoff < np.inf:
                    bound = self._bound(mask)
                if bound > cutoff:
                    self.lower[mask] = bound
                    return bound
                sub = self.usage[:, _members(mask)]
                rows = np.flatnonzero(np.any(sub > 0, axis=1))
                sub = sub[rows]
                sol = lpcore.loss_lp(sub.max(axis=1), sub)
                witness = np.zeros(self.usage.shape[0])
                witness[rows] = sol.x
                entry = (sol.alpha, witness)
            if self.size == len(self.witnesses):
                self.witnesses = np.vstack([self.witnesses,
                                            np.empty_like(self.witnesses)])
                self.loads = np.vstack([self.loads,
                                        np.empty_like(self.loads)])
            self.witnesses[self.size] = witness
            self.loads[self.size] = witness @ self.usage
            self.size += 1
        else:
            # alpha adds over the component and the rest, and a resource
            # no operation uses adds nothing
            total = 0.0
            for p in (part, live ^ part):
                if p:
                    loss = self.loss(p, incumbent)
                    if p not in self.entries:
                        return loss     # alpha(S) >= alpha(p) > cutoff
                    total += loss
            entry = (total, None)
        self.entries[mask] = entry
        return entry[0]

    def witness(self, mask):
        """The witness block of a block whose loss is cached: a feasible
        x over all operations with gas equal to that loss."""
        witness = self.entries[mask][1]
        if witness is None:
            live = mask & self.used
            part = self._component(live)
            witness = 0.0
            for p in (part, live ^ part):
                if p:
                    witness = witness + self.witness(p)
        return witness

    def plan(self, masks):
        """The PartitionPlan of the groups given as bitmasks, in order."""
        groups = tuple(_members(mask) for mask in masks)
        losses = np.array([self.loss(mask) for mask in masks])
        measures = tuple(self.usage[:, list(g)].max(axis=1) for g in groups)
        return PartitionPlan(groups, measures, losses, float(losses.max()))


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


def partition_loss(instance: model.ResourceInstance, groups) -> PartitionPlan:
    """Evaluate a given partition of the resource indices."""
    groups = [tuple(g) for g in groups]
    _check_partition(instance.num_resources, groups)
    return _GroupLosses(instance).plan([_mask(g) for g in groups])


def _assignment_key(groups, n):
    """Restricted-growth label per resource, of groups given as bitmasks
    in order of their smallest member, so labels follow first
    appearance."""
    labels = [0] * n
    for r, group in enumerate(groups):
        while group:
            low = group & -group
            labels[low.bit_length() - 1] = r
            group ^= low
    return tuple(labels)


def optimal_partition_exact(instance: model.ResourceInstance,
                            k: int) -> PartitionPlan:
    """Minimize the loss over all partitions into at most k non-empty
    groups, by block-at-a-time enumeration with branch-and-bound.

    Each block holds the smallest resource not yet placed, and the k-th
    block is the whole remainder, the only block that completes a
    partition.  A branch is pruned as soon as a block's loss exceeds the
    incumbent.  Block losses are exact (a private-operation certificate
    or an LP per connected block, sums over components otherwise, see
    _GroupLosses), except that an LP is skipped when the private count
    or a cached witness already bounds the block's loss above the
    incumbent.  Ties break to the lexicographically smallest assignment.
    """
    n = instance.num_resources
    if not 1 <= k <= n:
        raise InstanceError(f"k must be in 1..{n}")
    if n > EXACT_ENUMERATION_LIMIT:
        raise TooManyResources(
            f"{n} resources exceed the exact enumeration limit "
            f"{EXACT_ENUMERATION_LIMIT}; use the greedy search")
    cache = _GroupLosses(instance)
    best = {"loss": np.inf, "key": None, "groups": None}

    def recurse(remaining, groups, worst):
        if not remaining:
            # only a leaf within the tie tolerance of the incumbent needs
            # its key; the first leaf beats the infinite incumbent
            if worst <= best["loss"] + _TIE_TOL:
                key = _assignment_key(groups, n)
                if worst < best["loss"] - _TIE_TOL or key < best["key"]:
                    best["loss"] = min(worst, best["loss"])
                    best["key"] = key
                    best["groups"] = groups
            return
        if len(groups) == k - 1:
            blocks = (remaining,)
        else:
            # the smallest remaining resource joined by each subset of
            # the rest, in increasing order of the subset's bitmask
            first = remaining & -remaining
            rest = remaining ^ first
            blocks, sub = [first], 0
            while sub != rest:
                sub = (sub - rest) & rest
                blocks.append(first | sub)
        for block in blocks:
            loss = cache.loss(block, best["loss"])
            if loss > best["loss"] + _TIE_TOL:
                continue
            recurse(remaining ^ block, groups + [block], max(worst, loss))

    recurse((1 << n) - 1, [], 1.0)
    return cache.plan(best["groups"])


def optimal_partition_greedy(instance: model.ResourceInstance,
                             k: int) -> PartitionPlan:
    """Agglomerative heuristic: start from singletons and repeatedly merge
    the pair of groups giving the smallest resulting loss (ties: lowest
    indices) until k groups remain.

    A merge cannot win when the worst of the other groups already reaches
    the round's best total, so it costs nothing; otherwise its loss is
    asked for with the best total as incumbent, and a certified bound
    above it rules the merge out as surely as its exact loss would."""
    n = instance.num_resources
    if not 1 <= k <= n:
        raise InstanceError(f"k must be in 1..{n}")
    cache = _GroupLosses(instance)
    groups = [1 << j for j in range(n)]
    losses = [cache.loss(g) for g in groups]
    while len(groups) > k:
        best_pair = None
        best_loss = np.inf
        # the worst group outside a pair is among the three worst
        top = sorted(range(len(groups)), key=losses.__getitem__)[-3:]
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                others = max((losses[t] for t in top if t != a and t != b),
                             default=-np.inf)
                if others >= best_loss - _TIE_TOL:
                    continue
                merged = cache.loss(groups[a] | groups[b], best_loss)
                total = max(merged, others)
                if total < best_loss - _TIE_TOL:
                    best_loss = total
                    best_pair = (a, b)
        a, b = best_pair
        groups[a] |= groups[b]
        losses[a] = cache.loss(groups[a])
        del groups[b], losses[b]
    return cache.plan(groups)


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
