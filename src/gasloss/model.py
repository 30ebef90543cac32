"""Instance data model: validation, normalization, the minimal gas measure,
and feasibility predicates.

An instance is an operations-by-resources usage matrix together with a
positive per-resource capacity vector.  Block vectors are plain float
arrays of per-operation counts; fractional counts are allowed (the LP
relaxation is the model of record, integrality is not modeled).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lpcore
from .errors import InstanceError

FEASIBILITY_TOL = 1e-9  # relative, applied multiplicatively to capacities


def _frozen_array(a, ndim):
    arr = np.array(a, dtype=float)
    if arr.ndim != ndim:
        raise InstanceError(f"expected a {ndim}-dimensional array")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ResourceInstance:
    """Validated usage matrix W (operations x resources) with capacities B."""

    operation_names: tuple
    resource_names: tuple
    usage: np.ndarray
    capacities: np.ndarray
    excluded_resources: tuple = ()
    warnings: tuple = ()

    @property
    def num_operations(self):
        return len(self.operation_names)

    @property
    def num_resources(self):
        return len(self.resource_names)

    @cached_property
    def normalized_usage(self) -> np.ndarray:
        """W' = W / B (every capacity scaled to 1), computed once, read-only."""
        return _frozen_array(self.usage / self.capacities, 2)


@dataclass(frozen=True)
class GasMeasure:
    """Per-operation nonnegative cost vector; a block is gas-feasible when
    the measure-weighted count total is at most 1."""

    costs: np.ndarray


@dataclass(frozen=True)
class SizeReport:
    """Largest 1-norm of any feasible block."""

    K: float


def instance_from_arrays(operation_names, resource_names, usage, capacities,
                         congesting=None, extra_excluded=()) -> ResourceInstance:
    """Validate raw arrays into a ResourceInstance.

    Non-congesting resources (congesting[j] is False) and resources named
    in extra_excluded are removed before any checks, and recorded.
    All-zero operation rows are dropped with a warning.
    """
    op_names = [str(s) for s in operation_names]
    res_names = [str(s) for s in resource_names]
    usage = np.atleast_2d(np.array(usage, dtype=float))
    capacities = np.array(capacities, dtype=float)
    if usage.shape != (len(op_names), len(res_names)):
        raise InstanceError(
            f"usage matrix shape {usage.shape} does not match "
            f"{len(op_names)} operations x {len(res_names)} resources")
    if capacities.shape != (len(res_names),):
        raise InstanceError("one capacity per resource required")
    if not (np.all(np.isfinite(usage)) and np.all(np.isfinite(capacities))):
        raise InstanceError("usage and capacities must be finite")

    for names, kind in ((op_names, "operation"), (res_names, "resource")):
        seen = set()
        for name in names:
            if not name:
                raise InstanceError(f"empty {kind} name")
            if name in seen:
                raise InstanceError(f"duplicate {kind} name {name!r}")
            seen.add(name)

    if congesting is None:
        congesting = [True] * len(res_names)
    if len(congesting) != len(res_names):
        raise InstanceError("one congesting flag per resource required")
    extra_excluded = set(extra_excluded)
    unknown = extra_excluded - set(res_names)
    if unknown:
        raise InstanceError(f"unknown resource names to exclude: {sorted(unknown)}")
    excluded = tuple(
        name for name, flag in zip(res_names, congesting)
        if not flag or name in extra_excluded)
    if excluded:
        keep = [j for j, name in enumerate(res_names) if name not in excluded]
        res_names = [res_names[j] for j in keep]
        usage = usage[:, keep]
        capacities = capacities[keep]

    if not res_names:
        raise InstanceError("no congesting resources remain")
    bad = np.flatnonzero(capacities <= 0)
    if bad.size:
        raise InstanceError(
            f"capacity of resource {res_names[bad[0]]!r} must be positive")
    if np.any(usage < 0):
        i, j = np.argwhere(usage < 0)[0]
        raise InstanceError(
            f"usage of operation {op_names[i]!r} on resource "
            f"{res_names[j]!r} is negative")

    warnings = []
    nonzero = np.any(usage > 0, axis=1)
    for i in np.flatnonzero(~nonzero):
        warnings.append(
            f"operation {op_names[i]!r} uses no resources and was dropped")
    op_names = [n for n, ok in zip(op_names, nonzero) if ok]
    usage = usage[nonzero]
    if not op_names:
        raise InstanceError("no operations with positive usage remain")

    return ResourceInstance(
        tuple(op_names), tuple(res_names),
        _frozen_array(usage, 2), _frozen_array(capacities, 1),
        excluded_resources=excluded, warnings=tuple(warnings))


# JSON values that float() would convert but that are not numbers
_NOT_NUMBERS = frozenset((bool, str))
# amount types a usage mapping may keep as loaded; float() takes them all
_AMOUNT_TYPES = frozenset((int, float))


def _number(value):
    if value.__class__ in _NOT_NUMBERS:
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _flag(value):
    if isinstance(value, str):      # bool("false") is True
        raise TypeError(f"congesting must be true or false, got {value!r}")
    return bool(value)


def _walk_usage(op, amounts, known):
    """One operation's usage, an entry at a time: amounts made float, zeros
    dropped, keys made str; every problem raises with its own message."""
    usage = {str(k): x for k, v in amounts.items()
             if (x := _number(v)) != 0}
    unknown = {str(k) for k in amounts.keys() - known} - known
    if unknown:
        raise InstanceError(
            f"operation {op.get('name')!r} uses unknown "
            f"resources {sorted(unknown)}")
    return usage


def walk_instance(raw):
    """Resource triples, operation pairs and notes of an instance mapping
    (see the formats module): names become str, capacities float, zero
    usages are dropped and usage keys keep their order.  A usage mapping
    of nonzero int and float amounts over listed resources is kept as
    loaded, and instance_from_pairs makes its amounts float; any other is
    walked an entry at a time.  A usage naming a resource that is not
    listed, a boolean or string amount, an integer beyond float range
    (raised by instance_from_pairs when its mapping was kept as loaded),
    a string congesting flag, notes that are not a list, or any other
    shape, raises InstanceError."""
    try:
        resources = [
            (str(r["name"]), _number(r["capacity"]),
             _flag(r.get("congesting", True)))
            for r in raw.get("resources", [])]
        known = {name for name, _, _ in resources}
        operations = []
        for op in raw.get("operations", []):
            amounts = op.get("usage", {})
            # C-level checks over the whole mapping, no Python per entry;
            # all() of int and float amounts means none is zero
            if not (amounts.__class__ is dict
                    and _AMOUNT_TYPES.issuperset(
                        map(type, values := amounts.values()))
                    and all(values)
                    and known.issuperset(amounts)):
                amounts = _walk_usage(op, amounts, known)
            operations.append((str(op["name"]), amounts))
        notes = raw.get("notes", [])
        if not isinstance(notes, (list, tuple)):
            raise TypeError(f"notes must be a list, got {notes!r}")
        notes = [str(s) for s in notes]
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        if isinstance(exc, InstanceError):
            raise
        raise InstanceError(f"malformed instance file: {exc}") from exc
    return resources, operations, notes


def instance_from_pairs(resources, operations,
                        extra_excluded=()) -> ResourceInstance:
    """Fill the usage matrix from (name, capacity, congesting) triples and
    (name, {resource-name: amount}) pairs in one assignment, then validate
    it through instance_from_arrays.  Amounts may be int or float; they
    become float together, in one conversion."""
    res_names = [name for name, _, _ in resources]
    column = {name: j for j, name in enumerate(res_names)}
    cols, values = [], []
    try:
        for _, amounts in operations:
            cols += map(column.__getitem__, amounts)
            values += amounts.values()
    except KeyError as exc:
        raise InstanceError(f"usage names unknown resource {exc}") from exc
    try:
        values = np.array(values, dtype=float)
    except OverflowError as exc:    # an integer beyond float range
        raise InstanceError(f"malformed instance file: {exc}") from exc
    rows = np.repeat(np.arange(len(operations)),
                     [len(amounts) for _, amounts in operations])
    usage = np.zeros((len(operations), len(res_names)))
    usage[rows, np.array(cols, dtype=np.intp)] = values
    return instance_from_arrays(
        [name for name, _ in operations], res_names, usage,
        [c for _, c, _ in resources], [flag for _, _, flag in resources],
        extra_excluded)


def validate_instance(raw, extra_excluded=()) -> ResourceInstance:
    """Validate an instance mapping (see walk_instance)."""
    resources, operations, _ = walk_instance(raw)
    return instance_from_pairs(resources, operations, extra_excluded)


def minimal_gas_measure(instance: ResourceInstance) -> GasMeasure:
    """The pointwise-smallest representing measure: g_i = max_j w_ij / B_j."""
    g = np.max(instance.normalized_usage, axis=1)
    return GasMeasure(_frozen_array(g, 1))


def represents(g: GasMeasure, instance: ResourceInstance) -> bool:
    """True iff g dominates the minimal measure pointwise, which is
    equivalent to g representing the instance."""
    costs = np.asarray(g.costs, dtype=float)
    if costs.shape[0] != instance.num_operations:
        raise InstanceError("one cost per operation required")
    minimal = minimal_gas_measure(instance).costs
    return bool(np.all(costs >= minimal - 1e-15 * np.abs(minimal)))


def is_feasible(instance: ResourceInstance, x) -> bool:
    """True iff the block x fits every resource capacity (relative slack
    FEASIBILITY_TOL absorbs LP round-off)."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != instance.num_operations:
        raise InstanceError("one count per operation required")
    used = x @ instance.usage
    return bool(np.all(used <= instance.capacities * (1 + FEASIBILITY_TOL)))


def gas_of(g: GasMeasure, x) -> float:
    """Total gas of a block under the measure."""
    costs = np.asarray(g.costs, dtype=float)
    x = np.asarray(x, dtype=float)
    if costs.shape != x.shape:
        raise InstanceError("measure and block lengths differ")
    return float(costs @ x)


def max_block_size(instance: ResourceInstance) -> SizeReport:
    """Largest 1-norm of any feasible block, by LP.  Library API: no CLI
    verb calls it; tests/test_model.py covers it."""
    return SizeReport(K=lpcore.loss_lp(np.ones(instance.num_operations),
                                       instance.normalized_usage).alpha)
