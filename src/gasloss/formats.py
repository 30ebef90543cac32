"""Instance and profile file formats, bundled presets, and generators.

The canonical instance format is a JSON document:

    {
      "notes": ["optional free-text lines"],
      "resources": [{"name": "gas", "capacity": 15, "congesting": true}],
      "operations": [{"name": "Op1", "usage": {"gas": 2}}]
    }

Missing usage entries mean 0; "congesting": false marks a resource that
is tracked and paid for but never binding, so it is excluded from the
analysis.  Amounts are JSON numbers: parsing (model.walk_instance) keeps
a usage mapping of nonzero ints and floats as loaded, in the file's key
order, and the amounts are made floats together when the usage matrix is
filled (model.instance_from_pairs).  Serialization is canonical (two-space
indent, keys in schema order, usage keys in resource order, zero usages
omitted, integral amounts below 1e15 written as ints), so serialize ->
parse -> serialize is byte identical.  It writes the canonical text
directly, byte-identical to json.dumps(..., indent=2), encoding each
resource name and each distinct amount once.

A simple delimited-table import is also supported: a header row with
the resource names, one row per operation, and a final "capacity" row.

Frequency profiles are flat JSON mappings operation-name -> finite,
nonnegative weight; weights are renormalized to the simplex on load.
Box bounds for range mode use the same format and are not renormalized.

The random generator uses splitmix64 so fixtures are reproducible from
the seed alone, independent of any library RNG; the stream is indexed by
position, so a whole instance is drawn in one array computation.
"""

import csv
import io
import json
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from . import model, partition
from .errors import InstanceError

_MASK64 = (1 << 64) - 1


@dataclass
class InstanceDoc:
    """Parsed instance file, prior to validation and column exclusion."""

    resources: list          # (name, capacity, congesting) triples
    operations: list         # (name, {resource-name: usage}) pairs
    notes: list = field(default_factory=list)

    def to_instance(self, extra_excluded=()) -> model.ResourceInstance:
        return model.instance_from_pairs(self.resources, self.operations,
                                         extra_excluded)


def parse_instance(text: str) -> InstanceDoc:
    """Parse canonical JSON or the delimited-table format."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_table(text)


def _parse_json(text: str) -> InstanceDoc:
    try:
        doc = json.loads(text)
    except ValueError as exc:   # bad JSON, or an integer of too many digits
        raise InstanceError(f"malformed instance file: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError("instance file must be a JSON object")
    return InstanceDoc(*model.walk_instance(doc))


def _parse_table(text: str) -> InstanceDoc:
    rows = [r for r in csv.reader(io.StringIO(text)) if r and any(
        cell.strip() for cell in r)]
    if len(rows) < 3:
        raise InstanceError("table needs a header, operations, and capacities")
    res_names = [c.strip() for c in rows[0][1:]]
    op_names, usage = [], []
    capacities = None
    for row in rows[1:]:
        name = row[0].strip()
        try:
            values = [float(c) for c in row[1:1 + len(res_names)]]
        except ValueError as exc:
            raise InstanceError(f"non-numeric entry in row {name!r}") from exc
        if len(values) != len(res_names):
            raise InstanceError(f"row {name!r} has the wrong width")
        if name.lower() == "capacity":
            capacities = values
        else:
            op_names.append(name)
            usage.append(values)
    if capacities is None:
        raise InstanceError("missing 'capacity' row")
    return _usage_doc(res_names, capacities, op_names, usage)


def _usage_doc(res_names, capacities, op_names, usage, notes=()):
    """The document of congesting resources and of operations with the
    given usage rows (lists of floats, one per resource), each operation
    keeping its nonzero amounts, keyed by their resources in order."""
    resources = [(n, c, True) for n, c in zip(res_names, capacities)]
    operations = [
        (name, dict(zip(compress(res_names, row), filter(None, row))))
        for name, row in zip(op_names, usage)]
    return InstanceDoc(resources, operations, list(notes))


def _format_number(x):
    x = float(x)    # a parsed amount may still be a JSON int
    return int(x) if x.is_integer() and abs(x) < 1e15 else x


def serialize_instance(doc: InstanceDoc) -> str:
    """Canonical text: two-space indent, keys in schema order, usage keys
    in resource order.  The text is built directly, byte-identical to
    json.dumps(..., indent=2) of the same document plus a newline, without
    that call's pure-Python encoder: each resource name and each distinct
    amount is encoded once."""
    texts = {}      # amount -> its JSON text; equal amounts write the same

    def number(value):
        try:
            text = texts[value] = json.dumps(_format_number(value))
        except OverflowError as exc:    # an integer beyond float range
            raise InstanceError(f"malformed instance file: {exc}") from exc
        return text

    rank = {name: j for j, (name, _, _) in enumerate(doc.resources)}
    key = {name: "        " + json.dumps(name) + ": "
           for name, _, _ in doc.resources}
    resources = [
        f'    {{\n      "name": {json.dumps(n)},\n'
        f'      "capacity": {texts.get(c) or number(c)},\n'
        f'      "congesting": {json.dumps(flag)}\n    }}'
        for n, c, flag in doc.resources]
    operations = [
        f'    {{\n      "name": {json.dumps(n)},\n      "usage": '
        + _json_block([key[k] + (texts.get(u[k]) or number(u[k]))
                       for k in sorted(u, key=rank.__getitem__)], "{}", 6)
        + "\n    }"
        for n, u in doc.operations]
    head = "{\n"
    if doc.notes:
        notes = ["    " + json.dumps(s) for s in doc.notes]
        head += f'  "notes": {_json_block(notes, "[]", 2)},\n'
    return (f'{head}  "resources": {_json_block(resources, "[]", 2)},\n'
            f'  "operations": {_json_block(operations, "[]", 2)}\n}}\n')


def _json_block(lines, brackets, indent):
    """A JSON list or object of already indented member lines, closed at
    `indent` spaces; an empty one is written as its two brackets."""
    if not lines:
        return brackets
    return (brackets[0] + "\n" + ",\n".join(lines) + "\n" + " " * indent
            + brackets[1])


def _read_text(path, kind) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise InstanceError(f"no such {kind} file: {path}") from exc
    except OSError as exc:          # a directory, no permission, ...
        raise InstanceError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InstanceError(f"malformed {kind} file: {exc}") from exc


def load_instance_doc(path) -> InstanceDoc:
    return parse_instance(_read_text(path, "instance"))


def load_profile(path, instance: model.ResourceInstance) -> np.ndarray:
    """Load a frequency profile and renormalize it to the simplex."""
    weights = load_bounds(path, instance)
    total = weights.sum()
    if total <= 0:
        raise InstanceError(f"profile {path} has no positive weight")
    return weights / total


def load_bounds(path, instance: model.ResourceInstance) -> np.ndarray:
    """Load per-operation bounds for range mode (not renormalized)."""
    text = _read_text(path, "profile")
    try:
        doc = json.loads(text)
    except ValueError as exc:   # bad JSON, or an integer of too many digits
        raise InstanceError(f"malformed profile file: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError("profile must be a JSON object")
    names = set(instance.operation_names)
    unknown = sorted(set(doc) - names)
    if unknown:
        raise InstanceError(f"profile names unknown operations: {unknown}")
    out = np.zeros(instance.num_operations)
    for i, name in enumerate(instance.operation_names):
        try:
            value = model._number(doc.get(name, 0.0))
        except (TypeError, ValueError) as exc:
            raise InstanceError(
                f"non-numeric weight for operation {name!r}") from exc
        except OverflowError:
            value = np.inf      # an integer beyond float range
        if not np.isfinite(value):
            raise InstanceError(f"non-finite weight for operation {name!r}")
        if value < 0:
            raise InstanceError(f"negative weight for operation {name!r}")
        out[i] = value
    return out


# ---------------------------------------------------------------------------
# Generators and presets


_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start+1 .. start+count of the splitmix64 stream of `seed`,
    as uint64.  The stream is indexed by position: output k is
    mix(seed + k * 0x9E3779B97F4A7C15 mod 2^64), where
    mix(z): z = (z ^ z>>30) * 0xBF58476D1CE4E5B9;
    z = (z ^ z>>27) * 0x94D049BB133111EB; return z ^ z>>31."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def random_instance_doc(num_ops: int, num_resources: int,
                        density: float = 1.0, seed: int = 0) -> InstanceDoc:
    """Seeded-deterministic instance: usage entries from {0..10} (kept
    with probability `density`), capacities from {1..10}; all-zero
    operation rows are re-rolled.

    One splitmix64 stream: num_resources capacity draws (x % 10 + 1),
    then one block per row attempt: per resource a value draw (x % 11)
    and, when density < 1, a uniform draw (x / 2^64) that zeroes the
    value when >= density.  An all-zero block is a re-roll, so the rows
    are the stream's nonzero blocks in order."""
    if not 0 < density <= 1:
        raise InstanceError("density must be in (0, 1]")
    if num_ops < 1 or num_resources < 1:
        raise InstanceError("need at least one operation and one resource")
    res_names = [f"res{j + 1}" for j in range(num_resources)]
    capacities = (splitmix64(seed, 0, num_resources) % np.uint64(10)
                  + np.uint64(1)).astype(float).tolist()
    sparse = density < 1
    width = 2 * num_resources if sparse else num_resources
    rows, pos, missing = [], num_resources, num_ops
    while missing:
        draws = splitmix64(seed, pos, missing * width).reshape(missing, width)
        pos += missing * width
        if sparse:
            values = draws[:, 0::2] % np.uint64(11)
            values[draws[:, 1::2] / 2.0 ** 64 >= density] = 0
        else:
            values = draws % np.uint64(11)
        values = values[values.any(axis=1)]
        rows.append(values)
        missing -= len(values)
    op_names = [f"op{i + 1}" for i in range(num_ops)]
    return _usage_doc(res_names, capacities, op_names,
                      np.concatenate(rows).astype(float).tolist())


def ecp_instance_doc(elements, epsilon: float) -> InstanceDoc:
    """The equal-cardinality-partition reduction instance as a file doc."""
    ecp = partition.generate_ecp(elements, epsilon)
    inst = ecp.instance
    notes = [f"reduction instance for elements {list(ecp.elements)} "
             f"with epsilon {ecp.epsilon}"]
    return _usage_doc(inst.resource_names, inst.capacities.tolist(),
                      inst.operation_names, inst.usage.tolist(), notes)


def preset_doc(name: str) -> InstanceDoc:
    try:
        return _PRESETS[name]()
    except KeyError:
        raise InstanceError(
            f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")


def _preset_table1():
    return InstanceDoc(
        resources=[("r1", 15.0, True), ("r2", 3.0, True)],
        operations=[("Op1", {"r1": 2.0, "r2": 1.0}),
                    ("Op2", {"r1": 6.0, "r2": 2.0}),
                    ("Op3", {"r1": 9.0, "r2": 1.0}),
                    ("Op4", {"r1": 10.0, "r2": 1.0})])


def _preset_table3():
    # A published caption for this example evaluates the mix
    # (5%, 80%, 15%) at payoff 0.85 and loss 20/17, but the maximizing
    # best reply earns 0.95 on the first resource, so the loss is 20/19.
    return InstanceDoc(
        resources=[("r1", 1.0, True), ("r2", 1.0, True)],
        operations=[("Op1", {"r2": 1.0}),
                    ("Op2", {"r1": 1.0, "r2": 1.0}),
                    ("Op3", {"r1": 1.0})],
        notes=["for the mix (5%, 80%, 15%) the best-reply payoff is 0.95 "
               "(loss 20/19), not the 0.85 / 20/17 sometimes quoted for "
               "this example"])


def _preset_figure1():
    # Two orthogonal unit operations with capacities (30, 6).  Published
    # variants of this two-resource example disagree on the gas cap
    # (36M prose vs 36 vs 30 in figure labels); none is treated as
    # ground truth, and the loss factor of 2 is independent of the
    # choice of positive capacities.
    return InstanceDoc(
        resources=[("gas", 30.0, True), ("blobs", 6.0, True)],
        operations=[("gas_unit", {"gas": 1.0}),
                    ("blob_unit", {"blobs": 1.0})],
        notes=["capacities follow one of several mutually inconsistent "
               "published variants of this example; the loss factor of 2 "
               "does not depend on the capacity values"])


_PRESETS = {
    "table1": _preset_table1,
    "table3": _preset_table3,
    "figure1": _preset_figure1,
}
