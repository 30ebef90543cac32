import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from gasloss import formats, model
from gasloss.errors import InstanceError
from helpers import (TinyRng, reference_random_instance_doc, reference_read,
                     reference_serialize_instance)


# amounts of every JSON type, including ones the reader must refuse
_GOOD_AMOUNTS = st.one_of(
    st.integers(0, 12), st.floats(min_value=0, max_value=1e17),
    st.sampled_from([0, 0.0, -0.0, 10**15, 10**16]))
_ANY_AMOUNTS = st.one_of(
    _GOOD_AMOUNTS,
    st.sampled_from([-1, -0.5, math.nan, math.inf, True, False, "2", "0.5",
                     None, 10**400, -(10**400)]))
# valid mappings listed twice, so about a third of the documents are valid
_USAGES = st.one_of(
    st.dictionaries(st.sampled_from(["a", "b", "c"]), _GOOD_AMOUNTS,
                    max_size=3),
    st.dictionaries(st.sampled_from(["a", "b", "c"]), _GOOD_AMOUNTS,
                    max_size=3),
    st.dictionaries(st.sampled_from(["a", "b", "c", "zz"]), _ANY_AMOUNTS,
                    max_size=4),
    st.sampled_from([[], ["a"], "a", None, 3]))


@st.composite
def _documents(draw):
    operations = [{"name": f"op{i}", "usage": draw(_USAGES)}
                  for i in range(draw(st.integers(1, 4)))]
    return {"resources": [{"name": "a", "capacity": 1},
                          {"name": "b", "capacity": 2.5},
                          {"name": "c", "capacity": 7}],
            "operations": operations}


# (num_ops, num_resources, density, seed) cases of the random generator
_GENERATOR_GRID = list(itertools.product((1, 2, 7, 60), (1, 3, 12),
                                         (0.05, 0.3, 0.5, 1.0),
                                         (0, 1, 2**64 - 1, 12345)))


class TestJsonFormat:
    @given(doc=_documents())
    @settings(max_examples=300, deadline=None)
    def test_read_matches_per_entry_reference(self, doc):
        text = json.dumps(doc)
        try:
            expected = reference_read(json.loads(text))
        except InstanceError:
            with pytest.raises(InstanceError):
                formats.parse_instance(text).to_instance()
            return
        got = formats.parse_instance(text).to_instance()
        assert got.operation_names == expected.operation_names
        assert got.warnings == expected.warnings
        assert np.array_equal(got.usage, expected.usage)

    def test_parsed_integer_amounts_serialize_as_floats(self):
        doc = formats.parse_instance(
            '{"resources": [{"name": "a", "capacity": 1},'
            ' {"name": "b", "capacity": 2}, {"name": "c", "capacity": 3}],'
            ' "operations": [{"name": "op", "usage": {"a": 3,'
            ' "b": 1000000000000000, "c": 10000000000000000}}]}')
        as_floats = formats.InstanceDoc(
            doc.resources, [("op", {"a": 3.0, "b": 1e15, "c": 1e16})])
        text = formats.serialize_instance(doc)
        assert text == formats.serialize_instance(as_floats)
        assert '"a": 3,' in text
        assert '"b": 1000000000000000.0,' in text
        assert '"c": 1e+16' in text

    def test_round_trip_is_identity(self):
        doc = formats.preset_doc("table1")
        text = formats.serialize_instance(doc)
        doc2 = formats.parse_instance(text)
        assert doc2.resources == doc.resources
        assert doc2.operations == doc.operations
        assert formats.serialize_instance(doc2) == text

    def test_serialize_parse_byte_identical(self):
        for name in ("table1", "table3", "figure1"):
            text = formats.serialize_instance(formats.preset_doc(name))
            again = formats.serialize_instance(formats.parse_instance(text))
            assert again == text

    def test_usage_keys_serialized_in_resource_order(self):
        doc = formats.parse_instance(
            '{"resources": [{"name": "a", "capacity": 1},'
            ' {"name": "b", "capacity": 2}, {"name": "c", "capacity": 3}],'
            ' "operations": [{"name": "op", "usage": {"c": 1, "a": 2,'
            ' "b": 0}}]}')
        assert list(doc.operations[0][1]) == ["c", "a"]
        again = formats.parse_instance(formats.serialize_instance(doc))
        assert list(again.operations[0][1]) == ["a", "c"]

    def test_missing_usage_names_mean_zero(self):
        doc = formats.parse_instance(
            '{"resources": [{"name": "a", "capacity": 1},'
            ' {"name": "b", "capacity": 2}],'
            ' "operations": [{"name": "op", "usage": {"b": 3}}]}')
        inst = doc.to_instance()
        assert np.array_equal(inst.usage, [[0, 3]])

    def test_unknown_usage_name_rejected(self):
        with pytest.raises(InstanceError):
            formats.parse_instance(
                '{"resources": [{"name": "a", "capacity": 1}],'
                ' "operations": [{"name": "op", "usage": {"zz": 1}}]}')

    def test_malformed_json_rejected(self):
        with pytest.raises(InstanceError):
            formats.parse_instance("{not json")

    def test_congesting_flag_equals_column_deletion(self):
        full = formats.parse_instance(
            '{"resources": [{"name": "a", "capacity": 2},'
            ' {"name": "b", "capacity": 5, "congesting": false}],'
            ' "operations": [{"name": "x", "usage": {"a": 1, "b": 9}},'
            '  {"name": "y", "usage": {"a": 2}}]}').to_instance()
        deleted = model.instance_from_arrays(
            ["x", "y"], ["a"], [[1], [2]], [2])
        assert full.resource_names == deleted.resource_names
        assert np.array_equal(full.usage, deleted.usage)
        assert full.excluded_resources == ("b",)


_NASTY_NAMES = ['q"uote', "back\\slash", "ctl\x01\t\n", "caf\u00e9",
                "line\u2028sep"]
_EDGE_AMOUNTS = [0.1, 1e15 - 1, 1e15, 1e16, -0.0, 5e-324, 2**53 + 1,
                 math.nan, math.inf, -math.inf, 3, 3.0, True]


def _edge_docs():
    """Hand-built documents at the corners of JSON's indent rules."""
    res = [(name, 1.0, True) for name in _NASTY_NAMES]
    yield formats.InstanceDoc([], [])
    yield formats.InstanceDoc([], [], ["only a note"])
    yield formats.InstanceDoc([("a", 2.0, False)], [])
    yield formats.InstanceDoc([], [("op", {})])
    yield formats.InstanceDoc(
        res, [(name, {name: 1.0}) for name in _NASTY_NAMES],
        ["note with \"quotes\", \\ and \u00e9", "second\u2028line"])
    yield formats.InstanceDoc(
        [("a", 5.0, True), ("b", 0.5, False)],
        [("empty", {}), ("full", {"b": 2, "a": 1}), ("tail", {})])
    for amount in _EDGE_AMOUNTS:
        yield formats.InstanceDoc(
            [("a", amount, True), ("b", 1.0, amount != 0)],
            [("op", {"b": amount, "a": amount})], ["n"])
    yield formats.InstanceDoc(
        [("a", 1.0, True)],
        [(f"op{i}", {"a": amount}) for i, amount in enumerate(_EDGE_AMOUNTS)])


_NAMES = st.text(max_size=6)
_AMOUNTS = st.one_of(st.integers(-2**70, 2**70), st.floats(),
                     st.sampled_from([0, -0.0, 1e15, 1e16, 10**15, 2**53 + 1]))


@st.composite
def _any_docs(draw):
    names = draw(st.lists(_NAMES, max_size=4, unique=True))
    resources = [(n, draw(_AMOUNTS), draw(st.booleans())) for n in names]
    usages = (st.dictionaries(st.sampled_from(names), _AMOUNTS)
              if names else st.just({}))
    operations = draw(st.lists(st.tuples(_NAMES, usages), max_size=4))
    return formats.InstanceDoc(resources, operations,
                               draw(st.lists(_NAMES, max_size=2)))


class TestSerializer:
    """serialize_instance writes the bytes json.dumps(..., indent=2)
    writes (helpers.reference_serialize_instance)."""

    def test_generated_docs_match_reference(self):
        docs = [formats.random_instance_doc(*case) for case in _GENERATOR_GRID]
        docs += [formats.preset_doc(n) for n in ("table1", "table3",
                                                  "figure1")]
        docs += [formats.ecp_instance_doc(s, 0.5 / sum(s))
                 for s in ([1, 3, 2, 2], [1, 1], [5, 1, 2, 4, 3, 1],
                           [2, 7, 1, 8, 2, 8])]
        for doc in docs:
            assert (formats.serialize_instance(doc)
                    == reference_serialize_instance(doc))

    def test_parsed_docs_match_reference(self):
        for text in (
                '{"notes": ["x"], "resources": [{"name": "a", "capacity": 4},'
                ' {"name": "b", "capacity": 2.5, "congesting": false}],'
                ' "operations": [{"name": "op", "usage": {"b": 7, "a": 3}},'
                ' {"name": "op2", "usage": {"a": 9007199254740993}}]}',
                formats.serialize_instance(
                    formats.random_instance_doc(40, 9, 0.5, 3))):
            doc = formats.parse_instance(text)
            assert (formats.serialize_instance(doc)
                    == reference_serialize_instance(doc))

    def test_edge_docs_match_reference(self):
        for doc in _edge_docs():
            assert (formats.serialize_instance(doc)
                    == reference_serialize_instance(doc)), doc

    @given(doc=_any_docs())
    @settings(max_examples=300, deadline=None)
    def test_any_doc_matches_reference(self, doc):
        assert (formats.serialize_instance(doc)
                == reference_serialize_instance(doc))

    def test_int_beyond_float_range_rejected(self):
        doc = formats.parse_instance(
            '{"resources": [{"name": "a", "capacity": 1}],'
            ' "operations": [{"name": "op", "usage": {"a": 1' + "0" * 400
            + '}}]}')
        with pytest.raises(InstanceError) as read:
            doc.to_instance()
        with pytest.raises(InstanceError) as written:
            formats.serialize_instance(doc)
        assert str(written.value) == str(read.value) == (
            "malformed instance file: int too large to convert to float")


class TestTableFormat:
    def test_csv_import_matches_json(self):
        text = ("operation,r1,r2\n"
                "Op1,2,1\nOp2,6,2\nOp3,9,1\nOp4,10,1\n"
                "capacity,15,3\n")
        inst = formats.parse_instance(text).to_instance()
        preset = formats.preset_doc("table1").to_instance()
        assert inst.operation_names == preset.operation_names
        assert np.array_equal(inst.usage, preset.usage)
        assert np.array_equal(inst.capacities, preset.capacities)

    def test_missing_capacity_row_rejected(self):
        with pytest.raises(InstanceError):
            formats.parse_instance("operation,r1\nOp1,2\nOp2,3\n")


class TestProfiles:
    def test_weights_renormalized(self, tmp_path, table1):
        path = tmp_path / "f.json"
        path.write_text('{"Op1": 2, "Op2": 2, "Op3": 2, "Op4": 2}')
        f = formats.load_profile(path, table1)
        assert np.allclose(f, 0.25)

    def test_missing_operations_get_zero(self, tmp_path, table1):
        path = tmp_path / "f.json"
        path.write_text('{"Op2": 1}')
        f = formats.load_profile(path, table1)
        assert np.array_equal(f, [0, 1, 0, 0])

    def test_unknown_operation_rejected(self, tmp_path, table1):
        path = tmp_path / "f.json"
        path.write_text('{"nope": 1}')
        with pytest.raises(InstanceError):
            formats.load_profile(path, table1)


class TestGenerators:
    def test_random_is_seed_deterministic(self):
        a = formats.serialize_instance(
            formats.random_instance_doc(6, 4, 1.0, seed=7))
        b = formats.serialize_instance(
            formats.random_instance_doc(6, 4, 1.0, seed=7))
        assert a == b
        c = formats.serialize_instance(
            formats.random_instance_doc(6, 4, 1.0, seed=8))
        assert c != a

    def test_random_rows_never_all_zero(self):
        for seed in range(20):
            inst = formats.random_instance_doc(
                5, 3, density=0.3, seed=seed).to_instance()
            assert np.all(inst.usage.max(axis=1) > 0)
            assert np.all(inst.usage <= 10)

    # sha256 of the serialized files; the benchmark builds its inputs
    # from these generators, so their bytes must not drift
    @pytest.mark.parametrize("make, digest", [
        (lambda: formats.random_instance_doc(30, 8, 0.5, 7),
         "340a77cb9fb186c28977b6b0bd1e08c1b5b9f0750cf580e5713d6cfa278e2322"),
        (lambda: formats.random_instance_doc(400, 100, 1.0, 5),
         "cd032a9838b44dcf80c16b7800ee41ee1ffe33307af199a90d786397982ee126"),
        (lambda: formats.random_instance_doc(400, 100, 0.3, 6),
         "22e7100c2c4b98e1b2cc95c4595fca95b7c375a5221840b87d66255824b8bdd9"),
        (lambda: formats.ecp_instance_doc([1, 3, 2, 2], 0.1),
         "a8f9d18995f7ef503b2ef90d67abb22c67c7a8376c2910ebbefab029975aaadf"),
        (lambda: formats.preset_doc("table1"),
         "8a4e7d52c8dfd323e298dfc56e8c2adeaec2e27e343e138067973e340f930a19"),
        (lambda: formats.preset_doc("table3"),
         "3302290df5bb81185be3a184803d24ed26ffa27c86353b41a9b194262bbd8c43"),
        (lambda: formats.preset_doc("figure1"),
         "260144535d78a4b2bd1637751e56622c06d0c4b759178bfd4fcfd93d0bb59886"),
    ], ids=["random-30x8", "random-400x100-dense", "random-400x100-sparse",
            "ecp", "table1", "table3", "figure1"])
    def test_generated_files_pinned(self, make, digest):
        text = formats.serialize_instance(make())
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_splitmix_reference_values(self):
        # first outputs for seed 0 of the documented splitmix64 stream
        assert formats.splitmix64(0, 0, 2).tolist() == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
        rng = TinyRng(0)
        assert [rng.next_u64(), rng.next_u64()] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**63, 2**64 - 1, -1])
    def test_splitmix_stream_matches_scalar(self, seed):
        rng = TinyRng(seed)
        expected = [rng.next_u64() for _ in range(50)]
        assert formats.splitmix64(seed, 0, 50).tolist() == expected
        assert formats.splitmix64(seed, 17, 33).tolist() == expected[17:]

    def test_random_matches_scalar_reference(self):
        rerolls = 0
        for case in _GENERATOR_GRID:
            doc, count = reference_random_instance_doc(*case)
            rerolls += count
            text = formats.serialize_instance(
                formats.random_instance_doc(*case))
            assert text == formats.serialize_instance(doc), case
        assert rerolls > 0      # the grid exercises the re-roll branch

    def test_ecp_doc_round_trips_to_generator(self):
        doc = formats.ecp_instance_doc([1, 3, 2, 2], 0.1)
        inst = doc.to_instance()
        assert inst.num_operations == 8
        assert inst.num_resources == 8
        from gasloss import partition
        direct = partition.generate_ecp([1, 3, 2, 2], 0.1).instance
        assert np.allclose(inst.usage, direct.usage)

    def test_preset_table1_numbers(self):
        inst = formats.preset_doc("table1").to_instance()
        assert np.array_equal(inst.usage, [[2, 1], [6, 2], [9, 1], [10, 1]])
        assert np.array_equal(inst.capacities, [15, 3])

    def test_unknown_preset(self):
        with pytest.raises(InstanceError):
            formats.preset_doc("nope")
