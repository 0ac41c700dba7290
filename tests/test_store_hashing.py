"""Tests for repro.store.hashing — the canonical content hash.

The hash must be a pure function of *content*: dict insertion order,
numpy wrappers, and list/tuple distinctions must not matter; genuine
type and value differences (``1`` vs ``1.0`` vs ``True`` vs ``"1"``,
``-0.0`` vs ``0.0``) must.  :func:`plain_data`, the matching JSON
normaliser, is tested here too.
"""

import json

import numpy as np
import pytest

from repro.store.hashing import (
    canonical_text,
    hash_config,
    plain_data,
    stable_hash,
)


class TestDictOrdering:
    def test_key_order_is_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_nested_key_order_is_irrelevant(self):
        left = {"outer": {"x": 1, "y": [1, {"p": 2, "q": 3}]}}
        right = {"outer": {"y": [1, {"q": 3, "p": 2}], "x": 1}}
        assert stable_hash(left) == stable_hash(right)

    def test_different_values_differ(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_different_keys_differ(self):
        assert stable_hash({"a": 1}) != stable_hash({"b": 1})

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError, match="string mapping keys"):
            stable_hash({1: "a"})


class TestNumpyNormalisation:
    def test_numpy_int_equals_python_int(self):
        assert stable_hash(np.int64(2)) == stable_hash(2)
        assert stable_hash(np.int32(2)) == stable_hash(2)

    def test_numpy_float_equals_python_float(self):
        assert stable_hash(np.float64(1.5)) == stable_hash(1.5)
        assert stable_hash(np.float32(0.5)) == stable_hash(0.5)

    def test_numpy_bool_equals_python_bool(self):
        assert stable_hash(np.bool_(True)) == stable_hash(True)
        assert stable_hash(np.bool_(False)) == stable_hash(False)

    def test_array_equals_nested_list(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert stable_hash(arr) == stable_hash([[1.0, 2.0], [3.0, 4.0]])

    def test_int_array_equals_int_list(self):
        assert stable_hash(np.array([1, 2, 3])) == stable_hash([1, 2, 3])

    def test_config_with_numpy_scalars(self):
        """The classic sweep pitfall: a grid built from np.arange carries
        np.int64 params; its hash must match the plain-Python grid."""
        assert hash_config({"size": np.int64(5), "eps": np.float64(0.1)}) == \
            hash_config({"size": 5, "eps": 0.1})


class TestTypeTags:
    """Values of different types never collide, even when a naive
    str() serialisation would render them identically."""

    def test_int_float_bool_str_all_distinct(self):
        hashes = {stable_hash(1), stable_hash(1.0), stable_hash(True),
                  stable_hash("1")}
        assert len(hashes) == 4

    def test_zero_variants_distinct(self):
        assert len({stable_hash(0), stable_hash(0.0), stable_hash(False),
                    stable_hash("0")}) == 4

    def test_none_vs_string_none(self):
        assert stable_hash(None) != stable_hash("None")

    def test_empty_containers_distinct(self):
        assert stable_hash([]) != stable_hash({})
        assert stable_hash([]) != stable_hash("")

    def test_string_that_looks_like_a_tag(self):
        """A string containing canonical-form syntax must not collide
        with the structure it mimics (strings are JSON-escaped)."""
        assert stable_hash("i:1") != stable_hash(1)
        assert stable_hash(["a", "b"]) != stable_hash('["a","b"]')

    def test_bytes_vs_str(self):
        assert stable_hash(b"abc") != stable_hash("abc")


class TestFloatStability:
    def test_negative_zero_differs_from_zero(self):
        assert stable_hash(-0.0) != stable_hash(0.0)

    def test_nan_is_stable(self):
        assert stable_hash(float("nan")) == stable_hash(float("nan"))

    def test_inf_variants(self):
        assert stable_hash(float("inf")) != stable_hash(float("-inf"))

    def test_tiny_difference_detected(self):
        assert stable_hash(0.1) != stable_hash(0.1 + 1e-16)

    def test_float_hex_in_canonical_text(self):
        assert canonical_text(1.5) == f"f:{(1.5).hex()}"


class TestSequences:
    def test_list_and_tuple_interchangeable(self):
        """A config that round-trips through JSON turns tuples into
        lists; its hash must survive the trip."""
        assert stable_hash((1, 2, 3)) == stable_hash([1, 2, 3])
        assert stable_hash({"k": (1, 2)}) == stable_hash({"k": [1, 2]})

    def test_nesting_is_not_flattened(self):
        assert stable_hash([[1], [2]]) != stable_hash([1, 2])
        assert stable_hash([[1, 2]]) != stable_hash([[1], [2]])

    def test_order_matters(self):
        assert stable_hash([1, 2]) != stable_hash([2, 1])


class TestStableHashApi:
    def test_full_digest_is_64_hex(self):
        digest = stable_hash({"a": 1})
        assert len(digest) == 64
        int(digest, 16)  # valid hex

    def test_length_truncates(self):
        full = stable_hash({"a": 1})
        assert stable_hash({"a": 1}, length=12) == full[:12]

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError, match="cannot canonically hash"):
            stable_hash(object())

    def test_hash_config_requires_mapping(self):
        with pytest.raises(TypeError, match="mapping"):
            hash_config([("a", 1)])


class TestPlainData:
    def test_numpy_scalars_become_python(self):
        out = plain_data({"i": np.int64(3), "f": np.float64(1.5),
                          "b": np.bool_(True)})
        assert out == {"i": 3, "f": 1.5, "b": True}
        assert type(out["i"]) is int
        assert type(out["f"]) is float
        assert type(out["b"]) is bool

    def test_arrays_become_nested_lists(self):
        out = plain_data(np.array([[1, 2], [3, 4]]))
        assert out == [[1, 2], [3, 4]]
        assert type(out[0][1]) is int

    def test_tuples_become_lists(self):
        assert plain_data({"k": (1, 2)}) == {"k": [1, 2]}

    def test_roundtrip_through_json_is_identity(self):
        """Plain data compares equal to its JSON round trip, so a table's
        ``to_dict`` survives ``--out`` and a reload unchanged."""
        value = plain_data({"a": np.float64(0.25), "b": (1, np.int32(2)),
                            "c": [True, None, "s"]})
        assert json.loads(json.dumps(value)) == value

    def test_plain_values_pass_through(self):
        assert plain_data("text") == "text"
        assert plain_data(None) is None
