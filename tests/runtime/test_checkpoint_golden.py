"""Golden bytes for the canonical checkpoint serializer.

``checkpoint_golden.json`` holds ``dumps`` output recorded for every
value in :func:`corpus`.  Checkpoints, audit digests, flight-recorder
bundles and wire-frame bodies all go through this encoder, so its
output may never change: a faster encoder must emit the very same
bytes, raise the very same errors, and decode what older code wrote.
"""

import enum
import json
from collections import OrderedDict
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StateError
from repro.runtime.checkpoint import dumps, loads

GOLDEN = Path(__file__).with_name("checkpoint_golden.json")


class Point(NamedTuple):
    x: int
    y: int


class Color(enum.IntEnum):
    RED = 1
    BLUE = 12


class LoudInt(int):
    """An int whose ``str`` differs from its JSON form."""

    def __str__(self) -> str:
        return "loud"


class Name(str):
    pass


class Row(tuple):
    pass


class Blob(bytes):
    pass


class Items(list):
    pass


class Cells(dict):
    pass


def corpus():
    """Name -> value; every value survives ``loads(dumps(v)) == v``."""
    return {
        "none": None,
        "true": True,
        "zero": 0,
        "neg_int": -7,
        "big_int": 2**80,
        "float": 3.25,
        "str_unicode": "café ☃ \x00",
        "bytes": b"\x00\xffraw",
        "empty_containers": [{}, [], (), b"", ""],
        "int_keys_signed": {-10: "a", -1: "b", 0: "c", 2: "d", 10: "e",
                            9: "f", -2: "g"},
        "int_keys_large": {2**70: "x", -(2**63): "y", 2**62: "z", 3: "w"},
        "int_keys_nested": {1: {20: "a", 3: "b"}, 0: {-5: [1, {7: 8}]}},
        "bool_keys": {True: "t", False: "f"},
        "none_key": {None: "n"},
        "tuple_keys": {(1, "x"): 5, (0,): 6, (): 7, ((1, 2), b"k"): 8,
                       ("a", None, True): 9},
        "bytes_keys": {b"\x00": 1, b"abc": 2, b"": 3},
        "mixed_keys": {1: "int", "1": "str", (1,): "tuple", b"1": "bytes",
                       None: "none", False: "bool", -3: "neg"},
        "tag_key_str_dict": {"__t__": "d", "v": [1, 2]},
        "tag_key_only": {"__t__": "x"},
        "tag_key_nested": {"outer": {"__t__": "b", "v": "AA=="}},
        "str_dict_sorted": {"b": 2, "a": 1, "c": {"z": 0, "y": (1, 2)}},
        "nested_tuples": (1, (2, (3, (b"\xff", ()))), [b"", (None,)]),
        "tuple_of_bytes": (b"a", b"b", (b"c",)),
        "floats": [0.0, -0.0, 1.5, 1e300, -2.5e-300, 0.1 + 0.2,
                   float("inf"), float("-inf")],
        "float_values_int_keys": {3: 0.5, 1: -1e-9},
        "dict_subclass_str_keys": Cells(b=2, a=1),
        "dict_subclass_int_keys": Cells({5: "five", -5: "minus"}),
        "ordered_dict": OrderedDict([("z", 1), ("a", 2)]),
        "int_subclass_values": [Color.RED, LoudInt(5), True],
        "int_subclass_keys": {Color.BLUE: "blue", 2: "two",
                              LoudInt(10): "loud", 9: "nine"},
        "str_subclass": [Name("n"), {Name("k"): Name("v")}],
        "str_subclass_key_with_int": {Name("k"): 1, 4: 2},
        "tuple_subclass": Row((1, 2, Row((3,)))),
        "namedtuple_value": {"p": Point(1, 2), "ps": [Point(-1, 0)]},
        "namedtuple_key": {Point(3, 4): "p", (1, 2): "t"},
        "bytes_subclass": [Blob(b"xy"), {Blob(b"k"): 1}],
        "list_subclass": Items([1, Items([2])]),
        "runtime_like": {
            "cells": {"count": {"w1": 3}, "window": [(0, 100, "p")]},
            "senders": {"4": {"next_seq": 9, "retained": [[1, 2, 3]]}},
            "pending": {7: [(5, 7, 2, {"k": b"\x01"})]},
            "vt": 233_000,
        },
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_the_corpus(golden):
    assert set(golden) == set(corpus())


@pytest.mark.parametrize("name", sorted(corpus()))
def test_dumps_matches_golden_bytes(name, golden):
    assert dumps(corpus()[name]) == golden[name].encode("utf-8")


@pytest.mark.parametrize("name", sorted(corpus()))
def test_loads_round_trips_golden_bytes(name, golden):
    assert loads(golden[name].encode("utf-8")) == corpus()[name]


def test_decoded_types_are_the_base_types(golden):
    value = loads(golden["namedtuple_key"].encode("utf-8"))
    assert {type(k) for k in value} == {tuple}
    value = loads(golden["int_subclass_keys"].encode("utf-8"))
    assert {type(k) for k in value} == {int}


@pytest.mark.parametrize("value, message", [
    ({1.5: "x"}, "dict key of type float"),
    ({"a": 1, 2.0: "x"}, "dict key of type float"),
    ({frozenset([1]): 1}, "dict key of type frozenset"),
    ({1, 2}, "value of type set"),
    ([1, {2: {3}}], "value of type set"),
    ({"a": object()}, "value of type object"),
    ({(1, frozenset()): 1}, "value of type frozenset"),
    ({5: 1, 6: bytearray(b"x")}, "value of type bytearray"),
])
def test_unsupported_values_and_keys_raise(value, message):
    with pytest.raises(StateError, match=message):
        dumps(value)


@pytest.mark.parametrize("blob", [
    b'{"__t__":"q","v":1}',
    b'[1,{"__t__":"zz"}]',
    b'{"a":{"__t__":5}}',
    b'{"__t__":"d","v":[[{"__t__":"?"},1]]}',
])
def test_unknown_tag_raises(blob):
    with pytest.raises(StateError, match="unknown tag"):
        loads(blob)


def test_explicit_null_tag_is_a_plain_dict():
    assert loads(b'{"__t__":null,"a":1}') == {"__t__": None, "a": 1}


# -- properties ----------------------------------------------------------

@given(st.integers())
def test_int_str_equals_its_json_form(n):
    # The serializer sorts exact-int keys by ``str(k)``; that is only
    # byte-identical to sorting by ``json.dumps(k)`` because the two agree.
    assert str(n) == json.dumps(n, sort_keys=True)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
)

keys = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=6),
              st.binary(max_size=6), st.just("__t__")),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)

trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=5),
        st.dictionaries(st.text(max_size=6), children, max_size=5),
    ),
    max_leaves=30,
)


def _reinsert(value):
    """The same value with every dict's insertion order reversed."""
    if isinstance(value, dict):
        return {k: _reinsert(v) for k, v in reversed(list(value.items()))}
    if isinstance(value, list):
        return [_reinsert(v) for v in value]
    if isinstance(value, tuple):
        return tuple(_reinsert(v) for v in value)
    return value


@given(trees)
def test_loads_inverts_dumps(value):
    assert loads(dumps(value)) == value


@given(trees)
def test_dumps_ignores_dict_insertion_order(value):
    assert dumps(_reinsert(value)) == dumps(value)
