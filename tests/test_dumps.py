"""cli._dumps against json.dumps(indent=2): the CLI writes every payload
through _dumps, which must give json's bytes for any value json can write
and raise json's TypeError for any value it cannot."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwscodes import cli
from mwscodes.bounds import _unlimited_int_str

GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())

# strings that json escapes: quotes, backslashes, control characters, and
# non-ASCII inside and outside the basic plane
ESCAPED = ['"', "\\", "\x00\x1f\x7f", "\n\r\t\b\f", "é", "€", "😀", " "]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(10**4300, 10**4400),  # past the default int-to-str digit limit
    st.floats(),  # nan, ±inf and -0.0 among them
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324]),
    st.text(),
    st.sampled_from(ESCAPED),
)
keys = st.one_of(st.text(), st.sampled_from(ESCAPED), st.integers(), st.floats(),
                 st.booleans(), st.none())
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(keys, children, max_size=6),
    ),
    max_leaves=30,
)


def _json_payloads():
    """The golden payloads that are JSON, parsed (two of them are CSV)."""
    with _unlimited_int_str():
        for case in GOLDEN:
            if case["stdout"].startswith("{"):
                yield case["argv"], case["stdout"], json.loads(case["stdout"])


def test_golden_payloads_are_json_dumps_bytes():
    payloads = list(_json_payloads())
    assert len(payloads) == len(GOLDEN) - 2
    with _unlimited_int_str():
        for argv, stdout, payload in payloads:
            assert cli._dumps(payload) == json.dumps(payload, indent=2), argv
            assert cli._dumps(payload) + "\n" == stdout, argv


@given(values)
@settings(max_examples=400, deadline=None)
def test_dumps_is_json_dumps(value):
    with _unlimited_int_str():
        assert cli._dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}}, {"a": [[], {}]}, [[[]]], {"": ""},
    {1.5: 1, True: 2, None: 3, math.nan: 4, -math.inf: 5, -0.0: 6, 7: 8},
    {"counts": {str(w): 2 * w for w in range(4095)}, "rows": [[0, 1], [1, 0]]},
    {"big": [10**5000, -(10**4301)], "key": {10**4500: 1}},
    [math.nan, {"x": [math.inf, -0.0]}],
    {"deep": [[[[[[[[[[[1, "a"], {"b": None}]]]]]]]]]]},  # deeper than the prebuilt encoders
    {"s": ESCAPED, "t": dict.fromkeys(ESCAPED, ESCAPED)},
])
def test_dumps_is_json_dumps_on_edge_values(value):
    with _unlimited_int_str():
        assert cli._dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    np.int64(9),
    {"name": np.int64(9)},  # in a container of scalars: json's C encoder
    {"a": [1, np.float32(2)], "b": {"c": []}},
    {"a": [{"b": 1}, np.int64(2)]},  # a scalar in a walked container
    {np.int64(1): {"b": 1}},  # a key json cannot write
    {(1, 2): [1]},
    [{"a": 1}, {1, 2}],
])
def test_dumps_raises_where_json_dumps_raises(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as raised:
        cli._dumps(value)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("bad", [
    {"name": np.int64(9)},
    {"name": "GF(9)", "modulus": [1, 0, np.int64(1)], "nested": {"x": [{}]}},
    {"name": "GF(9)", "nested": [{"x": 1}, np.int64(1)]},
])
def test_a_value_json_cannot_hold_exits_4_with_nothing_partial(capsys, monkeypatch, bad):
    monkeypatch.setattr(cli, "describe_field", lambda *args: bad)
    status = cli.main(["field-info", "--q", "9"])
    out = capsys.readouterr().out
    assert status == cli.EXIT_INTERNAL == 4
    payload = json.loads(out)  # exactly one JSON object: the error
    assert set(payload) == {"error", "detail"} and payload["error"] == "TypeError"
    assert out == json.dumps(payload, indent=2) + "\n"
