"""``io.dumps`` against json: the same text for every JSON value, and the
same TypeError for what json cannot encode."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from floerkit import io as fio
from floerkit.bordism import canonical_circle
from floerkit.bordobjects import surface
from floerkit.fieldfun import PartialFunctorSpec, verify_cerf_compatibility
from floerkit.groups import quaternion_group, symmetric_group
from floerkit.repvar import VarietyCache, relation_of_attach2


def json_dumps(value):
    return json.dumps(value, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def outcome(write, value):
    """The text, or the type and message of the error raised."""
    try:
        return write(value)
    except (TypeError, ValueError) as err:
        return type(err), str(err)


KEYS = (
    st.text(max_size=4)
    | st.integers(-(2 ** 70), 2 ** 70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.booleans()
    | st.none()
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2 ** 80), 2 ** 80)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 1e300, 5e-324])
    | st.text()
    | st.text(alphabet="é☃\U0001f600\"\\\n\t\x00/", max_size=6)
)
UNENCODABLE = st.sampled_from([{1, 2}, b"bytes", 1j, object(), frozenset()])


def values(leaves):
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.lists(st.integers(-300, 2 ** 40), min_size=1, max_size=6)
        | st.dictionaries(st.text(max_size=4), children, max_size=5)
        | st.dictionaries(KEYS, children, max_size=4)
        | st.dictionaries(st.tuples(st.integers()), children, min_size=1, max_size=2),
        max_leaves=20,
    )


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(values(SCALARS))
def test_dumps_writes_what_json_writes(value):
    assert outcome(fio.dumps, value) == outcome(json_dumps, value)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(values(SCALARS | UNENCODABLE))
def test_dumps_refuses_what_json_refuses(value):
    assert outcome(fio.dumps, value) == outcome(json_dumps, value)


def test_dumps_on_library_payloads():
    S3 = symmetric_group(3)
    cache = VarietyCache(S3)
    payloads = [
        cache.variety(surface(2)).to_json(),
        relation_of_attach2(S3, canonical_circle(2), cache).to_json(),
        verify_cerf_compatibility(PartialFunctorSpec(quaternion_group()), genera=(1,)),
        S3.to_json(),
        {"error": "FloerkitError", "message": "café", "witness": [[0, 1], (2, True)]},
        "a bare string",
        [],
        {},
    ]
    for payload in payloads:
        assert fio.dumps(payload) == json_dumps(payload)


@pytest.mark.parametrize("value", [[True, 1], [1, False], [1, 2.0], (3, 4), [10 ** 30, -5]])
def test_int_rows_and_their_neighbours(value):
    # only lists of plain ints take the template; bools and floats do not
    assert fio.dumps(value) == json_dumps(value)
    assert fio.dumps({"row": value, "rows": [value, value]}) == json_dumps(
        {"row": value, "rows": [value, value]}
    )
