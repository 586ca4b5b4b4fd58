"""One body encoder: a served body is ``json.dumps(body) + "\\n"``.

The service state encodes a computed payload once, value by value
(:func:`~repro.service.state.encode_payload`), and the HTTP front end
joins those texts with the values it encodes itself
(:func:`~repro.service.server.json_body`).  The join must be the bytes
``json.dumps`` would write for the merged dict, whatever the values:
nested containers, keys the body and the payload share, NaN and
infinities, non-ASCII text, empty dicts.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.service.server import json_body
from repro.service.state import Answer, encode_payload

#: Key names that collide across body, payload and flags on purpose.
KEYS = st.sampled_from(["clusters", "report", "generation", "cached",
                        "coalesced", "", "schlüssel", "☃"]) \
    | st.text(max_size=6)

VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)

DICTS = st.dictionaries(KEYS, VALUES, max_size=5)


def _dumped(body: dict) -> bytes:
    return (json.dumps(body) + "\n").encode()


@settings(max_examples=300, deadline=None)
@given(body=DICTS, payload=DICTS, cached=st.booleans(),
       coalesced=st.none() | st.booleans())
def test_fragment_join_is_json_dumps_of_the_merged_dict(
        body, payload, cached, coalesced):
    flags = {"cached": cached}
    if coalesced is not None:
        flags["coalesced"] = coalesced
    answer = Answer(body, encode_payload(payload), **flags)
    merged = {**body, **payload, **flags}
    assert list(answer.items()) == list(merged.items())
    assert json_body(answer) == _dumped(merged)
    assert json_body(merged) == _dumped(merged)


def test_a_value_replaced_after_encoding_is_encoded_afresh():
    payload = {"report": "text", "clusters": {"a": float("nan")}}
    answer = Answer({"clusters": ["a"], "kind": "x"},
                    encode_payload(payload), cached=True)
    answer["report"] = "other"
    answer.pop("kind")
    assert json_body(answer) == _dumped(dict(answer))
    assert json_body({}) == b"{}\n"
