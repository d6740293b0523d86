"""The incremental JSON reader against ``json.loads``.

Walking a document with :class:`~repro.jsonstream.JSONStream` (stepping
into every object and array, decoding the scalars) must rebuild exactly
what ``json.loads`` returns, and a malformed document must raise the same
error message, position included, whatever the read chunk size: chunks
of one or two characters cut every token at every offset.  The messages
are those of the running Python (3.13 reports trailing commas as such).
"""

from __future__ import annotations

import io
import json
import random

import pytest

from repro.jsonstream import JSONStream

DOCUMENTS = [
    '{"a":[[1,2],[3,4]],"b":{"c":[1,2,{"d":"xyz","e":[1.5,true,null]}],"f":"g"}}',
    '{\n "a" : [ [1 ,2],\n\t[3,4] ] ,"b":{"c":[1,2,{"d":"x\\"yz", "e": [1.5e3, -0, false]}], "f": "g"} }  \n',
    '[1e5, -2.5E-3, 12345678901234567890, "\\u00e9\\n", {}, [], {"":0}, NaN, -Infinity]',
    "17",
    '[[0 , ], {"a":1 ,\n }]',
]


def _walk(stream: JSONStream):
    char = stream.peek()
    if char == "{":
        return {key: _walk(stream) for key in stream.keys()}
    if char == "[":
        return [_walk(stream) for _ in stream.items()]
    return stream.value()


def _read(text: str, chunk: int):
    stream = JSONStream(io.StringIO(text), chunk=chunk)
    value = _walk(stream)
    stream.end()
    return value


def _variants(document: str, rng: random.Random) -> list[str]:
    """Every prefix, plus single-character replacements and deletions."""
    variants = [document[:cut] for cut in range(len(document) + 1)]
    for _ in range(150):
        index = rng.randrange(len(document))
        variants.append(document[:index] + rng.choice('{}[],:" x1.e-') + document[index + 1 :])
        index = rng.randrange(len(document))
        variants.append(document[:index] + document[index + 1 :])
    return variants


@pytest.mark.parametrize(
    "document", DOCUMENTS, ids=["compact", "spaced", "scalars", "number", "trailing-commas"]
)
def test_stream_reads_what_json_loads_reads(document):
    rng = random.Random(7)
    for text in _variants(document, rng):
        try:
            expected, error = json.loads(text), None
        except json.JSONDecodeError as exc:
            expected, error = None, str(exc)
        for chunk in (1, 2, 5, 1 << 14):
            if error is None:
                got = _read(text, chunk)
                # NaN != NaN: compare the re-encoded text instead.
                assert json.dumps(got) == json.dumps(expected), (text, chunk)
            else:
                with pytest.raises(json.JSONDecodeError) as raised:
                    _read(text, chunk)
                assert str(raised.value) == error, (text, chunk)


def test_a_value_larger_than_the_chunk_is_read_whole():
    document = json.dumps({"head": 1, "big": list(range(5_000)), "tail": "x" * 3_000})
    assert _read(document, 64) == json.loads(document)


def test_keys_leave_unconsumed_values_to_the_caller():
    stream = JSONStream(io.StringIO('{"kind": "k", "state": [1, 2, 3]}'))
    keys = stream.keys()
    assert next(keys) == "kind"
    assert stream.value() == "k"
    assert next(keys) == "state"
    assert [stream.value() for _ in stream.items()] == [1, 2, 3]
    assert list(keys) == []
    stream.end()
