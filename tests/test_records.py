"""Result records on the four fixtures: each repr is the one recorded in
tests/reference/records.json, and equal inputs give equal records, with
equal hashes wherever the record is hashable."""

import json

import pytest

from ttlam import TtError

from conftest import RECORDED, pinned_record_calls, shown_record


def test_record_reprs_pinned():
    recorded = json.loads((RECORDED / "records.json").read_text())
    calls = pinned_record_calls()
    assert calls.keys() == recorded.keys()
    for label, call in calls.items():
        assert shown_record(call) == recorded[label], label


def test_equal_inputs_give_equal_records():
    hashed = 0
    for label, call in pinned_record_calls().items():
        try:
            a = call()
        except TtError:  # pinned as the error it raises
            continue
        b = call()
        assert a is not b and type(a) is type(b), label
        assert a == b, label
        try:
            h = hash(a)
        except TypeError:  # a field holds a mapping
            with pytest.raises(TypeError):
                hash(b)
            continue
        assert h == hash(b), label
        hashed += 1
    assert hashed > 0
