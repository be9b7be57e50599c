"""Instance file grammar: parse/serialize round trips and error reporting."""

from __future__ import annotations

import random
import time

import pytest

from conftest import rand_knapsack, rand_subsetsum
from smallweight.instio import parse_instance, serialize_instance
from smallweight.model import (
    InstanceFormatError,
    Item,
    KnapsackInstance,
    SubsetSumInstance,
)


def test_knapsack_round_trip():
    inst = KnapsackInstance((Item(2, 3), Item(3, 4)), 4)
    text = serialize_instance(inst)
    assert text == "knapsack 2 4\n2 3\n3 4\n"
    assert parse_instance(text) == inst


def test_subsetsum_round_trip():
    inst = SubsetSumInstance((5, 1, 5), 7)
    text = serialize_instance(inst)
    assert text == "subsetsum 3 7\n5\n1\n5\n"
    assert parse_instance(text) == inst


def test_empty_instances():
    assert parse_instance("knapsack 0 9\n") == KnapsackInstance((), 9)
    assert serialize_instance(SubsetSumInstance((), 0)) == "subsetsum 0 0\n"


def test_round_trip_fuzz():
    rng = random.Random(3)
    for trial in range(300):
        if trial % 2:
            inst = rand_knapsack(rng, n_max=20, w_max=50)
        else:
            inst = rand_subsetsum(rng, n_max=20, w_max=50)
        assert parse_instance(serialize_instance(inst)) == inst


def test_comments_accepted_anywhere_on_input():
    text = "# header comment\nknapsack 2 4\n2 3\n  # indented full-line comment\n3 4\n"
    assert parse_instance(text) == KnapsackInstance((Item(2, 3), Item(3, 4)), 4)


def test_serializer_never_emits_comments():
    rng = random.Random(4)
    for _ in range(50):
        text = serialize_instance(rand_knapsack(rng, n_max=8, w_max=9))
        assert "#" not in text
        assert "\n\n" not in text


@pytest.mark.parametrize(
    "text",
    [
        "",
        "knapsack 2\n2 3\n3 4\n",
        "knapsack x 4\n2 3\n3 4\n",
        "knapsack 2 4\n2 3\n",
        "knapsack 1 4\n2 3\n3 4\n",
        "knapsack 1 4\n2 3 9\n",
        "knapsack 1 4\n2\n",
        "subsetsum 1 4\n2 3\n",
        "knapsack 1 4\n02 3\n",
        "knapsack 1 4\n-2 3\n",
        "knapsack 1 -4\n2 3\n",
        "sack 1 4\n2 3\n",
        "knapsack 1 4\n0 3\n",
    ],
)
def test_malformed_inputs_raise(text):
    with pytest.raises(InstanceFormatError):
        parse_instance(text)


def test_error_messages_carry_line_numbers():
    with pytest.raises(InstanceFormatError, match="line 3"):
        parse_instance("knapsack 2 4\n2 3\nbogus\n")


def test_limits_enforced_at_parse_time():
    with pytest.raises(InstanceFormatError):
        parse_instance("knapsack 1 4\n1048577 3\n")
    with pytest.raises(InstanceFormatError):
        parse_instance("knapsack 1 1125899906842625\n2 3\n")


def test_many_blank_lines_rejected_in_linear_time():
    text = "knapsack 0 0\n" + "\n" * 10**5
    t0 = time.perf_counter()
    with pytest.raises(InstanceFormatError, match="expected 0 item lines, found"):
        parse_instance(text)
    assert time.perf_counter() - t0 < 2.0
