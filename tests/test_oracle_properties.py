"""Greedy digit strings checked against the benchmark's independent oracle.

bench/oracle.py rebuilds every family's weights from their definitions and
never imports seqbase.  Its self-test runs first, so a broken oracle fails
here and not only in a benchmark run.  Then, for each family, a value's
rendered greedy form must be the oracle's canonical string for that value,
and parsing a string must give the oracle's nonzero (position, digit) pairs.
"""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbase import base_sequences as bs
from seqbase.codec import encode_greedy
from seqbase.digit_text import AUTO, delimited, parse, render

ORACLE = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"


def _load_oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()

# oracle family -> (seqbase base, largest value drawn); the ranges keep a
# rendered string under about 10^5 characters
FAMILIES = {
    "prime": (bs.prime(), 10**6),
    "square": (bs.square(), 10**9),
    "mpower:3": (bs.m_power(3), 10**12),
    "factorial": (bs.factorial(), 10**60),
    "power:10": (bs.power_of(10), 10**60),
    "power:7": (bs.power_of(7), 10**60),
    "fibonacci": (bs.fibonacci(), 10**60),
    "lucas": (bs.lucas(), 10**60),
    "mixed:9,5,11,1,6": (bs.make_mixed_radix([9, 5, 11, 1, 6], cyclic=True), 10**60),
    "mixed:1": (bs.make_mixed_radix([1], cyclic=True), 10**60),
}
WEIGHTS = {family: oracle.Weights(family) for family in FAMILIES}


@pytest.fixture(scope="module", autouse=True)
def oracle_passes_its_self_test():
    """Every test here errors out when the oracle fails its own self-test."""
    oracle.self_test()


def _fraction(family: str):
    """Values in 0 .. the family's largest, spread over every magnitude."""
    top = FAMILIES[family][1]
    return st.integers(0, top.bit_length()).flatmap(lambda bits: st.integers(0, min(top, 2**bits)))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_greedy_string_is_the_oracles_canonical_form(family, data):
    base, _ = FAMILIES[family]
    value = data.draw(_fraction(family))
    text = render(encode_greedy(base, value))
    assert oracle.string_problem(WEIGHTS[family], text, value) is None


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_parse_gives_the_oracles_entries(family, data):
    base, _ = FAMILIES[family]
    value = data.draw(_fraction(family))
    rep = encode_greedy(base, value)
    for fmt in (AUTO, delimited()):
        text = render(rep, fmt)
        assert oracle.string_entries(text) == list(parse(base, text, fmt).entries)


@pytest.mark.parametrize(
    "family, value",
    [
        ("factorial", 3 * 6 + 2 * 2 + 1),  # 23 = "321": every digit above 1
        ("factorial", 10 * 3_628_800),  # digit 10 at position 9
        ("power:10", 987_654_321),
        ("lucas", 2),  # position 0 carries the digit 2
        ("lucas", 6),  # 4 + 2*1
        ("mixed:9,5,11,1,6", 9 + 5 * 10 + 11 * 60 + 1 * 720 + 6 * 1440),  # every position at its bound
    ],
)
def test_digits_above_one_are_canonical(family, value):
    base, _ = FAMILIES[family]
    rep = encode_greedy(base, value)
    assert any(d > 1 for _, d in rep.entries)
    text = render(rep)
    assert oracle.string_problem(WEIGHTS[family], text, value) is None
    assert oracle.string_entries(text) == list(parse(base, text).entries)
