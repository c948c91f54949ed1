"""The Fibonacci and Lucas kernels against oracles built from plain addition.

The bases compute their terms past 2^64 by fast doubling, find a superior
part from log2(v), encode by a compare-and-subtract walk, decode by a walk
up the recurrence and judge canonical form by the word rule alone.  Here
the terms come from w_{i+2} = w_{i+1} + w_i written out, a canonical
verdict from the prefix-sum rule (every prefix value below the next
weight), and the greedy digits from successive subtraction.
"""

import itertools
import random
import tracemalloc
from bisect import bisect_right

import pytest

from seqbase import base_sequences as bs
from seqbase import codec
from seqbase.codec import decode, encode_greedy, expansion_superior_parts, is_canonical

FAMILIES = [pytest.param(bs.fibonacci, 1, 2, id="fibonacci"), pytest.param(bs.lucas, 1, 3, id="lucas")]


def plain_terms(a: int, b: int, n: int) -> list[int]:
    """w_0 .. w_{n-1} of w_0 = a, w_1 = b, w_{i+2} = w_{i+1} + w_i."""
    terms = [a, b]
    while len(terms) < n:
        terms.append(terms[-1] + terms[-2])
    return terms[:n]


def subtraction_entries(a: int, b: int, value: int) -> list[tuple[int, int]]:
    """Greedy entries of value by successive subtraction, the terms walked up by addition and down by subtraction."""
    x, y, top = a, b, 0  # x = w_top, y = w_{top+1}
    while y <= value:
        x, y, top = y, x + y, top + 1
    entries = []
    rest = value
    for i in range(top, -1, -1):
        d, rest = divmod(rest, x)
        if d:
            entries.append((i, d))
        x, y = y - x, x
    return entries[::-1]


def _half_words(terms: list[int], first: int, width: int) -> list[tuple[tuple, int, bool, int]]:
    """Every digit word over 0..3 at positions first .. first + width - 1.

    Each comes with its entries, its value, whether each of its own prefix
    values (from position first) stays below the next weight, and its slack:
    the least w_k minus the word's prefix value below k, over its k.
    """
    out = []
    for digits in itertools.product(range(4), repeat=width):
        entries = tuple((first + j, d) for j, d in enumerate(digits) if d)
        prefix, ok, slack = 0, True, None
        for j, d in enumerate(digits):
            prefix += d * terms[first + j]
            room = terms[first + j + 1] - prefix
            ok = ok and room > 0
            slack = room if slack is None else min(slack, room)
        out.append((entries, prefix, ok, slack))
    return out


class TestWordRule:
    @pytest.mark.parametrize("make, a, b", FAMILIES)
    def test_every_word_of_up_to_eleven_digits_over_0_to_3(self, make, a, b):
        # a word is canonical when each prefix value P_k (digits below k) is below w_k;
        # an 11-digit word splits into 6 low and 5 high digits, and P_k < w_k holds
        # for every high k exactly when the low value is below the high half's slack
        base = make()
        terms = plain_terms(a, b, 12)
        lows = _half_words(terms, 0, 6)
        highs = _half_words(terms, 6, 5)
        canonical_words = 0
        for high, high_value, _, slack in highs:
            words = [low + high for low, _, _, _ in lows]
            expected = [ok and low_value < slack for _, low_value, ok, _ in lows]
            if not high:  # the empty word is 0, canonical
                words, expected = words[1:], expected[1:]
                assert codec._canonical_value(base, ()) == 0
            assert list(map(base._is_canonical, words)) == expected
            values = [codec._canonical_value(base, w) for w in words]
            offset = len(lows) - len(words)
            assert values == [
                low_value + high_value if ok else None
                for (_, low_value, _, _), ok in zip(lows[offset:], expected)
            ]
            canonical_words += sum(expected)
        assert canonical_words == terms[11] - 1  # the greedy forms of 1 .. w_11 - 1

    @pytest.mark.parametrize("make, a, b", FAMILIES)
    def test_public_verdict_on_sample_words(self, make, a, b):
        base = make()
        t0 = (b - 1) // a
        assert is_canonical(codec.Representation(base, ((0, t0), (2, 1), (4, 1))))
        assert not is_canonical(codec.Representation(base, ((0, t0 + 1),)))
        assert not is_canonical(codec.Representation(base, ((3, 1), (4, 1))))
        assert not is_canonical(codec.Representation(base, ((5, 2),)))
        far = 10**6  # no weight near it is computed to judge the word
        assert is_canonical(codec.Representation(base, ((0, 1), (far, 1))))
        assert not is_canonical(codec.Representation(base, ((far, 1), (far + 1, 1))))


class TestGreedyAgainstSubtraction:
    @pytest.mark.parametrize("make, a, b", FAMILIES)
    def test_every_value_below_30000(self, make, a, b):
        base = make()
        terms = plain_terms(a, b, 30)
        for value in range(30000):
            rep = encode_greedy(base, value)
            assert list(rep.entries) == subtraction_entries(a, b, value)
            assert decode(rep) == value
            parts = expansion_superior_parts(base, value)
            assert parts == [terms[i] for i, d in reversed(rep.entries) for _ in range(d)]

    @pytest.mark.parametrize("make, a, b", FAMILIES)
    def test_random_long_values_and_the_head_edge(self, make, a, b):
        base = make()
        terms = plain_terms(a, b, 100)
        values = [terms[i] + k for i in range(85, 100) for k in (-2, -1, 0, 1, 2)]
        values += [2**64 - 1, 2**64, 2**64 + 1]
        rng = random.Random(14)
        values += [rng.randrange(10 ** (n - 1), 10**n) for n in rng.sample(range(1000, 10001), 6)]
        for value in values:
            rep = encode_greedy(base, value)
            assert list(rep.entries) == subtraction_entries(a, b, value)
            assert decode(rep) == value
            assert is_canonical(rep)

    @pytest.mark.parametrize("make, a, b", FAMILIES)
    def test_decode_reads_any_digits(self, make, a, b):
        base = make()
        terms = plain_terms(a, b, 300)
        rng = random.Random(3)
        for _ in range(200):
            positions = sorted(rng.sample(range(300), rng.randrange(1, 12)))
            entries = tuple((i, rng.randrange(1, 5)) for i in positions)
            assert decode(codec.Representation(base, entries)) == sum(d * terms[i] for i, d in entries)


class TestSuperiorPart:
    @pytest.mark.parametrize("make, a, b", FAMILIES)
    def test_around_every_term_up_to_3000(self, make, a, b):
        base = make()
        terms = plain_terms(a, b, 3002)
        for i in range(3001):
            for v in (terms[i] - 1, terms[i], terms[i] + 1):
                if v >= 1:
                    j = bisect_right(terms, v) - 1
                    assert base.superior_part(v) == (j, terms[j])
        for v in (2**64 - 1, 2**64, 2**64 + 1):
            j = bisect_right(terms, v) - 1
            assert base.superior_part(v) == (j, terms[j])
        assert [base.term(i) for i in range(3002)] == terms

    @pytest.mark.parametrize("make, a, b", FAMILIES)
    def test_digit_bounds_are_closed_form(self, make, a, b):
        base = make()
        t0 = (b - 1) // a
        assert [base.digit_bound(i) for i in (0, 1, 2, 90, 91, 92, 10**6, 10**30)] == [t0] + [1] * 7


class TestMemory:
    @pytest.mark.parametrize("make, a, b", FAMILIES)
    def test_a_10000_digit_round_trip_holds_no_term_table(self, make, a, b):
        # a table of every term up to the top position would be about 100 MB here
        value = 7 * 10**10000 // 3
        base = make()
        tracemalloc.start()
        try:
            rep = encode_greedy(base, value)
            assert is_canonical(rep)
            assert decode(rep) == value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
