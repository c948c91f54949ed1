"""The product-base kernels against oracles built from plain multiplication.

Factorial, power-p and mixed-radix bases hold no term: they compute w_i in
closed form, find a superior part from log2(v), judge canonical form by
the rule d_i <= t_i alone and decode by a walk up their radix chunks.
Here the weights come from w_{i+1} = r_i * w_i written out, a canonical
verdict from the prefix-sum rule (every prefix value below the next
weight), and the largest encodable value of a finite base from
enumerating its words.
"""

import itertools
import math
import sys
import tracemalloc
from bisect import bisect_right

import pytest

from seqbase import base_sequences as bs
from seqbase import codec
from seqbase.codec import Representation, decode, encode_greedy, is_canonical
from seqbase.errors import IndexBeyondCapacity


def plain_weights(radix, n: int) -> list[int]:
    """w_0 .. w_{n-1} of w_0 = 1, w_{i+1} = radix(i) * w_i."""
    weights = [1]
    while len(weights) < n:
        weights.append(weights[-1] * radix(len(weights) - 1))
    return weights


def prefix_rule(entries, weights: list[int], last: int | None) -> bool:
    """Whether every prefix value stays below the next weight, and a finite base's value within its cap."""
    if last is not None and entries and entries[-1][0] > last:
        return False
    running = 0
    for i, d in entries:
        running += d * weights[i]
        if i != last and running >= weights[i + 1]:
            return False
    if last is not None:
        cap = weights[last] + sum((weights[i + 1] - 1) // weights[i] * weights[i] for i in range(last))
        return running <= cap
    return True


# (make, radix, last): last is a finite base's top position, else None
BASES = [
    pytest.param(bs.factorial, lambda i: i + 2, None, id="factorial"),
    pytest.param(lambda: bs.power_of(3), lambda i: 3, None, id="power:3"),
    pytest.param(lambda: bs.make_mixed_radix([1, 2, 1], cyclic=True), lambda i: (2, 3, 2)[i % 3], None, id="mixed-cyclic"),
    pytest.param(lambda: bs.make_mixed_radix([1, 2, 1]), lambda i: (2, 3, 2)[i], 3, id="mixed-finite"),
]


class TestWordVerdict:
    """Every word of up to 8 digits: the verdict and value against the prefix-sum rule."""

    @staticmethod
    def check_words(base, weights, last, digit_choices):
        for digits in itertools.product(*digit_choices):
            entries = tuple((i, d) for i, d in enumerate(digits) if d)
            if not entries:
                continue
            rep = Representation(base, entries)
            want = prefix_rule(entries, weights, last)
            assert is_canonical(rep) is want, entries
            if last is not None and entries[-1][0] > last:  # a finite base has no weight there
                assert codec._canonical_value(base, entries) is None
                with pytest.raises(IndexBeyondCapacity):
                    decode(rep)
                continue
            value = sum(d * weights[i] for i, d in entries)
            assert codec._canonical_value(base, entries) == (value if want else None), entries
            assert decode(rep) == value, entries

    @pytest.mark.parametrize("make, radix, last", BASES)
    def test_every_word_over_0_to_3(self, make, radix, last):
        weights = plain_weights(radix, 9 if last is None else last + 1)
        self.check_words(make(), weights, last, [range(4)] * 8)

    @pytest.mark.parametrize("make, radix, last", BASES)
    def test_bounds_on_a_fresh_base(self, make, radix, last):
        # neither the verdict nor digit_bound grows a table: each reads the bound from the radices
        base = make()
        positions = range(2000) if last is None else range(last)
        for i in positions:
            t = radix(i) - 1
            assert is_canonical(Representation(base, ((i, t),)))
            assert not is_canonical(Representation(base, ((i, t + 1),)))
        if last is not None:
            assert is_canonical(Representation(base, ((last, 1),)))
            assert not is_canonical(Representation(base, ((last, 2),)))
        assert [base.digit_bound(i) for i in positions] == [radix(i) - 1 for i in positions]
        assert base._cover == (0, 1)

    def test_factorial_words_at_and_past_each_bound(self):
        # digit choices 0, t_i and t_i + 1 reach the bounds that 0..3 does not
        weights = plain_weights(lambda i: i + 2, 9)
        self.check_words(bs.factorial(), weights, None, [(0, i + 1, i + 2) for i in range(8)])


class TestSuperiorPart:
    @pytest.mark.parametrize(
        "make, radix",
        [
            pytest.param(bs.factorial, lambda i: i + 2, id="factorial"),
            pytest.param(lambda: bs.power_of(2), lambda i: 2, id="power:2"),
            pytest.param(lambda: bs.power_of(3), lambda i: 3, id="power:3"),
            pytest.param(lambda: bs.power_of(10), lambda i: 10, id="power:10"),
            pytest.param(lambda: bs.make_mixed_radix([9, 5, 11, 1, 6], cyclic=True), lambda i: (10, 6, 12, 2, 7)[i % 5], id="mixed-cyclic"),
        ],
    )
    def test_at_each_weight_and_beside_it(self, make, radix):
        weights = plain_weights(radix, 2002)
        base = make()
        for i in range(2001):
            for value in (weights[i] - 1, weights[i], weights[i] + 1):
                if value >= 1:
                    j = bisect_right(weights, value) - 1
                    assert base.superior_part(value) == (j, weights[j]), (i, value - weights[i])

    def test_finite_base_stops_at_its_top_term(self):
        bounds = [1, 2, 1] * 700
        weights = plain_weights(lambda i: bounds[i] + 1, len(bounds) + 1)
        base = bs.make_mixed_radix(bounds)
        for i in range(len(weights)):
            for value in (weights[i] - 1, weights[i], weights[i] + 1):
                if value >= 1:
                    j = bisect_right(weights, value) - 1
                    assert base.superior_part(value) == (j, weights[j])
        assert base.superior_part(10 * weights[-1]) == (len(bounds), weights[-1])


class TestMaxEncodable:
    @pytest.mark.parametrize("bounds", [[1], [4], [1, 2], [2, 1], [1, 2, 3, 4], [3, 1, 4, 1, 5], [1, 2, 1], [6, 1, 1, 2]])
    def test_against_every_word(self, bounds):
        # the words with d_i <= t_i below the top and a top digit of 0 or 1
        weights = plain_weights(lambda i: bounds[i] + 1, len(bounds) + 1)
        values = sorted(
            sum(d * w for d, w in zip(digits, weights))
            for digits in itertools.product(*[range(t + 1) for t in bounds], range(2))
        )
        assert values == list(range(len(values)))  # each value once, none missed
        base = bs.make_mixed_radix(bounds)
        assert base.max_encodable() == values[-1] == bs.make_explicit(weights).max_encodable()
        assert [decode(encode_greedy(base, v)) for v in values] == values
        with pytest.raises(IndexBeyondCapacity):
            encode_greedy(base, values[-1] + 1)


class TestCover:
    @pytest.mark.parametrize("bounds", [[1, 2, 1], [3, 1, 4, 1, 5]])
    def test_top_term_takes_a_radix_of_two(self, bounds):
        # below w_last the table covers the radices and reaches w_last; the
        # top term's successor M + 1 = 2 w_last adds one more position of radix 2
        last = len(bounds)
        weights = plain_weights(lambda i: bounds[i] + 1, last + 1)
        base = bs.make_mixed_radix(bounds)
        assert decode(encode_greedy(base, weights[last] - 1)) == weights[last] - 1
        assert base._cover == (last, weights[last])
        assert decode(encode_greedy(base, weights[last])) == weights[last]
        assert base._cover == (last + 1, 2 * weights[last])
        assert sum(len(radices) for _, radices, _ in base._chunks) == last + 1
        assert base._chunks[-1][1][-1] == 2
        assert [decode(encode_greedy(base, v)) for v in range(2 * weights[last])] == list(range(2 * weights[last]))


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNoTermTable:
    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(bs.factorial, id="factorial"),
            pytest.param(lambda: bs.power_of(10), id="power:10"),
            pytest.param(lambda: bs.make_mixed_radix([9, 5, 11, 1, 6], cyclic=True), id="mixed-cyclic"),
        ],
    )
    def test_superior_part_builds_no_table(self, make):
        # a table of the weights up to 10^2000 holds 0.4-1 MB
        base = make()
        assert _peak(lambda: base.superior_part(10**2000)) < 2**16

    def test_power_of_two_roundtrip_holds_little_beside_the_digits(self):
        # a table of the 33220 weights up to 10^10000 would hold 70 MB
        value = 7 * 10**10000 // 3
        base = bs.power_of(2)
        out = []

        def roundtrip():
            rep = encode_greedy(base, value)
            assert is_canonical(rep)
            out.append(decode(rep))
            out.append(rep)

        peak = _peak(roundtrip)
        rep = out[1]
        assert out[0] == value
        assert rep.entries == tuple((i, 1) for i in range(value.bit_length()) if value >> i & 1)
        size = sys.getsizeof(value) + sys.getsizeof(rep.entries) + sum(
            sys.getsizeof(entry) + sys.getsizeof(entry[0]) for entry in rep.entries
        )
        assert peak < 4 * size


class TestClosedForms:
    def test_terms_and_bounds(self):
        fact, three = bs.factorial(), bs.power_of(3)
        cyclic = bs.make_mixed_radix([9, 5, 11, 1, 6], cyclic=True)
        radices = (10, 6, 12, 2, 7)
        weights = plain_weights(lambda i: radices[i % 5], 1002)
        for i in (0, 1, 2, 3, 4, 5, 6, 99, 500, 1000):
            assert fact.term(i) == math.factorial(i + 1)
            assert fact.digit_bound(i) == i + 1
            assert three.term(i) == 3**i
            assert three.digit_bound(i) == 2
            assert cyclic.term(i) == weights[i]
            assert cyclic.digit_bound(i) == radices[i % 5] - 1
        finite = bs.make_mixed_radix([1, 2, 3])
        assert [finite.term(i) for i in range(4)] == [1, 2, 6, 24]
        with pytest.raises(IndexBeyondCapacity):
            finite.term(4)
        assert finite.max_encodable() == 47  # 24 + 1*1 + 2*2 + 3*6
