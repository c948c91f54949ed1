import itertools
import math
import random
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_digits import dense
from seqbase import base_sequences as bs
from seqbase import codec
from seqbase.codec import (
    Representation,
    decode,
    digits_value,
    encode_greedy,
    expansion_superior_parts,
    is_canonical,
    verify_range,
)
from seqbase.digit_text import render
from seqbase.errors import IndexBeyondCapacity, InvalidParameter


def enumerate_canonical_forms(terms):
    """Oracle: all bound-respecting digit vectors that satisfy the prefix rule.

    Returns {value: [digit vectors]} over an explicit base given as a plain
    term list; everything here is recomputed from scratch, independent of
    the library's encoder.
    """
    n = len(terms) - 1
    bounds = [(terms[i + 1] - 1) // terms[i] for i in range(n)]
    cap = terms[n] + sum(b * w for b, w in zip(bounds, terms))
    ranges = [range(b + 1) for b in bounds] + [range(cap // terms[n] + 1)]
    by_value = {}
    for digits in itertools.product(*ranges):
        value = sum(d * w for d, w in zip(digits, terms))
        prefix = 0
        ok = True
        for k in range(1, n + 1):
            prefix += digits[k - 1] * terms[k - 1]
            if prefix >= terms[k]:
                ok = False
                break
        if ok:
            by_value.setdefault(value, []).append(digits)
    return by_value, cap


def trimmed(digits):
    out = list(digits)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# shared across hypothesis examples so the term caches warm up once
_SHARED_BASES = [bs.prime(), bs.factorial(), bs.power_of(10), bs.fibonacci()]
_SHARED_BOUNDED = [bs.prime(), bs.square(), bs.m_power(3), bs.lucas()]


class TestEncodeDecode:
    def test_prime_27(self, prime_base):
        rep = encode_greedy(prime_base, 27)
        # 27 = 23 + 3 + 1
        assert dense(rep) == (1, 0, 1, 0, 0, 0, 0, 0, 0, 1)
        assert decode(rep) == 27

    def test_zero_is_empty(self, all_builtin_bases):
        for base in all_builtin_bases:
            rep = encode_greedy(base, 0)
            assert rep.entries == ()
            assert decode(rep) == 0

    def test_square_24(self, square_base):
        # 24 = 16 + 2*4
        assert dense(encode_greedy(square_base, 24)) == (0, 2, 0, 1)

    def test_factorial_31(self, factorial_base):
        rep = encode_greedy(factorial_base, 31)
        assert dense(rep) == (1, 0, 1, 1)
        assert 1 * 24 + 1 * 6 + 0 * 2 + 1 * 1 == 31

    def test_decode_prime_10100(self, prime_base):
        rep = Representation.from_digits(prime_base, [0, 0, 1, 0, 1])
        assert decode(rep) == 10

    def test_decode_factorial_21(self, factorial_base):
        assert decode(Representation.from_digits(factorial_base, [1, 2])) == 5

    def test_decode_tolerates_out_of_bound_digits(self, prime_base):
        # the oracle path accepts any digit vector
        assert digits_value(prime_base, [5, 7]) == 5 + 14

    def test_digits_value_rejects_a_negative_digit(self, factorial_base):
        with pytest.raises(InvalidParameter):
            digits_value(factorial_base, [1, -1])

    def test_negative_rejected(self, prime_base):
        with pytest.raises(InvalidParameter):
            encode_greedy(prime_base, -1)

    @pytest.mark.parametrize(
        "make, value",
        [
            (bs.fibonacci, 2.5),
            (bs.lucas, 10**0.5),
            (lambda: bs.power_of(10), 2.5),
            (bs.factorial, 10**0.5),
            (bs.prime, "7"),
        ],
        ids=["fibonacci", "lucas", "power10", "factorial", "prime"],
    )
    def test_value_that_is_not_an_int_rejected(self, make, value):
        # a float would send the Fibonacci and Lucas walks appending entries without end
        base = make()
        for encode in (encode_greedy, expansion_superior_parts):
            with pytest.raises(InvalidParameter):
                encode(base, value)

    @given(st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_large(self, value):
        for base in _SHARED_BASES:
            assert decode(encode_greedy(base, value)) == value

    def test_roundtrip_huge_value(self, factorial_base):
        value = 10**40 + 12345
        assert decode(encode_greedy(factorial_base, value)) == value

    def test_square_far_out(self, square_base):
        # 10^40 = (10^20)^2 is the square w_(10^20 - 1), so it is a single digit
        rep = encode_greedy(square_base, 10**40)
        assert rep.entries == ((10**20 - 1, 1),)
        assert decode(rep) == 10**40

    def test_square_positions_past_the_index_range(self, square_base):
        # (10^38)^2 + (10^19)^2 + 4 + 1: the second position, 10^19 - 1, is past sys.maxsize
        value = 10**76 + 10**38 + 5
        rep = encode_greedy(square_base, value)
        assert rep.entries == ((0, 1), (1, 1), (10**19 - 1, 1), (10**38 - 1, 1))
        assert decode(rep) == value
        assert is_canonical(rep)


class TestCanonicity:
    def test_prime_11_not_canonical(self, prime_base):
        rep = Representation.from_digits(prime_base, [1, 1])  # 3 = 2 + 1
        assert not is_canonical(rep)
        assert dense(encode_greedy(prime_base, 3)) == (0, 0, 1)

    def test_zero_canonical(self, prime_base):
        assert is_canonical(Representation(prime_base))

    def test_square_1020_canonical(self, square_base):
        assert is_canonical(Representation.from_digits(square_base, [0, 2, 0, 1]))

    def test_greedy_output_is_canonical(self, all_builtin_bases):
        for base in all_builtin_bases:
            for value in range(2_000):
                assert is_canonical(encode_greedy(base, value))

    def test_canonical_iff_greedy_fixed_point(self, square_base):
        # every bound-respecting two-digit vector, checked both ways
        for d0 in range(4):
            for d1 in range(3):
                rep = Representation.from_digits(square_base, [d0, d1])
                again = encode_greedy(square_base, decode(rep))
                assert is_canonical(rep) == (again == rep)

    def test_digit_bound_exceeded_not_canonical(self, square_base):
        assert not is_canonical(Representation.from_digits(square_base, [0, 3]))

    def test_finite_base_overflow_not_canonical(self):
        base = bs.make_explicit([1, 2, 3])
        assert not is_canonical(Representation.from_digits(base, [0, 0, 3]))  # 9 > 6
        assert is_canonical(Representation.from_digits(base, [0, 0, 2]))  # 6 = 3 + 3
        assert not is_canonical(Representation.from_digits(base, [1, 0, 0, 1]))

    def test_position_past_the_prime_sieve_raises(self, prime_base):
        # the weights past pi(10^8) = 5761455 are out of reach
        for entries in [((0, 1), (6_000_000, 1)), ((0, 1), (5_761_455, 1))]:
            with pytest.raises(IndexBeyondCapacity):
                is_canonical(Representation(prime_base, entries))
        with pytest.raises(IndexBeyondCapacity):
            decode(Representation(prime_base, ((0, 5), (6_000_000, 1))))
        # is_canonical at pi(10^8) needs w_5761456, which does not exist; decode there
        # reads w_5761455 = 99999989, so it is asked one position further.  Both read
        # the missing weight first: sieving to 10^8 for the terms below it takes seconds and 160 MB.
        for check, entries in [
            (is_canonical, ((0, 1), (5_761_455, 1))),
            (decode, ((5_761_454, 1), (5_761_456, 1))),
        ]:
            base = bs.prime()
            tracemalloc.start()
            try:
                with pytest.raises(IndexBeyondCapacity):
                    check(Representation(base, entries))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20

    @pytest.mark.parametrize("make", [bs.prime, bs.factorial])
    def test_failing_low_digit_answers_before_a_far_top(self, make):
        # 5 >= w_1 already fails at position 0, so no weight near the top is built
        base = make()
        tracemalloc.start()
        try:
            for top in (5_761_455, 6_000_000, 10**9):
                assert not is_canonical(Representation(base, ((0, 5), (top, 1))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16  # the terms up to position 5761455 would take hundreds of MB

    @given(st.integers(0, 10**5))
    @settings(max_examples=200, deadline=None)
    def test_greedy_digits_within_bounds(self, value):
        for base in _SHARED_BOUNDED:
            for i, d in encode_greedy(base, value).entries:
                assert d <= base.digit_bound(i)


class TestBinaryDigitLaws:
    def test_prime_digits_binary(self, prime_base):
        for value in range(20_000):
            assert all(d <= 1 for _, d in encode_greedy(prime_base, value).entries)

    @pytest.mark.parametrize("m", [2, 3])
    def test_mpower_digits_binary_from_position_m(self, m):
        base = bs.m_power(m)
        for value in range(20_000):
            for i, d in encode_greedy(base, value).entries:
                if i >= m:
                    assert d <= 1

    def test_power_base_digits_match_decimal(self):
        base = bs.power_of(10)
        for value in (0, 7, 10, 305, 99999):
            assert trimmed(int(c) for c in str(value)[::-1]) == dense(encode_greedy(base, value))


class TestExpansion:
    def test_prime_27(self, prime_base):
        assert expansion_superior_parts(prime_base, 27) == [23, 3, 1]

    def test_zero(self, prime_base):
        assert expansion_superior_parts(prime_base, 0) == []

    def test_square_24(self, square_base):
        assert expansion_superior_parts(square_base, 24) == [16, 4, 4]

    def test_matches_greedy_multiset(self, all_builtin_bases):
        for base in all_builtin_bases:
            for value in range(1_000):
                parts = expansion_superior_parts(base, value)
                assert sum(parts) == value
                assert all(a >= b for a, b in zip(parts, parts[1:]))
                weighted = Counter()
                for i, d in encode_greedy(base, value).entries:
                    weighted[base.term(i)] += d
                assert Counter(parts) == weighted


class TestVerifyRange:
    def test_prime_range_passes(self, prime_base):
        report = verify_range(prime_base, 0, 10_000)
        assert report.passed
        assert report.first_failure is None

    def test_explicit_123_up_to_capacity(self):
        report = verify_range(bs.make_explicit([1, 2, 3]), 0, 6)
        assert report.passed

    def test_explicit_123_beyond_capacity(self):
        with pytest.raises(IndexBeyondCapacity):
            verify_range(bs.make_explicit([1, 2, 3]), 0, 7)

    def test_bad_range(self, prime_base):
        with pytest.raises(InvalidParameter):
            verify_range(prime_base, 5, 4)
        with pytest.raises(InvalidParameter):
            verify_range(prime_base, -1, 4)
        for lo, hi in ((0, 4.0), ("0", 4)):
            with pytest.raises(InvalidParameter):
                verify_range(prime_base, lo, hi)

    def test_greedy_digit_over_its_bound_is_counted(self, monkeypatch):
        base = bs.factorial()
        greedy = base._greedy
        monkeypatch.setattr(base, "_greedy", lambda value: [(0, 5)] if value == 7 else greedy(value))  # t_0 = 1
        report = verify_range(base, 0, 20)
        assert (report.bound_violations, report.first_failure) == (1, 7)

    def test_greedy_top_digit_of_a_finite_base_has_no_bound(self, monkeypatch):
        base = bs.make_mixed_radix([1, 2, 3, 4])  # weights 1, 2, 6, 24, 120
        greedy = base._greedy
        monkeypatch.setattr(base, "_greedy", lambda value: [(4, 2)] if value == 7 else greedy(value))
        report = verify_range(base, 0, 20)
        assert (report.bound_violations, report.canonicity_violations, report.first_failure) == (0, 1, 7)

    def test_report_counts_gate_passed(self):
        report = codec.VerificationReport(0, 10)
        assert report.passed
        report.bound_violations = 1
        assert not report.passed
        assert "FAIL" in report.summary()


class TestUniquenessOracle:
    @pytest.mark.parametrize("terms", [[1, 2, 3], [1, 2, 4, 8], [1, 3, 4, 7], [1, 2, 5, 11, 24]])
    def test_exactly_one_canonical_form_per_value(self, terms):
        by_value, cap = enumerate_canonical_forms(terms)
        base = bs.make_explicit(terms)
        assert base.max_encodable() == cap
        for value in range(cap + 1):
            forms = by_value.get(value, [])
            assert len(forms) == 1, f"value {value} has {len(forms)} canonical forms"
            assert trimmed(forms[0]) == dense(encode_greedy(base, value))


def successive_division(value, radix, top=None):
    """Oracle: nonzero digits of value by dividing by radix(0), radix(1), ... in turn.

    With a top position (a finite base's last term), what the radices below
    it leave is the digit there.
    """
    out = []
    i = 0
    while value and i != top:
        value, d = divmod(value, radix(i))
        if d:
            out.append((i, d))
        i += 1
    if value:
        out.append((i, value))
    return out


def value_of(digits, radix):
    """The value of little-endian digits under the weights w_{i+1} = radix(i) * w_i."""
    value, w = 0, 1
    for i, d in enumerate(digits):
        value += d * w
        w *= radix(i)
    return value


PRODUCT_BASES = [
    pytest.param(bs.factorial, lambda i: i + 2, id="factorial"),
    pytest.param(lambda: bs.power_of(7), lambda i: 7, id="power:7"),
    pytest.param(lambda: bs.power_of(10), lambda i: 10, id="power:10"),
]


class TestProductBaseEncode:
    """Product bases encode by division in chunks of radices; the oracle divides one radix at a time."""

    @pytest.mark.parametrize("make, radix", PRODUCT_BASES)
    def test_zero_runs_across_chunk_boundaries(self, make, radix):
        # a power:10 chunk holds 9 radices, power:7 holds 10, factorial 11 at first and 3 near position 1000
        base = make()
        for run in (1, 2, 8, 9, 10, 11, 17, 18, 19, 30, 31, 61):
            for offset in (0, 1, 5, 9, 10):
                digits = [1] * offset + [0] * run + [radix(offset + run) - 1] + [0] * (2 * run) + [1]
                value = value_of(digits, radix)
                want = successive_division(value, radix)
                assert want == [(i, d) for i, d in enumerate(digits) if d]
                assert list(encode_greedy(base, value).entries) == want

    @pytest.mark.parametrize("make, radix", PRODUCT_BASES)
    def test_small_values_and_full_digit_strings(self, make, radix):
        base = make()
        for i in (1, 2, 3, 9, 10, 11, 12, 13, 40, 300, 1000):
            w = value_of([0] * i + [1], radix)
            for value in (0, 1, 2, w - 1, w, w + 1):
                assert list(encode_greedy(base, value).entries) == successive_division(value, radix)
        fresh = make()  # small values first, so the table grows a position at a time
        for value in range(3000):
            assert list(encode_greedy(fresh, value).entries) == successive_division(value, radix)

    @pytest.mark.parametrize("make, radix", PRODUCT_BASES)
    def test_random_values_against_successive_division(self, make, radix):
        rng = random.Random(8)
        base = make()
        for bits in (5, 29, 30, 31, 61, 300, 3000, 12000, 1000):
            value = rng.getrandbits(bits)
            assert list(encode_greedy(base, value).entries) == successive_division(value, radix)

    def test_radix_that_fills_a_chunk_alone(self):
        base = bs.make_mixed_radix([2**40, 3], cyclic=True)
        radix = lambda i: 2**40 + 1 if i % 2 == 0 else 4
        rng = random.Random(10)
        for value in [rng.getrandbits(bits) for bits in (3, 40, 41, 42, 43, 100, 1000)] + [4 * (2**40 + 1) - 1]:
            assert list(encode_greedy(base, value).entries) == successive_division(value, radix)

    def test_power_of_two_to_the_31(self):
        p = 2**31
        base = bs.power_of(p)
        rng = random.Random(11)
        for value in [0, 1, p - 1, p, p * p - 1, p**5] + [rng.getrandbits(bits) for bits in (31, 32, 62, 63, 2000)]:
            assert list(encode_greedy(base, value).entries) == successive_division(value, lambda i: p)

    def test_chunks_stay_below_one_limb(self):
        limb = 1 << sys.int_info.bits_per_digit
        for base in (bs.power_of(2), bs.power_of(2**15), bs.power_of(2**31), bs.factorial(),
                     bs.make_mixed_radix([2**40, 3], cyclic=True)):
            encode_greedy(base, 1 << 5000)
            chunks = base._chunks
            for product, radices, prefixes in chunks:
                assert product == math.prod(radices)
                assert product < limb or len(radices) == 1
                assert prefixes == tuple(math.prod(radices[:k]) for k in range(len(radices)))
            covered = base._cover[0]
            assert sum(len(radices) for _, radices, _ in chunks) == covered
            assert [base.digit_bound(i) for i in range(covered)] == [r - 1 for _, radices, _ in chunks for r in radices]
        two = bs.power_of(2)
        encode_greedy(two, 1 << 100)
        assert two._chunks[0][:2] == (2**29, (2,) * 29)

    def test_finite_mixed_radix_every_value(self):
        by_value, cap = enumerate_canonical_forms([1, 2, 6, 24, 120])
        base = bs.make_mixed_radix([1, 2, 3, 4])
        assert cap == base.max_encodable() == 239
        for value in range(cap + 1):
            want = successive_division(value, lambda i: i + 2, top=4)
            assert [trimmed(form) for form in by_value[value]] == [dense(encode_greedy(base, value))]
            assert list(encode_greedy(base, value).entries) == want
        with pytest.raises(IndexBeyondCapacity):
            encode_greedy(base, 240)
        top_first = bs.make_mixed_radix([1, 2, 3, 4])  # the top term first, on a fresh table
        assert list(encode_greedy(top_first, 239).entries) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)]


class TestResidueLaw:
    def test_square_trailing_digits_cover_zero_to_three(self, square_base):
        seen = {decode_digit0(square_base, value) for value in range(11)}
        assert seen == {0, 1, 2, 3}

    def test_trailing_two_occurs_at_six(self, square_base):
        # 6 = 4 + 1 + 1 carries two units of weight one
        assert dict(encode_greedy(square_base, 6).entries).get(0, 0) == 2


def decode_digit0(base, value):
    return dict(encode_greedy(base, value).entries).get(0, 0)


class TestOrderLaw:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: bs.make_mixed_radix([9], cyclic=True),
            lambda: bs.make_mixed_radix([2, 1], cyclic=True),
            lambda: bs.make_mixed_radix([1, 2, 3, 4, 5, 6, 7]),
        ],
    )
    def test_value_order_matches_lexicographic_order(self, make):
        base = make()
        keys = []
        for value in range(10_001):
            digits = dense(encode_greedy(base, value))
            keys.append((len(digits), digits[::-1]))
        assert all(a < b for a, b in zip(keys, keys[1:]))


class TestRepresentation:
    def test_from_digits_trims_trailing_zeros(self, prime_base):
        rep = Representation.from_digits(prime_base, [1, 0, 1, 0, 0])
        assert dense(rep) == (1, 0, 1)
        assert rep.top == 2

    def test_negative_digit_rejected(self, prime_base):
        with pytest.raises(InvalidParameter):
            Representation.from_digits(prime_base, [1, -1])

    def test_malformed_entries_rejected(self, prime_base):
        with pytest.raises(InvalidParameter):
            Representation(prime_base, ((2, 1), (1, 1)))
        with pytest.raises(InvalidParameter):
            Representation(prime_base, ((0, 0),))
        for entries in (5, [(0, 1, 5)], [(0,)], [5], [("a", 1)], [(0, None)], [[0, 1], [1, "b"]]):
            with pytest.raises(InvalidParameter):  # not a pair, or items that do not compare with numbers
                Representation(prime_base, entries)
        for entries in ([(0.5, 1)], [(1, 2.5)], [[0, 1], [2, 1.0]]):
            with pytest.raises(InvalidParameter):  # a position or digit that is not an integer
                Representation(prime_base, entries)
        as_lists = Representation(prime_base, [[0, 1], [2, 1]])  # inner lists are held as tuples
        assert as_lists.entries == ((0, 1), (2, 1)) and as_lists == Representation(prime_base, ((0, 1), (2, 1)))
        assert hash(as_lists) == hash(Representation(prime_base, ((0, 1), (2, 1))))

    def test_equality_across_instances(self):
        a = encode_greedy(bs.prime(), 27)
        b = encode_greedy(bs.prime(), 27)
        assert a == b
        assert hash(a) == hash(b)

    def test_entries_are_held_as_a_tuple(self, prime_base):
        pairs = ((0, 1), (2, 1))
        as_tuple = Representation(prime_base, pairs)
        assert as_tuple.entries is pairs
        from_list = Representation(prime_base, list(pairs))
        assert from_list.entries == pairs and from_list == as_tuple
        assert hash(from_list) == hash(as_tuple)
        from_iterator = Representation(prime_base, iter(pairs))  # the range check reads it once
        assert from_iterator.entries == pairs
        assert is_canonical(from_iterator) and decode(from_iterator) == 1 + 3

    def test_digit_accessor(self, square_base):
        rep = encode_greedy(square_base, 24)
        digit = dict(rep.entries)
        assert (digit.get(0, 0), digit.get(1, 0), digit.get(2, 0), digit.get(3, 0)) == (0, 2, 0, 1)
        assert digit.get(7, 0) == 0

    def test_bool(self, prime_base):
        assert not Representation(prime_base)
        assert encode_greedy(prime_base, 1)

    def test_dense_vector_past_ceiling_refused(self, square_base):
        for rep in [Representation(square_base, ((10**7, 1),)), encode_greedy(square_base, 10**40)]:
            with pytest.raises(IndexBeyondCapacity):
                render(rep)
