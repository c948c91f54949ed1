import bisect
import gc
import math
import sys
import threading
import tracemalloc
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqbase import base_sequences as bs
from seqbase.codec import Representation, decode, encode_greedy
from seqbase.errors import (
    IndexBeyondCapacity,
    InvalidParameter,
    NotStartingAtOne,
    NotStrictlyIncreasing,
)


def sieve_primes(limit):
    """Independent oracle: sieve of Eratosthenes up to limit inclusive."""
    mark = bytearray([1]) * (limit + 1)
    mark[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if mark[p]:
            mark[p * p :: p] = bytearray(len(mark[p * p :: p]))
    return [i for i in range(limit + 1) if mark[i]]


def trial_division(limit):
    """odd[k] = 1 when 2k + 1 < limit is prime, by trial division: an oracle that sieves nothing."""
    return bytearray(m > 1 and all(m % d for d in range(3, math.isqrt(m) + 1, 2)) for m in range(1, limit, 2))


class TestBuiltinFamilies:
    def test_prime_terms_match_sieve(self, prime_base):
        oracle = [1] + sieve_primes(1_300_000)
        got = [prime_base.term(i) for i in range(100_001)]
        assert got == oracle[:100_001]

    def test_prime_terms_at_known_indices(self):
        # pi(10^6) = 78498 and pi(10^7) = 664579; 999983 and 9999991 are the primes just below
        base = bs.prime()
        assert base.term(78498) == 999983
        assert base.term(664579) == 9999991

    def test_prime_superior_part_of_ten_million(self):
        assert bs.prime().superior_part(10**7) == (664579, 9999991)

    def test_prime_small(self, prime_base):
        assert [prime_base.term(i) for i in range(5)] == [1, 2, 3, 5, 7]
        assert prime_base.term(4) == 7
        assert prime_base.term(0) == 1

    def test_square_terms(self, square_base):
        assert [square_base.term(i) for i in range(5)] == [1, 4, 9, 16, 25]

    def test_mpower_terms(self):
        cubes = bs.m_power(3)
        assert cubes.term(1) == 8
        assert [cubes.term(i) for i in range(4)] == [1, 8, 27, 64]

    def test_factorial_terms(self, factorial_base):
        assert factorial_base.term(3) == 24
        assert [factorial_base.term(i) for i in range(5)] == [1, 2, 6, 24, 120]

    def test_power_of_terms(self):
        two = bs.power_of(2)
        assert two.term(3) == 8
        ten = bs.power_of(10)
        assert [ten.term(i) for i in range(4)] == [1, 10, 100, 1000]

    def test_power_of_exact_ratio(self):
        seven = bs.power_of(7)
        for i in range(1, 60):
            assert seven.term(i) == 7 * seven.term(i - 1)

    def test_fibonacci_starts_without_duplicate_one(self):
        fib = bs.fibonacci()
        assert [fib.term(i) for i in range(7)] == [1, 2, 3, 5, 8, 13, 21]

    def test_lucas_starts_at_one_three(self):
        luc = bs.lucas()
        assert [luc.term(i) for i in range(6)] == [1, 3, 4, 7, 11, 18]

    @pytest.mark.parametrize("kind,params", [("mpower", {"m": 1}), ("power", {"p": 1}), ("power", {"p": 0})])
    def test_bad_parameters(self, kind, params):
        with pytest.raises(InvalidParameter):
            bs.make_builtin(kind, **params)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: bs.power_of(2.5),
            lambda: bs.m_power(2.5),
            lambda: bs.make_mixed_radix([1.5]),
            lambda: bs.make_explicit([1, 2.5]),
        ],
        ids=["power", "mpower", "mixed-radix", "explicit"],
    )
    def test_parameter_that_is_not_an_int_rejected(self, make):
        with pytest.raises(InvalidParameter):  # weights and bounds are naturals
            make()

    def test_make_builtin_unknown_kind(self):
        with pytest.raises(InvalidParameter):
            bs.make_builtin("bernoulli")

    def test_make_builtin_wrong_params(self):
        with pytest.raises(InvalidParameter):
            bs.make_builtin("prime", m=3)

    def test_make_builtin_dispatch(self):
        assert bs.make_builtin("mpower", m=3).term(1) == 8
        assert bs.make_builtin("power", p=2).term(3) == 8
        assert bs.make_builtin("prime").term(4) == 7

    def test_power_beyond_int_str_limit_rejected(self):
        # the name spells p in decimal, which the interpreter caps at 4300 digits
        with pytest.raises(InvalidParameter):
            bs.power_of(10**5000)
        with pytest.raises(InvalidParameter):
            bs.make_builtin("power", p=10**5000)


class TestExplicit:
    def test_valid(self):
        base = bs.make_explicit([1, 2, 3])
        assert base.capacity == 3
        assert [base.term(i) for i in range(3)] == [1, 2, 3]

    def test_not_starting_at_one(self):
        with pytest.raises(NotStartingAtOne):
            bs.make_explicit([2, 3, 5])

    def test_not_strictly_increasing(self):
        with pytest.raises(NotStrictlyIncreasing):
            bs.make_explicit([1, 3, 3])

    def test_empty(self):
        with pytest.raises(InvalidParameter):
            bs.make_explicit([])

    def test_term_beyond_capacity(self):
        base = bs.make_explicit([1, 4, 9])
        with pytest.raises(IndexBeyondCapacity):
            base.term(5)

    def test_digit_bound_undefined_at_last_position(self):
        base = bs.make_explicit([1, 2, 3])
        assert base.digit_bound(0) == 1
        assert base.digit_bound(1) == 1
        with pytest.raises(IndexBeyondCapacity):
            base.digit_bound(2)

    def test_max_encodable(self):
        assert bs.make_explicit([1, 2, 3]).max_encodable() == 6
        assert bs.prime().max_encodable() is None


class TestMixedRadix:
    def test_factorial_weights_from_growing_bounds(self):
        base = bs.make_mixed_radix([1, 2, 3, 4, 5])
        fact = bs.factorial()
        for i in range(6):
            assert base.term(i) == fact.term(i)

    def test_decimal_weights_from_constant_nine(self):
        base = bs.make_mixed_radix([9], cyclic=True)
        assert [base.term(i) for i in range(4)] == [1, 10, 100, 1000]
        assert base.capacity is None

    def test_binary_weights_from_constant_one(self):
        base = bs.make_mixed_radix([1], cyclic=True)
        assert [base.term(i) for i in range(5)] == [1, 2, 4, 8, 16]

    def test_digit_bound_reproduces_bounds(self):
        bounds = [3, 1, 7, 2, 5]
        base = bs.make_mixed_radix(bounds)
        assert [base.digit_bound(i) for i in range(5)] == bounds

    def test_cyclic_digit_bound_reproduces_bounds(self):
        base = bs.make_mixed_radix([2, 5], cyclic=True)
        assert [base.digit_bound(i) for i in range(8)] == [2, 5, 2, 5, 2, 5, 2, 5]

    def test_finite_capacity_is_len_plus_one(self):
        base = bs.make_mixed_radix([1, 2, 3])
        assert base.capacity == 4
        base.term(3)
        with pytest.raises(IndexBeyondCapacity):
            base.term(4)

    def test_zero_bound_rejected(self):
        with pytest.raises(InvalidParameter):
            bs.make_mixed_radix([1, 0, 2])

    def test_empty_bounds_rejected(self):
        with pytest.raises(InvalidParameter):
            bs.make_mixed_radix([])

    def test_bound_beyond_int_str_limit_rejected(self):
        # the name lists the bounds in decimal, which the interpreter caps at 4300 digits
        with pytest.raises(InvalidParameter):
            bs.make_mixed_radix([10**5000], cyclic=True)


class TestSuperiorPart:
    def test_prime_ten(self, prime_base):
        # oracle: scan the primes (and 1) not exceeding 10
        candidates = [1] + [p for p in sieve_primes(10)]
        assert prime_base.superior_part(10) == (4, max(candidates))

    def test_one_in_any_base(self, all_builtin_bases):
        for base in all_builtin_bases:
            assert base.superior_part(1) == (0, 1)

    def test_square_24(self, square_base):
        squares = [1] + [k * k for k in range(2, 6) if k * k <= 24]
        assert square_base.superior_part(24)[1] == max(squares)
        assert square_base.superior_part(24) == (3, 16)

    def test_below_one_rejected(self, prime_base):
        with pytest.raises(InvalidParameter):
            prime_base.superior_part(0)

    def test_finite_base_returns_last_term(self):
        base = bs.make_explicit([1, 2, 3])
        assert base.superior_part(100) == (2, 3)

    @pytest.mark.parametrize(
        "make, terms",
        [
            (lambda: bs.make_explicit([1, 2, 5, 11, 24]), [1, 2, 5, 11, 24]),
            (lambda: bs.make_mixed_radix([1, 2, 3, 4]), [1, 2, 6, 24, 120]),
        ],
    )
    def test_fresh_finite_bases_agree_in_either_order(self, make, terms):
        values = range(1, 2 * terms[-1])
        # oracle: scan the listed terms for the largest one <= v
        parts = [max((i, w) for i, w in enumerate(terms) if w <= v) for v in values]
        terms_first, parts_first = make(), make()
        assert [terms_first.term(i) for i in range(len(terms))] == terms
        assert [terms_first.superior_part(v) for v in values] == parts
        assert [parts_first.superior_part(v) for v in values] == parts
        assert [parts_first.term(i) for i in range(len(terms))] == terms
        for base in (terms_first, parts_first, make()):
            with pytest.raises(IndexBeyondCapacity):
                base.term(len(terms))
            assert base.capacity == len(terms)

    @pytest.mark.parametrize("m", [2, 3, 5, 7])
    def test_power_matches_brute_force(self, m):
        powers = [k**m for k in range(1, 102)]  # 101^2 > 10^4
        for base in [bs.m_power(m)] + ([bs.square()] if m == 2 else []):
            for v in range(1, 10**4 + 1):
                best = max(p for p in powers if p <= v)
                assert base.superior_part(v) == (powers.index(best), best)

    @pytest.mark.parametrize("m", [2, 3, 5, 7])
    @given(k=st.integers(2, 10**30))
    @example(k=2)
    @example(k=10**30)
    def test_power_exact_around_perfect_powers(self, m, k):
        for base in [bs.m_power(m)] + ([bs.square()] if m == 2 else []):
            assert base.superior_part(k**m - 1) == (k - 2, (k - 1) ** m)
            assert base.superior_part(k**m) == (k - 1, k**m)
            assert base.superior_part(k**m + 1) == (k - 1, k**m)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(0, 3000), min_size=1, max_size=6),
        st.lists(st.integers(1, 10**6), min_size=1, max_size=6),
    )
    def test_fresh_bases_agree_in_either_order(self, indices, values):
        for make in [bs.prime, bs.square, lambda: bs.m_power(3), bs.factorial, lambda: bs.power_of(10),
                     bs.fibonacci, bs.lucas, lambda: bs.make_mixed_radix([2, 5], cyclic=True)]:
            terms_first, parts_first = make(), make()
            a = [terms_first.term(i) for i in indices], [terms_first.superior_part(v) for v in values]
            parts = [parts_first.superior_part(v) for v in values]
            b = [parts_first.term(i) for i in indices], parts
            assert a == b
            for v, (i, w) in zip(values, parts):
                assert w == parts_first.term(i) <= v < parts_first.term(i + 1)


# fresh-base makers with their first terms listed by hand
HAND_LISTED = [
    pytest.param(bs.factorial, [1, 2, 6, 24, 120, 720, 5040, 40320], id="factorial"),
    pytest.param(lambda: bs.power_of(7), [1, 7, 49, 343, 2401, 16807], id="power:7"),
    pytest.param(bs.fibonacci, [1, 2, 3, 5, 8, 13, 21, 34, 55], id="fibonacci"),
    pytest.param(bs.lucas, [1, 3, 4, 7, 11, 18, 29, 47, 76], id="lucas"),
    pytest.param(lambda: bs.make_mixed_radix([2, 5], cyclic=True), [1, 3, 18, 54, 324, 972], id="cyclic-mixed-radix"),
    pytest.param(lambda: bs.make_mixed_radix([1, 2, 3, 4]), [1, 2, 6, 24, 120], id="finite-mixed-radix"),
    pytest.param(lambda: bs.make_explicit([1, 2, 5, 11, 24]), [1, 2, 5, 11, 24], id="explicit"),
]


class TestDigitBoundMemo:
    @pytest.mark.parametrize("make, terms", HAND_LISTED)
    def test_bound_first_and_term_first_agree(self, make, terms):
        expected = [(terms[i + 1] - 1) // terms[i] for i in range(len(terms) - 1)]
        positions = range(len(expected))
        top_first, low_first, terms_first = make(), make(), make()
        assert [top_first.digit_bound(i) for i in reversed(positions)] == expected[::-1]
        assert [top_first.term(i) for i in range(len(terms))] == terms
        assert [low_first.digit_bound(i) for i in positions] == expected
        assert [terms_first.term(i) for i in range(len(terms))] == terms
        assert [terms_first.digit_bound(i) for i in positions] == expected
        for base in (top_first, low_first, terms_first):
            assert [base.digit_bound(i) for i in positions] == expected

    @pytest.mark.parametrize("make, terms", [p for p in HAND_LISTED if p.id in ("finite-mixed-radix", "explicit")])
    def test_finite_base_refuses_the_top_bound_and_keeps_the_memo(self, make, terms):
        expected = [(terms[i + 1] - 1) // terms[i] for i in range(len(terms) - 1)]
        for warm_first in (False, True):
            base = make()
            if warm_first:
                assert base.digit_bound(len(terms) - 2) == expected[-1]
            for i in (base.capacity - 1, base.capacity, 10**6):
                with pytest.raises(IndexBeyondCapacity):
                    base.digit_bound(i)
            assert [base.digit_bound(i) for i in range(len(expected))] == expected
            with pytest.raises(IndexBeyondCapacity):
                base.digit_bound(base.capacity - 1)
            assert [base.term(i) for i in range(len(terms))] == terms

    def test_product_bounds_come_with_their_terms(self):
        # t_i = r_i - 1 = w_{i+1} / w_i - 1, with no term table behind either
        ten = bs.power_of(10)
        assert ten.digit_bound(2000) == 9
        assert ten.term(2001) == 10 * ten.term(2000) == 10**2001
        assert [ten.digit_bound(i) for i in range(2001)] == [9] * 2001
        fact = bs.factorial()
        assert fact.term(50) == math.factorial(51)
        assert [fact.digit_bound(i) for i in range(50)] == [fact.term(i + 1) // fact.term(i) - 1 for i in range(50)]
        assert [fact.digit_bound(i) for i in range(50)] == [i + 1 for i in range(50)]
        assert ten._cache == fact._cache == []

    def test_closed_form_and_sieved_bounds(self):
        # squares: floor(((i+2)^2 - 1) / (i+1)^2) is 3 at 0, 2 at 1, then 1; primes: 1 everywhere (Bertrand)
        assert [bs.square().digit_bound(i) for i in (0, 1, 2, 10**6, 10**20)] == [3, 2, 1, 1, 1]
        assert bs.m_power(3).digit_bound(0) == 7
        assert [bs.prime().digit_bound(i) for i in (78497, 0, 1, 2, 664578)] == [1] * 5


class TestPrimeBounds:
    def test_bounds_match_the_sieve(self):
        oracle = [1] + sieve_primes(1_300_000)
        base = bs.prime()
        assert [base.digit_bound(i) for i in range(100_000)] == [
            (oracle[i + 1] - 1) // oracle[i] for i in range(100_000)
        ]

    def test_bound_at_the_last_held_prime_sieves_nothing(self):
        base = bs.prime()
        held = base.superior_part(999_982)[0] + 1  # 999979 is the largest prime held: w_78497
        assert base.term(held - 1) == 999_979
        tracemalloc.start()
        try:
            assert base.digit_bound(held - 1) == 1
            assert base.digit_bound(5_761_455 - 1) == 1  # pi(10^8) = 5761455
            with pytest.raises(IndexBeyondCapacity, match="100000000"):
                base.digit_bound(5_761_455)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16  # sieving past 10^6 would take at least 0.5 MB

    def test_superior_part_builds_no_term_table(self):
        base = bs.prime()
        tracemalloc.start()
        try:
            assert base.superior_part(999_982) == (78_497, 999_979)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 500 KB sieve and its largest strike (29 KB) fit; an array of
        # the 78498 terms would add 628 KB
        assert peak < 10**6
        assert base.term(78_497) == 999_979

    def test_ascending_terms_copy_the_table_a_bounded_number_of_times(self):
        # a table extended block by block would be copied once per 256-byte
        # block, ~19000 times on the way to pi(10^7), quadratic in all
        base = bs.prime()
        tables, swaps = base._cache, 0
        for i in range(1, 664_580, 7):  # a step below the primes per block: every block is read
            base.term(i)
            if base._cache is not tables:
                tables, swaps = base._cache, swaps + 1
        assert base.term(664_579) == 9_999_991  # pi(10^7) = 664579
        assert swaps <= 20  # doubling from 97 terms reaches 664579 in 13


class TestOddSieve:
    def test_small_sieves_and_period_seams_match_trial_division(self):
        # the struck period covers 30030 numbers: these sieves end at, just
        # before and just past 1 to 4 copies of it
        seams = [30030 * k + d for k in range(1, 5) for d in range(-2, 3)]
        expected = trial_division(max(seams) + 1)
        for n in [*range(2, 301), *seams]:
            assert bs._odd_sieve(n) == expected[: n // 2], n

    def test_million_matches_the_plain_sieve(self):
        odd = bs._odd_sieve(10**6)
        assert [2 * k + 1 for k, is_prime in enumerate(odd) if is_prime] == sieve_primes(10**6)[1:]

    def test_no_strike_buffer_exceeds_a_seventeenth_of_the_sieve(self):
        tracemalloc.start()
        try:
            odd = bs._odd_sieve(10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the sieve, a strike for p = 17 and a copy of the 15 KB period fit;
        # a strike for p = 3 would add a third of the sieve, and two thirds
        # as a bytes value, which slice assignment copies first
        assert peak < len(odd) * 17 / 16 + 2**16


class TestPrimeDirectory:
    @pytest.mark.parametrize(
        "n",
        [10**6, 6 * bs._PRIME_BLOCK, 2 * bs._PRIME_BLOCK + 7, 300],
        ids=["million", "whole-blocks", "part-block", "under-a-block"],
    )
    def test_counts_are_the_primes_before_each_block(self, n):
        odd = bs._odd_sieve(n)
        counts = bs._directory(odd)
        assert len(counts) == -(-len(odd) // bs._PRIME_BLOCK) + 1
        assert list(counts) == [odd.count(1, 0, b * bs._PRIME_BLOCK) for b in range(len(counts))]

    def test_superior_parts_across_whole_blocks(self):
        # a rank counts up from the block edge below it or down from the one above, whichever is nearer
        primes = [1] + sieve_primes(6 * bs._PRIME_BLOCK)
        base = bs.prime()
        base.superior_part(10**6)  # the sieve covers these blocks before the first value
        for v in range(1, 6 * bs._PRIME_BLOCK):
            i = bisect.bisect_right(primes, v) - 1
            assert base.superior_part(v) == (i, primes[i]), v


class TestPrimeSieveLimit:
    def test_beyond_limit_fails_fast(self):
        base = bs.prime()
        tracemalloc.start()
        try:
            for call, arg in [(base.superior_part, 10**12), (base.superior_part, 10**8 + 1),
                              (base.term, 10**7), (base.term, 10**12), (base.term, 10**5000),
                              (base.term, 5_761_456), (base.term, 6_000_000)]:
                with pytest.raises(IndexBeyondCapacity, match="100000000"):
                    call(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert base.superior_part(10) == (4, 7)


class TestMPowerExponentCap:
    def test_exponent_past_cap_refused_without_building_it(self):
        tracemalloc.start()
        try:
            for m in (1001, 10**8, 10**5000):
                with pytest.raises(InvalidParameter, match="1000"):
                    bs.m_power(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert bs.m_power(1000).term(1) == 2**1000


class TestInvariants:
    @given(st.integers(0, 300))
    def test_strictly_increasing_from_one(self, i):
        for base in [bs.prime(), bs.square(), bs.m_power(4), bs.factorial(), bs.fibonacci(), bs.lucas()]:
            assert base.term(0) == 1
            assert base.term(i) < base.term(i + 1)

    @given(st.integers(0, 200))
    def test_digit_bound_at_least_one(self, i):
        for base in [bs.prime(), bs.square(), bs.factorial(), bs.power_of(3), bs.lucas()]:
            assert base.digit_bound(i) >= 1

    @pytest.mark.parametrize("family", ["prime", "fibonacci"])
    def test_doubling_growth_gives_binary_bounds(self, family, prime_base):
        # when 2*w_i >= w_{i+1} the digit bound collapses to 1
        base = prime_base if family == "prime" else bs.fibonacci()
        for i in range(10_000):
            assert 2 * base.term(i) >= base.term(i + 1)
            assert base.digit_bound(i) == 1

    @pytest.mark.parametrize("m", [2, 3])
    def test_mpower_doubling_from_position_m(self, m):
        base = bs.m_power(m)
        for i in range(m, 10_000):
            assert 2 * base.term(i) >= base.term(i + 1)
            assert base.digit_bound(i) == 1

    def test_determinism_across_instances(self):
        for make in [bs.prime, bs.square, bs.factorial, bs.fibonacci, bs.lucas,
                     lambda: bs.m_power(3), lambda: bs.power_of(10)]:
            a, b = make(), make()
            assert [a.term(i) for i in range(500)] == [b.term(i) for i in range(500)]

    def test_negative_index_rejected(self, prime_base):
        with pytest.raises(InvalidParameter):
            prime_base.term(-1)
        with pytest.raises(InvalidParameter):
            prime_base.digit_bound(-2)

    @pytest.mark.parametrize("method", ["term", "digit_bound", "superior_part"])
    @pytest.mark.parametrize(
        "make",
        [bs.prime, bs.square, lambda: bs.m_power(3), bs.factorial, lambda: bs.power_of(10), bs.fibonacci,
         bs.lucas, lambda: bs.make_explicit([1, 2, 4, 7]), lambda: bs.make_mixed_radix([1, 2, 3, 4]),
         lambda: bs.make_mixed_radix([3, 1, 4], cyclic=True)],
        ids=["prime", "square", "mpower3", "factorial", "power10", "fibonacci", "lucas", "explicit",
             "mixed-radix", "cyclic"],
    )
    @pytest.mark.parametrize("arg", [2.5, "1"], ids=["float", "str"])
    def test_argument_that_is_not_an_int_rejected(self, make, method, arg):
        with pytest.raises(InvalidParameter):
            getattr(make(), method)(arg)

    def test_signature_equality(self):
        assert bs.prime() == bs.prime()
        assert bs.m_power(3) == bs.m_power(3)
        assert bs.m_power(3) != bs.m_power(4)
        assert bs.square() != bs.m_power(2)  # same weights, distinct kinds


class TestConcurrency:
    def test_concurrent_readers_see_identical_terms(self):
        base = bs.prime()
        fresh = bs.prime()
        expected = [fresh.term(i) for i in range(2_000)]
        results = []
        errors = []

        def reader(start):
            try:
                got = [base.term(i) for i in range(start, 2_000)] + [
                    base.term(i) for i in range(start)
                ]
                results.append((start, got))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(s,)) for s in (0, 500, 1000, 1500)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for start, got in results:
            assert got == expected[start:] + expected[:start]

    def test_sieve_growth_under_concurrent_readers(self):
        oracle = [1] + sieve_primes(300_000)
        failures = []

        def grower(base, v):
            try:
                while v < 300_000:
                    i, w = base.superior_part(v)
                    if not (w == oracle[i] and w <= v < oracle[i + 1]):
                        failures.append(("superior_part", v, i, w))
                    v = v * 3 // 2 + 1
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        def reader(base, step):
            try:
                for i in range(1, len(oracle), step):
                    if base.superior_part(oracle[i]) != (i, oracle[i]) or base.term(i) != oracle[i]:
                        failures.append(("reader", i))
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):  # each round grows a fresh base's sieve about 17 times
                base = bs.prime()
                threads = [threading.Thread(target=grower, args=(base, v)) for v in (2, 3, 5, 7)]
                threads += [threading.Thread(target=reader, args=(base, step)) for step in (1, 7, 13, 101)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not failures

    def test_term_table_growth_under_concurrent_readers(self):
        # term readers extend the table a block at a time while superior parts grow the sieve
        oracle = [1] + sieve_primes(400_000)
        failures = []

        def term_reader(base, i):
            try:
                while i < len(oracle):
                    if base.term(i) != oracle[i]:
                        failures.append(("term", i))
                    i += 1 + i // 64
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        def part_reader(base, v):
            try:
                while v < oracle[-1]:
                    i, w = base.superior_part(v)
                    if not (w == oracle[i] and w <= v < oracle[i + 1]):
                        failures.append(("superior_part", v, i, w))
                    v = v * 9 // 8 + 1
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                base = bs.prime()
                threads = [threading.Thread(target=term_reader, args=(base, i)) for i in (90, 100, 150, 300)]
                threads += [threading.Thread(target=part_reader, args=(base, v)) for v in (500, 700, 1100, 3000)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert [base.term(i) for i in range(len(oracle))] == oracle
        finally:
            sys.setswitchinterval(interval)
        assert not failures

    def test_bound_memo_under_concurrent_readers(self):
        # independent references: factorial w_(i+1) = (i+2) w_i, so its bound is i+1;
        # a cyclic mixed radix's bound at i is t_(i mod 3)
        n = 1_200
        cases = [
            (bs.factorial, [i + 1 for i in range(n)]),
            (lambda: bs.make_mixed_radix([2, 5, 11], cyclic=True), [(2, 5, 11)[i % 3] for i in range(n)]),
        ]
        failures = []

        def grower(base, reference, i):
            try:
                while i < n:
                    if base.digit_bound(i) != reference[i]:
                        failures.append(("grower", i))
                    i = i * 3 // 2 + 1
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        def reader(base, reference, step):
            try:
                for i in range(0, n, step):
                    if base.digit_bound(i) != reference[i] or base.digit_bound(i // 2) != reference[i // 2]:
                        failures.append(("reader", i))
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                for make, reference in cases:
                    base = make()
                    threads = [threading.Thread(target=grower, args=(base, reference, i)) for i in (0, 1, 2, 3, 5, 8)]
                    threads += [threading.Thread(target=reader, args=(base, reference, s)) for s in (1, 7, 13, 101)]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(timeout=60)
                    assert not any(t.is_alive() for t in threads)
                    assert [base.digit_bound(i) for i in range(n)] == reference
        finally:
            sys.setswitchinterval(interval)
        assert not failures


def successive_division(value, radix):
    """Oracle: nonzero digits of value by dividing by radix(0), radix(1), ... in turn."""
    out = []
    i = 0
    while value:
        value, d = divmod(value, radix(i))
        if d:
            out.append((i, d))
        i += 1
    return out


class TestChunkTable:
    def test_encodes_under_concurrent_growth(self):
        cases = [
            (bs.factorial, lambda i: i + 2),
            (lambda: bs.make_mixed_radix([2, 5, 11], cyclic=True), lambda i: (3, 6, 12)[i % 3]),
        ]
        failures = []

        def encoder(base, radix, bits, step):
            try:
                while bits < 2_500:
                    value = (1 << bits) + bits * 7919  # zero runs between a few nonzero digits
                    entries = successive_division(value, radix)
                    if decode(Representation(base, tuple(entries))) != value:  # may grow the table first
                        failures.append(("decoder", bits))
                    if list(encode_greedy(base, value).entries) != entries:
                        failures.append(("encoder", bits))
                    bits += step
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                for make, radix in cases:
                    base = make()
                    threads = [threading.Thread(target=encoder, args=(base, radix, k, 97 + 13 * k)) for k in range(10)]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(timeout=60)
                    assert not any(t.is_alive() for t in threads)
                    chunks = base._chunks  # the table as the encoders left it
                    covered, reach = base._cover
                    assert covered == sum(len(radices) for _, radices, _ in chunks)
                    assert [base.digit_bound(i) for i in range(covered)] == [radix(i) - 1 for i in range(covered)]
                    assert [r for _, radices, _ in chunks for r in radices] == [radix(i) for i in range(covered)]
                    assert all(product < 1 << sys.int_info.bits_per_digit for product, _, _ in chunks)
                    assert reach == math.prod(radix(i) for i in range(covered))  # w_covered: the least value not covered
        finally:
            sys.setswitchinterval(interval)
        assert not failures

    def test_encode_builds_no_term_past_the_top_position_plus_one(self):
        value = 10**1999 + 123456789
        top = 0
        while math.factorial(top + 2) <= value:
            top += 1
        terms_bytes = sum(sys.getsizeof(math.factorial(i + 1)) for i in range(top + 2))
        base = bs.factorial()
        tracemalloc.start()
        try:
            rep = encode_greedy(base, value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.top == top
        assert base._cache == []
        assert base._cover == (top + 1, math.factorial(top + 2))  # the radices through the top, and w_{top+1}
        assert sum(len(radices) for _, radices, _ in base._chunks) == top + 1
        assert [base.digit_bound(i) for i in range(top + 1)] == [i + 1 for i in range(top + 1)]
        assert peak < terms_bytes  # less than the terms up to w_{top+1} alone would hold


class TestBaseFile:
    def test_terms_file(self, tmp_path):
        path = tmp_path / "custom.terms"
        path.write_text("format=terms\n# a comment\n1\n2\n\n3\n")
        base = bs.load_base_file(path)
        assert base.capacity == 3
        assert [base.term(i) for i in range(3)] == [1, 2, 3]

    def test_bounds_file(self):
        base = bs.parse_base_file("format=bounds\n1\n2\n3\n")
        assert base.capacity == 4
        assert [base.term(i) for i in range(4)] == [1, 2, 6, 24]

    def test_bounds_cyclic_file(self):
        base = bs.parse_base_file("format=bounds cyclic\n9\n")
        assert base.capacity is None
        assert base.term(5) == 10**5

    def test_bad_header(self):
        with pytest.raises(InvalidParameter):
            bs.parse_base_file("format=weights\n1\n2\n")

    def test_bad_number(self):
        with pytest.raises(InvalidParameter):
            bs.parse_base_file("format=terms\n1\ntwo\n")

    def test_terms_not_starting_at_one(self):
        with pytest.raises(NotStartingAtOne):
            bs.parse_base_file("format=terms\n2\n3\n")

    def test_empty_file(self):
        with pytest.raises(InvalidParameter):
            bs.parse_base_file("")

    def test_line_beyond_int_str_limit_rejected(self):
        with pytest.raises(InvalidParameter):
            bs.parse_base_file("format=bounds\n" + "9" * 4400)


class TestReleasedWithoutTheCycleCollector:
    """A dropped base is freed by reference counting alone: nothing it holds refers back to it."""

    @pytest.mark.parametrize(
        "make, value",
        [
            pytest.param(bs.prime, 10**6 - 1, id="prime"),
            pytest.param(bs.square, 10**2000 + 1, id="square"),
            pytest.param(bs.factorial, 10**2000 + 1, id="factorial"),
            pytest.param(lambda: bs.power_of(10), 10**2000 + 1, id="power:10"),
            pytest.param(bs.fibonacci, 10**2000 + 1, id="fibonacci"),
            pytest.param(bs.lucas, 10**2000 + 1, id="lucas"),
            pytest.param(lambda: bs.make_mixed_radix([9, 5, 11, 1, 6], cyclic=True), 10**2000 + 1, id="cyclic-mixed-radix"),
            pytest.param(lambda: bs.make_mixed_radix([9] * 2001), 10**2001 + 10**2000, id="finite-mixed-radix"),
        ],
    )
    def test_dropped_base_is_freed(self, make, value):
        def grow(base):
            rep = encode_greedy(base, value)
            assert decode(rep) == value
            assert base.digit_bound(rep.top - 1) >= 1
            assert base.term(rep.top) <= value

        gc.disable()
        try:
            base = make()
            grow(base)
            ref = weakref.ref(base)
            del base
            assert ref() is None
        finally:
            gc.enable()
