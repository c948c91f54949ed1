import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbase import base_sequences as bs
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


class TestBuiltinFamilies:
    def test_prime_terms_match_sieve(self, prime_base):
        oracle = [1] + sieve_primes(110_000)
        got = [prime_base.term(i) for i in range(10_001)]
        assert got == oracle[: 10_001]

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
        base = bs.make_mixed_radix(bs.MixedRadixSpec.constant(9))
        assert [base.term(i) for i in range(4)] == [1, 10, 100, 1000]
        assert base.capacity is None

    def test_binary_weights_from_constant_one(self):
        base = bs.make_mixed_radix(bs.MixedRadixSpec.constant(1))
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
            bs.MixedRadixSpec(())

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
