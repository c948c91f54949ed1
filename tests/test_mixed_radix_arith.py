import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_digits import dense
from seqbase import base_sequences as bs
from seqbase.codec import Representation, decode, encode_greedy, is_canonical
from seqbase.digit_text import parse, render
from seqbase.errors import DivisionByZero, IndexBeyondCapacity, InvalidParameter, NotCanonical, Underflow
from seqbase.mixed_radix_arith import ArithTrace, add, divrem, is_pure_mixed_radix, mul, sub

FACTORIAL = bs.factorial()
PRIME = bs.prime()


def f(s):
    return parse(FACTORIAL, s)


class TestPurity:
    def test_factorial_is_pure(self):
        assert is_pure_mixed_radix(FACTORIAL, 20)

    def test_power_of_ten_is_pure(self):
        assert is_pure_mixed_radix(bs.power_of(10), 20)

    def test_prime_is_not_pure(self):
        # w_2 = 3 but (digit_bound(1) + 1) * w_1 = 4
        assert not is_pure_mixed_radix(PRIME, 4)

    def test_mixed_radix_is_pure(self):
        assert is_pure_mixed_radix(bs.make_mixed_radix([3, 1, 4], cyclic=True), 50)

    def test_product_bases_answer_without_reading_a_term(self):
        unbounded = [bs.power_of(10), bs.factorial(), bs.make_mixed_radix([3, 1, 4], cyclic=True)]
        finite = bs.make_mixed_radix([1, 2, 3, 4])  # weights 1, 2, 6, 24, 120: no w_5
        tracemalloc.start()
        try:
            assert all(is_pure_mixed_radix(base, 3000) for base in unbounded)
            assert [is_pure_mixed_radix(finite, upto) for upto in (1, 4, 5, 6)] == [True, True, False, False]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16  # the power:10 weights up to 10^3000 alone take 2 MB

    def test_other_bases_are_pure_below_their_second_weight(self):
        # w_0 = 1 gives t_0 = w_1 - 1, so every base is pure at upto 1; none of these at upto 2
        for base in (bs.prime(), bs.square(), bs.m_power(3), bs.fibonacci(), bs.lucas()):
            assert [is_pure_mixed_radix(base, upto) for upto in (1, 2)] == [True, False], base.name
        # 1, 2, 4 is binary; w_3 = 7 is not 2 * 4, and there is no w_4
        explicit = bs.make_explicit([1, 2, 4, 7])
        assert [is_pure_mixed_radix(explicit, upto) for upto in (1, 2, 3, 4)] == [True, True, False, False]
        assert not is_pure_mixed_radix(bs.make_explicit([1]), 1)  # no w_1
        trace = ArithTrace()
        assert decode(add(encode_greedy(PRIME, 1), encode_greedy(PRIME, 1), trace=trace)) == 2
        assert trace.path == "digitwise"

    def test_purity_reads_no_term(self, monkeypatch):
        def no_term(i):
            raise AssertionError(f"purity read term {i}")

        answers = [
            (bs.prime(), (True, False)),
            (bs.square(), (True, False)),
            (bs.m_power(3), (True, False)),
            (bs.fibonacci(), (True, False)),
            (bs.lucas(), (True, False)),
            (bs.make_explicit([1, 2, 4, 7]), (True, True, False, False)),
            (bs.make_explicit([1]), (False,)),
            (bs.factorial(), (True, True, True)),
            (bs.power_of(10), (True, True, True)),
            (bs.make_mixed_radix([3, 1, 4], cyclic=True), (True, True, True)),
            (bs.make_mixed_radix([1, 2, 3, 4]), (True, True, True, True, False, False)),
        ]
        for base, expected in answers:
            monkeypatch.setattr(base, "_term", no_term)
            assert tuple(is_pure_mixed_radix(base, upto) for upto in range(1, len(expected) + 1)) == expected, base.name

    def test_upto_must_be_positive(self):
        with pytest.raises(InvalidParameter):
            is_pure_mixed_radix(FACTORIAL, 0)


class TestWorkedExamples:
    def test_addition(self):
        trace = ArithTrace()
        result = add(f("210"), f("221"), trace=trace)
        assert render(result) == "1101"
        assert trace.path == "digitwise"
        # 0+1 in radix 2, then 1+2 = write 0 carry 1 in radix 3, then 2+2+1 in radix 4
        assert trace.events[0] == "pos 0 (radix 2): 0+1+0 -> digit 1 carry 0"
        assert trace.events[1] == "pos 1 (radix 3): 1+2+0 -> digit 0 carry 1"
        assert trace.events[2] == "pos 2 (radix 4): 2+2+1 -> digit 1 carry 1"

    def test_subtraction_borrow_chain(self):
        trace = ArithTrace()
        result = sub(f("1001"), f("320"), trace=trace)
        assert render(result) == "11"
        assert trace.path == "digitwise"
        assert trace.states == ["1001", "0401", "0331"]

    def test_add_carry_extends_top(self):
        assert render(add(f("321"), f("1"))) == "1000"  # 23 + 1 = 24


class TestIdentities:
    @pytest.mark.parametrize("s", ["0", "1", "21", "1101", "321"])
    def test_add_zero(self, s):
        zero = f("0")
        assert add(f(s), zero) == f(s)
        assert add(zero, f(s)) == f(s)

    @pytest.mark.parametrize("s", ["0", "1", "21", "1101"])
    def test_sub_zero_and_self(self, s):
        assert sub(f(s), f("0")) == f(s)
        assert render(sub(f(s), f(s))) == "0"

    @pytest.mark.parametrize("s", ["0", "1", "21", "1101"])
    def test_mul_one(self, s):
        assert mul(f(s), f("1")) == f(s)

    def test_mul_example(self):
        assert render(mul(f("10"), f("11"))) == "100"  # 2 * 3 = 6

    def test_divrem_example(self):
        q, r = divrem(f("1101"), f("21"))  # 31 = 6*5 + 1
        assert render(q) == "100"
        assert render(r) == "1"


class TestErrors:
    def test_underflow(self):
        with pytest.raises(Underflow):
            sub(f("11"), f("1001"))
        with pytest.raises(Underflow):
            sub(f("210"), f("221"))

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            divrem(f("1101"), f("0"))

    def test_non_canonical_operand_rejected(self):
        crooked = Representation.from_digits(PRIME, [1, 1])  # 3, but not greedy
        good = encode_greedy(PRIME, 2)
        with pytest.raises(NotCanonical):
            add(crooked, good)
        with pytest.raises(NotCanonical):
            sub(good, crooked)

    def test_mismatched_bases_rejected(self):
        with pytest.raises(InvalidParameter):
            add(encode_greedy(PRIME, 3), encode_greedy(FACTORIAL, 3))


class TestFallback:
    def test_prime_add_uses_decode_path(self):
        trace = ArithTrace()
        result = add(encode_greedy(PRIME, 3), encode_greedy(PRIME, 2), trace=trace)
        assert trace.path == "decode"
        assert render(result) == "1000"  # 5 is a weight of its own

    def test_square_sub_uses_decode_path(self):
        sq = bs.square()
        trace = ArithTrace()
        result = sub(encode_greedy(sq, 24), encode_greedy(sq, 8), trace=trace)
        assert trace.path == "decode"
        assert decode(result) == 16

    def test_finite_base_top_term_add_falls_back(self):
        base = bs.make_mixed_radix([1, 2])  # weights 1, 2, 6; values cap at 11
        trace = ArithTrace()
        result = add(encode_greedy(base, 5), encode_greedy(base, 6), trace=trace)
        assert trace.path == "decode"
        assert decode(result) == 11

    def test_paths_agree_on_pure_base(self):
        ten = bs.power_of(10)
        for vx, vy in [(1, 9), (123, 877), (999, 999), (100000, 1)]:
            trace = ArithTrace()
            got = add(encode_greedy(ten, vx), encode_greedy(ten, vy), trace=trace)
            assert got == encode_greedy(ten, vx + vy)
            assert trace.path == "digitwise"

    def test_zero_plus_zero_short_circuits(self):
        ten = bs.power_of(10)
        trace = ArithTrace()
        assert render(add(encode_greedy(ten, 0), encode_greedy(ten, 0), trace=trace)) == "0"
        assert trace.path == "decode"  # no digit positions to walk


class TestOracleEquivalence:
    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    @settings(max_examples=300, deadline=None)
    def test_add_matches_value_oracle(self, vx, vy):
        x, y = encode_greedy(FACTORIAL, vx), encode_greedy(FACTORIAL, vy)
        assert add(x, y) == encode_greedy(FACTORIAL, vx + vy)

    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    @settings(max_examples=300, deadline=None)
    def test_sub_matches_value_oracle(self, vx, vy):
        if vx < vy:
            vx, vy = vy, vx
        x, y = encode_greedy(FACTORIAL, vx), encode_greedy(FACTORIAL, vy)
        assert sub(x, y) == encode_greedy(FACTORIAL, vx - vy)

    @given(st.integers(0, 10**6), st.integers(1, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_divrem_law(self, vx, vy):
        x, y = encode_greedy(FACTORIAL, vx), encode_greedy(FACTORIAL, vy)
        q, r = divrem(x, y)
        assert decode(q) * vy + decode(r) == vx
        assert decode(r) < vy

    @given(st.integers(0, 10**8), st.integers(0, 10**8), st.integers(0, 10**8))
    @settings(max_examples=150, deadline=None)
    def test_add_commutative_associative(self, a, b, c):
        ra, rb, rc = (encode_greedy(FACTORIAL, v) for v in (a, b, c))
        assert add(ra, rb) == add(rb, ra)
        assert add(add(ra, rb), rc) == add(ra, add(rb, rc))
        assert sub(add(ra, rb), rb) == ra


class TestCarryLocality:
    def test_carry_never_exceeds_one(self):
        rng = random.Random(1234)
        for _ in range(500):
            vx, vy = rng.randint(0, 10**9), rng.randint(0, 10**9)
            trace = ArithTrace()
            add(encode_greedy(FACTORIAL, vx), encode_greedy(FACTORIAL, vy), trace=trace)
            assert trace.path == "digitwise"
            for line in trace.events:
                assert line.endswith("carry 0") or line.endswith("carry 1")


POWER_TEN = bs.power_of(10)
CYCLIC = bs.make_mixed_radix([3, 1, 4], cyclic=True)
FINITE = bs.make_mixed_radix([1, 2, 3, 4])  # weights 1, 2, 6, 24, 120
FINITE_MAX = FINITE.max_encodable()  # 120 + 119 = 239

# an unbounded pure base and the range its operands are drawn from
UNBOUNDED = [(FACTORIAL, 10**9), (POWER_TEN, 10**30), (CYCLIC, 10**30)]


def state_digits(state):
    """Little-endian digits of a borrow-chain state string."""
    return [int(t) for t in (state.split(".") if "." in state else state)][::-1]


def check_carry_walk(trace, x, y, result):
    """The carry walk's digits, plus its final carry, spell the sum it came with."""
    if trace.path != "digitwise":
        return
    assert len(trace.events) == max(x.top, y.top) + 1
    digits = [int(line.split("-> digit ")[1].split()[0]) for line in trace.events]
    carry = int(trace.events[-1].rsplit("carry ", 1)[1])
    assert tuple(digits + [carry] * bool(carry)) == dense(result)


def check_borrow_walk(trace, x, y, result):
    """The borrow walk's last state, less the subtrahend, is the difference it came with."""
    if trace.path != "digitwise":
        return
    assert state_digits(trace.states[0]) == list(dense(x))
    work = state_digits(trace.states[-1])
    b = list(dense(y)) + [0] * (len(work) - len(dense(y)))
    diff = [w - d for w, d in zip(work, b)]
    assert min(diff) >= 0
    while diff and diff[-1] == 0:
        diff.pop()
    assert tuple(diff) == dense(result)


class TestOracleEquivalenceBeyondFactorial:
    @pytest.mark.parametrize("base, hi", UNBOUNDED[1:], ids=["power10", "cyclic"])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_add_matches_value_oracle(self, base, hi, data):
        vx, vy = data.draw(st.integers(0, hi)), data.draw(st.integers(0, hi))
        assert add(encode_greedy(base, vx), encode_greedy(base, vy)) == encode_greedy(base, vx + vy)

    @pytest.mark.parametrize("base, hi", UNBOUNDED[1:], ids=["power10", "cyclic"])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_sub_matches_value_oracle(self, base, hi, data):
        vx, vy = sorted((data.draw(st.integers(0, hi)), data.draw(st.integers(0, hi))), reverse=True)
        assert sub(encode_greedy(base, vx), encode_greedy(base, vy)) == encode_greedy(base, vx - vy)

    def test_finite_base_add_near_capacity(self):
        # every pair near the top: the sum is encoded while it fits, IndexBeyondCapacity past it
        for vx in range(FINITE_MAX - 130, FINITE_MAX + 1):
            for vy in range(0, FINITE_MAX + 1, 7):
                x, y = encode_greedy(FINITE, vx), encode_greedy(FINITE, vy)
                if vx + vy > FINITE_MAX:
                    with pytest.raises(IndexBeyondCapacity):
                        add(x, y)
                else:
                    assert add(x, y) == encode_greedy(FINITE, vx + vy)

    def test_finite_base_sub_near_capacity(self):
        for vx in range(FINITE_MAX - 130, FINITE_MAX + 1):
            for vy in range(0, FINITE_MAX + 1, 7):
                x, y = encode_greedy(FINITE, vx), encode_greedy(FINITE, vy)
                if vy > vx:
                    with pytest.raises(Underflow):
                        sub(x, y)
                else:
                    assert sub(x, y) == encode_greedy(FINITE, vx - vy)


class TestTraceWalkMatchesResult:
    @pytest.mark.parametrize("base, hi", UNBOUNDED, ids=["factorial", "power10", "cyclic"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_walks_on_unbounded_bases(self, base, hi, data):
        vx, vy = sorted((data.draw(st.integers(0, hi)), data.draw(st.integers(0, hi))), reverse=True)
        x, y = encode_greedy(base, vx), encode_greedy(base, vy)
        for op, check in ((add, check_carry_walk), (sub, check_borrow_walk)):
            trace = ArithTrace()
            result = op(x, y, trace=trace)
            assert trace.path == ("digitwise" if vx else "decode")
            check(trace, x, y, result)

    def test_walks_on_finite_base(self):
        walked = 0
        for vx in range(FINITE_MAX + 1):
            for vy in range(0, min(vx, FINITE_MAX - vx) + 1, 3):
                x, y = encode_greedy(FINITE, vx), encode_greedy(FINITE, vy)
                for op, check in ((add, check_carry_walk), (sub, check_borrow_walk)):
                    trace = ArithTrace()
                    check(trace, x, y, op(x, y, trace=trace))
                    walked += trace.path == "digitwise"
        assert walked > 1000


class TestOperandsPastFiniteCapacity:
    """make_mixed_radix([1, 2, 3, 4]): weights 1, 2, 6, 24, 120; max_encodable 1 + 4 + 18 + 96 + 120 = 239."""

    BASE = bs.make_mixed_radix([1, 2, 3, 4])

    def test_top_digit_two_is_not_canonical(self):
        top = Representation.from_digits(self.BASE, [1, 2, 3, 4, 1])
        over = Representation.from_digits(self.BASE, [0, 0, 0, 0, 2])
        zero = Representation(self.BASE)
        assert (decode(top), decode(over)) == (239, 240)
        assert is_canonical(top)
        assert not is_canonical(over)
        assert dense(add(top, zero)) == (1, 2, 3, 4, 1)
        assert dense(sub(top, zero)) == (1, 2, 3, 4, 1)
        for op in (add, sub):
            for x, y in ((over, zero), (top, over)):
                with pytest.raises(NotCanonical):
                    op(x, y)

    def test_entry_past_last_position_is_not_canonical(self):
        past = Representation(self.BASE, ((5, 1),))
        zero = Representation(self.BASE)
        assert not is_canonical(past)
        for op in (add, sub):
            with pytest.raises(NotCanonical):
                op(past, zero)
