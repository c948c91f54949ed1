"""Greedy digit encoding over weight sequences, with canonical-form checks.

A representation is canonical exactly when it is what the greedy algorithm
produces: every prefix value (the sum of digits below a position, weighted)
stays strictly below that position's weight.

In a product base, w_{i+1} = r_i * w_i, the greedy digits are the
remainders of successive division by r_0, r_1, ...  Encoding there divides
by chunks of radices whose product fits one CPython limb, the
single-precision radix conversion of Knuth (TAOCP vol. 2, 4.4): the
interpreter divides a big integer by a one-limb divisor in one linear pass,
so a chunk of several digits costs one pass, where dividing by the big
weight w_i costs a long division per digit and one radix at a time a pass
per digit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .base_sequences import BaseSequence, _RadixSequence
from .errors import IndexBeyondCapacity, InvalidParameter

_DENSE_LIMIT = 10**7  # most positions a dense digit vector may have


@dataclass(frozen=True)
class Representation:
    """Digit vector over a BaseSequence, stored sparsely as (position, digit) pairs.

    Positions ascend and stored digits are nonzero, so the most significant
    digit is always >= 1.  The empty representation is the number 0.
    """

    base: BaseSequence
    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        last = -1
        for pos, d in self.entries:
            if pos <= last:
                raise InvalidParameter("entry positions must strictly ascend")
            if d < 1:
                raise InvalidParameter(f"stored digits must be >= 1, got {d} at {pos}")
            last = pos

    @classmethod
    def from_digits(cls, base: BaseSequence, digits: Iterable[int]) -> "Representation":
        """Build from a little-endian digit vector; trailing zeros are dropped."""
        entries = []
        for i, d in enumerate(digits):
            if d < 0:
                raise InvalidParameter(f"digits must be >= 0, got {d} at position {i}")
            if d:
                entries.append((i, d))
        return cls(base, tuple(entries))

    @cached_property
    def digits(self) -> tuple[int, ...]:
        """Dense little-endian digit vector (empty for zero).

        A vector of more than 10^7 positions is refused with
        IndexBeyondCapacity: a closed-form base can encode a value whose top
        position is far too high to spell out digit by digit.
        """
        if not self.entries:
            return ()
        if self.entries[-1][0] >= _DENSE_LIMIT:
            raise IndexBeyondCapacity(
                f"a digit vector of more than {_DENSE_LIMIT} positions is too wide to build"
            )
        dense = [0] * (self.entries[-1][0] + 1)
        for pos, d in self.entries:
            dense[pos] = d
        return tuple(dense)

    @property
    def top(self) -> int:
        """Highest digit position, or -1 for zero."""
        return self.entries[-1][0] if self.entries else -1

    def digit(self, i: int) -> int:
        for pos, d in self.entries:
            if pos == i:
                return d
            if pos > i:
                break
        return 0

    def __bool__(self) -> bool:
        return bool(self.entries)


@dataclass
class VerificationReport:
    """Aggregated result of checking a value range against the codec laws."""

    lo: int
    hi: int
    roundtrip_failures: int = 0
    bound_violations: int = 0
    canonicity_violations: int = 0
    first_failure: int | None = None

    @property
    def passed(self) -> bool:
        return (
            self.roundtrip_failures == 0
            and self.bound_violations == 0
            and self.canonicity_violations == 0
        )

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{status} range [{self.lo}, {self.hi}]:"
            f" roundtrip_failures={self.roundtrip_failures}"
            f" bound_violations={self.bound_violations}"
            f" canonicity_violations={self.canonicity_violations}"
        )
        if self.first_failure is not None:
            line += f" first_failure={self.first_failure}"
        return line


def _check_encodable(base: BaseSequence, value: int) -> None:
    limit = base.max_encodable()
    if limit is not None and value > limit:
        raise IndexBeyondCapacity(
            f"{value} exceeds the largest encodable value {limit} of base {base.name}"
        )


def _greedy_entries(base: BaseSequence, value: int) -> list[tuple[int, int]]:
    if value < 0:
        raise InvalidParameter(f"cannot encode a negative value: {value}")
    _check_encodable(base, value)
    if not value:
        return []
    if isinstance(base, _RadixSequence):
        return _radix_entries(base, value)
    i, wi = base.superior_part(value)
    w = base._cache  # the terms the base holds now, perhaps none
    reach = w[-1] if w else 0
    entries: list[tuple[int, int]] = []
    rest = value
    while True:
        d, rest = divmod(rest, wi)
        entries.append((i, d))
        if not rest:
            break
        if rest < reach:  # the held terms reach past rest
            i = bisect_right(w, rest) - 1
            wi = w[i]
        else:
            i, wi = base.superior_part(rest)
    entries.reverse()
    return entries


def _radix_entries(base: _RadixSequence, value: int) -> list[tuple[int, int]]:
    """Greedy digits of value >= 1 in a product base: remainders of dividing by r_0, r_1, ..."""
    chunks, top_term = base._chunks_for(value)
    entries: list[tuple[int, int]] = []
    q = value
    pos = 0
    for product, radices in chunks:
        q, rest = divmod(q, product)  # one pass over q, unless one radix is a limb or more
        i = pos
        while rest:  # the chunk's digits above the highest nonzero one are zero
            rest, d = divmod(rest, radices[i - pos])
            if d:
                entries.append((i, d))
            i += 1
        if not q:
            break
        pos += len(radices)
    if top_term is not None:  # what the radices leave is the top term's digit
        entries.append((top_term, q))
    return entries


def encode_greedy(base: BaseSequence, value: int) -> Representation:
    """Greedy digits of a nonnegative integer.

    Repeatedly removes the largest weight not exceeding the rest; the digit
    at position i counts how often w_i was removed.  The result is the
    unique canonical form of the value.

    In a product base (factorial, power-p, mixed radix) the digits are the
    remainders of dividing by r_0, r_1, ... in turn.  The loop divides by a
    chunk of radices at a time, a product below one CPython limb, so each
    pass over the big quotient is the interpreter's single-limb division,
    and splits the small remainder with machine-size divisions.  A superior
    part is taken only when the chunk table may not yet reach the top
    position.  In every other base one superior part finds the top
    position.  Below it, where the terms the base already holds reach past
    the rest, the loop bisects them; elsewhere it takes the superior part
    of the rest.  A closed-form base holds no term and takes a root per
    digit; a prime base holds the small primes every greedy tail ends in
    and the terms read so far, so neither builds a term to encode.  The
    work goes to the nonzero digits alone.
    """
    return Representation(base, tuple(_greedy_entries(base, value)))


def decode(rep: Representation) -> int:
    """Value of a representation: the digit-weighted sum.

    Accepts any digit vector, canonical or not, so it can serve as the
    arithmetic oracle.
    """
    if not rep.entries:
        return 0
    w = rep.base._terms_upto(rep.top)
    return sum(d * w[i] for i, d in rep.entries)


def digits_value(base: BaseSequence, digits: Iterable[int]) -> int:
    """Value of a raw little-endian digit vector (no bound or canonicity checks)."""
    return decode(Representation.from_digits(base, digits))


def _canonical_value(base: BaseSequence, entries) -> int | None:
    """The value of ascending (position, digit) entries if they are its greedy form, else None."""
    if not entries:
        return 0
    cap = base.capacity
    last = -1 if cap is None else cap - 1  # a finite base's top term has no successor to test against
    if cap is not None and entries[-1][0] > last:
        return None
    w: Sequence[int] = ()
    running = 0
    for i, d in entries:
        j = i if i == last else i + 1  # the highest weight this entry reads
        if j >= len(w):  # grow the table only as far as the entries get before one fails
            w = base._terms_upto(j)
        running += d * w[i]
        if i != last and running >= w[i + 1]:
            return None
    if cap is not None and running > base.max_encodable():
        return None
    return running


def is_canonical(rep: Representation) -> bool:
    """True iff the digits are exactly what encode_greedy yields for their value."""
    return _canonical_value(rep.base, rep.entries) is not None


def expansion_superior_parts(base: BaseSequence, value: int) -> list[int]:
    """Terms removed by iterating the largest-weight rule, largest first.

    The list is non-increasing, sums to the value, and as a multiset equals
    the weighted digits of encode_greedy: each position contributes its
    weight once per unit of its digit.
    """
    term = base.term
    return [term(i) for i, d in reversed(_greedy_entries(base, value)) for _ in range(d)]


def verify_range(base: BaseSequence, lo: int, hi: int) -> VerificationReport:
    """Check round-trip, digit bounds, and canonicity for every value in [lo, hi].

    A value whose greedy digits are not canonical counts as a canonicity
    violation; only canonical digits are decoded for the round trip.
    """
    if lo < 0:
        raise InvalidParameter(f"range start must be >= 0, got {lo}")
    if lo > hi:
        raise InvalidParameter(f"empty range [{lo}, {hi}]")
    report = VerificationReport(lo, hi)
    bound = base.digit_bound
    cap = base.capacity
    for value in range(lo, hi + 1):
        ok = True
        entries = _greedy_entries(base, value)
        back = _canonical_value(base, entries)
        if back is None:
            report.canonicity_violations += 1
            ok = False
        elif back != value:
            report.roundtrip_failures += 1
            ok = False
        for i, d in entries:
            if cap is not None and i + 1 >= cap:
                continue
            if d > bound(i):
                report.bound_violations += 1
                ok = False
                break
        if not ok and report.first_failure is None:
            report.first_failure = value
    return report
