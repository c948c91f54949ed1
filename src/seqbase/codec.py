"""Greedy digit encoding over weight sequences, with canonical-form checks.

A representation is canonical exactly when it is what the greedy algorithm
produces: every prefix value (the sum of digits below a position, weighted)
stays strictly below that position's weight.

This module keeps the contracts: the argument checks, the errors,
`Representation`, a number's sparse digits, and `_check_digits`, the one
home of the finite-capacity and digit-bound rule that `parse` and
`verify_range` apply.  The loops themselves are kernels of each base
family (`_greedy`, `_terms_at`, `_decode`, `_value_if_canonical` and
`_is_canonical` of `base_sequences.BaseSequence`), so the codec reaches
every family the same way and reads none of its tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .base_sequences import BaseSequence, _check_int
from .errors import DigitOutOfRange, IndexBeyondCapacity, InvalidParameter


@dataclass(frozen=True)
class Representation:
    """A number's digits over a BaseSequence, held only as its (position, digit) pairs of integers.

    Positions ascend and stored digits are nonzero, so the most significant
    digit is always >= 1; the empty representation is the number 0.  The
    entries may be any iterable of pairs and are held as a tuple of tuples,
    so equal digits compare equal and hash alike.
    """

    base: BaseSequence
    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        try:
            entries = tuple(self.entries)  # a tuple passes through uncopied
            if not _well_formed(entries):
                entries = tuple(map(tuple, entries))  # hold every pair as a tuple, then check again
                if not _well_formed(entries):
                    raise InvalidParameter("entries need integer positions that ascend and digits >= 1")
        except (TypeError, ValueError) as e:  # an entry that is not a (position, digit) pair
            raise InvalidParameter(f"entries must be (position, digit) pairs: {e}") from None
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_digits(cls, base: BaseSequence, digits: Iterable[int]) -> "Representation":
        """Build from a little-endian digit vector; zeros are dropped and a negative digit is refused."""
        return cls(base, tuple((i, d) for i, d in enumerate(digits) if d))

    @property
    def top(self) -> int:
        """Highest digit position, or -1 for zero."""
        return self.entries[-1][0] if self.entries else -1

    def __bool__(self) -> bool:
        return bool(self.entries)


def _well_formed(entries: tuple) -> bool:
    """True when every entry is a tuple of two integers, positions >= 0 strictly ascending and digits >= 1."""
    last = -1
    for pair in entries:
        pos, d = pair
        if not (type(pair) is tuple and isinstance(pos, int) and isinstance(d, int) and last < pos and d >= 1):
            return False
        last = pos
    return True


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
    _check_int("a value to encode", value)
    if value < 0:
        raise InvalidParameter(f"cannot encode a negative value: {value}")
    _check_encodable(base, value)
    return base._greedy(value) if value else []


def encode_greedy(base: BaseSequence, value: int) -> Representation:
    """Greedy digits of a nonnegative integer.

    Repeatedly removes the largest weight not exceeding the rest; the digit
    at position i counts how often w_i was removed.  The result is the
    unique canonical form of the value.

    Each family walks to the digits its own way.  In a product base
    (factorial, power-p, mixed radix) they are the remainders of dividing
    by r_0, r_1, ... in turn, a chunk of radices below one CPython limb at
    a time; the base asks a superior part only for a value past what its
    chunk table covers, and holds no weight but the one at the table's
    end.  In a Fibonacci or Lucas base the walk goes down from the top
    pair of weights by compare-and-subtract, stepping w_{i-1} =
    w_{i+1} - w_i and skipping the position below each digit 1.  In every
    other base the loop divides each rest by its superior part.  A square
    or m-power base holds no term and takes a root per digit; a prime or
    explicit base bisects the terms it holds once the rest is below the
    last of them, and a prime base holds the small primes every greedy
    tail ends in.  So no base builds a table of terms to encode.
    """
    return Representation(base, tuple(_greedy_entries(base, value)))


def decode(rep: Representation) -> int:
    """Value of a representation: the digit-weighted sum.

    Accepts any digit vector, canonical or not, so it can serve as the
    arithmetic oracle.
    """
    return rep.base._decode(rep.entries) if rep.entries else 0


def digits_value(base: BaseSequence, digits: Iterable[int]) -> int:
    """Value of a raw little-endian digit vector (no bound or canonicity checks)."""
    return decode(Representation.from_digits(base, digits))


def _canonical_value(base: BaseSequence, entries) -> int | None:
    """The value of ascending (position, digit) entries if they are its greedy form, else None."""
    return base._value_if_canonical(entries) if entries else 0


def is_canonical(rep: Representation) -> bool:
    """True iff the digits are exactly what encode_greedy yields for their value."""
    return not rep.entries or rep.base._is_canonical(rep.entries)


def _check_digits(base: BaseSequence, entries) -> None:
    """Raise at the lowest bad ascending entry: IndexBeyondCapacity past a finite base's top, else DigitOutOfRange.

    A finite base's top digit has no bound.  The loop settles what `digit_bound` checks, so it asks `_bound`.
    """
    last = None if base.capacity is None else base.capacity - 1  # a finite base's top position
    bound = base._bound
    for i, d in entries:
        if last is not None and i >= last:
            if i > last:
                raise IndexBeyondCapacity(f"digit at position {i} but base {base.name} has {last + 1} terms")
        elif d > bound(i):
            raise DigitOutOfRange(i, f"digit {d} at position {i} exceeds bound {bound(i)} in base {base.name}")


def expansion_superior_parts(base: BaseSequence, value: int) -> list[int]:
    """Terms removed by iterating the largest-weight rule, largest first.

    The list is non-increasing, sums to the value, and as a multiset equals
    the weighted digits of encode_greedy: each position contributes its
    weight once per unit of its digit.
    """
    entries = _greedy_entries(base, value)
    if not entries:
        return []
    terms = list(base._terms_at(entries))
    return [w for (_, d), w in zip(reversed(entries), reversed(terms)) for _ in range(d)]


def verify_range(base: BaseSequence, lo: int, hi: int) -> VerificationReport:
    """Check round-trip, digit bounds, and canonicity for every value in [lo, hi].

    A value whose greedy digits are not canonical counts as a canonicity
    violation; only canonical digits are decoded for the round trip.
    """
    _check_int("range ends", lo, hi)
    if lo < 0:
        raise InvalidParameter(f"range start must be >= 0, got {lo}")
    if lo > hi:
        raise InvalidParameter(f"empty range [{lo}, {hi}]")
    report = VerificationReport(lo, hi)
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
        try:
            _check_digits(base, entries)
        except DigitOutOfRange:
            report.bound_violations += 1
            ok = False
        if not ok and report.first_failure is None:
            report.first_failure = value
    return report
