"""Greedy digit encoding over weight sequences, with canonical-form checks.

A representation is canonical exactly when it is what the greedy algorithm
produces: every prefix value (the sum of digits below a position, weighted)
stays strictly below that position's weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .base_sequences import BaseSequence
from .errors import IndexBeyondCapacity, InvalidParameter


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
        """Dense little-endian digit vector (empty for zero)."""
        if not self.entries:
            return ()
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
    entries: list[tuple[int, int]] = []
    rest = value
    while rest:
        i, w = base.superior_part(rest)
        d, rest = divmod(rest, w)
        entries.append((i, d))
    entries.reverse()
    return entries


def encode_greedy(base: BaseSequence, value: int) -> Representation:
    """Greedy digits of a nonnegative integer.

    Repeatedly removes the largest weight not exceeding the rest; the digit
    at position i counts how often w_i was removed.  The result is the
    unique canonical form of the value.
    """
    return Representation(base, tuple(_greedy_entries(base, value)))


def decode(rep: Representation) -> int:
    """Value of a representation: the digit-weighted sum.

    Accepts any digit vector, canonical or not, so it can serve as the
    arithmetic oracle.
    """
    term = rep.base.term
    return sum(d * term(i) for i, d in rep.entries)


def digits_value(base: BaseSequence, digits: Iterable[int]) -> int:
    """Value of a raw little-endian digit vector (no bound or canonicity checks)."""
    term = base.term
    return sum(d * term(i) for i, d in enumerate(digits) if d)


def _entries_canonical(base: BaseSequence, entries) -> bool:
    if not entries:
        return True
    cap = base.capacity
    term = base.term
    if cap is not None:
        if entries[-1][0] >= cap:
            return False
        value = sum(d * term(i) for i, d in entries)
        if value > base.max_encodable():
            return False
    running = 0
    for i, d in entries:
        running += d * term(i)
        if cap is not None and i + 1 >= cap:
            continue  # top term of a finite base: no successor weight to test against
        if running >= term(i + 1):
            return False
    return True


def is_canonical(rep: Representation) -> bool:
    """True iff the digits are exactly what encode_greedy yields for their value."""
    return _entries_canonical(rep.base, rep.entries)


def expansion_superior_parts(base: BaseSequence, value: int) -> list[int]:
    """Terms removed by iterating the largest-weight rule, largest first.

    The list is non-increasing, sums to the value, and as a multiset equals
    the weighted digits of encode_greedy: each position contributes its
    weight once per unit of its digit.
    """
    term = base.term
    return [term(i) for i, d in reversed(_greedy_entries(base, value)) for _ in range(d)]


def verify_range(base: BaseSequence, lo: int, hi: int) -> VerificationReport:
    """Check round-trip, digit bounds, and canonicity for every value in [lo, hi]."""
    if lo < 0:
        raise InvalidParameter(f"range start must be >= 0, got {lo}")
    if lo > hi:
        raise InvalidParameter(f"empty range [{lo}, {hi}]")
    report = VerificationReport(lo, hi)
    term = base.term
    bound = base.digit_bound
    cap = base.capacity
    for value in range(lo, hi + 1):
        ok = True
        entries = _greedy_entries(base, value)
        if sum(d * term(i) for i, d in entries) != value:
            report.roundtrip_failures += 1
            ok = False
        for i, d in entries:
            if cap is not None and i + 1 >= cap:
                continue
            if d > bound(i):
                report.bound_violations += 1
                ok = False
                break
        if not _entries_canonical(base, entries):
            report.canonicity_violations += 1
            ok = False
        if not ok and report.first_failure is None:
            report.first_failure = value
    return report
