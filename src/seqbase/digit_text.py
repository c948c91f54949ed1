"""Digit-string rendering and parsing, plus sequential tables.

Two disjoint surface languages: compact (one character per digit, digits
0-9 only) and delimited (decimal fields joined by a separator).  Auto picks
compact when every digit fits a character, delimited otherwise; a delimited
single field is prefixed with the separator so the two grammars never
collide.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base_sequences import BaseSequence
from .codec import Representation, encode_greedy
from .errors import (
    CompactOverflow,
    DigitOutOfRange,
    DigitSyntaxError,
    IndexBeyondCapacity,
    InvalidParameter,
    LeadingZero,
)


@dataclass(frozen=True)
class RenderFormat:
    """Serialization choice for digit vectors."""

    mode: str = "auto"  # "compact" | "delimited" | "auto"
    separator: str = "."

    def __post_init__(self):
        if self.mode not in ("compact", "delimited", "auto"):
            raise InvalidParameter(f"unknown render mode {self.mode!r}")
        if len(self.separator) != 1 or self.separator.isdigit():
            raise InvalidParameter(
                f"separator must be a single non-digit character, got {self.separator!r}"
            )


COMPACT = RenderFormat("compact")
AUTO = RenderFormat("auto")


def delimited(separator: str = ".") -> RenderFormat:
    return RenderFormat("delimited", separator)


def render(rep: Representation, fmt: RenderFormat = AUTO) -> str:
    """Digit string of a representation, most significant digit first."""
    if not rep.entries:
        return "0"
    msd_first = rep.digits[::-1]
    largest = max(d for _, d in rep.entries)
    mode = fmt.mode
    if mode == "auto":
        mode = "compact" if largest <= 9 else "delimited"
    if mode == "compact":
        if largest > 9:
            raise CompactOverflow(f"digit {largest} cannot be a single character")
        return "".join(str(d) for d in msd_first)
    if len(msd_first) == 1:
        # single field: separator prefix keeps the delimited language disjoint
        return fmt.separator + str(msd_first[0])
    return fmt.separator.join(str(d) for d in msd_first)


def parse(base: BaseSequence, s: str, fmt: RenderFormat = AUTO) -> Representation:
    """Inverse of render; digits are validated against the base's bounds."""
    if not s:
        raise DigitSyntaxError("empty digit string")
    mode = fmt.mode
    if mode == "auto":
        mode = "delimited" if fmt.separator in s else "compact"
    if s == "0":
        return Representation(base)
    if mode == "compact":
        msd_first = _compact_fields(s)
    else:
        msd_first = _delimited_fields(s, fmt.separator)
    return _validated(base, msd_first)


def _compact_fields(s: str) -> list[int]:
    if not (s.isascii() and s.isdigit()):
        raise DigitSyntaxError(f"invalid compact digit string {s!r}")
    if s[0] == "0":
        raise LeadingZero(f"leading zero in {s!r}")
    return [int(c) for c in s]


def _delimited_fields(s: str, sep: str) -> list[int]:
    if s.startswith(sep):
        rest = s[1:]
        if sep in rest:
            raise DigitSyntaxError(f"separator-prefixed string must hold one field: {s!r}")
        fields = [rest]
    else:
        fields = s.split(sep)
        if len(fields) < 2:
            raise DigitSyntaxError(f"no separator {sep!r} in delimited string {s!r}")
    values = []
    for f in fields:
        if not f:
            raise DigitSyntaxError(f"empty digit field in {s!r}")
        if not (f.isascii() and f.isdigit()):
            raise DigitSyntaxError(f"invalid digit field {f!r}")
        if len(f) > 1 and f[0] == "0":
            raise LeadingZero(f"leading zero in field {f!r}")
        try:
            values.append(int(f))
        except ValueError:  # the interpreter's int/str conversion limit
            raise DigitSyntaxError(f"a {len(f)}-digit field exceeds the integer conversion limit") from None
    if values[0] == 0:
        raise LeadingZero(f"most significant digit is zero in {s!r}")
    return values


def _validated(base: BaseSequence, msd_first: list[int]) -> Representation:
    digits = msd_first[::-1]
    cap = base.capacity
    for i, d in enumerate(digits):
        if not d:
            continue
        if cap is not None:
            if i >= cap:
                raise IndexBeyondCapacity(
                    f"digit at position {i} but base {base.name} has {cap} terms"
                )
            if i == cap - 1:
                continue  # top term of a finite base carries no digit bound
        bound = base.digit_bound(i)
        if d > bound:
            raise DigitOutOfRange(
                i, f"digit {d} at position {i} exceeds bound {bound} in base {base.name}"
            )
    return Representation.from_digits(base, digits)


def table(base: BaseSequence, lo: int, hi: int, fmt: RenderFormat = AUTO) -> list[str]:
    """Rendered representations of every value in [lo, hi]."""
    if lo < 0:
        raise InvalidParameter(f"table start must be >= 0, got {lo}")
    if lo > hi:
        raise InvalidParameter(f"empty table range [{lo}, {hi}]")
    return [render(encode_greedy(base, v), fmt) for v in range(lo, hi + 1)]
