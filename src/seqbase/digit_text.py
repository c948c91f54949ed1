"""Digit-string rendering and parsing, plus sequential tables.

Two disjoint surface languages: compact (one character per digit, digits
0-9 only) and delimited (decimal fields joined by a separator).  Auto picks
compact when every digit fits a character, delimited otherwise; a delimited
single field is prefixed with the separator so the two grammars never
collide.

Parsing does its per-digit work at the nonzero positions only: the
prime, square and m-power bases write a modest number as a long string of
mostly zeros.  It builds the (position, digit) entries straight from the
string, with no dense digit vector, and has the codec's digit-word check
(`codec._check_digits`) test those entries, lowest first.
Rendering still writes every position: a cheaper renderer waits for a
wall-time cap on the benchmark's unclocked output checks (ROADMAP item 1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .base_sequences import BaseSequence, _check_int
from .codec import Representation, _check_digits, encode_greedy
from .errors import (
    CompactOverflow,
    DigitSyntaxError,
    IndexBeyondCapacity,
    InvalidParameter,
    LeadingZero,
)

_NONZERO = re.compile("[1-9]")

_WRITE_LIMIT = 10**7  # most positions a written digit string may have


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
    digits = _dense(rep, rep.top + 1)
    largest = max(d for _, d in rep.entries)
    if fmt.mode == "compact" and largest > 9:
        raise CompactOverflow(f"digit {largest} cannot be a single character")
    return _spell(digits, fmt.separator, fmt.mode == "compact" or (fmt.mode == "auto" and largest <= 9))


def _dense(rep: Representation, width: int) -> list[int]:
    """Digits 0 .. width - 1 from the entries; past 10^7 positions the string would be too long to write."""
    if width > _WRITE_LIMIT:
        raise IndexBeyondCapacity(f"a digit string of more than {_WRITE_LIMIT} positions is too long to write")
    digits = [0] * width
    for pos, d in rep.entries:
        digits[pos] = d
    return digits


def _spell(digits: list[int], sep: str = ".", compact: bool | None = None) -> str:
    """Little-endian digits, most significant first, as render writes them; compact by default if all are <= 9."""
    msd_first = digits[::-1]
    if compact is None:
        compact = max(digits) <= 9
    if compact:
        return "".join(str(d) for d in msd_first)
    if len(msd_first) == 1:
        return sep + str(msd_first[0])
    return sep.join(str(d) for d in msd_first)


def parse(base: BaseSequence, s: str, fmt: RenderFormat = AUTO) -> Representation:
    """Inverse of render; digits are validated against the base's bounds.

    The whole string's syntax is checked first (a delimited string field
    by field, most significant first).  The (position, digit) entries of
    the nonzero digits are read straight from the string, with no dense
    digit vector, and the codec's `_check_digits` checks their positions
    and bounds, lowest position first.
    """
    if not s:
        raise DigitSyntaxError("empty digit string")
    mode = fmt.mode
    if mode == "auto":
        mode = "delimited" if fmt.separator in s else "compact"
    if s == "0":
        return Representation(base)
    if mode == "compact":
        entries = _compact_entries(s)
    else:
        entries = _delimited_entries(s, fmt.separator)
    _check_digits(base, entries)
    return Representation(base, tuple(entries))


def _compact_entries(s: str) -> list[tuple[int, int]]:
    if not (s.isascii() and s.isdigit()):
        raise DigitSyntaxError(f"invalid compact digit string {s!r}")
    if s[0] == "0":
        raise LeadingZero(f"leading zero in {s!r}")
    top = len(s) - 1
    return [(top - m.start(), int(m.group())) for m in _NONZERO.finditer(s)][::-1]


def _delimited_entries(s: str, sep: str) -> list[tuple[int, int]]:
    if s.startswith(sep):
        rest = s[1:]
        if sep in rest:
            raise DigitSyntaxError(f"separator-prefixed string must hold one field: {s!r}")
        fields = [rest]
    else:
        fields = s.split(sep)
        if len(fields) < 2:
            raise DigitSyntaxError(f"no separator {sep!r} in delimited string {s!r}")
    top = len(fields) - 1
    entries = []
    for k, f in enumerate(fields):
        if not f:
            raise DigitSyntaxError(f"empty digit field in {s!r}")
        if not (f.isascii() and f.isdigit()):
            raise DigitSyntaxError(f"invalid digit field {f!r}")
        if len(f) > 1 and f[0] == "0":
            raise LeadingZero(f"leading zero in field {f!r}")
        if f != "0":
            try:
                entries.append((top - k, int(f)))
            except ValueError:  # the interpreter's int/str conversion limit
                raise DigitSyntaxError(f"a {len(f)}-digit field exceeds the integer conversion limit") from None
    if fields[0] == "0":
        raise LeadingZero(f"most significant digit is zero in {s!r}")
    entries.reverse()
    return entries


def table(base: BaseSequence, lo: int, hi: int, fmt: RenderFormat = AUTO) -> list[str]:
    """Rendered representations of every value in [lo, hi]."""
    _check_int("table range ends", lo, hi)
    if lo < 0:
        raise InvalidParameter(f"table start must be >= 0, got {lo}")
    if lo > hi:
        raise InvalidParameter(f"empty table range [{lo}, {hi}]")
    return [render(encode_greedy(base, v), fmt) for v in range(lo, hi + 1)]
