"""Arithmetic on canonical representations, with the mixed-radix carry/borrow chain as a trace.

Every result comes from values: decode -> integer op -> re-encode.  A
canonical form is unique, so any digit rule gives the same digits.  In a
pure mixed-radix base (w_{i+1} = (t_i + 1) * w_i) position i adds and
subtracts at radix t_i + 1, so carries and borrows stay local; add and sub
walk that chain digit by digit only to fill a requested trace.  Other bases
(prime, square, ...), mul and divrem have no digit rule to show.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import digit_text
from .base_sequences import BaseSequence
from .codec import Representation, _canonical_value, encode_greedy
from .digit_text import _dense, _spell
from .errors import (
    DivisionByZero,
    IndexBeyondCapacity,
    InvalidParameter,
    NotCanonical,
    Underflow,
)


@dataclass
class ArithTrace:
    """Filled in when passed as the `trace` argument of an arithmetic op.

    `path` is "digitwise" when add or sub walked the carry/borrow chain of a
    pure mixed-radix base, and "decode" when there is no digit rule to walk.
    `events` holds one line per carry position or borrow; `states` holds the
    working digits after each single borrow transfer, starting with the
    untouched minuend, spelled by the renderer's rule with separator ".";
    states that together would pass the renderer's 10^7-character ceiling
    raise IndexBeyondCapacity.  The walk only records: the result always
    comes from the values.
    """

    path: str = ""
    events: list[str] = field(default_factory=list)
    states: list[str] = field(default_factory=list)


def is_pure_mixed_radix(base: BaseSequence, upto: int) -> bool:
    """True when w_{i+1} = (digit_bound(i) + 1) * w_i for every i < upto.

    That is, w_i divides w_{i+1} for i < upto and w_upto exists.  Each base
    sets the largest such upto, `_pure_upto`, when it is built, so no term
    is read: a product base's top position or infinity, an explicit base's
    first i where w_i does not divide w_{i+1} or its top position, and 1 for
    every other family, whose w_1 = t_0 + 1 does not divide w_2.
    """
    if upto < 1:
        raise InvalidParameter(f"upto must be >= 1, got {upto}")
    return upto <= base._pure_upto


def _operands(x: Representation, y: Representation) -> tuple[BaseSequence, int, int]:
    """The shared base and the values of two canonical operands."""
    if x.base != y.base:
        raise InvalidParameter(f"operands use different bases: {x.base.name} vs {y.base.name}")
    values = [_canonical_value(rep.base, rep.entries) for rep in (x, y)]
    if None in values:
        raise NotCanonical(f"operand is not canonical in base {x.base.name}")
    return x.base, *values


def add(x: Representation, y: Representation, trace: ArithTrace | None = None) -> Representation:
    """Canonical sum of two canonical representations, computed on their values.

    With a trace on a pure mixed-radix base, the carry chain is walked from
    the lowest position up and each position's carry is recorded.
    """
    base, vx, vy = _operands(x, y)
    if trace is not None:
        _walk_carries(base, x, y, trace)
    return encode_greedy(base, vx + vy)


def _walk_carries(base: BaseSequence, x: Representation, y: Representation, trace: ArithTrace) -> None:
    n = max(x.top, y.top)
    if n < 0 or not is_pure_mixed_radix(base, n + 1):
        trace.path = "decode"
        return
    trace.path = "digitwise"
    a = _dense(x, n + 1)
    b = _dense(y, n + 1)
    carry = 0
    for i in range(n + 1):
        radix = base.digit_bound(i) + 1
        carry_in = carry
        carry, d = divmod(a[i] + b[i] + carry_in, radix)
        trace.events.append(f"pos {i} (radix {radix}): {a[i]}+{b[i]}+{carry_in} -> digit {d} carry {carry}")


def sub(x: Representation, y: Representation, trace: ArithTrace | None = None) -> Representation:
    """Canonical difference x - y of canonical representations (x >= y), computed on their values.

    With a trace on a pure mixed-radix base, the borrow chain is walked: a
    failing position borrows from the nearest nonzero position to its left,
    each step moving one unit down and turning it into radix-many units of
    the next position, exactly the chain a hand calculation walks through.
    """
    base, vx, vy = _operands(x, y)
    if vy > vx:
        raise Underflow(f"{base.name}: subtrahend exceeds minuend")
    if trace is not None:
        _walk_borrows(base, x, y, trace)
    return encode_greedy(base, vx - vy)


def _walk_borrows(base: BaseSequence, x: Representation, y: Representation, trace: ArithTrace) -> None:
    n = x.top
    if n < 0 or n > base._pure_upto:  # borrows read the radices t_i + 1 below the top n only
        trace.path = "decode"
        return
    trace.path = "digitwise"
    work = _dense(x, n + 1)
    b = _dense(y, n + 1)
    room = digit_text._WRITE_LIMIT  # characters the spelled states may still take

    def record() -> None:
        nonlocal room
        state = _spell(work)
        room -= len(state)
        if room < 0:
            raise IndexBeyondCapacity(f"a borrow trace past {digit_text._WRITE_LIMIT} characters is too long to write")
        trace.states.append(state)

    record()
    for i in range(n + 1):
        if work[i] < b[i]:
            j = i + 1
            while work[j] == 0:  # x >= y, so a nonzero position lies to the left
                j += 1
            trace.events.append(f"pos {i}: {work[i]} < {b[i]}, borrow reaches pos {j}")
            for k in range(j, i, -1):
                work[k] -= 1
                work[k - 1] += base.digit_bound(k - 1) + 1
                record()


def mul(x: Representation, y: Representation, trace: ArithTrace | None = None) -> Representation:
    """Canonical product, via value arithmetic (no digit-level rule exists here)."""
    base, vx, vy = _operands(x, y)
    if trace is not None:
        trace.path = "decode"
    return encode_greedy(base, vx * vy)


def divrem(
    x: Representation, y: Representation, trace: ArithTrace | None = None
) -> tuple[Representation, Representation]:
    """Canonical quotient and remainder, via value arithmetic."""
    base, vx, vy = _operands(x, y)
    if vy == 0:
        raise DivisionByZero("division by zero")
    if trace is not None:
        trace.path = "decode"
    q, r = divmod(vx, vy)
    return encode_greedy(base, q), encode_greedy(base, r)
