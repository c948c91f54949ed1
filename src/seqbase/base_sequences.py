"""Weight sequences for positional numeration over strictly increasing terms.

Every base exposes weights w_0 = 1 < w_1 < w_2 < ..., and digit position i
weighs w_i.  All of them answer through `BaseSequence`: `term(i)`,
`digit_bound(i)`, the digit bound t_i = floor((w_{i+1} - 1) / w_i),
`superior_part(v)` (the index and weight of the largest term <= v) and
`max_encodable()`.  How a family finds its terms and bounds follows from
how they grow:

- square and m-power weights have a closed form, (i + 1)^m, and the index
  of the largest one <= v is an integer m-th root, so these bases keep no
  terms at all; a bound is divided out of the two closed-form weights;
- prime weights come from a sieve of Eratosthenes over the odd numbers
  that at least doubles each time it grows, up to 10^8 and no further;
  the sieve is laid down as copies of a period already struck by 3, 5, 7,
  11 and 13, so it strikes only the primes from 17 on.  A directory of
  prime counts per block of the sieve, each block counted as the set bits
  of one integer, gives the index of a prime (rank, Jacobson 1989), so a
  superior part builds no term, and terms are extracted into a table only
  as far as they are read.  Every bound is 1, since p_{i+1} < 2 p_i
  (Bertrand);
- Fibonacci (from 1, 2) and Lucas (from 1, 3) weights are sums,
  w_{i+2} = w_{i+1} + w_i, so w_i = a F_{i-1} + b F_i with a = w_0 and
  b = w_1; these bases hold only their terms below 2^64 and compute any
  other term from the fast-doubling identities of the Fibonacci numbers
  (Knuth, TAOCP vol. 1, 1.2.8), so they keep no table that grows with v.
  Their bounds are t_0 = (b - 1) // a and 1 elsewhere;
- the product families, factorial (r_i = i + 2), power-p (r_i = p) and
  mixed radix (r_i = t_i + 1), are defined by their radices,
  w_{i+1} = r_i * w_i, and have closed forms: w_i = (i+1)!, p^i, or for
  mixed radix a power of the radices' period product times a prefix of
  one period.  They hold no term: a superior part estimates its index
  from log2(v), computes that one weight and steps by radices to bracket
  v.  Their bounds are t_i = r_i - 1, and a digit word is canonical
  exactly when every d_i <= t_i (Knuth, TAOCP vol. 2, 4.1), so the
  verdict reads no weight.  They keep a chunk table for their greedy and
  decode kernels: their radices grouped so that each group's product fits
  one CPython limb, since their greedy digits are the remainders of
  successive division by r_0, r_1, ..., and w_i is the product of the
  chunks below i's chunk times a small prefix inside it;
- an explicit base holds its listed terms as a tuple, indexes and bisects
  it, and divides each bound out of two of its terms.

Each family gives one weight on request, `_term(i)`, from whatever it
holds or computes, and carries the codec's kernels (`_greedy`,
`_terms_at`, `_decode`, `_value_if_canonical`, `_is_canonical`), so the
codec never asks which family it holds: the prime, square, m-power and
explicit bases read their weights one at a time, the product families
divide by and walk up their radix chunks, and the additive bases walk
their recurrence.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
from array import array
from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    IndexBeyondCapacity,
    InvalidParameter,
    NotStartingAtOne,
    NotStrictlyIncreasing,
)

# The prime sieve covers 0 .. _PRIME_SIEVE_LIMIT and no more.  At the limit
# it holds 50 MB of sieve (a byte per odd number) and a 98 KB directory;
# the term table holds only the primes read, 8 bytes each (46 MB for all).
_PRIME_SIEVE_LIMIT = 10**8
# pi(10^8): the primes up to the limit, so w_i exists for i <= this count
_PRIME_COUNT = 5_761_455
# Sieve bytes per directory block: an index counts at most this many bytes
_PRIME_BLOCK = 4096
# The term table starts with the primes below this, where every greedy tail
# ends: no gap between primes below the sieve limit exceeds 220
_PRIME_HELD_BELOW = 512

# A chunk's radix product stays below this, so dividing by it is one-limb division
_LIMB = 1 << sys.int_info.bits_per_digit

# The largest m-power exponent: w_1 = 2^m has m bits, and a superior part or
# digit bound computes a power of that size, so an m from the command line
# could otherwise ask for gigabytes.
_MPOWER_MAX_M = 1000

# An additive base holds its terms below this, 92 of them for Fibonacci and for Lucas
_ADDITIVE_HEAD_LIMIT = 1 << 64
_PHI = (1 + math.sqrt(5)) / 2
_LOG2_PHI = math.log2(_PHI)


def _iroot(v: int, m: int) -> int:
    """floor(v ** (1/m)) for v >= 1, exact at any size."""
    if m == 2:
        return math.isqrt(v)
    x = 1 << -(-v.bit_length() // m)  # 2^ceil(bits/m) is above the root
    while True:  # Newton's steps fall monotonically onto the floor of the root
        y = ((m - 1) * x + v // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y


# Whether 2k + 1 is prime to 3 * 5 * 7 * 11 * 13 repeats with period 15015 in
# k (30030 in 2k + 1), so a sieve starts as tiles of that period, already
# struck by these five primes, and strikes only the primes from 17 on.
_PERIOD_PRIMES = (3, 5, 7, 11, 13)


def _struck_period() -> bytes:
    """15015 bytes, 1 at k when 2k + 1 is prime to each of _PERIOD_PRIMES (the primes themselves struck too)."""
    period = bytearray([1]) * math.prod(_PERIOD_PRIMES)
    for p in _PERIOD_PRIMES:
        period[p // 2 :: p] = bytes(len(range(p // 2, len(period), p)))
    return bytes(period)


_PERIOD = _struck_period()
# A sieve's first bytes, for 1, 3, 5, 7, 9, 11, 13: 1 struck, the period's primes restored
_SIEVE_HEAD = b"\x00\x01\x01\x01\x00\x01\x01"


def _odd_sieve(n: int) -> bytearray:
    """odd[k] = 1 when 2k + 1 is prime, for the odd numbers below n (n >= 2).

    The tiles have struck 3, 5, 7, 11 and 13 already, so the largest strike
    buffer, for p = 17, is 1/17 of the sieve.
    """
    size = n // 2  # odd[k] stands for 2k + 1
    odd = bytearray(_PERIOD) * -(-size // len(_PERIOD))
    del odd[size:]
    odd[: len(_SIEVE_HEAD)] = _SIEVE_HEAD[:size]  # 1 is not prime; 3 .. 13 are
    for k in range(17 // 2, (math.isqrt(n - 1) + 1) // 2):  # the tiles struck every odd p below 17
        if odd[k]:
            p = 2 * k + 1
            first = p * p // 2
            odd[first::p] = bytearray(len(range(first, len(odd), p)))  # a bytes value would be copied first
    return odd


def _directory(odd: bytearray) -> array:
    """counts[b] = the number of odd primes in odd[:b * _PRIME_BLOCK], the last entry counting them all.

    Every sieve byte is 0 or 1, so the primes in a block are the set bits
    of the block read as one integer.
    """
    with memoryview(odd) as view:
        blocks = (view[a : a + _PRIME_BLOCK] for a in range(0, len(odd), _PRIME_BLOCK))
        return array("q", itertools.accumulate((int.from_bytes(b, "little").bit_count() for b in blocks), initial=0))


def _fib_pair(n: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) for n >= 0 by fast doubling: F_2k = F_k (2 F_{k+1} - F_k), F_{2k+1} = F_k^2 + F_{k+1}^2."""
    f, g = 0, 1
    for bit in format(n, "b"):  # (F_k, F_{k+1}) -> (F_2k, F_{2k+1}), then one step on a 1 bit
        f, g = f * (2 * g - f), f * f + g * g
        if bit == "1":
            f, g = g, f + g
    return f, g


def _additive_pair(a: int, b: int, i: int) -> tuple[int, int]:
    """(w_i, w_{i+1}) of the sums from w_0 = a, w_1 = b, for i >= 1: w_i = a F_{i-1} + b F_i."""
    f, g = _fib_pair(i - 1)
    return a * f + b * g, a * g + b * (f + g)


class BaseSequence:
    """A weight sequence, safe to share across concurrent readers.

    A family supplies three hooks, which `term(i)`, `digit_bound(i)` and
    `superior_part(v)` ask once their argument and capacity checks pass:
    `_term(i)` is the weight w_i, raising IndexBeyondCapacity for a
    position the base has no term at; `_bound(i)` is t_i; and
    `_index_le(v)` is the index and weight of the largest term <= v.  No
    family keeps its bounds: each answers from a closed form or from its
    weights.

    It also supplies the codec's kernels, which take a value >= 1 or
    nonempty ascending (position, digit) entries: `_greedy(value)` gives
    the greedy entries, `_terms_at(entries)` the weights at the entries'
    positions, `_decode(entries)` their digit-weighted sum,
    `_value_if_canonical` the value of canonical entries or None, and
    `_is_canonical` the verdict alone.  The defaults here ask `_term` for
    each weight they read: the greedy loop divides each rest by its
    superior part, and the canonical check keeps the running prefix sum
    below each next weight.

    The default hooks serve an explicit base, which holds all of its terms
    in a tuple from construction: they index and bisect that tuple, and a
    bound is divided out of two terms, floor((w_{i+1} - 1) / w_i).  Such a
    base never changes, so it needs no lock.  Every other family overrides
    the hooks it answers in closed form or from what it holds.
    """

    def __init__(
        self,
        name: str,
        signature: tuple,
        terms: tuple[int, ...] = (),
        capacity: int | None = None,
    ):
        self.name = name
        self.signature = signature
        self.capacity = capacity
        self._cache: Sequence[int] = terms or []  # the held terms: an explicit base's tuple, the prime table, else none
        self._max_encodable: int | None = None

    def __repr__(self) -> str:
        return f"BaseSequence({self.name!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, BaseSequence) and self.signature == other.signature

    def __hash__(self) -> int:
        return hash(self.signature)

    def term(self, i: int) -> int:
        """The weight w_i."""
        if i < 0:
            raise InvalidParameter(f"term index must be >= 0, got {i}")
        return self._term(i)

    def digit_bound(self, i: int) -> int:
        """Largest digit allowed at position i: floor((w_{i+1} - 1) / w_i)."""
        if i < 0:
            raise InvalidParameter(f"digit position must be >= 0, got {i}")
        if self.capacity is not None and i + 1 >= self.capacity:
            raise IndexBeyondCapacity(
                f"digit bound undefined at position {i}: "
                f"base {self.name} has no term {i + 1}"
            )
        return self._bound(i)

    def superior_part(self, value: int) -> tuple[int, int]:
        """(index, weight) of the largest term <= value (a finite base's last term past its end)."""
        if value < 1:
            raise InvalidParameter(f"superior part requires a value >= 1, got {value}")
        return self._index_le(value)

    def max_encodable(self) -> int | None:
        """Largest greedy-encodable value, or None when the base is unbounded.

        For a finite base the top term has no successor to bound its digit,
        so values are capped at w_N plus every lower position at its bound.
        """
        if self.capacity is None:
            return None
        if self._max_encodable is None:
            last = self.capacity - 1
            total = self.term(last)
            for i in range(last):
                total += self.digit_bound(i) * self.term(i)
            self._max_encodable = total
        return self._max_encodable

    def _term(self, i: int) -> int:
        """w_i, for i >= 0; a position with no term raises IndexBeyondCapacity."""
        try:
            return self._cache[i]
        except IndexError:
            raise self._no_term(i) from None

    def _no_term(self, i: int) -> IndexBeyondCapacity:
        return IndexBeyondCapacity(f"base {self.name} has only {self.capacity} terms; no term {i}")

    def _bound(self, i: int) -> int:
        """t_i, for a position i whose w_{i+1} exists."""
        return (self._term(i + 1) - 1) // self._term(i)

    def _index_le(self, value: int) -> tuple[int, int]:
        cache = self._cache
        idx = bisect_right(cache, value) - 1
        return idx, cache[idx]

    def _greedy(self, value: int) -> list[tuple[int, int]]:
        """Ascending greedy entries of value >= 1: divide each rest by its superior part."""
        entries: list[tuple[int, int]] = []
        rest = value
        while rest:
            i, wi = self.superior_part(rest)
            d, rest = divmod(rest, wi)
            entries.append((i, d))
        entries.reverse()
        return entries

    def _terms_at(self, entries: Sequence[tuple[int, int]]) -> Iterable[int]:
        """w_i at each position i of the ascending entries, in their order."""
        term = self._term
        return [term(i) for i, _ in entries]

    def _decode(self, entries: Sequence[tuple[int, int]]) -> int:
        """The digit-weighted sum of the ascending entries."""
        term = self._term
        # from the top down: a top the base cannot reach raises before a lower weight is built
        return sum(d * term(i) for i, d in reversed(entries))

    def _value_if_canonical(self, entries: Sequence[tuple[int, int]]) -> int | None:
        """The value of the ascending entries if they are its greedy form, else None."""
        cap = self.capacity
        last = -1 if cap is None else cap - 1  # a finite base's top term has no successor to test against
        if cap is not None and entries[-1][0] > last:
            return None
        term = self._term
        running = 0
        for i, d in entries:
            if i == last:
                running += d * term(i)
                continue
            ceiling = term(i + 1)  # before w_i: a position past the base's reach raises before w_i is built
            running += d * term(i)
            if running >= ceiling:
                return None
        if cap is not None and running > self.max_encodable():
            return None
        return running

    def _is_canonical(self, entries: Sequence[tuple[int, int]]) -> bool:
        """Whether the ascending entries are the greedy form of their value."""
        return self._value_if_canonical(entries) is not None


class _RadixSequence(BaseSequence):
    """A product family, w_{i+1} = r_i * w_i and t_i = r_i - 1, that holds no term.

    The factory gives the family's radices and weights in closed form:
    `radix(i)` is r_i, `weight(i)` is w_i, and `index_estimate(x)` is about
    the largest i with log2 w_i <= x.  A superior part estimates its index
    from log2 v, computes that one weight and steps by radices to bracket v.
    `digit_bound(i)` is radix(i) - 1 at every position.  A word is
    canonical exactly when every d_i <= t_i (Fraenkel, "Systems of
    numeration", 1985), and a finite base's top term, which has no radix,
    takes a digit of at most 1, since the positions below it sum to at most
    w_top - 1; that verdict reads no weight and no table.

    The chunk table is a list of (R, radices, prefixes) tuples: consecutive
    radices, from position 0 up, with R their product and prefixes the
    products of the radices before each one (1 first).  A chunk takes
    radices while R stays below one CPython limb; a radix that is a limb or
    more by itself fills a chunk alone.  Greedy divides by the chunks;
    decode walks their products up, w_i being the product of the chunks
    below i's chunk times i's prefix in it.  `_cover` is (n, reach): the
    table covers positions 0 .. n - 1, and every value below reach, which
    is w_n, or 2 w_n once the table has grown for a finite base's top term n.
    The table is the base's only state that grows.  It grows under the lock
    and is read without it, and only grows: the next radix joins the last
    chunk in place while their product stays below a limb, and otherwise
    starts a new chunk; `_cover` is replaced after the chunks it counts.
    Chunks before the last never change, and each version of the last
    covers all the positions the one before it did, so a reader that saw a
    cover reads chunks covering it whenever it looks.
    """

    def __init__(
        self,
        name: str,
        signature: tuple,
        radix: Callable[[int], int],
        weight: Callable[[int], int],
        index_estimate: Callable[[float], int],
        capacity: int | None = None,
    ):
        super().__init__(name, signature, capacity=capacity)
        self._radix, self._weight, self._index_estimate = radix, weight, index_estimate
        self._lock = threading.Lock()
        self._last = None if capacity is None else capacity - 1  # a finite base's top position
        self._chunks: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
        self._cover = (0, 1)
        if capacity is not None:
            self._max_encodable = 2 * weight(self._last) - 1  # w_top + sum of t_i w_i below it, which is w_top - 1

    def _term(self, i: int) -> int:
        if self._last is not None and i > self._last:
            raise self._no_term(i)
        return self._weight(i)

    def _bound(self, i: int) -> int:
        return self._radix(i) - 1

    def _index_le(self, value: int) -> tuple[int, int]:
        radix, last = self._radix, self._last
        i = self._index_estimate(math.log2(value))
        if last is not None:
            i = min(i, last)
        w = self._weight(i)
        while i != last and w * radix(i) <= value:
            w *= radix(i)
            i += 1
        while w > value:
            i -= 1
            w //= radix(i)
        return i, w

    def _extend(self, top: int, w_top: int) -> None:
        """Grow the chunk table through position top's radix (a finite base's top term has none), given w_top."""
        if top == self._last:
            n, reach = top, 2 * w_top
        else:
            n, reach = top + 1, w_top * self._radix(top)
        with self._lock:
            covered, held = self._cover
            if n <= covered and reach <= held:  # a finite top may raise the reach over the same positions
                return
            chunks = self._chunks
            for j in range(covered, n):
                r = self._radix(j)
                if chunks and chunks[-1][0] * r < _LIMB:  # the last chunk still has room
                    product, radices, prefixes = chunks[-1]
                    chunks[-1] = (product * r, radices + (r,), prefixes + (product,))
                else:
                    chunks.append((r, (r,), (1,)))
            self._cover = n, reach

    def _chunks_through(self, top: int) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
        """The chunk table, grown if it does not hold the radices through position top."""
        if top + (top != self._last) > self._cover[0]:  # position top needs a radix unless it is a finite top
            self._extend(top, self._term(top))
        return self._chunks

    def _greedy(self, value: int) -> list[tuple[int, int]]:
        """Ascending greedy entries of value >= 1: the remainders of dividing by r_0, r_1, ...

        Dividing by a chunk of radices whose product fits one CPython limb
        is the single-precision radix conversion of Knuth (TAOCP vol. 2,
        4.4): the interpreter divides a big integer by a one-limb divisor in
        one linear pass, so a chunk of several digits costs one pass, where
        dividing by the big weight w_i costs a long division per digit and
        one radix at a time a pass per digit.  The small remainder is split
        with machine-size divisions.  The table covers every value below
        the reach in `_cover`, so only a value past it asks a superior part.
        """
        if value >= self._cover[1]:
            self._extend(*self.superior_part(value))
        entries: list[tuple[int, int]] = []
        q = value
        pos = 0
        for product, radices, _ in self._chunks:
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
        else:  # what a finite base's radices leave is its top term's digit
            entries.append((pos, q))
        return entries

    def _decode(self, entries: Sequence[tuple[int, int]]) -> int:
        """The digit-weighted sum of the ascending entries, by a walk up the chunk products.

        w_i is big * prefix: big, the product of the chunks below i's
        chunk, is multiplied up once per chunk, and prefix, the product of
        the radices below i inside that chunk, is read from the chunk.  So
        each entry costs one multiplication of a big integer, by d * prefix,
        which stays below the chunk's product when d <= t_i.
        """
        chunks = self._chunks_through(entries[-1][0])
        # prefixes are those of chunk k - 1, over positions pos .. end - 1
        total, big, product, k, pos, end = 0, 1, 1, 0, 0, 0
        for i, d in entries:
            while i >= end:
                big *= product
                # past every chunk lies only a finite base's top term, whose weight is big
                product, _, prefixes = chunks[k] if k < len(chunks) else (1, (), (1,))
                k, pos, end = k + 1, end, end + len(prefixes)
            total += big * (d * prefixes[i - pos])
        return total

    def _terms_at(self, entries: Sequence[tuple[int, int]]) -> Iterator[int]:
        # the walk of _decode, which keeps its own copy: a generator shared with
        # it made a 1000-digit decode about a tenth slower
        chunks = self._chunks_through(entries[-1][0])
        big, product, k, pos, end = 1, 1, 0, 0, 0
        for i, _ in entries:
            while i >= end:
                big *= product
                product, _, prefixes = chunks[k] if k < len(chunks) else (1, (), (1,))
                k, pos, end = k + 1, end, end + len(prefixes)
            yield big * prefixes[i - pos]

    def _value_if_canonical(self, entries: Sequence[tuple[int, int]]) -> int | None:
        return self._decode(entries) if self._is_canonical(entries) else None

    def _is_canonical(self, entries: Sequence[tuple[int, int]]) -> bool:
        top, d = entries[-1]
        if top == self._last:  # the top term of a finite base
            if d > 1:
                return False
            entries = entries[:-1]
        elif self._last is not None and top > self._last:
            return False
        radix = self._radix
        for i, d in entries:  # a loop: all() over a generator reads about 1.3x the time here
            if d >= radix(i):
                return False
        return True


class _PowerSequence(BaseSequence):
    """w_i = (i + 1)^m, computed on every call: no term is kept."""

    def __init__(self, name: str, signature: tuple, m: int):
        super().__init__(name, signature)
        self._m = m

    def _term(self, i: int) -> int:
        return (i + 1) ** self._m

    def _index_le(self, value: int) -> tuple[int, int]:
        k = _iroot(value, self._m)
        return k - 1, k**self._m


class _PrimeSequence(BaseSequence):
    """1 and then the primes, read from an odd-only sieve that at least doubles whenever it grows.

    The sieve is a bytearray, odd[k] = 1 when 2k + 1 is prime, built from
    the struck period (`_odd_sieve`) and kept with its directory of prime
    counts per 4096-byte block (`_directory`).  A superior part of a value
    past the held terms finds the last prime <= v in the sieve, and its
    index from the directory entry at the nearest block edge plus or minus
    one count between that edge and the prime, so it builds no term; a
    value below the last held term bisects the held terms instead.

    `_term(i)` indexes the term table `_cache`, which starts with the
    primes below 512, where every greedy tail ends (no prime gap below
    10^8 exceeds 220).  A term past the table extends it from the sieve:
    to the end of that term's block, and to at least twice its length, so
    that reading the terms in ascending order copies each one O(1) times.

    A grown sieve and its directory replace the old pair in one assignment,
    and an extended term table replaces the old one in another, so a
    concurrent reader sees an old or a new value, each complete.
    """

    def __init__(self):
        super().__init__("prime", ("prime",))
        self._lock = threading.Lock()
        odd = _odd_sieve(_PRIME_HELD_BELOW)
        self._sieve = odd, _directory(odd)
        self._cache = array("q", (1, 2, *itertools.compress(range(3, _PRIME_HELD_BELOW, 2), odd[1:])))

    def _term(self, i: int) -> int:
        terms = self._cache
        if i < len(terms):
            return terms[i]
        if i > _PRIME_COUNT:
            raise self._beyond_limit("a term this far out")
        odd, counts = self._sieve
        if counts[-1] < i - 1:  # w_i is the (i - 1)-th odd prime, past the sieve
            # p_i < i (ln i + ln ln i) for i >= 6 (Rosser)
            odd, counts = self._sieve_to(min(int(i * (math.log(i) + math.log(math.log(i)))), _PRIME_SIEVE_LIMIT))
        with self._lock:
            terms = self._cache
            if i >= len(terms):
                # to the end of the block that holds w_i, and at least doubled: O(n) copying in all
                end = min(bisect_left(counts, max(i - 1, 2 * len(terms))) * _PRIME_BLOCK, len(odd))
                start = (terms[-1] + 1) // 2  # the odd number after the last held term
                terms = terms + array("q", itertools.compress(range(2 * start + 1, 2 * end, 2), odd[start:end]))
                self._cache = terms
        return terms[i]

    def _bound(self, i: int) -> int:
        # p_{i+1} < 2 p_i (Bertrand), so every bound is 1 and no sieving is needed
        if i >= _PRIME_COUNT:
            raise self._beyond_limit("a term this far out")
        return 1

    def _index_le(self, value: int) -> tuple[int, int]:
        terms = self._cache
        if value < terms[-1]:  # the held terms reach past value
            idx = bisect_right(terms, value) - 1
            return idx, terms[idx]
        odd, counts = self._sieve
        k = (value - 1) // 2  # 2k + 1 is the largest odd number <= value
        if k >= len(odd):
            if value > _PRIME_SIEVE_LIMIT:
                raise self._beyond_limit("the superior part of a larger value")
            odd, counts = self._sieve_to(value)
        k = odd.rfind(1, 0, k + 1)
        edge = (k + _PRIME_BLOCK // 2) // _PRIME_BLOCK * _PRIME_BLOCK  # the block edge nearest to k
        # count from the edge up to k, or take off the primes from k up to the edge: one range is empty
        rank = counts[edge // _PRIME_BLOCK] + odd.count(1, edge, k + 1) - odd.count(1, k + 1, edge)
        return 1 + rank, 2 * k + 1

    def _sieve_to(self, n: int) -> tuple[bytearray, array]:
        """The sieve and directory, grown if they do not cover n (n <= the sieve limit)."""
        with self._lock:
            odd, counts = self._sieve
            if (n - 1) // 2 >= len(odd):  # grow to n, and to at least twice the numbers covered
                odd = _odd_sieve(min(max(n + 1, 4 * len(odd)), _PRIME_SIEVE_LIMIT + 1))
                counts = _directory(odd)
                self._sieve = odd, counts
            return odd, counts

    @staticmethod
    def _beyond_limit(what: str) -> IndexBeyondCapacity:
        return IndexBeyondCapacity(
            f"base prime sieves only the primes up to {_PRIME_SIEVE_LIMIT}; it cannot reach {what}"
        )


class _AdditiveSequence(BaseSequence):
    """w_0 = a, w_1 = b > a, w_{i+2} = w_{i+1} + w_i, holding only the terms below 2^64 (the head).

    Every w_{i+1} < 2 w_i for i >= 1, so the digit bounds are t_0 =
    (b - 1) // a and t_i = 1, and the greedy digits above position 0 are
    0 or 1 with a 0 below every 1: after w_i is taken the rest is below
    w_{i+1} - w_i = w_{i-1}.  So a word is canonical exactly when no two
    adjacent digits are nonzero, d_0 <= t_0 and every other digit is at
    most 1 (Fraenkel, "Systems of numeration", 1985), and no weight needs
    to be read to say so.  A term past the head comes from fast doubling;
    a superior part estimates its index from log2(v) and steps the
    recurrence from there.  Greedy walks down from the top pair by
    compare-and-subtract, w_{i-1} = w_{i+1} - w_i, and the weights of a
    decode come from one walk up; both read the head directly below 2^64.
    Nothing grows after construction, so there is no state to guard.
    """

    def __init__(self, name: str, a: int, b: int):
        super().__init__(name, (name,))
        head = [a, b]
        while head[-1] + head[-2] < _ADDITIVE_HEAD_LIMIT:
            head.append(head[-1] + head[-2])
        self._head = tuple(head)
        self._a, self._b = a, b
        self._t0 = (b - 1) // a
        # w_i is about c phi^i, with c = (a / phi + b) / sqrt(5)
        self._log2_c = math.log2((a / _PHI + b) / math.sqrt(5))

    def _term(self, i: int) -> int:
        head = self._head
        return head[i] if i < len(head) else _additive_pair(self._a, self._b, i)[0]

    def _bound(self, i: int) -> int:
        return 1 if i else self._t0

    def _index_le(self, value: int) -> tuple[int, int]:
        head = self._head
        if value < head[-1]:
            i = bisect_right(head, value) - 1
            return i, head[i]
        i, x, _ = self._bracket(value)
        return i, x

    def _bracket(self, value: int) -> tuple[int, int, int]:
        """(i, w_i, w_{i+1}) with w_i <= value < w_{i+1}, for value at or past the head's last term."""
        i = max(int((math.log2(value) - self._log2_c) / _LOG2_PHI), len(self._head) - 1)
        x, y = _additive_pair(self._a, self._b, i)
        while y <= value:
            i, x, y = i + 1, y, x + y
        while x > value:
            i, x, y = i - 1, y - x, x
        return i, x, y

    def _greedy(self, value: int) -> list[tuple[int, int]]:
        head = self._head
        entries: list[tuple[int, int]] = []
        rest = value
        if rest >= head[-1]:
            i, x, y = self._bracket(rest)  # x = w_i <= rest < y = w_{i+1}
            while rest >= head[-1]:
                if rest >= x:  # rest < w_{i-1} after this, so position i - 1 holds 0: step down two
                    entries.append((i, 1))
                    rest -= x
                    y -= x
                    i, x, y = i - 2, x - y, y
                else:
                    i, x, y = i - 1, y - x, x
        while rest:  # the head holds every term the rest can take
            i = bisect_right(head, rest) - 1
            if not i:
                entries.append((0, rest))
                break
            entries.append((i, 1))
            rest -= head[i]
        entries.reverse()
        return entries

    def _terms_at(self, entries: Sequence[tuple[int, int]]) -> Iterator[int]:
        head = self._head
        j, x, y = len(head) - 2, head[-2], head[-1]  # x = w_j, y = w_{j+1}
        for i, _ in entries:
            if i < len(head):
                yield head[i]
                continue
            for _ in range(i - j):
                x, y = y, x + y
            j = i
            yield x

    def _decode(self, entries: Sequence[tuple[int, int]]) -> int:
        head = self._head
        if entries[-1][0] < len(head):
            return sum(d * head[i] for i, d in entries)
        return sum(d * w for (_, d), w in zip(entries, self._terms_at(entries)))

    def _value_if_canonical(self, entries: Sequence[tuple[int, int]]) -> int | None:
        return self._decode(entries) if self._is_canonical(entries) else None

    def _is_canonical(self, entries: Sequence[tuple[int, int]]) -> bool:
        last = -2
        for i, d in entries:
            if i - last < 2 or d > (1 if i else self._t0):
                return False
            last = i
        return True


def prime() -> BaseSequence:
    """Weights 1, 2, 3, 5, 7, ... (w_i is the i-th prime for i >= 1).

    The terms come from a sieve of the odd numbers that stops at 10^8 and
    strikes only the primes from 17 on, the smaller odd ones struck by the
    copied period it starts from.  A superior part counts the primes up to
    the value from a directory of counts per sieve block and builds no term;
    term(i) extracts the terms from the sieve as far as the block that
    holds w_i, at least doubling the table it extends.  A term past the
    primes up to 10^8, or the superior part of a value above 10^8, raises
    IndexBeyondCapacity instead of sieving further.
    """
    return _PrimeSequence()


def square() -> BaseSequence:
    """Weights 1, 4, 9, 16, ... (w_i = (i+1)^2)."""
    return _PowerSequence("square", ("square",), 2)


def m_power(m: int) -> BaseSequence:
    """Weights w_i = (i+1)^m for an exponent 2 <= m <= 1000."""
    _check_int("m-power exponent m", m)
    if m < 2:
        raise InvalidParameter(f"m-power base needs m >= 2, got {m}")
    if m > _MPOWER_MAX_M:  # the value itself may be too long to print
        raise InvalidParameter(f"m-power base takes m <= {_MPOWER_MAX_M}")
    return _PowerSequence(f"mpower:{m}", ("mpower", m), m)


def factorial() -> BaseSequence:
    """Weights 1, 2, 6, 24, ... (w_i = (i+1)!, the radices r_i = i + 2).

    A digit word is canonical exactly when every d_i <= t_i = i + 1.
    """
    return _RadixSequence(
        "factorial", ("factorial",), lambda i: i + 2, lambda i: math.factorial(i + 1), _factorial_index
    )


def _factorial_index(x: float) -> int:
    """About the largest i with log2 (i+1)! <= x, from lgamma(i + 2) = ln (i+1)!."""
    x *= math.log(2)
    hi = 1
    while math.lgamma(hi + 2) <= x:
        hi *= 2
    return bisect_right(range(hi), x, key=lambda i: math.lgamma(i + 2)) - 1


def power_of(p: int) -> BaseSequence:
    """Weights w_i = p^i for p >= 2; digit strings then read as ordinary base p.

    A digit word is canonical exactly when every d_i <= t_i = p - 1.
    """
    _check_int("power base p", p)
    if p < 2:
        raise InvalidParameter(f"power base needs p >= 2, got {p}")
    log2_p = math.log2(p)
    return _RadixSequence(
        _name("power", p, ":"),
        ("power", p),
        lambda i: p,
        lambda i: p**i,
        lambda x: int(x / log2_p),
    )


def fibonacci() -> BaseSequence:
    """Weights 1, 2, 3, 5, 8, ... (the distinct Fibonacci numbers, one 1 only).

    A digit word is canonical exactly when every digit is 0 or 1 and no two
    adjacent digits are 1 (Zeckendorf).  The base holds the terms below
    2^64 and computes the others by fast doubling.
    """
    return _AdditiveSequence("fibonacci", 1, 2)


def lucas() -> BaseSequence:
    """Weights 1, 3, 4, 7, 11, ... (Lucas numbers from 1 upward, 2 dropped).

    A digit word is canonical exactly when d_0 <= 2, every other digit is
    0 or 1, and no two adjacent digits are nonzero.  The base holds the
    terms below 2^64 and computes the others by fast doubling.
    """
    return _AdditiveSequence("lucas", 1, 3)


_BUILTINS = {
    "prime": (prime, ()),
    "square": (square, ()),
    "mpower": (m_power, ("m",)),
    "factorial": (factorial, ()),
    "power": (power_of, ("p",)),
    "fibonacci": (fibonacci, ()),
    "lucas": (lucas, ()),
}


def make_builtin(kind: str, **params) -> BaseSequence:
    """Construct a built-in family by name: prime, square, mpower(m), factorial, power(p), fibonacci, lucas."""
    try:
        factory, wanted = _BUILTINS[kind]
    except KeyError:
        raise InvalidParameter(f"unknown base kind {kind!r}") from None
    if set(params) != set(wanted):
        raise InvalidParameter(
            f"base kind {kind!r} takes parameters {list(wanted)}, got {sorted(params)}"
        )
    return factory(*(params[k] for k in wanted))


def _check_int(what: str, *values) -> None:
    """InvalidParameter unless every value is an int: weights, bounds, positions and values are naturals."""
    for v in values:
        if not isinstance(v, int):
            raise InvalidParameter(f"{what}: expected an integer, got {type(v).__name__}")


def _name(kind: str, param: object, sep: str = "") -> str:
    """A base name spelling out param; a number too long to print raises InvalidParameter."""
    try:
        return f"{kind}{sep}{param}"
    except ValueError:  # the interpreter's int/str conversion limit
        raise InvalidParameter(f"{kind} base: a number has too many decimal digits to name") from None


def make_explicit(terms: Sequence[int]) -> BaseSequence:
    """A finite base over exactly the given terms (must start at 1, strictly increase)."""
    terms = tuple(terms)
    if not terms:
        raise InvalidParameter("explicit base needs at least one term")
    _check_int("explicit base terms", *terms)
    if terms[0] != 1:
        raise NotStartingAtOne(f"explicit base must start at 1, got {terms[0]}")
    for a, b in zip(terms, terms[1:]):
        if b <= a:
            raise NotStrictlyIncreasing(f"terms must strictly increase: {a} then {b}")
    return BaseSequence(_name("explicit", list(terms)), ("explicit", terms), terms, capacity=len(terms))


def make_mixed_radix(bounds: Sequence[int], cyclic: bool = False) -> BaseSequence:
    """Base with weights w_{i+1} = (t_i + 1) * w_i over the digit bounds t_i >= 1.

    digit_bound(i) is exactly t_i.  A finite base has len(bounds) + 1
    weights; a cyclic one repeats the bounds forever, so [9] with
    cyclic=True gives the decimal weights 1, 10, 100, ...  A digit word is
    canonical exactly when every d_i <= t_i, and in a finite base the top
    position, which has no bound of its own, holds a digit of at most 1.
    """
    bounds = tuple(bounds)
    if not bounds:
        raise InvalidParameter("mixed-radix base needs at least one bound")
    for i, t in enumerate(bounds):
        _check_int(f"mixed-radix bound t_{i}", t)
        if t < 1:
            raise InvalidParameter(f"mixed-radix bound t_{i} must be >= 1, got {t}")
    radices = tuple(t + 1 for t in bounds)
    period = len(radices)
    # w_i = span^(i // period) * r_0 * ... * r_{i % period - 1}, span the product of the radices;
    # a finite base reads i <= period only, where that is the product of its first i radices
    span = math.prod(radices)
    log2_prefix = tuple(itertools.accumulate(map(math.log2, radices), initial=0.0))

    def weight(i: int) -> int:
        k, j = divmod(i, period)
        return span**k * math.prod(radices[:j])

    def index_estimate(x: float) -> int:
        k, rest = divmod(x, log2_prefix[-1])
        return int(k) * period + bisect_right(log2_prefix, rest) - 1

    return _RadixSequence(
        _name("mixed-radix", list(bounds)) + (" cyclic" if cyclic else ""),
        ("mixed-radix", bounds, cyclic),
        (lambda i: radices[i % period]) if cyclic else radices.__getitem__,
        weight,
        index_estimate,
        capacity=None if cyclic else len(bounds) + 1,
    )


def parse_base_file(text: str) -> BaseSequence:
    """Parse the line-oriented custom base format.

    Line 1 is ``format=terms`` or ``format=bounds`` (optionally
    ``format=bounds cyclic``); every later non-empty, non-``#`` line is one
    decimal natural.  ``terms`` lines are explicit weights, ``bounds`` lines
    are the t_i of a mixed-radix base.
    """
    lines = text.splitlines()
    if not lines:
        raise InvalidParameter("empty base file")
    header = lines[0].split()
    if header == ["format=terms"]:
        kind, cyclic = "terms", False
    elif header == ["format=bounds"]:
        kind, cyclic = "bounds", False
    elif header == ["format=bounds", "cyclic"]:
        kind, cyclic = "bounds", True
    else:
        raise InvalidParameter(f"bad base file header {lines[0]!r}")
    numbers = []
    for raw in lines[1:]:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not (line.isascii() and line.isdigit()):
            raise InvalidParameter(f"expected a decimal natural, got {line!r}")
        try:
            numbers.append(int(line))
        except ValueError:  # the interpreter's int/str conversion limit
            raise InvalidParameter(f"a {len(line)}-digit line exceeds the integer conversion limit") from None
    if kind == "terms":
        return make_explicit(numbers)
    return make_mixed_radix(numbers, cyclic=cyclic)


def load_base_file(path) -> BaseSequence:
    """Read and parse a custom base file from disk; a file that is not UTF-8 raises InvalidParameter."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise InvalidParameter(f"base file {path} is not UTF-8: {e.reason} at byte {e.start}") from None
    return parse_base_file(text)
