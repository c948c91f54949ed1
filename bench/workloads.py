"""The four workloads: seeded inputs, set-up, operations and their checks.

A workload hands out rounds of operations.  Each `Op.run` is the timed
call into seqbase; `Op.check` runs afterwards, outside the timed region,
and says why the output is wrong (None when the oracle accepts it).  Every
call into the program looks its function up on the `seqbase` package at
call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import random
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import seqbase as sb
import seqbase.cli

import oracle

MIXED_BOUNDS = (9, 5, 11, 1, 6)  # radices 10, 6, 12, 2, 7, repeated
MIXED = "mixed:" + ",".join(map(str, MIXED_BOUNDS))
MIXED_FILE = "format=bounds cyclic\n" + "".join(f"{t}\n" for t in MIXED_BOUNDS)


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    chars: int = 0  # digit characters rendered plus parsed, for digit_text.chars_per_s


class CommandFailed(Exception):
    """A seqbase command ended with a nonzero exit code."""


def make_base(family: str):
    """A fresh seqbase base for an oracle family name."""
    name, _, param = family.partition(":")
    if name == "mpower":
        return sb.m_power(int(param))
    if name == "power":
        return sb.power_of(int(param))
    if name == "mixed":
        return sb.parse_base_file(MIXED_FILE)
    return getattr(sb, name)()


class Workload:
    name = ""
    setup_repeats = 3  # setup_s is the median of this many set-ups
    rss_of_children = False  # peak_rss_mb of the largest child rather than this process
    window_rounds = 1  # rounds whose spans give the trace's self times and counts

    def __init__(self, seed: int, root: Path):
        self.root = root
        self.rng = random.Random(seed)
        self.weights: dict[str, oracle.Weights] = {}

    def w(self, family: str) -> oracle.Weights:
        if family not in self.weights:
            self.weights[family] = oracle.Weights(family)
        return self.weights[family]

    def setup(self) -> None:
        """Program calls made before the measured phase (timed as setup_s)."""

    def check_setup(self) -> str | None:
        """Why the last set-up's output is wrong, or None."""
        return None

    def round(self) -> list[Op]:
        raise NotImplementedError

    def in_process_round(self) -> list[Op]:
        """The same operations run inside this process, for the traced run."""
        return self.round()

    def layer_metrics(self, window, full, phase) -> dict[str, float]:
        """This workload's per-layer metrics, after its traced slice.

        `window` summarizes the spans of the traced set-up and the first
        `window_rounds` rounds, a fixed sequence of calls for a given seed;
        `full` the spans of every traced operation; `phase` is that slice's
        measured phase.  Numbers that need their own untraced measurement
        are taken here, with the tracer removed.
        """
        raise NotImplementedError


def _roundtrip_problem(w: oracle.Weights, value: int, out, canonical_required: bool) -> str | None:
    text, entries, canonical, decoded = out
    if decoded != value:
        return "decode gave another value"
    if canonical_required and canonical is not True:
        return "is_canonical rejected a canonical form"
    try:
        if oracle.string_entries(text) != list(entries):
            return "parse did not return the rendered digits"
    except ValueError as e:
        return f"render: {e}"
    problem = oracle.string_problem(w, text, value)
    return f"render: {problem}" if problem else None


class _Roundtrip(Workload):
    """One operation takes one seeded value per family through the whole chain.

    Taking every family in each operation gives every operation the same
    make-up, so that the median does not sit on the edge between two
    families' timings.  A round holds `ops_per_round` operations, the j-th
    drawing its sizes from the j-th of that many equal strata of the size
    range, so every round, and so every run whatever its seed, has the
    same spread of sizes.
    """

    families: tuple[str, ...] = ()
    with_canonical = False
    ops_per_round = 8

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.tops = {f: self.top(f) for f in self.families}
        self.bases = {}
        self.materialize_s: dict[str, float] = {}

    def top(self, family: str) -> int:
        """The largest value the workload can generate in this family."""
        raise NotImplementedError

    def values(self, stratum: tuple[int, int]) -> dict[str, int]:
        """One value per family, its size drawn from range(*stratum)."""
        raise NotImplementedError

    def strata(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """`ops_per_round` equal, adjacent ranges covering lo..hi."""
        k, n = self.ops_per_round, hi - lo + 1
        edges = [lo + n * j // k for j in range(k + 1)]
        return list(zip(edges, edges[1:]))

    def setup(self) -> None:
        self.bases = {}
        for family in self.families:
            base = make_base(family)
            t0 = perf_counter()
            base.superior_part(self.tops[family])
            self.materialize_s[family] = perf_counter() - t0
            self.bases[family] = base

    def round(self) -> list[Op]:
        return [self._op(self.values(stratum)) for stratum in self.strata(*self.sizes)]

    def _op(self, values: dict[str, int]) -> Op:
        bases = self.bases
        with_canonical = self.with_canonical
        op = Op("roundtrip", None, None)

        def run():
            outs = {}
            for family, value in values.items():
                base = bases[family]
                text = sb.render(sb.encode_greedy(base, value))
                back = sb.parse(base, text)
                canonical = sb.is_canonical(back) if with_canonical else None
                outs[family] = text, back.entries, canonical, sb.decode(back)
            op.chars = sum(2 * len(out[0]) for out in outs.values())
            return outs

        def check(outs) -> str | None:
            for family, value in values.items():
                problem = _roundtrip_problem(self.w(family), value, outs[family], with_canonical)
                if problem:
                    return f"{family} {problem}"
            return None

        op.run, op.check = run, check
        return op


class WideRoundtrip(_Roundtrip):
    """encode -> render -> parse -> decode over long, sparse digit strings.

    Each operation draws one top position L, 40000 <= L <= 78497, and in
    each family a value whose greedy form has its top digit at L, so the
    strings of one operation are equally long whatever the family.
    """

    name = "wide-roundtrip"
    families = ("prime", "square", "mpower:3")
    sizes = (40000, 78497)  # top positions; the prime base's w_78498 is 999983, the last prime below 10^6
    window_rounds = 2

    def top(self, family):
        return self.w(family)(self.sizes[1] + 1) - 1

    def values(self, stratum):
        top = self.rng.randrange(*stratum)
        return {f: self.rng.randrange(self.w(f)(top), self.w(f)(top + 1)) for f in self.families}

    def layer_metrics(self, window, full, phase):
        digit_text_s = window.layer_self_s("digit_text")
        return {
            "base_sequences.self_s": window.layer_self_s("base_sequences"),
            "digit_text.self_s": digit_text_s,
            "digit_text.render_p50_us": full.p50("digit_text.render") * 1e6,
            "digit_text.parse_p50_us": full.p50("digit_text.parse") * 1e6,
            "digit_text.chars_per_s": phase.chars / digit_text_s,
            **self._setup_probes(),
        }

    def _setup_probes(self):
        """Cold materialization per family, and the memory a set-up holds (tracemalloc)."""
        self.setup()
        probes = {"base_sequences.materialize_s": sum(self.materialize_s.values())}
        for family, seconds in self.materialize_s.items():
            probes["base_sequences.materialize_s." + family.replace(":", "")] = seconds
        self.bases = {}
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            self.setup()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        self.bases = {}
        probes["base_sequences.retained_mb"] = held / 2**20
        return probes


class DeepRoundtrip(_Roundtrip):
    """encode -> render -> parse -> is_canonical -> decode of 1000-2000 digit values."""

    name = "deep-roundtrip"
    setup_repeats = 9
    families = ("factorial", "fibonacci", "lucas", "power:10", MIXED)
    with_canonical = True
    sizes = (1000, 2000)  # decimal digits
    window_rounds = 2

    def top(self, family):
        return 10 ** self.sizes[1]

    def values(self, stratum):
        out = {}
        for family in self.families:
            digits = self.rng.randrange(*stratum)
            out[family] = self.rng.randrange(10 ** (digits - 1), 10**digits)
        return out

    def layer_metrics(self, window, full, phase):
        return {
            "base_sequences.superior_part_p50_us": full.p50("base_sequences.superior_part") * 1e6,
            "codec.self_s": window.layer_self_s("codec"),
            "codec.encode_greedy_p50_us": full.p50("codec.encode_greedy") * 1e6,
            "codec.decode_p50_us": full.p50("codec.decode") * 1e6,
        }


class MixedRadixArith(Workload):
    """Digit-wise add and sub, with some mul and divrem, on canonical operands near 10^1000.

    One operation applies its kind in each of the three bases, to a pair
    drawn from that base's operand pool.  An add+sub operation adds and
    subtracts the same pair, so every add and sub sits in operations of one
    make-up that hold two thirds of a round; the median and p90 then fall
    inside that one group of timings rather than on the edge between the
    add and the sub timings.  A round holds four add+sub, one mul and one
    divrem: calls in the shares 40/40/10/10.
    """

    name = "mixed-radix-arith"
    setup_repeats = 9
    families = ("factorial", "power:10", MIXED)
    kinds = ("add+sub", "add+sub", "mul", "add+sub", "add+sub", "divrem")
    pool_size = 16
    window_rounds = 5

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.values = {f: [self.rng.randrange(10**999, 10**1000) for _ in range(self.pool_size)] for f in self.families}
        self.operands = {}

    def setup(self) -> None:
        self.operands = {}
        for family in self.families:
            base = make_base(family)
            base.superior_part(10**2000)  # above every product
            self.operands[family] = [sb.encode_greedy(base, v) for v in self.values[family]]

    def round(self) -> list[Op]:
        return [self._op(kind) for kind in self.kinds]

    def _op(self, kind: str) -> Op:
        names = kind.split("+")
        calls = []
        for family in self.families:
            i, j = self.rng.randrange(self.pool_size), self.rng.randrange(self.pool_size)
            x, y = self.values[family][i], self.values[family][j]
            if "sub" in names and x < y:
                i, j, x, y = j, i, y, x
            expected = {"add+sub": (x + y, x - y), "mul": (x * y,), "divrem": divmod(x, y)}[kind]
            calls.append((family, self.operands[family][i], self.operands[family][j], expected))

        def run():
            fns = [getattr(sb, name) for name in names]
            return [[fn(x, y) for fn in fns] for _, x, y, _ in calls]

        def check(results) -> str | None:
            for (family, _, _, expected), outs in zip(calls, results):
                reps = [r for out in outs for r in (out if isinstance(out, tuple) else (out,))]
                for rep, value in zip(reps, expected, strict=True):
                    problem = oracle.entries_problem(self.w(family), rep.entries, value)
                    if problem:
                        return f"{family}: {problem}"
            return None

        return Op(kind, run, check)

    def layer_metrics(self, window, full, phase):
        metrics = {
            "base_sequences.term_calls": window.count("base_sequences.term"),
            "base_sequences.digit_bound_calls": window.count("base_sequences.digit_bound"),
            "codec.is_canonical_p50_us": full.p50("codec.is_canonical") * 1e6,
            "mixed_radix_arith.self_s": window.layer_self_s("mixed_radix_arith"),
        }
        for kind in ("add", "sub", "mul", "divrem"):
            metrics[f"mixed_radix_arith.{kind}_p50_us"] = full.p50(f"mixed_radix_arith.{kind}") * 1e6
        return metrics


BIG_DECIMAL = "1234567890" * 500  # 5000 digits: above the int/str conversion limit
BIG_FACTORIAL_TEXT = "1" + ".0" * 1700  # 1701!, a 4760-digit value


class CliCommands(Workload):
    """A seeded cycle of `python -m seqbase` commands on small inputs.

    A round is two blocks of five light commands (encode, decode, add, sub,
    mul, about 0.11 s each), one `table`, one `verify` and the two commands
    that fail.  The light commands are five sixths of the successful ones,
    so the p75 falls high inside their group; `verify` checks the same
    40001 values every round and takes about 0.55 s, so it stays above
    everything else and the p90 falls high in the group of tables, which
    all cover 2000 factorial values.  Ranks that fall low in a group, or on
    the edge between two, move with every burst of machine speed.  The
    last two commands of each round read or print a number of more than
    4300 decimal digits, which the program fails on today.
    """

    name = "cli-commands"
    setup_repeats = 9  # one cold start varies by a quarter from child to child
    rss_of_children = True
    encode_families = ("prime", "square", "mpower:3", "factorial", "fibonacci", "lucas", "power:7")
    decode_families = ("factorial", "fibonacci", "power:7")
    arith_families = ("factorial", "power:10", "fibonacci")
    table_family = "factorial"
    verify_argv = ["verify", "--base", "fibonacci", "--upto", "40000"]
    window_rounds = 1

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.light_calls = 0
        n = self.rng.randrange(1, 10**5)
        self.first_command = ("encode", ["encode", "--base", "factorial", str(n)], self._text_check("factorial", n))

    def _pick(self, families):
        return families[self.light_calls % len(families)]

    def _decode_input(self, family: str) -> tuple[str, int]:
        """A canonical digit string built from its family's digit rule, and its value."""
        rng = self.rng
        if family == "factorial":  # digit i may be 0 .. i+1
            digits = [rng.randint(0, i + 1) for i in range(rng.randint(5, 30))]
            digits[-1] = rng.randint(1, len(digits))
        elif family == "fibonacci":  # no two adjacent ones
            digits = [0] * rng.randint(10, 60)
            digits[-1] = 1
            for i in range(len(digits) - 3, -1, -1):
                digits[i] = 0 if digits[i + 1] else rng.randint(0, 1)
        else:  # power:7
            digits = [rng.randint(0, 6) for _ in range(rng.randint(5, 40))]
            digits[-1] = rng.randint(1, 6)
        msd_first = [str(d) for d in reversed(digits)]
        text = ".".join(msd_first) if max(digits) > 9 else "".join(msd_first)
        w = self.w(family)
        return text, sum(d * w(i) for i, d in enumerate(digits))

    def _commands(self) -> list[tuple[str, list[str], Callable[[str], "str | None"]]]:
        """One round: (kind, argv, stdout check)."""
        out = self._light_commands() + self._light_commands()
        lo = self.rng.randrange(10**4)
        argv = ["table", "--csv", "--base", self.table_family, "--from", str(lo), "--to", str(lo + 1999)]
        out.append(("table", argv, self._table_check(self.table_family, lo, lo + 1999)))
        out.append(("verify", self.verify_argv, _verify_check))
        out.append(
            ("encode-5000-digits", ["encode", "--base", "factorial", BIG_DECIMAL],
             self._text_check("factorial", oracle.decimal_value(BIG_DECIMAL)))
        )
        out.append(
            ("decode-4760-digits", ["decode", "--base", "factorial", BIG_FACTORIAL_TEXT],
             self._decimal_check(self.w("factorial")(1700)))
        )
        return out

    def _light_commands(self) -> list[tuple[str, list[str], Callable[[str], "str | None"]]]:
        """encode, decode, add, sub and mul on small inputs, the bases rotating from call to call."""
        rng = self.rng
        out = []
        family = self._pick(self.encode_families)
        n = rng.randrange(1, 10**5)
        out.append(("encode", ["encode", "--base", family, str(n)], self._text_check(family, n)))
        family = self._pick(self.decode_families)
        text, value = self._decode_input(family)
        problem = oracle.string_problem(self.w(family), text, value)
        if problem:
            raise RuntimeError(f"benchmark built a non-canonical decode input: {problem}")
        out.append(("decode", ["decode", "--base", family, text], self._decimal_check(value)))
        family = self._pick(self.arith_families)
        x, y = sorted((rng.randrange(10**30), rng.randrange(10**30)), reverse=True)
        for kind, result in (("add", x + y), ("sub", x - y), ("mul", x * y)):
            argv = [kind, "--value", "--base", family, str(x), str(y)]
            out.append((kind, argv, self._text_check(family, result)))
        self.light_calls += 1
        return out

    def _text_check(self, family: str, value: int):
        w = self.w(family)
        return lambda stdout: oracle.string_problem(w, stdout.rstrip("\n"), value)

    @staticmethod
    def _decimal_check(value: int):
        def check(stdout: str) -> str | None:
            try:
                got = oracle.decimal_value(stdout.rstrip("\n"))
            except ValueError as e:
                return str(e)
            return None if got == value else "decoded value differs from the digit-weighted sum"

        return check

    def _table_check(self, family: str, lo: int, hi: int):
        w = self.w(family)

        def check(stdout: str) -> str | None:
            lines = stdout.splitlines()
            if len(lines) != hi - lo + 1:
                return f"table printed {len(lines)} rows for {hi - lo + 1} values"
            for n, line in zip(range(lo, hi + 1), lines):
                label, _, text = line.partition(",")
                problem = f"row label {label!r}" if label != str(n) else oracle.string_problem(w, text, n)
                if problem:
                    return f"row {n}: {problem}"
            return None

        return check

    def _subprocess_op(self, kind: str, argv: list[str], check) -> Op:
        def run():
            p = subprocess.run(
                [sys.executable, "-m", "seqbase", *argv],
                cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
            )
            if p.returncode:
                raise CommandFailed(f"exit {p.returncode}: {p.stderr.strip().splitlines()[-1:]}")
            return p.stdout

        return Op(kind, run, check)

    @staticmethod
    def _main_op(kind: str, argv: list[str], check) -> Op:
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = seqbase.cli.main(argv)
            if code:
                raise CommandFailed(f"exit {code}: {err.getvalue().strip().splitlines()[-1:]}")
            return out.getvalue()

        return Op(kind, run, check)

    def setup(self) -> None:
        """The first, cold command: a fresh interpreter that imports seqbase and encodes."""
        self.setup_stdout = self._subprocess_op(*self.first_command).run()

    def check_setup(self) -> str | None:
        return self.first_command[2](self.setup_stdout)

    def round(self) -> list[Op]:
        return [self._subprocess_op(*c) for c in self._commands()]

    def in_process_round(self) -> list[Op]:
        return [self._main_op(*c) for c in self._commands()]

    def layer_metrics(self, window, full, phase):
        return {
            "codec.verify_range_p50_ms": full.p50("codec.verify_range") * 1e3,
            "digit_text.table_p50_ms": full.p50("digit_text.table") * 1e3,
            "cli.main_p50_ms": full.p50("cli.main") * 1e3,
            **self._startup_probes(),
        }

    def _startup_probes(self):
        """Start-up cost: a process that only imports seqbase.cli, and the import inside it."""
        code = "import time; t = time.perf_counter(); import seqbase.cli; print(time.perf_counter() - t)"
        process_s, import_s = [], []
        for _ in range(7):
            t0 = perf_counter()
            p = subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                               capture_output=True, text=True, timeout=120, check=True)
            process_s.append(perf_counter() - t0)
            import_s.append(float(p.stdout))
        return {
            "cli.process_p50_ms": statistics.median(process_s) * 1e3,
            "cli.import_ms": statistics.median(import_s) * 1e3,
        }


def _verify_check(stdout: str) -> str | None:
    return None if stdout.startswith("PASS ") else f"verify printed {stdout.strip()!r}"


WORKLOADS = {cls.name: cls for cls in (WideRoundtrip, DeepRoundtrip, MixedRadixArith, CliCommands)}
