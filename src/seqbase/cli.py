"""Command line front end: encode, decode, digit arithmetic, tables, verification.

Results go to stdout, diagnostics and traces to stderr.  Exit codes:
0 success, 2 parse/validation errors, 3 capacity errors, 4 underflow or
division by zero, 5 verification failure.
"""

from __future__ import annotations

import argparse
import sys

from . import base_sequences, codec, digit_text, mixed_radix_arith
from .errors import (
    DivisionByZero,
    IndexBeyondCapacity,
    InvalidParameter,
    SeqBaseError,
    Underflow,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_ARITH = 4
EXIT_VERIFY = 5

def resolve_base(spec: str) -> base_sequences.BaseSequence:
    """Turn a --base argument, ``name[:param]`` or ``file:<path>``, into a BaseSequence."""
    if spec.startswith("file:"):
        return base_sequences.load_base_file(spec[len("file:"):])
    name, _, arg = spec.partition(":")
    try:
        factory, params = base_sequences._BUILTINS[name]
    except KeyError:
        raise InvalidParameter(f"unknown base spec {spec!r}") from None
    values = [arg] if arg else []
    if len(values) != len(params):
        raise InvalidParameter(f"base {name!r} takes parameters {list(params)}, got {spec!r}")
    return factory(*(_natural(v, f"{name} parameter {p}") for p, v in zip(params, values)))


def _natural(s: str, what: str) -> int:
    if not (s and s.isascii() and s.isdigit()):
        raise InvalidParameter(f"{what} must be a decimal natural, got {s!r}")
    return int(s)


def _render_format(args) -> digit_text.RenderFormat:
    if getattr(args, "compact", False):
        return digit_text.COMPACT
    if getattr(args, "sep", None) is not None:
        return digit_text.delimited(args.sep)
    return digit_text.AUTO


def _parse_format(args) -> digit_text.RenderFormat:
    # operands always use the auto grammar; --sep only changes the separator
    if getattr(args, "sep", None) is not None:
        return digit_text.RenderFormat("auto", args.sep)
    return digit_text.AUTO


def _operand(base, s: str, args) -> codec.Representation:
    if getattr(args, "value", False):
        return codec.encode_greedy(base, _natural(s, "operand"))
    return digit_text.parse(base, s, _parse_format(args))


def _emit_trace(trace) -> None:
    if trace is None:
        return
    print(f"path: {trace.path}", file=sys.stderr)
    for line in trace.events:
        print(line, file=sys.stderr)
    for line in trace.states:
        print(line, file=sys.stderr)


def _cmd_encode(args) -> int:
    base = resolve_base(args.base)
    rep = codec.encode_greedy(base, _natural(args.number, "value"))
    print(digit_text.render(rep, _render_format(args)))
    return EXIT_OK


def _cmd_decode(args) -> int:
    base = resolve_base(args.base)
    rep = digit_text.parse(base, args.digits, _parse_format(args))
    print(codec.decode(rep))
    return EXIT_OK


def _cmd_arith(args) -> int:
    base = resolve_base(args.base)
    x = _operand(base, args.x, args)
    y = _operand(base, args.y, args)
    trace = mixed_radix_arith.ArithTrace() if args.trace else None
    result = args.op(x, y, trace=trace)
    _emit_trace(trace)
    fmt = _render_format(args)
    results = result if isinstance(result, tuple) else (result,)  # divrem gives (quotient, remainder)
    print(" ".join(digit_text.render(r, fmt) for r in results))
    return EXIT_OK


def _cmd_table(args) -> int:
    base = resolve_base(args.base)
    rows = digit_text.table(base, args.start, args.end, _render_format(args))
    for n, row in zip(range(args.start, args.end + 1), rows):
        print(f"{n},{row}" if args.csv else row)
    return EXIT_OK


def _cmd_verify(args) -> int:
    base = resolve_base(args.base)
    report = codec.verify_range(base, 0, args.upto)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_VERIFY


def _add_base_arg(p: argparse.ArgumentParser) -> None:
    families = [name + "".join(f":<{k}>" for k in params) for name, (_, params) in base_sequences._BUILTINS.items()]
    p.add_argument("--base", required=True, help=" | ".join(families + ["file:<path>"]))


def _add_format_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--sep", metavar="CHAR", help="force delimited output with this separator")
    g.add_argument("--compact", action="store_true", help="force compact output (digits 0-9 only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqbase",
        description="Positional numeration over strictly increasing weight sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="write a natural number as digits in a base")
    _add_base_arg(p)
    _add_format_args(p)
    p.add_argument("number", help="decimal natural to encode")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="read a digit string back to a decimal value")
    _add_base_arg(p)
    _add_format_args(p)
    p.add_argument("digits", help="digit string (auto grammar)")
    p.set_defaults(func=_cmd_decode)

    for name, blurb in (
        ("add", "add two canonical digit strings"),
        ("sub", "subtract two canonical digit strings"),
        ("mul", "multiply two canonical digit strings"),
        ("divrem", "divide; prints quotient, space, remainder"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_base_arg(p)
        _add_format_args(p)
        p.add_argument("--value", action="store_true", help="operands are decimal values")
        p.add_argument("--trace", action="store_true", help="print carry/borrow steps to stderr")
        p.add_argument("x")
        p.add_argument("y")
        p.set_defaults(func=_cmd_arith, op=getattr(mixed_radix_arith, name))

    p = sub.add_parser("table", help="print the representations of a value range")
    _add_base_arg(p)
    _add_format_args(p)
    p.add_argument("--from", dest="start", type=int, required=True, metavar="N")
    p.add_argument("--to", dest="end", type=int, required=True, metavar="M")
    p.add_argument("--csv", action="store_true", help="print n,representation lines")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="check round-trip, bounds, and canonicity over [0, N]")
    _add_base_arg(p)
    p.add_argument("--upto", type=int, required=True, metavar="N")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    # decimal I/O is this command's job: lift the int/str conversion limit
    # (Python >= 3.10.7) while it runs, and restore it for in-process callers
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (Underflow, DivisionByZero) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ARITH
    except IndexBeyondCapacity as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except SeqBaseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def run() -> None:
    sys.exit(main(sys.argv[1:]))
