import math
import sys

import pytest

from seqbase import cli, codec
from seqbase.codec import VerificationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def unlimited_str(n: int) -> str:
    """Decimal text of n, with the int/str conversion limit lifted for the call."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture
def finite_base_file(tmp_path):
    path = tmp_path / "base.txt"
    path.write_text("format=bounds\n1\n2\n")  # weights 1, 2, 6; values cap at 11
    return f"file:{path}"


class TestSuccess:
    @pytest.mark.parametrize(
        "argv, stdout",
        [
            (["encode", "--base", "factorial", "31"], "1101\n"),
            (["encode", "--base", "prime", "27"], "1000000101\n"),
            (["encode", "--base", "mpower:3", "9"], "11\n"),
            (["encode", "--base", "power:16", "255"], "15.15\n"),
            (["encode", "--base", "factorial", "--sep", ":", "31"], "1:1:0:1\n"),
            (["decode", "--base", "factorial", "1101"], "31\n"),
            (["decode", "--base", "power:16", "15.15"], "255\n"),
            (["add", "--base", "factorial", "210", "221"], "1101\n"),
            (["sub", "--base", "factorial", "1001", "320"], "11\n"),
            (["add", "--value", "--base", "factorial", "17", "14"], "1101\n"),
            (["sub", "--value", "--base", "fibonacci", "20", "7"], "100000\n"),
            (["mul", "--value", "--base", "factorial", "2", "3"], "100\n"),
            (["divrem", "--value", "--base", "factorial", "31", "5"], "100 1\n"),
            (["table", "--csv", "--base", "factorial", "--from", "4", "--to", "6"], "4,20\n5,21\n6,100\n"),
            (["verify", "--base", "fibonacci", "--upto", "100"],
             "PASS range [0, 100]: roundtrip_failures=0 bound_violations=0 canonicity_violations=0\n"),
        ],
    )
    def test_exit_zero(self, capsys, argv, stdout):
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_OK
        assert out == stdout
        assert err == ""

    def test_file_base(self, capsys, finite_base_file):
        assert run(capsys, "encode", "--base", finite_base_file, "11") == (cli.EXIT_OK, "121\n", "")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["encode", "--base", "prime:3", "5"],
            ["encode", "--base", "mpower", "5"],
            ["encode", "--base", "power:x", "5"],
            ["encode", "--base", "mpower:1", "5"],
            ["encode", "--base", "foo", "5"],
            ["encode", "--base", "file:/nonexistent/base.txt", "5"],
            ["decode", "--base", "factorial", "9"],
            ["decode", "--base", "factorial", "12a"],
            ["encode", "--base", "factorial", "-3"],
        ],
    )
    def test_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")

    def test_argparse_error_exits_two(self, capsys):
        code, out, _ = run(capsys, "encode", "--base", "factorial")
        assert code == cli.EXIT_USAGE
        assert out == ""


def test_value_beyond_finite_base_exits_three(capsys, finite_base_file):
    code, out, err = run(capsys, "encode", "--base", finite_base_file, "12")
    assert code == cli.EXIT_CAPACITY
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["sub", "--value", "--base", "factorial", "1", "2"],
        ["sub", "--value", "--base", "prime", "1", "2"],
        ["divrem", "--value", "--base", "factorial", "1", "0"],
    ],
)
def test_arithmetic_errors_exit_four(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_ARITH
    assert out == ""
    assert err.startswith("error: ")


def test_failed_verification_exits_five(capsys, monkeypatch):
    def failing(base, lo, hi):
        return VerificationReport(lo, hi, canonicity_violations=1, first_failure=lo)

    monkeypatch.setattr(codec, "verify_range", failing)
    code, out, _ = run(capsys, "verify", "--base", "factorial", "--upto", "10")
    assert code == cli.EXIT_VERIFY
    assert out.startswith("FAIL range [0, 10]:")


class TestTrace:
    @pytest.mark.parametrize(
        "argv, path",
        [
            (["add", "--base", "factorial", "210", "221"], "digitwise"),
            (["sub", "--base", "factorial", "1001", "320"], "digitwise"),
            (["add", "--value", "--base", "prime", "3", "2"], "decode"),
            (["mul", "--value", "--base", "factorial", "2", "3"], "decode"),
            (["divrem", "--value", "--base", "factorial", "31", "5"], "decode"),
        ],
    )
    def test_trace_goes_to_stderr_only(self, capsys, argv, path):
        plain = run(capsys, *argv)
        traced = run(capsys, argv[0], "--trace", *argv[1:])
        assert plain[0] == traced[0] == cli.EXIT_OK
        assert traced[1] == plain[1]
        assert plain[2] == ""
        assert traced[2].splitlines()[0] == f"path: {path}"

    def test_borrow_chain_on_stderr(self, capsys):
        _, _, err = run(capsys, "sub", "--trace", "--base", "factorial", "1001", "320")
        assert err.splitlines() == [
            "path: digitwise",
            "pos 1: 0 < 2, borrow reaches pos 3",
            "1001",
            "0401",
            "0331",
        ]


class TestBigNumbers:
    """Decimal I/O is not capped by the interpreter's int/str conversion limit."""

    def test_encode_5000_digit_number(self, capsys):
        number = "1234567890" * 500
        code, encoded, err = run(capsys, "encode", "--base", "factorial", number)
        assert (code, err) == (cli.EXIT_OK, "")
        assert run(capsys, "decode", "--base", "factorial", encoded.strip()) == (cli.EXIT_OK, number + "\n", "")

    def test_decode_to_1701_factorial(self, capsys):
        digits = "1" + ".0" * 1700
        assert run(capsys, "decode", "--base", "factorial", digits) == (
            cli.EXIT_OK,
            unlimited_str(math.factorial(1701)) + "\n",
            "",
        )

    def test_limit_is_restored(self, capsys):
        before = sys.get_int_max_str_digits()
        run(capsys, "decode", "--base", "factorial", "1" + ".0" * 1700)
        run(capsys, "sub", "--value", "--base", "factorial", "1", "2")
        assert sys.get_int_max_str_digits() == before
