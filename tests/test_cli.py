import math
import sys

import pytest

from conftest import run_capped
from seqbase import cli, codec, digit_text
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
            ["encode", "--base", "mpower:1001", "5"],  # m-power exponents stop at 1000
            ["encode", "--base", "mpower:100000000", "5"],
            ["encode", "--base", "factorial", "--sep", "", "100"],  # an empty separator is refused, not ignored
            ["decode", "--base", "factorial", "--sep", "", "4020"],
        ],
    )
    def test_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")

    def test_base_file_not_utf8_exits_two(self, capsys, tmp_path):
        path = tmp_path / "base.bin"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "encode", "--base", f"file:{path}", "3")
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and "not UTF-8" in err

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
        ["encode", "--base", "prime", "1000000000000"],  # past the prime sieve's limit of 10^8
        ["encode", "--base", "square", "1" + "0" * 40],  # top position 10^20 - 1: too wide to render
        ["encode", "--base", "square", "100000020000001"],  # (10^7 + 1)^2: top position exactly 10^7
    ],
)
def test_past_a_ceiling_exits_three(capsys, argv):
    code, out, err = run(capsys, *argv)
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

    def test_delimited_states(self, capsys):
        _, _, err = run(capsys, "sub", "--trace", "--base", "power:16", "1.0", ".3")
        assert err.splitlines() == ["path: digitwise", "pos 0: 0 < 3, borrow reaches pos 1", "10", "0.16"]

    def test_single_field_state_is_prefixed(self, capsys):
        # the state reads back as 15, as render writes it, not as the compact digits 1 and 5
        _, _, err = run(capsys, "sub", "--trace", "--base", "power:16", ".15", ".3")
        assert err.splitlines() == ["path: digitwise", ".15"]

    def test_borrow_states_past_the_write_limit_exit_three(self, capsys, monkeypatch):
        # 2^9 - 1 in power:2 borrows across nine zeros: ten states of ten characters
        monkeypatch.setattr(digit_text, "_WRITE_LIMIT", 100)
        code, _, err = run(capsys, "sub", "--trace", "--base", "power:2", "1" + "0" * 9, "1")
        assert (code, len(err.splitlines())) == (cli.EXIT_OK, 12)
        monkeypatch.setattr(digit_text, "_WRITE_LIMIT", 99)
        code, out, _ = run(capsys, "sub", "--trace", "--base", "power:2", "1" + "0" * 9, "1")
        assert (code, out) == (cli.EXIT_CAPACITY, "")


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


class TestMemoryCeiling:
    """A modest command finishes within a bounded address space."""

    def test_decode_fibonacci_100000_zeros_under_400_mb(self):
        # a table of every Fibonacci term up to position 100000 would need about 435 MB
        child = run_capped(["decode", "--base", "fibonacci", "1" + "0" * 100000], 400 * 2**20)
        f, g = 0, 1  # F_0, F_1
        for _ in range(100002):
            f, g = g, f + g
        assert (child.returncode, child.stderr) == (cli.EXIT_OK, "")
        assert child.stdout == unlimited_str(f) + "\n"  # w_100000 = F_100002

    def test_decode_power_of_two_100000_zeros_under_400_mb(self):
        # a table of every power of two up to 2^100000 would need about 670 MB
        child = run_capped(["decode", "--base", "power:2", "1" + "0" * 100000], 400 * 2**20)
        assert (child.returncode, child.stderr) == (cli.EXIT_OK, "")
        assert child.stdout == unlimited_str(2**100000) + "\n"

    def test_encode_power_of_three_40000_digits_under_400_mb(self):
        # a table of every power of three up to this value would need about 740 MB
        child = run_capped(["encode", "--base", "power:3", "1234567890" * 4000], 400 * 2**20)
        value = 1234567890 * ((10**40000 - 1) // (10**10 - 1))  # the decimal text, 4000 times 1234567890
        digits = []
        while value:  # successive division by 3
            value, d = divmod(value, 3)
            digits.append(str(d))
        assert (child.returncode, child.stderr) == (cli.EXIT_OK, "")
        assert child.stdout == "".join(reversed(digits)) + "\n"
