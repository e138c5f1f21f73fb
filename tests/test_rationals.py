from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from measurecycles import decimal_string, format_rational, parse_rational


def test_parse_accepts_ints_and_fraction_strings():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational(Fraction(1, 3)) == Fraction(1, 3)


def test_parse_rejects_floats_and_garbage():
    with pytest.raises(ValueError):
        parse_rational(0.5)
    with pytest.raises(ValueError):
        parse_rational("0.5")
    with pytest.raises(ValueError):
        parse_rational(True)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("")


def test_parse_rejects_a_negative_denominator():
    with pytest.raises(ValueError, match=r"^not a rational: '1/-2'$"):
        parse_rational("1/-2")
    with pytest.raises(ValueError, match=r"^not a rational: '-3/-4'$"):
        parse_rational("-3/-4")


digits = st.text("0123456789", min_size=1, max_size=40)
padding = st.text(" \t\n", max_size=2)


@given(padding, st.booleans(), digits, st.one_of(st.none(), digits), padding)
@example("", True, "0", None, "")
@example(" ", False, "007", "010", "\n")
@example("", True, "9" * 40, "1" + "0" * 39, "")
@example("", False, "\u0663", "\u0664", "")  # non-ASCII decimal digits
def test_parse_equals_fraction_on_every_accepted_string(lead, negative, num, den, trail):
    text = lead + ("-" if negative else "") + num + ("" if den is None else "/" + den) + trail
    if den is not None and int(den) == 0:
        with pytest.raises(ValueError, match=r"^zero denominator: "):
            parse_rational(text)
    else:
        assert parse_rational(text) == Fraction(text)


@pytest.mark.parametrize(
    "value, message",
    [
        ("1/0", "zero denominator: '1/0'"),
        ("", "not a rational: ''"),
        ("0.5", "not a rational: '0.5'"),
        (True, "not a rational: True"),
    ],
)
def test_parse_error_messages(value, message):
    with pytest.raises(ValueError) as info:
        parse_rational(value)
    assert str(info.value) == message


def test_format_roundtrip():
    for text in ["0", "5", "-3", "1/2", "-22/7"]:
        assert format_rational(parse_rational(text)) == text


def test_decimal_string_twenty_significant_digits():
    assert decimal_string(Fraction(1, 2)) == "0.5"
    assert decimal_string(Fraction(1, 3)) == "0.33333333333333333333"
    assert decimal_string(Fraction(2, 3)) == "0.66666666666666666667"
    assert decimal_string(Fraction(0)) == "0"


def test_decimal_string_round_half_even():
    # 20 significant digits: the 21st digit decides, ties go to even
    value = Fraction(100000000000000000005, 10**21)  # 0.100000000000000000005
    assert decimal_string(value) == "0.10000000000000000000"
    value = Fraction(100000000000000000015, 10**21)
    assert decimal_string(value) == "0.10000000000000000002"
