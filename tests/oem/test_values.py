"""Tests for the atomic value domain and Lorel's forgiving coercion."""

import pytest

from repro import COMPLEX, parse_timestamp
from repro.errors import ValueError_
from repro.oem.values import (
    check_value,
    coerce_pair,
    compare,
    is_atomic_value,
    like,
    value_repr,
)


class TestValueDomain:
    def test_atomic_values(self):
        for value in [1, 2.5, "x", True, False, parse_timestamp("1Jan97")]:
            assert is_atomic_value(value)

    def test_non_atomic_values(self):
        for value in [COMPLEX, None, [1], {"a": 1}, object()]:
            assert not is_atomic_value(value)

    def test_check_value_accepts_complex(self):
        assert check_value(COMPLEX) is COMPLEX

    def test_check_value_rejects_lists(self):
        with pytest.raises(ValueError_):
            check_value([1, 2])

    def test_check_value_rejects_none(self):
        with pytest.raises(ValueError_):
            check_value(None)

    def test_complex_is_singleton_and_falsy(self):
        from repro.oem.values import Complex
        assert Complex() is COMPLEX
        assert not COMPLEX

    def test_complex_copy_is_identity(self):
        import copy
        assert copy.copy(COMPLEX) is COMPLEX
        assert copy.deepcopy(COMPLEX) is COMPLEX

    def test_value_repr(self):
        assert value_repr(COMPLEX) == "C"
        assert value_repr(10) == "10"
        assert value_repr("x") == "'x'"


class TestCoercion:
    """The behaviour of Example 4.1: coerce or return False, never raise."""

    def test_int_vs_real(self):
        assert compare(10, 20.5, "<")
        assert compare(20.5, 10, ">")

    def test_numeric_string_coerces(self):
        assert compare("10", 10, "=")
        assert compare(10, "10.5", "<")

    def test_non_numeric_string_fails_quietly(self):
        # "moderate" < 20.5 is False, not an error (Example 4.1).
        assert not compare("moderate", 20.5, "<")
        assert not compare("moderate", 20.5, ">")
        assert not compare("moderate", 20.5, "=")
        # A unit separator matches the pattern's \s but no number parser.
        assert not compare("0\x1f", 0, "=")
        assert not compare(0, "0\x1f", "=")

    def test_complex_never_compares(self):
        assert not compare(COMPLEX, COMPLEX, "=")
        assert not compare(COMPLEX, 10, "=")

    def test_none_never_compares(self):
        assert not compare(None, 10, "=")
        assert not compare(10, None, "!=")

    def test_string_string(self):
        assert compare("abc", "abd", "<")
        assert compare("abc", "abc", "=")
        assert compare("abc", "abd", "!=")

    def test_timestamp_vs_string(self):
        ts = parse_timestamp("5Jan97")
        assert compare(ts, "8Jan97", "<")
        assert compare("8Jan97", ts, ">")
        assert compare(ts, "1997-01-05", "=")

    def test_timestamp_vs_non_timestamp_string(self):
        assert not compare(parse_timestamp("5Jan97"), "hello", "=")
        assert not compare(parse_timestamp("5Jan97"), "hello", "<")

    def test_two_timestampish_strings(self):
        assert compare("4Jan97", "1997-01-04", "=")
        assert compare("4Jan97", "8Jan97", "<")

    def test_bool_as_number(self):
        assert compare(True, 1, "=")
        assert compare(False, 0, "=")
        assert compare(True, 0.5, ">")

    def test_all_operators(self):
        assert compare(1, 2, "<") and compare(1, 2, "<=")
        assert compare(2, 1, ">") and compare(2, 1, ">=")
        assert compare(1, 1, "=") and compare(1, 1, "==")
        assert compare(1, 2, "!=") and compare(1, 2, "<>")

    def test_unknown_operator_raises(self):
        with pytest.raises(ValueError_):
            compare(1, 2, "<<")

    def test_coerce_pair_no_coercion(self):
        assert coerce_pair("abc", 5) is None

    def test_coerce_pair_numbers(self):
        assert coerce_pair(1, "2") == (1, 2)

    def test_scientific_notation_string(self):
        assert compare("1e3", 1000, "=")


class TestLike:
    def test_percent(self):
        assert like("Lytton Street", "%Lytton%")
        assert like("Lytton", "Lytton%")
        assert not like("Hamilton", "%Lytton%")

    def test_underscore(self):
        assert like("cat", "c_t")
        assert not like("cart", "c_t")

    def test_exact(self):
        assert like("abc", "abc")
        assert not like("abc", "abd")

    def test_coerces_numbers(self):
        assert like(120, "12%")
        assert like(20.5, "%.5")

    def test_coerces_booleans(self):
        assert like(True, "true")
        assert like(False, "f%")

    def test_coerces_timestamps(self):
        assert like(parse_timestamp("1Jan97"), "%Jan97")

    def test_complex_never_matches(self):
        assert not like(COMPLEX, "%")

    def test_multiline_text(self):
        assert like("line1\nline2", "line1%line2")
