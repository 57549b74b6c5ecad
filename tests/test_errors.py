import math

import numpy as np
import pytest

from reclaim.errors import ParameterError, check_number, check_positive


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("inf"), 10 ** 400])
def test_check_number_refuses_a_real_number_that_is_not_finite(value):
    with pytest.raises(ParameterError, match=r"^x must be a finite real number, got "):
        check_number("x", value)


@pytest.mark.parametrize("value, shape, want", [
    (2, (3,), [2.0, 2.0, 2.0]),
    ([1, 2, 3], (3,), [1.0, 2.0, 3.0]),
    (0.5, (), 0.5),
])
def test_check_positive_broadcasts_one_number_to_the_shape(value, shape, want):
    got = check_positive("x", value, shape)
    assert got.shape == shape and got.dtype == float and np.array_equal(got, want)


def test_check_positive_returns_a_copy():
    value = np.ones(3)
    check_positive("x", value, (3,))[0] = 5.0
    assert value[0] == 1.0


@pytest.mark.parametrize("value, message", [
    ([1.0, 0.0], "x must be positive and finite, got 0.0"),
    ([1.0, -2.0], "x must be positive and finite, got -2.0"),
    ([np.nan, 1.0], "x must be positive and finite, got nan"),
    ([1.0, -np.inf], "x must be positive and finite, got -inf"),
    ([1.0], "x must be one number or of shape (2,), got shape (1,)"),
    ([[1.0, 1.0]], "x must be one number or of shape (2,), got shape (1, 2)"),
    ([1.0, True], "x must be an array of numbers: true and false are not numbers"),
    ("a", "x must be an array of numbers: could not convert string to float: 'a'"),
], ids=["zero", "negative", "nan", "-inf", "short", "extra-axis", "bool", "string"])
def test_check_positive_names_the_field_and_what_is_wrong(value, message):
    with pytest.raises(ParameterError) as info:
        check_positive("x", value, (2,))
    assert str(info.value) == message
