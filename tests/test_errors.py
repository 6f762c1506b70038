import math
from fractions import Fraction

import numpy as np
import pytest

from cavtraj.errors import InvalidArgument, ValidationError, check_number

ACCEPTED = {
    "float": (0.5, {}),
    "int_as_real": (3, {}),
    "numpy_float": (np.float64(-2.0), {}),
    "fraction": (Fraction(1, 3), {"positive": True}),
    "zero_at_least": (0.0, {"least": 0}),
    "integer_at_least": (1, {"least": 1, "integer": True}),
    "numpy_integer": (np.int64(7), {"integer": True}),
    "largest_float": (1.7e308, {"positive": True}),
}


@pytest.mark.parametrize("value, rule", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_accepts_a_number_that_keeps_the_rule(value, rule):
    assert check_number(value, "x", **rule) is None


REJECTED = {
    "bool": (True, {}, "x must be a real number: True"),
    "numpy_bool": (np.True_, {}, "x must be a real number"),
    "text": ("1", {}, "x must be a real number: '1'"),
    "none": (None, {}, "x must be a real number: None"),
    "nan": (math.nan, {}, "non-finite x: nan"),
    "inf": (-math.inf, {}, "non-finite x: -inf"),
    "too_large_for_a_float": (10**400, {}, "x is too large for a float"),
    "zero_not_positive": (0.0, {"positive": True}, "x must be > 0: 0.0"),
    "below_least": (-1, {"least": 0}, "x must be >= 0: -1"),
    "fraction_not_integer": (2.5, {"integer": True}, "x must be an integer: 2.5"),
    "float_not_integer": (2.0, {"integer": True}, "x must be an integer: 2.0"),
    "nan_not_integer": (math.nan, {"integer": True}, "x must be an integer: nan"),
    "bool_not_integer": (False, {"integer": True}, "x must be an integer: False"),
    "integer_too_large": (-(10**400), {"least": 0, "integer": True}, "x is too large for a float"),
}


@pytest.mark.parametrize("value, rule, message", REJECTED.values(), ids=REJECTED.keys())
def test_rejects_with_a_message_that_names_the_input(value, rule, message):
    with pytest.raises(InvalidArgument) as info:
        check_number(value, "x", **rule)
    assert str(info.value).startswith(message)


def test_raises_the_class_it_is_given():
    with pytest.raises(ValidationError, match="non-finite Spec.x"):
        check_number(math.nan, "Spec.x", error=ValidationError)
