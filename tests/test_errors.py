"""Every library input that cannot be checked raises a SharpLpError.

``SharpLpError`` subclasses ``ValueError``, so callers catching ValueError
keep working; the CLI turns it into exit code 2 with one ``error:`` line.
"""
import os
from unittest import mock

import numpy as np
import pytest

from sharplp import errors
from sharplp.audit import (
    chain_eval,
    expected_pattern,
    h_of_a,
    hyperbolic_point,
    invert_b,
    sign_changes,
)
from sharplp.campaigns import means_campaign, schatten_campaign, verify_campaign
from sharplp.errors import SharpLpError
from sharplp.inequality import detect_equality_case, jensen_audit, main_sides
from sharplp.measure import MeasureSpace, SimpleFunction, check_stack
from sharplp.precision import active_mode
from sharplp.schatten import (
    PSDMatrix,
    PSDStack,
    random_psd,
    random_psd_stack,
    schatten_doubling,
    schatten_verify_stack,
)


def _bad_mode():
    with mock.patch.dict(os.environ, {"SHARPLP_PRECISION": "quad"}):
        active_mode()


ONES = np.ones((1, 2))

BAD_INPUTS = {
    "chain_c_subnormal": lambda: chain_eval("f", 1e-320, 0.5),
    "space_2d": lambda: MeasureSpace([[1.0]]),
    "space_empty": lambda: MeasureSpace([]),
    "space_negative_mass": lambda: MeasureSpace([1.0, -1.0]),
    "function_nan": lambda: SimpleFunction([float("nan")]),
    "stack_1d": lambda: check_stack(np.ones(2), np.ones(2)),
    "stack_empty_row": lambda: check_stack(ONES, ONES, np.zeros((1, 2), dtype=bool)),
    "stack_zero_mass": lambda: check_stack(ONES, np.zeros((1, 2))),
    "stack_inf_value": lambda: check_stack(np.full((1, 2), np.inf), ONES),
    "psd_stack_not_square": lambda: PSDStack(np.ones((1, 2, 3))),
    "psd_not_square": lambda: PSDMatrix(np.ones((2, 3))),
    "schatten_stack_mismatch": lambda: schatten_verify_stack(
        random_psd_stack(2, [0]), random_psd_stack(3, [1]), 4.0
    ),
    "schatten_doubling_mismatch": lambda: schatten_doubling(
        random_psd(2, 0), random_psd(3, 1), 4.0
    ),
    "precision_mode": _bad_mode,
    "verify_seed": lambda: verify_campaign(seed=-1),
    "verify_no_trials": lambda: verify_campaign(trials=0),
    "verify_one_point": lambda: verify_campaign(max_points=1),
    "means_seed": lambda: means_campaign(seed=-1),
    "schatten_seed": lambda: schatten_campaign(seed=-1),
    "psd_seed": lambda: random_psd(2, -1),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_raises_sharplp_error(name):
    with pytest.raises(SharpLpError):
        BAD_INPUTS[name]()


SPACE = MeasureSpace([0.5, 0.5])
ALPHA = SimpleFunction([0.2, 0.7])

# inputs that reach a raise no other test reaches, each with its exact class
EXACT_ERRORS = {
    "h_of_a_p_zero": (errors.ZeroExponent, lambda: h_of_a(0.3, 0)),
    "h_of_a_a_beyond_1": (errors.OutOfDomain, lambda: h_of_a(1.5, 3)),
    "invert_b_p_zero": (errors.ZeroExponent, lambda: invert_b(1, 0)),
    "invert_b_above_the_range": (errors.TargetOutOfRange, lambda: invert_b(1e20, -1)),
    "hyperbolic_point_negative_x": (errors.OutOfDomain, lambda: hyperbolic_point(-1, 3)),
    "hyperbolic_point_p_zero": (errors.ZeroExponent, lambda: hyperbolic_point(1, 0)),
    "chain_eval_c_zero": (errors.ZeroExponent, lambda: chain_eval("v", 0.0, 0.5)),
    "sign_changes_unknown_name": (errors.NameRequiresC, lambda: sign_changes("nope", 0.3, 1000)),
    "sign_changes_h0": (errors.NameRequiresC, lambda: sign_changes("h0", 0.3, 1000)),
    "expected_pattern_of_w": (errors.NameRequiresC, lambda: expected_pattern("w", 0.3)),
    "main_sides_misaligned": (
        errors.MisalignedFunction,
        lambda: main_sides(SimpleFunction([1.0, 2.0]), SimpleFunction([1.0]), SPACE, 3.0),
    ),
    "check_stack_mismatched_shapes": (
        errors.MisalignedFunction, lambda: check_stack(ONES, np.ones((1, 3)))
    ),
    "equality_case_negative_value": (
        errors.NegativeInput,
        lambda: detect_equality_case(SimpleFunction([-1.0, 1.0]), SimpleFunction([1.0, 1.0]),
                                     SPACE),
    ),
    "equality_case_zero_sum": (
        errors.ZeroSumPoint,
        lambda: detect_equality_case(SimpleFunction([0.0, 1.0]), SimpleFunction([0.0, 1.0]),
                                     SPACE),
    ),
    "jensen_p_zero": (errors.ZeroExponent, lambda: jensen_audit(ALPHA, SPACE, 0.0)),
    "jensen_p_two": (errors.ExponentOutOfRange, lambda: jensen_audit(ALPHA, SPACE, 2.0)),
    "schatten_doubling_of_zeros": (
        errors.NotPSD,
        lambda: schatten_doubling(PSDMatrix(np.zeros((2, 2))), PSDMatrix(np.zeros((2, 2))), 4.0),
    ),
}


@pytest.mark.parametrize("name", sorted(EXACT_ERRORS))
def test_bad_input_raises_its_exact_error(name):
    cls, call = EXACT_ERRORS[name]
    with pytest.raises(SharpLpError) as exc:
        call()
    assert type(exc.value) is cls
