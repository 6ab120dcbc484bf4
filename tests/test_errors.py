"""Every library input that cannot be checked raises a SharpLpError.

``SharpLpError`` subclasses ``ValueError``, so callers catching ValueError
keep working; the CLI turns it into exit code 2 with one ``error:`` line.
"""
import os
from unittest import mock

import numpy as np
import pytest

from sharplp.audit import chain_eval
from sharplp.campaigns import means_campaign, schatten_campaign, verify_campaign
from sharplp.errors import SharpLpError
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
