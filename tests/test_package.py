"""The package re-exports its public names lazily, each from its home module."""
import importlib
import os
import subprocess
import sys

import pytest

import sharplp

# the home module of every name of ``sharplp.__all__``, frozen here
HOMES = {
    "audit": """ChainReport Crossing HyperbolicPoint JensenDirection JensenReport
        PatternKind SignChangePattern audit_chain chain_eval curvature
        expected_pattern h_of_a hyperbolic_point invert_b jensen_audit
        sign_changes""",
    "doubling": """DoublingLink DoublingReport InequalityViolation P4Report
        SchattenDoublingReport direct_p4 doubling_step psi schatten_doubling""",
    "inequality": """EqualityCase EqualityKind InequalityReport SidesBatch
        detect_equality_case gamma_pair main_sides main_sides_batch""",
    "means": "AGMChain SharpnessResult constant_factor constant_factors sharpness_probe",
    "measure": """ExponentRegion MeasureSpace RegionKind SimpleFunction
        lp_functional lp_functional_rows lp_norm lp_norm_rows overlap_norm
        overlap_norm_rows reduce_to_probability""",
    "schatten": """PSDMatrix PSDStack SchattenBatch SchattenReport
        lieb_thirring_check lieb_thirring_stack random_psd random_psd_stack
        schatten_norm schatten_verify schatten_verify_stack""",
}
HOME = {name: module for module, names in HOMES.items() for name in names.split()}


def test_all_holds_the_frozen_names():
    assert len(HOME) == 60
    assert sharplp.__all__ == sorted(HOME)


@pytest.mark.parametrize("name", sorted(HOME))
def test_each_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"sharplp.{HOME[name]}")
    assert getattr(sharplp, name) is getattr(home, name)


def test_dir_lists_every_name():
    assert set(sharplp.__all__) <= set(dir(sharplp))
    assert "__version__" in dir(sharplp)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from sharplp import *", namespace)
    assert {name: namespace[name] for name in HOME} == {
        name: getattr(sharplp, name) for name in HOME
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sharplp.no_such_name
    assert not hasattr(sharplp, "no_such_name")
    with pytest.raises(ImportError):
        exec("from sharplp import no_such_name", {})


def test_import_loads_no_module_until_a_name_is_used():
    src = os.path.dirname(os.path.dirname(sharplp.__file__))
    probe = (
        "import sys, sharplp\n"
        "before = sorted(m for m in sys.modules if m.startswith('sharplp.'))\n"
        "sharplp.main_sides\n"
        "after = sorted(m for m in sys.modules if m.startswith('sharplp.'))\n"
        "print(before, 'sharplp.audit' in after, 'sharplp.inequality' in after)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.split() == ["[]", "False", "True"]
