"""sharplp: numerical verification of sharpened p-th power triangle bounds.

The package evaluates both sides of the sharpened two-function inequality on
finite discrete measure spaces, the constant-ratio factor and its power-mean
restatements, the convexity and sign-change structure behind the proof, the
exponent-doubling step, and the non-commutative trace analog for positive
matrices.

The names below are re-exported lazily (PEP 562): ``sharplp.main_sides``
imports ``sharplp.inequality`` on first use, so importing the package, or
``sharplp.cli``, loads only the modules a caller reaches.  ``audit`` and
``doubling`` are reached by no double-precision command.
"""
from importlib import import_module

__version__ = "0.1.0"

# the home module of each re-exported name
_EXPORTS = {
    "audit": (
        "ChainReport",
        "Crossing",
        "HyperbolicPoint",
        "JensenDirection",
        "JensenReport",
        "PatternKind",
        "SignChangePattern",
        "audit_chain",
        "chain_eval",
        "curvature",
        "expected_pattern",
        "h_of_a",
        "hyperbolic_point",
        "invert_b",
        "jensen_audit",
        "sign_changes",
    ),
    "doubling": (
        "DoublingLink",
        "DoublingReport",
        "InequalityViolation",
        "P4Report",
        "SchattenDoublingReport",
        "direct_p4",
        "doubling_step",
        "psi",
        "schatten_doubling",
    ),
    "inequality": (
        "EqualityCase",
        "EqualityKind",
        "InequalityReport",
        "SidesBatch",
        "detect_equality_case",
        "gamma_pair",
        "main_sides",
        "main_sides_batch",
    ),
    "means": (
        "AGMChain",
        "SharpnessResult",
        "constant_factor",
        "constant_factors",
        "sharpness_probe",
    ),
    "measure": (
        "ExponentRegion",
        "MeasureSpace",
        "RegionKind",
        "SimpleFunction",
        "lp_functional",
        "lp_functional_rows",
        "lp_norm",
        "lp_norm_rows",
        "overlap_norm",
        "overlap_norm_rows",
        "reduce_to_probability",
    ),
    "schatten": (
        "PSDMatrix",
        "PSDStack",
        "SchattenBatch",
        "SchattenReport",
        "lieb_thirring_check",
        "lieb_thirring_stack",
        "random_psd",
        "random_psd_stack",
        "schatten_norm",
        "schatten_verify",
        "schatten_verify_stack",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
