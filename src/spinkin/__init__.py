"""spinkin: momentum-space kinematic operators on finite-dimensional Lorentz
representations.

Constructs parity and its generalizations on (j,0)+(0,j), derives Dirac-type
field equations for arbitrary spin, and machine-checks the charge-conjugation
no-go results, including the direction dependence of the Elko G operator at
the origin.

`import spinkin` loads no submodule. Each public name below, and each of the
seven submodules that define them, resolves on first use (PEP 562): the
first `spinkin.parity_operator` imports `spinkin.kinematics` and binds the
name here, so a one-shot command pays only for the modules it runs.
"""

import importlib as _importlib

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "decomposition": (
        "Decomposition", "NonHermitianBasisError", "decomposition_residual", "elko_rest_basis",
        "hermiticity_condition", "k_operator", "xi_tilde_at_rest",
    ),
    "dirac": ("GammaSet", "SpinorBasis", "boosted_spinors", "dirac_operator", "gamma_matrices", "rest_spinors"),
    "elko": (
        "Cx2Basis", "ElkoBasis", "antilinear_family", "antilinear_kinematic_solutions", "charge_conjugation",
        "elko_basis", "g_operator", "helicity_origin_discontinuity", "schur_conditions",
    ),
    "higherspin": ("GammaTensor", "field_equation_residual", "gamma_tensor", "involution_certificate"),
    "kinematics": (
        "FourMomentum", "KinematicOperatorFamily", "boost_matrix", "covariance_residual", "is_fully_kinematic",
        "parity_family", "parity_operator", "rapidity_from_momentum", "rotation_matrix", "sample_momenta",
        "scaled_swap_family",
    ),
    "linalg": ("AntiLinearMap", "nullspace"),
    "reps": (
        "HalfInt", "LorentzTransform", "RepGenerators", "rep_generators", "spin_matrices", "tensor_rep_generators",
        "vector_boost", "vector_rotation",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
