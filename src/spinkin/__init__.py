"""spinkin: momentum-space kinematic operators on finite-dimensional Lorentz
representations.

Constructs parity and its generalizations on (j,0)+(0,j), derives Dirac-type
field equations for arbitrary spin, and machine-checks the charge-conjugation
no-go results, including the direction dependence of the Elko G operator at
the origin.
"""

from .decomposition import (
    Decomposition,
    NonHermitianBasisError,
    decomposition_residual,
    elko_rest_basis,
    hermiticity_condition,
    k_operator,
    xi_tilde_at_rest,
)
from .dirac import (
    GammaSet,
    SpinorBasis,
    boosted_spinors,
    dirac_operator,
    dirac_residual,
    gamma_matrices,
    rest_spinors,
)
from .elko import (
    Cx2Basis,
    ElkoBasis,
    antilinear_family,
    antilinear_kinematic_solutions,
    charge_conjugation,
    elko_basis,
    g_operator,
    helicity_g,
    helicity_origin_discontinuity,
    schur_conditions,
)
from .higherspin import (
    GammaTensor,
    contraction_identity_residual,
    extract_gamma_tensor,
    field_equation_residual,
    parity_spectrum,
)
from .kinematics import (
    FourMomentum,
    KinematicOperatorFamily,
    boost_matrix,
    covariance_residual,
    is_fully_kinematic,
    parity_family,
    parity_operator,
    rapidity_from_momentum,
    rotation_matrix,
    sample_momenta,
    scaled_swap_family,
)
from .linalg import AntiLinearMap, antilinear_compose, matrix_from_json, matrix_to_json, nullspace
from .reps import (
    HalfInt,
    LorentzTransform,
    RepGenerators,
    rep_generators,
    spin_matrices,
    tensor_rep_generators,
    vector_boost,
    vector_rotation,
)

__version__ = "0.1.0"
