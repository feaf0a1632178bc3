"""qhermite: verified numerics for q-Hermite families and their oscillators.

q-arithmetic (qcore), the three q-Hermite polynomial families (polyfam),
truncated Fock-space operators (oscillator), lowering-operator coherent
states (coherent), and the generalized Fourier transform (transform), with
a CLI (qhermite) exposing evaluation tables and verification suites.
"""

from .coherent import (
    CoherentStateExpansion,
    RadiusReport,
    bg_expansion,
    closed_form_discrete2_cs,
    closed_form_rogers_cs,
    eigen_residual,
    moment_recurrence_check,
    overlap,
    radius_estimate,
    resolution_moment_profile,
    rogers_radius,
)
from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    InsufficientData,
    PoleError,
    QHermiteError,
    QuadratureError,
    UnsupportedFamily,
)
from .oscillator import (
    BnSequence,
    FockOperator,
    OperatorKind,
    Relation,
    build_operator,
    commutator_residual,
    discrete2_bn,
    hamiltonian_form_ratio,
    ladder_prefactor,
    qdiff_residual_discrete2,
    qdiff_residual_rogers,
    rogers_bn,
    source_for_family,
    spectrum,
)
from .polyfam import (
    Family,
    FamilyDescriptor,
    GramReport,
    discrete1,
    discrete1_eval,
    discrete1_polynomial,
    discrete2,
    discrete2_eval_monic,
    discrete2_eval_series,
    eval_orthonormal,
    eval_orthonormal_sequence,
    gram_matrix,
    phi_1_1,
    phi_2_1,
    recurrence_coeff,
    rogers,
    rogers_theta_rule,
    rogers_trig_eval,
)
from .qcore import (
    QParam,
    as_qparam,
    e_q,
    e_q_gaussian,
    e_q_reciprocal,
    e_q_tilde,
    jackson_integral,
    q_derivative,
    q_factorial,
    q_number,
    q_pochhammer,
)
from .transform import KernelSpec, gft_apply, gft_matrix, poisson_kernel

__version__ = "0.1.0"
