"""shiftdyn: weighted backward shifts, their tensor products, and the
computable side of their chaotic dynamics, on log-domain arithmetic."""

from .numerics import (
    LC_ZERO,
    LogComplex,
    lc_add,
    lc_conj,
    lc_from_cartesian,
    lc_from_complex,
    lc_mul,
    lc_neg,
    wrap_phase,
)
from .weights import (
    BargmannActionWeights,
    BargmannRawWeights,
    BlockPatternWeights,
    TableWeights,
    ThetaActionWeights,
    ThetaParams,
    ThetaRawWeights,
    WeightSequence,
    weight_sequence_from_json,
)
from .basis import (
    CoeffVector,
    bargmann_basis_eval,
    coeff_add,
    coeff_inner,
    coeff_neg,
    coeff_norm_log,
    coeff_sub,
    theta_basis_eval,
)
from .shift_ops import (
    Direction,
    ShiftOperator,
    apply_power,
    matrix_triplets,
    right_inverse,
    shift_operator_from_json,
    tensor_operator,
)
from .tensor_ops import tensor_of
from .criteria import (
    CriterionReport,
    Verdict,
    salas_scan,
    tensor_salas_scan,
)
from .dynamics import (
    EigenSpec,
    eigenvector_build,
    hypercyclic_vector_build,
    periodic_from_target,
    periodic_point_from_eigen,
    periodic_residual_numeric_log,
    rank_one_log_norms,
    rank_one_residual_log,
)
from .errors import (
    IndexBelowOffset,
    OffsetMismatch,
    OverflowNotRepresentable,
    QTooSmall,
    ScheduleOverflow,
    ShiftDynError,
    TableRangeError,
    TailNotCertifiable,
    ValidationError,
)

__version__ = "0.1.0"


def theta_backward_shift(nu: float, alpha: float = 0.0, p: int = 0) -> ShiftOperator:
    """The order-p theta-family backward shift."""
    return ShiftOperator((ThetaActionWeights(ThetaParams(nu=nu, alpha=alpha, p=p)),))


def bargmann_backward_shift(p: int = 0) -> ShiftOperator:
    """The order-p shift z^p d^{p+1}/dz^{p+1} on the monomial basis."""
    return ShiftOperator((BargmannActionWeights(p=p),))


def default_tensor_shift(p: int = 0, nu: float = 3.141592653589793, alpha: float = 0.0) -> ShiftOperator:
    """theta(nu, alpha, p) (x) bargmann(p), the reference chaotic pair."""
    return tensor_operator(theta_backward_shift(nu, alpha, p), bargmann_backward_shift(p))
