"""Solver for discounted zero-sum stochastic games with additive structure.

Pipeline: game -> vertical complementarity problem -> equivalent square
LCP -> interior homotopy traced by a high-order predictor-corrector ->
recovered value vector and pure stationary strategies, certified against
an independent value-iteration / enumeration oracle.
"""

from .errors import (
    AratHomotopyError,
    ComplementarityResidualTooLarge,
    MaxIterExceeded,
    NoBindingRow,
    NoInteriorPointFound,
    NoPureSaddle,
    NotConverged,
    SingularJacobian,
    SizeGuardExceeded,
)
from .game_model import (
    AratGame,
    ValidationReport,
    composed_reward,
    composed_transition,
    validate,
)
from .homotopy_core import (
    HomotopyInstance,
    HomotopyPoint,
    eval_H,
    find_interior_point,
    jac_full,
    jac_t,
    jac_u,
)
from .oracle import (
    CertificateReport,
    GameSolution,
    certify,
    enumerate_lcp,
    evaluate_pure_pair,
    value_iteration,
)
from .path_tracer import (
    PathPoint,
    TraceResult,
    TraceStatus,
    TracerConfig,
    corrector,
    extract_solution,
    tangent,
    trace,
)
from .vlcp_builder import (
    SquareLcp,
    VerticalBlockMatrix,
    VlcpInstance,
    VlcpSolution,
    build_vlcp,
    check_vbr0_sufficient,
    recover_vlcp_solution,
    to_equivalent_lcp,
    verify_vbe_e,
    verify_vbr0_enum,
)

__version__ = "0.1.0"

__all__ = [
    "AratGame",
    "ValidationReport",
    "validate",
    "composed_reward",
    "composed_transition",
    "VerticalBlockMatrix",
    "VlcpInstance",
    "SquareLcp",
    "VlcpSolution",
    "build_vlcp",
    "to_equivalent_lcp",
    "recover_vlcp_solution",
    "check_vbr0_sufficient",
    "verify_vbe_e",
    "verify_vbr0_enum",
    "HomotopyInstance",
    "HomotopyPoint",
    "eval_H",
    "jac_u",
    "jac_t",
    "jac_full",
    "find_interior_point",
    "TracerConfig",
    "PathPoint",
    "TraceResult",
    "TraceStatus",
    "tangent",
    "corrector",
    "trace",
    "extract_solution",
    "GameSolution",
    "CertificateReport",
    "value_iteration",
    "evaluate_pure_pair",
    "enumerate_lcp",
    "certify",
    "AratHomotopyError",
    "ComplementarityResidualTooLarge",
    "MaxIterExceeded",
    "NoBindingRow",
    "NoInteriorPointFound",
    "NoPureSaddle",
    "NotConverged",
    "SingularJacobian",
    "SizeGuardExceeded",
]
