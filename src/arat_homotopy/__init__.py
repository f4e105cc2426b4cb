"""Solver for discounted zero-sum stochastic games with additive structure.

Pipeline: game -> vertical complementarity problem -> equivalent square
LCP -> interior homotopy traced by a high-order predictor-corrector ->
pure stationary strategies read off the endpoint, certified exactly by
Shapley's one-shot deviation inequalities at the pair's own value.
``solve(game)`` runs it in one call and returns an ``Answer``.  Value
iteration and LCP enumeration remain as independent oracles.
"""

from .errors import (
    AratHomotopyError,
    InvalidGame,
    MaxIterExceeded,
    NoInteriorPointFound,
    SingularJacobian,
    SizeGuardExceeded,
)
from .game_model import AratGame, ValidationReport, validate
from .homotopy_core import (
    HomotopyInstance,
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
    corrector,
    extract_solution,
    tangent,
    trace,
)
from .vlcp_builder import (
    SquareLcp,
    VlcpInstance,
    VlcpSolution,
    build_vlcp,
    recover_vlcp_solution,
    to_equivalent_lcp,
)

__version__ = "0.1.0"

__all__ = [
    "solve",
    "Answer",
    "AratGame",
    "ValidationReport",
    "validate",
    "VlcpInstance",
    "SquareLcp",
    "VlcpSolution",
    "build_vlcp",
    "to_equivalent_lcp",
    "recover_vlcp_solution",
    "HomotopyInstance",
    "eval_H",
    "jac_u",
    "jac_t",
    "jac_full",
    "find_interior_point",
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
    "InvalidGame",
    "MaxIterExceeded",
    "NoInteriorPointFound",
    "SingularJacobian",
    "SizeGuardExceeded",
]


def __getattr__(name: str):
    # cli is loaded on first use: loaded with the package, it would make
    # ``python -m arat_homotopy.cli`` warn that it is already imported
    if name in ("solve", "Answer"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
