"""Solver for discounted zero-sum stochastic games with additive structure.

Pipeline: game -> vertical complementarity problem -> equivalent square
LCP and its strictly feasible start, r2 shifted if it must be (one call)
-> interior homotopy traced by a high-order predictor-corrector -> a
pure stationary pair read off a path point's slack, certified by
Shapley's one-shot deviation inequalities at the pair's own value (one
d x d solve) with a slack of 1e-9 (1 + max |v|), which smaller gains
pass.  That certificate is the only gate of ``solve``, and each distinct
pair is judged once per call: the start's own pair (path point 0) is
judged first, and if it passes nothing is traced; else one loop reads
the pair of each path point (``extract_solution``) from the endpoint
back, and the first that passes is the answer; if none does,
Hoffman–Karp strategy iteration (``strategy_iteration``) starts from the
endpoint's pair.  The ``Answer`` names the stage: ``endpoint``, ``path``
or ``strategy_iteration``.  ``vlcp_builder`` owns the game's block
layout both ways (the problems, the start, the readout);
``homotopy_core`` holds only the map and its derivatives.
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
from .homotopy_core import HomotopyInstance, eval_H, jac_full, jac_t, jac_u
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
    build_vlcp,
    find_interior_point,
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
