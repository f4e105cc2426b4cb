"""Predictor-corrector tracer for the interior homotopy path.

Each outer step computes a unit tangent whose orientation comes from the
sign of det(dH/du) (keeping the bordered determinant negative along the
path), takes a predictor step of length l0^l, and projects back with a
three-stage minimum-norm corrector repeated m times (m = 1 by default).
Steps are halved until the residual gate and the positivity gate hold;
the walk ends when |t| falls below eps1.  The endpoint is not judged
here: the game answer read from it is certified exactly downstream (see
``oracle.certify``).

Cost of one step: the tangent takes one guarded LU of dH/du, which gives
both the direction and the determinant sign.  Each trial point then
costs m corrector passes, and each pass builds two wide Jacobians,
evaluates the map twice and does three minimum-norm solves, each from
one guarded LU of the transposed Jacobian (``minnorm_solve``).  LU with
partial pivoting is the tracer's only factorization, and LAPACK is
called directly.  One pass is the default because it already brings
most trial corrections below a residual of 1e-10; a second pass doubles
the cost of every trial.  The corrector works on flat vectors
v = (x, y1, y2, t); a HomotopyPoint is built only for trial candidates
and accepted points.

The positivity gate guards x, the slack A x + q, and y2 - exactly the
coordinates whose strict positivity is invariant along any solution
branch with t > 0 (the middle block of the map forces t y1_0 x0 = 0 at
x_i = 0, and the bottom block pins the slack and y2 signs through their
products).  y1 is deliberately not gated: it is an affine function of
the rest, dips below zero transiently on real paths, and returns to the
nonnegative slack vector in the t -> 0 limit.  Gating it rejects the
true branch and stalls the walk.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy.linalg import lapack

from .errors import NotConverged, SingularJacobian
from .homotopy_core import (
    HomotopyInstance,
    HomotopyPoint,
    PointLike,
    eval_H,
    jac_full,
    jac_t,
    jac_u,
)
from .vlcp_builder import SquareLcp, VlcpSolution, recover_vlcp_solution

log = logging.getLogger(__name__)

#: Reciprocal condition estimate below which a factorization is rejected:
#: of dH/du in the tangent, and of the U factor of J^T in minnorm_solve.
_RCOND_MIN = 1e-12


def det_sign_lu(lu: np.ndarray, piv: np.ndarray) -> int:
    """Sign of det(a) from its LU factorization ``(lu, piv)`` (dgetrf).

    Uses only the permutation parity and the signs of the U diagonal;
    the determinant value itself is never formed.
    """
    diag = np.diag(lu)
    if np.any(diag == 0.0):
        return 0
    swaps = int(np.count_nonzero(piv != np.arange(piv.size)))
    negative = int(np.count_nonzero(diag < 0.0))
    return -1 if (swaps + negative) % 2 else 1


def _lu_with_guard(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factorization that raises SingularJacobian on bad conditioning."""
    anorm = np.linalg.norm(a, 1)
    lu, piv, _ = lapack.dgetrf(a)
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    if info != 0 or not np.isfinite(rcond) or rcond < _RCOND_MIN:
        raise SingularJacobian(
            f"derivative matrix has reciprocal condition {rcond!r}"
        )
    return lu, piv


def minnorm_solve(j: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of the underdetermined system J d = h.

    J is r x c with k = c - r >= 0.  One LU with partial pivoting over all
    c rows of J^T gives P J^T = L U, where L = [L1; L2] stacks an r x r
    unit lower triangle L1 on a k x r block L2.  With e = P d the system
    reads U^T (L1^T e1 + L2^T e2) = h, so its solutions are e1 = a - B e2
    for any e2, where U^T g = h and L1^T [a | B] = [g | L2^T].  The
    shortest takes e2 = c with (B^T B + I) c = B^T a, and d = P^T e has
    the norm of e.  For square J (k = 0) this is the plain LU solve.

    The gate is the 1-norm reciprocal condition estimate of U (dtrcon):
    it measures the r rows of J^T that pivoting chose, not J itself.
    Since pivoting ranges over all c rows, any J of full row rank passes,
    including a 3n x (3n+1) Jacobian at a fold where dH/du is singular.
    A non-finite B (NaN or overflow in the rows left out of U) is
    rejected as well.
    """
    rows, cols = j.shape
    if rows > cols:
        raise ValueError("minnorm_solve needs a square or wide matrix")
    k = cols - rows
    lu, piv, info = lapack.dgetrf(j.T)
    # dtrcon takes the order from the leading dimension: pass U square
    rcond, _ = lapack.dtrcon(lu[:rows], norm="1", uplo="U", diag="N")
    if info != 0 or not np.isfinite(rcond) or rcond < _RCOND_MIN:
        raise SingularJacobian(
            f"correction system has reciprocal condition {rcond!r}"
        )
    g, _ = lapack.dtrtrs(lu, h, trans=1)
    rhs = np.empty((k + 1, rows)).T  # Fortran order, columns g and L2^T
    rhs[:, 0] = g
    rhs[:, 1:] = lu[rows:].T
    ab, _ = lapack.dtrtrs(lu, rhs, lower=1, trans=1, unitdiag=1,
                          overwrite_b=1)
    a, b = ab[:, 0], ab[:, 1:]
    e = a
    if k:
        gram = b.T @ b + np.eye(k)
        if not np.isfinite(gram).all():
            raise SingularJacobian("correction system has non-finite factors")
        _, c, _ = lapack.dposv(gram, b.T @ a)
        e = np.concatenate((a - b @ c, c))
    return lapack.dlaswp(e[:, None], piv, inc=-1, overwrite_a=1)[:, 0]


def corrector_core(f: Callable[[np.ndarray], np.ndarray],
                   jac: Callable[[np.ndarray], np.ndarray],
                   v0: np.ndarray, passes: int) -> np.ndarray:
    """Three-stage high-order correction repeated ``passes`` times.

    One pass: K = J(v)+ f(v); L = v - K; KK = (J(L) + J(v))+ f(v);
    LL = v - 2 KK; next = LL - J(L)+ f(LL).  A pass with f(v) = 0 is the
    identity.
    """
    v = np.array(v0, dtype=float)
    for _ in range(passes):
        h_v = f(v)
        j_v = jac(v)
        k = minnorm_solve(j_v, h_v)
        l_pt = v - k
        j_l = jac(l_pt)
        kk = minnorm_solve(j_v + j_l, h_v)
        ll = v - 2.0 * kk
        v = ll - minnorm_solve(j_l, f(ll))
    return v


def tangent(inst: HomotopyInstance, p: HomotopyPoint,
            *, initial: bool = False) -> tuple[np.ndarray, int]:
    """Unit tangent of the path at p, and the Jacobian determinant sign.

    With s = (dH/du)^{-1} dH/dt, the raw direction is (s, -1) normalized;
    on the first step it is used as-is, afterwards it is flipped whenever
    det(dH/du) < 0 so the walk keeps a consistent orientation.  One
    guarded LU of dH/du gives both s and the sign.
    """
    lu, piv = _lu_with_guard(jac_u(inst, p))
    s, _ = lapack.dgetrs(lu, piv, jac_t(inst, p))
    raw = np.concatenate([s, [-1.0]])
    raw /= np.linalg.norm(raw)
    sign = det_sign_lu(lu, piv)
    if sign == 0:
        raise SingularJacobian("derivative matrix is exactly singular")
    if initial or sign > 0:
        return raw, sign
    return -raw, sign


def corrector(inst: HomotopyInstance, predictor: PointLike,
              m: int) -> HomotopyPoint:
    """Project a predicted point back toward the path, m high-order passes.

    The passes run on flat vectors v = (x, y1, y2, t); only the result
    becomes a point.
    """
    v0 = predictor if isinstance(predictor, np.ndarray) else predictor.v
    v = corrector_core(lambda v: eval_H(inst, v),
                       lambda v: jac_full(inst, v), v0, m)
    return HomotopyPoint.from_v(v)


class TraceStatus(Enum):
    CONVERGED = "Converged"
    NO_PROGRESS = "NoProgress"
    MAX_STEPS = "MaxSteps"
    PATH_UNBOUNDED = "PathUnbounded"
    SINGULAR_JACOBIAN = "SingularJacobian"


@dataclass(frozen=True)
class TracerConfig:
    """Step-control constants.

    eps1 ends the walk (|t| <= eps1), eps3 bounds how small the predictor
    step may get before giving up on a point, eps2 classifies the giving-up
    as near-convergence versus stall; they must satisfy eps2 > eps3 > eps1.
    """

    eps1: float = 1e-7
    eps2: float = 1e-3
    eps3: float = 1e-5
    l0: float = 0.5
    m: int = 1
    a0: float = 1e-8
    r_accept: float = 1.0
    max_steps: int = 10_000
    bound_b: float = 1e8

    def __post_init__(self) -> None:
        if not (self.eps2 > self.eps3 > self.eps1 > 0.0):
            raise ValueError("need eps2 > eps3 > eps1 > 0")
        if not (0.0 < self.l0 < 1.0):
            raise ValueError("step base l0 must lie in (0, 1)")
        if not (1 <= self.m < 50):
            raise ValueError("corrector repeat count m must satisfy 1 <= m < 50")
        if not (self.a0 > 0.0 and self.r_accept > 0.0):
            raise ValueError("a0 and r_accept must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if not (self.bound_b > 0.0):
            raise ValueError("bound_b must be positive")


@dataclass(frozen=True)
class PathPoint:
    u: HomotopyPoint
    residual: float
    step_length: float
    det_sign: int
    step_index: int


@dataclass(frozen=True)
class TraceResult:
    status: TraceStatus
    path: tuple[PathPoint, ...]
    final: HomotopyPoint
    detail: str = ""


def _positivity_gate(inst: HomotopyInstance, p: HomotopyPoint) -> bool:
    """Branch-invariant positivity: x, the slack, and y2 stay strict."""
    return bool(
        p.x.min() > 0.0
        and (inst.A @ p.x + inst.q).min() > 0.0
        and p.y2.min() > 0.0
    )


def trace(inst: HomotopyInstance, config: TracerConfig | None = None) -> TraceResult:
    """Follow the path from (u0, 1) toward t = 0.

    Numerical failure modes are reported through the result status, not
    exceptions.  Every accepted point lands in the path, starting with
    the anchor itself at t = 1.
    """
    config = config or TracerConfig()
    current = inst.u0
    current_v = current.v

    res0 = float(np.linalg.norm(eval_H(inst, current)))
    path = [PathPoint(u=current, residual=res0, step_length=0.0,
                      det_sign=1, step_index=0)]
    status: TraceStatus | None = None
    detail = ""
    step_index = 0

    while status is None:
        if step_index >= config.max_steps:
            status = TraceStatus.MAX_STEPS
            detail = f"no convergence within {config.max_steps} steps"
            break
        try:
            tau, sign = tangent(inst, current, initial=(step_index == 0))
        except SingularJacobian as exc:
            status = TraceStatus.SINGULAR_JACOBIAN
            detail = str(exc)
            break

        level = 0
        accepted = None
        accepted_r = 0.0
        accepted_a = 0.0
        while True:
            a = config.l0 ** level
            try:
                cand = corrector(inst, current_v + a * tau, config.m)
            except SingularJacobian as exc:
                # shrinking pulls the candidate back toward the current
                # point, where the tangent factorization just succeeded
                if a > config.a0:
                    level += 1
                    continue
                status = TraceStatus.SINGULAR_JACOBIAN
                detail = str(exc)
                break
            dt = abs(cand.t - current.t)
            if not (0.0 < dt < 1.0):
                # t moved implausibly; shrink while there is progress to give up
                progress = min(a, float(np.linalg.norm(cand.v - current_v)))
                if progress > config.a0:
                    level += 1
                    continue
            r = float(np.linalg.norm(eval_H(inst, cand)))
            if r <= config.r_accept and _positivity_gate(inst, cand):
                accepted = cand
                accepted_r = r
                accepted_a = a
                break
            if a > config.eps3:
                level += 1
                continue
            # Parked next to the target hyperplane: the endgame needs
            # predictor steps comparable to |t| itself, so the retry
            # ladder continues below eps3 down to the progress floor a0
            # rather than stopping with a weak |t| < eps2 endpoint.
            near_target = dt < config.eps2 and abs(cand.t) < config.eps2
            if near_target and a > config.a0:
                level += 1
                continue
            status = TraceStatus.NO_PROGRESS
            if near_target:
                detail = (
                    f"stalled within eps2 of the target hyperplane "
                    f"(|t| = {abs(cand.t)!r}) without meeting the "
                    f"acceptance gates"
                )
            else:
                detail = (
                    f"step length fell below eps3 with residual {r!r} "
                    f"at t = {cand.t!r}"
                )
            break

        if accepted is None:
            break
        step_index += 1
        current = accepted
        current_v = current.v
        path.append(PathPoint(u=current, residual=accepted_r,
                              step_length=accepted_a, det_sign=sign,
                              step_index=step_index))
        if abs(current.t) <= config.eps1:
            status = TraceStatus.CONVERGED
            break
        if np.abs(current_v[:-1]).max() > config.bound_b:
            status = TraceStatus.PATH_UNBOUNDED
            detail = f"iterate norm exceeded {config.bound_b!r}"
            break

    return TraceResult(status=status, path=tuple(path), final=current,
                       detail=detail)


def extract_solution(result: TraceResult, lcp: SquareLcp) -> VlcpSolution:
    """Read the vertical solution and pure pair off a converged endpoint.

    Uses z = final x and w = M z + q as they stand; no tolerance decides
    here whether the endpoint is complementary.  The pair it yields is
    the candidate that ``oracle.certify`` accepts or rejects.
    """
    if result.status is not TraceStatus.CONVERGED:
        raise NotConverged(f"trace ended with status {result.status.value}")
    z = result.final.x
    return recover_vlcp_solution(lcp, z, lcp.M @ z + lcp.q)
