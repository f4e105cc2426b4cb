"""Predictor-corrector tracer for the interior homotopy path.

Each outer step computes a unit tangent whose orientation comes from the
sign of det(dH/du) (keeping the bordered determinant negative along the
path), takes a predictor step of length l0^l, and projects back with a
three-stage minimum-norm corrector repeated m times.  Steps are halved
until the residual gate and the positivity gate hold; the walk ends when
|t| falls below eps1.

Cost of one step: the tangent takes one guarded LU of dH/du, which gives
both the direction and the determinant sign.  Each trial point then
costs m corrector passes, and each pass builds two wide Jacobians,
evaluates the map twice and does three QR-based minimum-norm solves,
calling LAPACK directly.  The corrector works on flat vectors
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

import functools
import logging
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy.linalg import lapack

from .errors import (
    ComplementarityResidualTooLarge,
    NotConverged,
    SingularJacobian,
)
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

#: Reciprocal condition number below which factorizations are rejected.
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


@functools.lru_cache(maxsize=64)
def _qr_lwork(rows: int, cols: int) -> tuple[int, int]:
    """Workspace sizes LAPACK asks for to factor a rows x cols matrix
    (dgeqrf) and to form its economic Q (dorgqr); they depend only on
    the shape."""
    a = np.zeros((rows, cols), order="F")
    work_qr = lapack.dgeqrf(a, lwork=-1)[2]
    work_q = lapack.dorgqr(a, np.zeros(cols), lwork=-1)[1]
    return int(work_qr[0]), int(work_q[0])


def minnorm_solve(j: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of the underdetermined system J d = h.

    Computes J^T (J J^T)^{-1} h through a QR factorization J^T = Q R,
    which avoids forming the normal-equations product: R^T y = h, then
    d = Q y.  For square nonsingular J this reduces to the plain solve.
    J must have at least as many columns as rows.

    LAPACK is called directly, in the layout scipy.linalg.qr and
    solve_triangular use (dgeqrf, dtrcon on R, dtrtrs on R^T as a lower
    triangle, dorgqr), so the result matches theirs bit for bit.
    """
    rows, cols = j.shape
    if rows > cols:
        raise ValueError("minnorm_solve needs a square or wide matrix")
    lwork_qr, lwork_q = _qr_lwork(cols, rows)
    qr, tau, _, _ = lapack.dgeqrf(j.T, lwork=lwork_qr)
    r_fac = qr[:rows]  # R in the upper triangle, reflectors below
    rcond, info = lapack.dtrcon(r_fac, norm="1", uplo="U", diag="N")
    if info != 0 or not np.isfinite(rcond) or rcond < _RCOND_MIN:
        raise SingularJacobian(
            f"correction system has reciprocal condition {rcond!r}"
        )
    y, _ = lapack.dtrtrs(r_fac.T, h, lower=1, trans=0)
    q_fac, _, _ = lapack.dorgqr(qr, tau, lwork=lwork_q, overwrite_a=1)
    return q_fac @ y


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
    m: int = 2
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
    lcp_solution: tuple[np.ndarray, np.ndarray] | None
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
    if current.u.min() <= 0.0 or inst.y0.min() <= 0.0:  # defensive; the
        # instance constructor already enforces strict interiority
        raise ValueError("starting point is not strictly interior")

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

    lcp_solution = None
    if status is TraceStatus.CONVERGED:
        z = current.x.copy()
        w = inst.A @ z + inst.q
        # Endpoint certificate.  A path may legitimately terminate on the
        # t = 0 hyperplane at a stationary point of the limit system that
        # is not complementary (its y1 left the nonnegative orthant for
        # good); such an endpoint is not a solution and must not be
        # reported as convergence.
        res_gate = 1e-6 * (1.0 + float(np.linalg.norm(inst.q)))
        prod_gate = 1e-6 * (1.0 + float(np.max(inst.x0 * inst.y1_0)))
        residual = float(np.linalg.norm(eval_H(inst, current)))
        products = float(np.max(np.abs(z * w)))
        if (residual > res_gate or min(z.min(), w.min()) < -1e-8
                or products > prod_gate):
            status = TraceStatus.NO_PROGRESS
            detail = (
                f"reached |t| <= eps1 but the endpoint fails the "
                f"complementarity certificate (max |z_i w_i| = {products!r}, "
                f"residual = {residual!r})"
            )
        else:
            lcp_solution = (z, w)
    return TraceResult(status=status, path=tuple(path), final=current,
                       lcp_solution=lcp_solution, detail=detail)


def extract_solution(result: TraceResult, lcp: SquareLcp,
                     *, clamp_tol: float = 1e-8) -> VlcpSolution:
    """Recover the vertical solution from a converged trace endpoint.

    Small negative components (down to -clamp_tol) are clamped to zero;
    componentwise products z_i w_i must vanish within 1e-5 scaled by the
    data, since each nonnegative summand of the limit system's middle
    block has to vanish on its own.
    """
    if result.status is not TraceStatus.CONVERGED:
        raise NotConverged(f"trace ended with status {result.status.value}")
    z, w = result.lcp_solution
    z = np.where((z < 0.0) & (z >= -clamp_tol), 0.0, z)
    w = np.where((w < 0.0) & (w >= -clamp_tol), 0.0, w)
    scale = 1.0 + float(np.abs(lcp.q).max())
    comp_tol = 1e-5 * scale
    products = np.abs(z * w)
    if products.max() > comp_tol:
        p = int(np.argmax(products))
        raise ComplementarityResidualTooLarge(
            f"endpoint product z[{p + 1}] w[{p + 1}] = {products[p]!r} "
            f"exceeds {comp_tol!r}"
        )
    return recover_vlcp_solution(lcp, z, w, feas_tol=clamp_tol,
                                 comp_tol=comp_tol)
