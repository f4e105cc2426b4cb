"""Predictor-corrector tracer for the interior homotopy path.

Each outer step computes a unit tangent whose orientation comes from the
sign of det(dH/du) (keeping the bordered determinant negative along the
path), takes a predictor step of length _L0**k for k = 0, 1, ..., and
projects back with a three-stage minimum-norm corrector repeated _M
times.  Steps are shortened until the residual gate and the positivity
gate hold; the walk ends when |t| <= _EPS1.  The endpoint is not judged
here: the game answer read from it is certified exactly downstream (see
``oracle.certify``).

Step control is fixed; the step budget is the only value a caller sets
(``trace(inst, max_steps)``, the ``solve --max-steps`` flag).  The
constants:

  _EPS1      1e-7   the walk has converged once |t| <= _EPS1
  _EPS2      1e-3   a trial that fails with |t| and |dt| below _EPS2 is
                    parked next to the target hyperplane and keeps
                    shrinking down to _A0 instead of stopping at _EPS3
  _EPS3      1e-5   shortest regular predictor step; a failing trial
                    below it ends the walk as NoProgress
  _L0        0.5    step base: trial k has length _L0**k
  _M         1      corrector passes per trial
  _A0        1e-8   progress floor: the shortest trial step at all
  _R_ACCEPT  1.0    residual gate: a trial needs ||H|| <= _R_ACCEPT
  _RCOND_MIN 1e-12  reciprocal condition estimate below which a
                    factorization is rejected: of dH/du in the tangent,
                    and of the U factor of J^T in ``minnorm_solve``
  _BOUND_B   1e8    the walk ends as PathUnbounded once a coordinate of
                    (x, y1, y2) exceeds this in absolute value
  MAX_STEPS  10000  default budget of accepted steps

The values must keep _EPS2 > _EPS3 > _EPS1 > 0, _A0 > 0 and 0 < _L0 < 1.

Cost of one step: the tangent takes one guarded LU of dH/du, which gives
both the direction and the determinant sign.  Each trial point then
costs _M corrector passes, and each pass builds two wide Jacobians,
evaluates the map twice and does three minimum-norm solves, each from
one guarded LU of the transposed Jacobian (``minnorm_solve``).  LU with
partial pivoting is the tracer's only factorization, and LAPACK is
called directly.  _M is 1 because one pass already brings most trial
corrections below a residual of 1e-10; a second pass doubles the cost
of every trial.  The whole walk works on flat vectors
v = (x, y1, y2, t); each accepted vector is frozen into a PathPoint,
whose x, y1, y2 and t are views of it.

The positivity gate guards x, the slack A x + q, and y2 - exactly the
coordinates whose strict positivity is invariant along any solution
branch with t > 0 (the middle block of the map forces t x0 = 0 at
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
from .homotopy_core import HomotopyInstance, eval_H, jac_full, jac_t, jac_u
from .vlcp_builder import SquareLcp, VlcpSolution, recover_vlcp_solution

log = logging.getLogger(__name__)

# Step control; the module docstring gives each value's meaning.
_EPS1 = 1e-7
_EPS2 = 1e-3
_EPS3 = 1e-5
_L0 = 0.5
_M = 1
_A0 = 1e-8
_R_ACCEPT = 1.0
_RCOND_MIN = 1e-12
_BOUND_B = 1e8
MAX_STEPS = 10_000


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


def tangent(inst: HomotopyInstance, v: np.ndarray) -> tuple[np.ndarray, int]:
    """Unit tangent of the path at v, and the sign of det(dH/du).

    With s = (dH/du)^{-1} dH/dt, the raw direction is (s, -1) normalized;
    it is flipped whenever det(dH/du) < 0, so the walk keeps one
    orientation through folds.  At the anchor no flip happens: there
    dH/du is block lower triangular with diagonal blocks I, X0 and
    diag(A x0 + q), so its determinant is positive on every instance
    that HomotopyInstance accepts.  One guarded LU of dH/du gives both s
    and the sign; the guard already rejects a zero pivot.
    """
    lu, piv = _lu_with_guard(jac_u(inst, v))
    s, _ = lapack.dgetrs(lu, piv, jac_t(inst, v))
    raw = np.concatenate([s, [-1.0]])
    raw /= np.linalg.norm(raw)
    sign = det_sign_lu(lu, piv)
    return (raw if sign > 0 else -raw), sign


def corrector(inst: HomotopyInstance, v: np.ndarray) -> np.ndarray:
    """Project a predicted vector v = (x, y1, y2, t) back toward the path
    with _M high-order passes; returns the corrected vector."""
    return corrector_core(lambda w: eval_H(inst, w),
                          lambda w: jac_full(inst, w), v, _M)


class TraceStatus(Enum):
    CONVERGED = "Converged"
    NO_PROGRESS = "NoProgress"
    MAX_STEPS = "MaxSteps"
    PATH_UNBOUNDED = "PathUnbounded"
    SINGULAR_JACOBIAN = "SingularJacobian"


@dataclass(frozen=True, eq=False)
class PathPoint:
    """An accepted location v = (x, y1, y2, t), read-only, with its
    residual ||H(v)||, the predictor step that reached it and the sign
    of det(dH/du) at the point it was reached from; x, y1, y2 and t are
    views of v."""

    v: np.ndarray
    residual: float
    step_length: float
    det_sign: int

    def __post_init__(self) -> None:
        v = np.asarray(self.v, dtype=float).view()
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    @property
    def _n(self) -> int:
        return (self.v.size - 1) // 3

    @property
    def x(self) -> np.ndarray:
        return self.v[:self._n]

    @property
    def y1(self) -> np.ndarray:
        return self.v[self._n:2 * self._n]

    @property
    def y2(self) -> np.ndarray:
        return self.v[2 * self._n:-1]

    @property
    def t(self) -> float:
        return float(self.v[-1])


@dataclass(frozen=True, eq=False)
class TraceResult:
    """How the walk ended and every accepted point; ``path[-1]`` is the
    endpoint."""

    status: TraceStatus
    path: tuple[PathPoint, ...]
    detail: str = ""


def _positivity_gate(inst: HomotopyInstance, v: np.ndarray) -> bool:
    """Branch-invariant positivity: x, the slack, and y2 stay strict."""
    n = inst.n
    x = v[:n]
    return bool(
        x.min() > 0.0
        and (inst.A @ x + inst.q).min() > 0.0
        and v[2 * n:3 * n].min() > 0.0
    )


def trace(inst: HomotopyInstance, max_steps: int = MAX_STEPS) -> TraceResult:
    """Follow the path from the anchor v0 (t = 1) toward t = 0, taking at
    most ``max_steps`` accepted steps (ValueError if it is below 1).

    Numerical failure modes are reported through the result status, not
    exceptions.  Every accepted point lands in the path, starting with
    the anchor itself at t = 1, so ``path[k]`` is the point after k steps.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    current = inst.v0

    res0 = float(np.linalg.norm(eval_H(inst, current)))
    path = [PathPoint(current, residual=res0, step_length=0.0, det_sign=1)]
    status: TraceStatus | None = None
    detail = ""

    while status is None:
        if len(path) > max_steps:
            status = TraceStatus.MAX_STEPS
            detail = f"no convergence within {max_steps} steps"
            break
        try:
            tau, sign = tangent(inst, current)
        except SingularJacobian as exc:
            status = TraceStatus.SINGULAR_JACOBIAN
            detail = str(exc)
            break

        level = 0
        accepted = None
        accepted_r = 0.0
        accepted_a = 0.0
        while True:
            a = _L0 ** level
            try:
                cand = corrector(inst, current + a * tau)
            except SingularJacobian as exc:
                # shrinking pulls the candidate back toward the current
                # point, where the tangent factorization just succeeded
                if a > _A0:
                    level += 1
                    continue
                status = TraceStatus.SINGULAR_JACOBIAN
                detail = str(exc)
                break
            t = float(cand[-1])
            dt = abs(t - float(current[-1]))
            if not (0.0 < dt < 1.0):
                # t moved implausibly; shrink while there is progress to give up
                progress = min(a, float(np.linalg.norm(cand - current)))
                if progress > _A0:
                    level += 1
                    continue
            r = float(np.linalg.norm(eval_H(inst, cand)))
            if r <= _R_ACCEPT and _positivity_gate(inst, cand):
                accepted = cand
                accepted_r = r
                accepted_a = a
                break
            if a > _EPS3:
                level += 1
                continue
            # Parked next to the target hyperplane: the endgame needs
            # predictor steps comparable to |t| itself, so the retry
            # ladder continues below _EPS3 down to the progress floor _A0
            # rather than stopping with a weak |t| < _EPS2 endpoint.
            near_target = dt < _EPS2 and abs(t) < _EPS2
            if near_target and a > _A0:
                level += 1
                continue
            status = TraceStatus.NO_PROGRESS
            if near_target:
                detail = (
                    f"stalled within eps2 of the target hyperplane "
                    f"(|t| = {abs(t)!r}) without meeting the "
                    f"acceptance gates"
                )
            else:
                detail = (
                    f"step length fell below eps3 with residual {r!r} "
                    f"at t = {t!r}"
                )
            break

        if accepted is None:
            break
        current = accepted
        path.append(PathPoint(current, residual=accepted_r,
                              step_length=accepted_a, det_sign=sign))
        if abs(current[-1]) <= _EPS1:
            status = TraceStatus.CONVERGED
            break
        if np.abs(current[:-1]).max() > _BOUND_B:
            status = TraceStatus.PATH_UNBOUNDED
            detail = f"iterate norm exceeded {_BOUND_B!r}"
            break

    return TraceResult(status=status, path=tuple(path), detail=detail)


def extract_solution(result: TraceResult, lcp: SquareLcp) -> VlcpSolution:
    """Read the vertical solution and pure pair off a converged endpoint.

    Uses z = x of the endpoint ``path[-1]`` and w = M z + q as they
    stand; no tolerance decides here whether the endpoint is
    complementary.  The pair it yields is the candidate that
    ``oracle.certify`` accepts or rejects.
    """
    if result.status is not TraceStatus.CONVERGED:
        raise NotConverged(f"trace ended with status {result.status.value}")
    z = result.path[-1].x
    return recover_vlcp_solution(lcp, z, lcp.M @ z + lcp.q)
