"""Predictor-corrector tracer for the interior homotopy path.

Each outer step computes a unit tangent whose orientation comes from the
sign of det(dH/du) (keeping the bordered determinant negative along the
path), then climbs down a ladder of trials: rung k takes a predictor
step of length _L0**k and projects back with a three-stage minimum-norm
corrector repeated _M times, and the first trial to pass the residual
gate and the positivity gate is accepted.  The first step's ladder
starts at rung 0 (a = 1); after a step is accepted at rung L the next
ladder starts at rung max(0, L - 1), so the step length grows by one
rung per accepted step (Allgower & Georg, Introduction to Numerical
Continuation Methods, 2003, ch. 6).  A ladder runs two rung ranges,
start, start + 1, ... and then 0 ... start - 1; each range stops at its
first walk-ending verdict (NoProgress, or SingularJacobian at the _A0
floor), and the last such verdict stands, so a failure status always
means the whole ladder from a = 1 failed.
A rung whose prediction t + a tau_t is at or below 0 is refused without
a correction when a > _A0 (see the positivity gate below): near the
target the path runs straight into t = 0, and most rungs of each
ladder overshoot it there.  The floor rung is always corrected, so the
ladder ends where it would without the rule.
The walk ends when |t| <= _EPS1.  The endpoint is not judged here: its
pure pair is certified downstream (``oracle.certify``: the value from
one d x d solve, the deviations with a slack of 1e-9 (1 + max |v|)).

Step control is fixed; the step budget is the only value a caller sets
(``trace(inst, max_steps)``, the ``solve --max-steps`` flag).  The
constants:

  _EPS1      1e-7   the walk has converged once |t| <= _EPS1
  _EPS2      1e-3   a trial that fails with |t| and |dt| below _EPS2 is
                    parked next to the target hyperplane and keeps
                    shrinking down to _A0 instead of stopping at _EPS3
  _EPS3      1e-5   shortest regular predictor step; a failing trial
                    below it ends the walk as NoProgress
  _L0        0.5    step base: rung k has length _L0**k; a ladder starts
                    one rung above the last accepted one
  _M         1      corrector passes per trial
  _A0        1e-8   progress floor: the shortest trial step at all
  _R_ACCEPT  1.0    residual gate: a trial needs ||H|| <= _R_ACCEPT
  _RCOND_MIN 1e-12  a factorization P a^T = L U is rejected when the
                    reciprocal condition estimate of U's leading square
                    block is below this (``_lu_with_guard``)
  _BOUND_B   1e8    the walk ends as PathUnbounded once a coordinate of
                    (x, y1, y2) exceeds this in absolute value
  MAX_STEPS  10000  default budget of accepted steps

The values must keep _EPS2 > _EPS3 > _EPS1 > 0, _A0 > 0 and 0 < _L0 < 1.

Cost of one step: the tangent takes one guarded LU of dH/du, which gives
both the direction and the determinant sign; it factors (dH/du)^T, which
is how LAPACK reads the C-ordered matrix, so nothing is copied, and
solves with the transposed factors.  A rung refused for crossing t = 0
costs one vector update and no factorization.  Each other trial point
costs _M corrector passes, and each pass builds two wide Jacobians,
evaluates the map twice and does three minimum-norm solves, each from
one guarded LU of the transposed Jacobian (``minnorm_solve``); with one
column more than rows, the shortest solution then takes a closed form.
The map and its Jacobians are written into one fresh array per call.  LU with
partial pivoting is the tracer's only factorization, and every one is
gated by the same rule (``_lu_with_guard``).  LAPACK is called
directly, through scipy's compiled wrappers: the five routines it
calls (dgetrf, dtrcon, dtrtrs, dgetrs, dlaswp) are those of
the extension module ``scipy.linalg._flapack``, the same objects that
``scipy.linalg.lapack`` re-exports.  That module is loaded on the first
factorization (``_lapack``), not with this module, so a process that
never traces (``validate``, ``build``, ``oracle``) never loads scipy,
and it is loaded by itself, so ``solve`` does not run the
``scipy.linalg`` package either.  _M is 1 because one pass already
brings most trial corrections below a residual of 1e-10; a second pass
doubles the cost of every trial.  The whole walk works on flat vectors
v = (x, y1, y2, t); each accepted vector is copied into a read-only
PathPoint, whose x, y1, y2 and t are views of that copy.

The positivity gate guards x, the slack A x + q, and y2 - exactly the
coordinates whose strict positivity is invariant along any solution
branch with t > 0 (the middle block of the map forces t x0 = 0 at
x_i = 0, and the bottom block pins the slack and y2 signs through their
products).  The same block rules out t <= 0: on H = 0 with x and the
slack s = A x + q strictly positive, it reads y2 * s = t y0 with
y0 = A x0 + q > 0, so y2 <= 0 and the gate refuses the point.  A
prediction at t <= 0 can only pass if the corrector pulls t back above
0, which is rare, so such a prediction is not corrected at all.

y1 is deliberately not gated: it is an affine function of the rest,
dips below zero transiently on real paths, and returns to the
nonnegative slack vector in the t -> 0 limit.  Gating it rejects the
true branch and stalls the walk.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import SingularJacobian
from .game_model import _counts, _freeze
from .homotopy_core import HomotopyInstance, eval_H, jac_full, jac_t, jac_u
from .vlcp_builder import SquareLcp, recover_vlcp_solution

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


def _step_budget(max_steps) -> int:
    """``max_steps`` as an int of at least 1, else ValueError."""
    (steps,) = _counts((max_steps,), "max_steps")
    if steps < 1:
        raise ValueError("max_steps must be at least 1")
    return steps


@functools.cache
def _lapack():
    """scipy's LAPACK wrappers, loaded on the first call, so that a
    process that never factors does not load them.

    Only the extension module ``scipy.linalg._flapack`` is loaded, from
    the package directory, without running the ``scipy.linalg``
    package, whose import costs far more time and memory than the
    module.  An install whose compiled modules do not sit in the
    package directory gives no spec there; it imports the whole
    package and uses ``scipy.linalg.lapack``, which re-exports the
    same routines.
    """
    import scipy
    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.linalg._flapack", [os.path.join(scipy.__path__[0], "linalg")])
    if spec is None:
        from scipy.linalg import lapack
        return lapack
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def _lu_with_guard(a: np.ndarray, what: str,
                   overwrite: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """LU factorization P a^T = L U of an r x c matrix a, c >= r, that
    raises SingularJacobian naming ``what`` when the 1-norm reciprocal
    condition estimate (dtrcon) of U's leading r x r block is below
    _RCOND_MIN or not finite; an exact zero pivot estimates 0.

    a^T of a C-ordered a is Fortran-ordered, so dgetrf reads it without
    a copy, and with ``overwrite`` factors it in a's own buffer.
    """
    lapack = _lapack()
    lu, piv, info = lapack.dgetrf(a.T, overwrite_a=overwrite)
    # dtrcon takes the order from the leading dimension: pass U square
    rcond, _ = lapack.dtrcon(lu[:a.shape[0]], norm="1", uplo="U", diag="N")
    if info != 0 or not math.isfinite(rcond) or rcond < _RCOND_MIN:
        raise SingularJacobian(f"{what} has reciprocal condition {rcond!r}")
    return lu, piv


def minnorm_solve(j: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of J d = h, for J square (k = 0) or with one
    column more than rows (k = 1, the tracer's 3n x (3n+1) Jacobians);
    any other k = c - r raises ValueError.

    One LU with partial pivoting over all c rows of J^T gives
    P J^T = L U, where L stacks an r x r unit lower triangle L1 on k
    rows l2.  With e = P d the system reads U^T (L1^T e1 + l2^T e2) = h,
    so for k = 1 its solutions are e1 = a - b e2 for any scalar e2,
    where U^T g = h and L1^T [a | b] = [g | l2^T].  The shortest takes
    e2 = c = (b . a) / (1 + b . b), and d = P^T e has the norm of e.
    For k = 0 this is the plain LU solve, e = a.

    The gate is that of every tracer factorization (``_lu_with_guard``):
    it measures the r rows of J^T that pivoting chose, not J itself.
    Since pivoting ranges over all c rows, any J of full row rank passes,
    including a 3n x (3n+1) Jacobian at a fold where dH/du is singular.
    A non-finite b . b (NaN or overflow in the row left out of U) is
    rejected as well.
    """
    rows, cols = j.shape
    k = cols - rows
    if k not in (0, 1):
        raise ValueError("minnorm_solve needs a square matrix or one with "
                         "one column more than rows")
    lu, piv = _lu_with_guard(j, "correction system")
    lapack = _lapack()
    g, _ = lapack.dtrtrs(lu, h, trans=1)
    rhs = np.empty((k + 1, rows)).T  # Fortran order, columns g and l2^T
    rhs[:, 0] = g
    rhs[:, 1:] = lu[rows:].T
    ab, _ = lapack.dtrtrs(lu, rhs, lower=1, trans=1, unitdiag=1,
                          overwrite_b=1)
    a = ab[:, 0]
    if k:
        b = ab[:, 1]
        bb = b @ b
        if not math.isfinite(bb):
            raise SingularJacobian("correction system has non-finite factors")
        c = (b @ a) / (1.0 + bb)
        e = np.empty(cols)
        np.multiply(b, -c, out=e[:rows])
        e[:rows] += a
        e[rows] = c
    else:
        e = a
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
    that HomotopyInstance accepts.  One guarded LU of (dH/du)^T gives
    both s and the sign (det of the transpose is the same); the guard
    already rejects a zero pivot.
    """
    lu, piv = _lu_with_guard(jac_u(inst, v), "derivative matrix",
                             overwrite=True)
    raw = np.empty(v.size)
    raw[:-1] = _lapack().dgetrs(lu, piv, jac_t(inst, v), trans=1,
                                overwrite_b=1)[0]
    raw[-1] = -1.0
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
    """An accepted location v = (x, y1, y2, t), a read-only copy of the
    input, with its residual ||H(v)||, the predictor step that reached
    it and the sign of det(dH/du) at the point it was reached from; x,
    y1, y2 and t are views of v."""

    v: np.ndarray
    residual: float
    step_length: float
    det_sign: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", _freeze(self.v))

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
    endpoint.  ``rejected`` counts the trial points of the walk that
    failed a gate or raised SingularJacobian, and the rungs refused
    uncorrected because their prediction crossed t = 0."""

    status: TraceStatus
    path: tuple[PathPoint, ...]
    detail: str = ""
    rejected: int = 0


def _positivity_gate(inst: HomotopyInstance, v: np.ndarray) -> bool:
    """Branch-invariant positivity: x, the slack, and y2 stay strict."""
    n = inst.n
    x = v[:n]
    return bool(
        x.min() > 0.0
        and (inst.A @ x + inst.q).min() > 0.0
        and v[2 * n:3 * n].min() > 0.0
    )


# what _trial returns for a failed trial after which the ladder goes on
_NEXT_RUNG = (None, 0.0, None)


def _trial(inst: HomotopyInstance, current: np.ndarray, tau: np.ndarray,
           a: float) -> tuple[np.ndarray | None, float,
                              tuple[TraceStatus, str] | None]:
    """One rung of the step ladder: predict ``current + a * tau``, correct
    and gate.  Returns (vector, residual, None) when the trial passes
    both gates, ``_NEXT_RUNG`` when it fails and a shorter step may still
    pass, and (None, 0.0, (status, detail)) when its failure ends
    the walk.  Above _A0 a prediction at t <= 0 is refused without a
    correction: the module docstring says why it cannot pass."""
    pred = current + a * tau
    if a > _A0 and pred[-1] <= 0.0:
        return _NEXT_RUNG
    try:
        cand = corrector(inst, pred)
    except SingularJacobian as exc:
        # shrinking pulls the candidate back toward the current
        # point, where the tangent factorization just succeeded
        if a > _A0:
            return _NEXT_RUNG
        return None, 0.0, (TraceStatus.SINGULAR_JACOBIAN, str(exc))
    t = float(cand[-1])
    dt = abs(t - float(current[-1]))
    if not (0.0 < dt < 1.0):
        # t moved implausibly; shrink while there is progress to give up
        if min(a, float(np.linalg.norm(cand - current))) > _A0:
            return _NEXT_RUNG
    r = float(np.linalg.norm(eval_H(inst, cand)))
    if r <= _R_ACCEPT and _positivity_gate(inst, cand):
        return cand, r, None
    if a > _EPS3:
        return _NEXT_RUNG
    # Parked next to the target hyperplane: the endgame needs predictor
    # steps comparable to |t| itself, so the ladder continues below
    # _EPS3 down to the progress floor _A0 rather than stopping with a
    # weak |t| < _EPS2 endpoint.
    near_target = dt < _EPS2 and abs(t) < _EPS2
    if near_target and a > _A0:
        return _NEXT_RUNG
    if near_target:
        detail = (f"stalled within eps2 of the target hyperplane "
                  f"(|t| = {abs(t)!r}) without meeting the acceptance gates")
    else:
        detail = (f"step length fell below eps3 with residual {r!r} "
                  f"at t = {t!r}")
    return None, 0.0, (TraceStatus.NO_PROGRESS, detail)


def _ladder(inst: HomotopyInstance, current: np.ndarray, tau: np.ndarray,
            start: int) -> tuple[int, tuple, int]:
    """One step's ladder from rung ``start``, in two ranges (the module
    docstring says which verdict stands): the rung it stopped at, the
    ``_trial`` result that stands and the number of failed trials.

    The open first range ends because the floor rung (a <= _A0) never
    returns ``_NEXT_RUNG``: each of ``_trial``'s next-rung paths (the
    crossing and implausible-dt refusals, the singular and near-target
    continuations) needs a > _A0.
    """
    failed, ending = 0, None
    for levels in (itertools.count(start), range(start)):
        for level in levels:
            outcome = _trial(inst, current, tau, _L0 ** level)
            if outcome[0] is not None:
                return level, outcome, failed
            failed += 1
            if outcome[2] is not None:
                ending = outcome
                break
    return level, ending, failed


def trace(inst: HomotopyInstance, max_steps: int = MAX_STEPS) -> TraceResult:
    """Follow the path from the anchor v0 (t = 1) toward t = 0, taking at
    most ``max_steps`` accepted steps (ValueError unless an int >= 1).

    Each step's ladder (``_ladder``) tries rungs start, start + 1, ...
    and, if that range ends the walk, 0 ... start - 1.  Numerical
    failure modes are reported through the result status, not
    exceptions.  Every accepted point lands in the path, starting with
    the anchor itself at t = 1, so ``path[k]`` is the point after k steps.
    """
    max_steps = _step_budget(max_steps)
    current = inst.v0
    res0 = float(np.linalg.norm(eval_H(inst, current)))
    path = [PathPoint(current, residual=res0, step_length=0.0, det_sign=1)]
    start = 0  # the rung the next step's ladder starts at
    rejected = 0

    def ended(status: TraceStatus, detail: str = "") -> TraceResult:
        return TraceResult(status=status, path=tuple(path), detail=detail,
                           rejected=rejected)

    while len(path) <= max_steps:
        try:
            tau, sign = tangent(inst, current)
        except SingularJacobian as exc:
            return ended(TraceStatus.SINGULAR_JACOBIAN, str(exc))
        level, (cand, r, verdict), failed = _ladder(inst, current, tau, start)
        rejected += failed
        if cand is None:
            return ended(*verdict)
        current = cand
        path.append(PathPoint(current, residual=r, step_length=_L0 ** level,
                              det_sign=sign))
        start = max(0, level - 1)
        if abs(current[-1]) <= _EPS1:
            return ended(TraceStatus.CONVERGED)
        if np.abs(current[:-1]).max() > _BOUND_B:
            return ended(TraceStatus.PATH_UNBOUNDED,
                         f"iterate norm exceeded {_BOUND_B!r}")
    return ended(TraceStatus.MAX_STEPS,
                 f"no convergence within {max_steps} steps")


def extract_solution(x: np.ndarray,
                     lcp: SquareLcp) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pure pair ``(strategy_i, strategy_ii)`` read off a point x of
    the path (the anchor x0, or ``point.x`` of an accepted point): each
    block's argmin row of the slack w = M x + q
    (``recover_vlcp_solution``), with x as it stands.

    No status and no tolerance is checked here, so every point of every
    trace gives a pair; the pair is the candidate that
    ``oracle.certify`` accepts or rejects.
    """
    return recover_vlcp_solution(lcp, lcp.M @ x + lcp.q)
