"""Interior homotopy between a known point and the complementarity system.

For a square problem (A, q) and a strictly feasible anchor
u0 = (x0, y1_0, y2_0), the map H(u, t) deforms, as t runs from 1 to 0,
a system solved exactly by u0 into one whose solutions solve the LCP:

    block 1:  (1-t) [(A + A^T) x + q - y1 - A^T y2] + t (x - x0)
    block 2:  Y1 x - t Y1_0 x0 + (1-t) X (A x + q)
    block 3:  Y2 (A x + q) - t Y2_0 (A x0 + q)

with X, Y1, Y2 the diagonal matrices of x, y1, y2.  At t = 0 nonnegative
solutions force the componentwise products x * (A x + q) to vanish.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import NoInteriorPointFound
from .vlcp_builder import SquareLcp

log = logging.getLogger(__name__)

#: Small-variable level used by the feasibility heuristic.
_EPS_SMALL = 1e-2
#: Doubling budget of the feasibility heuristic.
_MAX_DOUBLINGS = 60


@dataclass(frozen=True)
class HomotopyPoint:
    """A candidate location (x, y1, y2) together with the parameter t."""

    x: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    t: float

    def __post_init__(self) -> None:
        for name in ("x", "y1", "y2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "t", float(self.t))

    @property
    def u(self) -> np.ndarray:
        """The stacked 3n coordinate vector (without t)."""
        return np.concatenate([self.x, self.y1, self.y2])

    @property
    def v(self) -> np.ndarray:
        """The stacked 3n+1 vector including t, the tracer's unknown."""
        return np.concatenate([self.x, self.y1, self.y2, [self.t]])

    @classmethod
    def from_v(cls, v: np.ndarray) -> "HomotopyPoint":
        n = (v.size - 1) // 3
        return cls(x=v[:n], y1=v[n:2 * n], y2=v[2 * n:3 * n], t=float(v[-1]))


@dataclass(frozen=True)
class HomotopyInstance:
    """Problem data plus a strictly interior anchor point.

    Requires x0 > 0, y1_0 > 0, y2_0 > 0 and A x0 + q > 0 strictly.  The
    terms of the map that depend only on the data (A + A^T, the anchor
    slack y0 = A x0 + q and the anchor products y1_0 x0, y2_0 y0) are
    computed once here.
    """

    A: np.ndarray
    q: np.ndarray
    x0: np.ndarray
    y1_0: np.ndarray
    y2_0: np.ndarray
    a_sym: np.ndarray = field(init=False, repr=False, compare=False)
    y0: np.ndarray = field(init=False, repr=False, compare=False)
    y1x0: np.ndarray = field(init=False, repr=False, compare=False)
    y2y0: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.A, dtype=float)
        vecs = {}
        for name in ("q", "x0", "y1_0", "y2_0"):
            vecs[name] = np.asarray(getattr(self, name), dtype=float)
        n = vecs["q"].size
        if a.shape != (n, n) or any(v.size != n for v in vecs.values()):
            raise ValueError("A must be n x n and all vectors length n")
        y0 = a @ vecs["x0"] + vecs["q"]
        if (vecs["x0"].min() <= 0.0 or vecs["y1_0"].min() <= 0.0
                or vecs["y2_0"].min() <= 0.0 or y0.min() <= 0.0):
            raise ValueError(
                "anchor must be strictly interior: x0 > 0, y1_0 > 0, "
                "y2_0 > 0 and A x0 + q > 0"
            )
        vecs["A"] = a
        vecs["a_sym"] = a + a.T
        vecs["y0"] = y0
        vecs["y1x0"] = vecs["y1_0"] * vecs["x0"]
        vecs["y2y0"] = vecs["y2_0"] * y0
        for name, v in vecs.items():
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @property
    def n(self) -> int:
        return self.q.size

    @property
    def u0(self) -> HomotopyPoint:
        return HomotopyPoint(x=self.x0, y1=self.y1_0, y2=self.y2_0, t=1.0)

    @classmethod
    def from_lcp(cls, lcp: SquareLcp, x0: np.ndarray,
                 y1_0: np.ndarray | None = None,
                 y2_0: np.ndarray | None = None) -> "HomotopyInstance":
        n = lcp.n
        e = np.ones(n)
        return cls(A=lcp.M, q=lcp.q, x0=np.asarray(x0, dtype=float),
                   y1_0=e if y1_0 is None else y1_0,
                   y2_0=e if y2_0 is None else y2_0)


#: A location on the homotopy: a point, or its flat vector v = (x, y1, y2, t).
PointLike = HomotopyPoint | np.ndarray


def _split(inst: HomotopyInstance, p: PointLike):
    """(x, y1, y2, t) of p; the arrays are views, never copies."""
    n = inst.n
    if isinstance(p, HomotopyPoint):
        if p.x.size != n:
            raise ValueError("point dimension does not match the instance")
        return p.x, p.y1, p.y2, p.t
    if p.shape != (3 * n + 1,):
        raise ValueError("point dimension does not match the instance")
    return p[:n], p[n:2 * n], p[2 * n:3 * n], float(p[-1])


def _stationarity(inst: HomotopyInstance, x: np.ndarray, y1: np.ndarray,
                  y2: np.ndarray) -> np.ndarray:
    """(A + A^T) x + q - y1 - A^T y2, the limit system's first block."""
    return inst.a_sym @ x + inst.q - y1 - inst.A.T @ y2


def _dh_dt(inst: HomotopyInstance, x: np.ndarray, y1: np.ndarray,
           y2: np.ndarray, ax_q: np.ndarray) -> np.ndarray:
    """dH/dt at (x, y1, y2), given ax_q = A x + q; H is affine in t."""
    return np.concatenate([
        (x - inst.x0) - _stationarity(inst, x, y1, y2),
        -inst.y1x0 - x * ax_q,
        -inst.y2y0,
    ])


def _block_diag(j: np.ndarray, row: int, col: int, n: int) -> np.ndarray:
    """Writable view of the diagonal of the n x n block of j at (row, col)."""
    width = j.shape[1]
    start = row * width + col
    return j.reshape(-1)[start:start + n * (width + 1):width + 1]


def eval_H(inst: HomotopyInstance, p: PointLike) -> np.ndarray:
    """The stacked 3n residual of the deformation map at (u, t)."""
    x, y1, y2, t = _split(inst, p)
    ax_q = inst.A @ x + inst.q
    b1 = (1.0 - t) * _stationarity(inst, x, y1, y2) + t * (x - inst.x0)
    b2 = y1 * x - t * inst.y1x0 + (1.0 - t) * (x * ax_q)
    b3 = y2 * ax_q - t * inst.y2y0
    return np.concatenate([b1, b2, b3])


def jac_full(inst: HomotopyInstance, p: PointLike) -> np.ndarray:
    """Wide 3n x (3n+1) derivative with respect to (x, y1, y2, t).

    Column blocks x, y1, y2 (the square part dH/du), then dH/dt:

        (1-t)(A + A^T) + tI      -(1-t)I   -(1-t)A^T   (x - x0) - g
        Y1 + (1-t)(S + X A)       X         0          -Y1_0 x0 - X s
        Y2 A                      0         S          -Y2_0 y0

    with s = A x + q, S = diag(s) and g the first block of the limit
    system.  Zero blocks are left as allocated.
    """
    x, y1, y2, t = _split(inst, p)
    a, n = inst.A, inst.n
    c = 1.0 - t
    ax_q = a @ x + inst.q
    j = np.zeros((3 * n, 3 * n + 1))
    top, mid, bot = j[:n], j[n:2 * n], j[2 * n:]

    np.multiply(c, inst.a_sym, out=top[:, :n])
    _block_diag(j, 0, 0, n)[:] += t
    _block_diag(j, 0, n, n)[:] = -c
    np.multiply(-c, a.T, out=top[:, 2 * n:3 * n])

    # Y1 + (1-t)(S + X A), summed in the order the formula reads
    np.multiply(x[:, None], a, out=mid[:, :n])
    d = _block_diag(j, n, 0, n)
    d += ax_q
    mid[:, :n] *= c
    d += y1
    _block_diag(j, n, n, n)[:] = x

    np.multiply(y2[:, None], a, out=bot[:, :n])
    _block_diag(j, 2 * n, 2 * n, n)[:] = ax_q

    j[:, -1] = _dh_dt(inst, x, y1, y2, ax_q)
    return j


def jac_u(inst: HomotopyInstance, p: PointLike) -> np.ndarray:
    """Exact 3n x 3n derivative with respect to (x, y1, y2)."""
    return jac_full(inst, p)[:, :-1]


def jac_t(inst: HomotopyInstance, p: PointLike) -> np.ndarray:
    """Exact 3n derivative with respect to t (the last column of jac_full)."""
    x, y1, y2, _ = _split(inst, p)
    return _dh_dt(inst, x, y1, y2, inst.A @ x + inst.q)


def is_strictly_feasible(m: np.ndarray, q: np.ndarray, x: np.ndarray) -> bool:
    """x > 0 and M x + q > 0, both strictly."""
    x = np.asarray(x, dtype=float)
    return bool(x.min() > 0.0 and (m @ x + q).min() > 0.0)


def find_interior_point(lcp: SquareLcp, hint: np.ndarray | None = None) -> np.ndarray:
    """A strictly feasible start x0 > 0 with M x0 + q > 0.

    Tries, in order: the caller's hint; the uniform small vector (covers
    q > 0); a structured schedule that keeps the first half of the blocks
    (the eta copies) at a small level and doubles the second half (the xi
    copies) from max(1, 4/3 max|q|).  The schedule exploits that the xi
    columns of a game-built matrix carry the dominant positive identity
    part of the player-I rows.
    """
    m, q, n = lcp.M, lcp.q, lcp.n
    if hint is not None:
        hint = np.asarray(hint, dtype=float)
        if hint.size != n:
            raise ValueError("hint has wrong dimension")
        if is_strictly_feasible(m, q, hint):
            return hint
        log.info("interior-point hint rejected: not strictly feasible")

    x = np.full(n, _EPS_SMALL)
    if is_strictly_feasible(m, q, x):
        return x

    half = len(lcp.J) // 2
    xi_rows = [p for rng in lcp.J[half:] for p in rng]
    k = max(1.0, (4.0 / 3.0) * float(np.abs(q).max()))
    for _ in range(_MAX_DOUBLINGS + 1):
        x = np.full(n, _EPS_SMALL)
        x[xi_rows] = k
        if is_strictly_feasible(m, q, x):
            return x
        k *= 2.0
    raise NoInteriorPointFound(
        f"no strictly feasible point after {_MAX_DOUBLINGS} doublings"
    )
