"""Interior homotopy between a known point and the complementarity system.

For a square problem (A, q) and a strictly feasible anchor
u0 = (x0, 1, 1), the map H(u, t) deforms, as t runs from 1 to 0, a
system solved exactly by u0 into one whose solutions solve the LCP:

    block 1:  (1-t) [(A + A^T) x + q - y1 - A^T y2] + t (x - x0)
    block 2:  Y1 x - t x0 + (1-t) X (A x + q)
    block 3:  Y2 (A x + q) - t (A x0 + q)

with X, Y1, Y2 the diagonal matrices of x, y1, y2.  At t = 0 nonnegative
solutions force the componentwise products x * (A x + q) to vanish.
The map and its derivatives take a location as the flat vector
v = (x, y1, y2, t).  This module knows only (A, q, x0), not how a game
lays out its blocks; the game's start is
``vlcp_builder.find_interior_point``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .game_model import _freeze


@dataclass(frozen=True, eq=False)
class HomotopyInstance:
    """Problem data plus a strictly interior anchor point.

    The anchor is u0 = (x0, 1, 1): y1 and y2 start at ones.  Requires
    finite A, q and x0, with x0 > 0 and A x0 + q > 0 strictly.  The
    inputs are copied.  The terms of the map that depend only on the
    data (A + A^T and the anchor slack y0 = A x0 + q) are computed once
    here, as is the anchor's flat vector v0 = (x0, 1, 1, 1) where the
    path starts.
    """

    A: np.ndarray
    q: np.ndarray
    x0: np.ndarray
    a_sym: np.ndarray = field(init=False, repr=False)
    y0: np.ndarray = field(init=False, repr=False)
    v0: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a, q, x0 = (np.asarray(w, dtype=float)
                    for w in (self.A, self.q, self.x0))
        n = q.size
        if a.shape != (n, n) or x0.size != n:
            raise ValueError("A must be n x n and all vectors length n")
        if not all(np.isfinite(w).all() for w in (a, q, x0)):
            raise ValueError("A, q and the anchor must be finite")
        y0 = a @ x0 + q
        # "not (min > 0)" so that a NaN slack fails as well
        if not (x0.min() > 0.0 and y0.min() > 0.0):
            raise ValueError(
                "anchor must be strictly interior: x0 > 0 and A x0 + q > 0"
            )
        e = np.ones(n)
        vecs = {"A": a, "q": q, "x0": x0, "a_sym": a + a.T, "y0": y0,
                "v0": np.concatenate([x0, e, e, [1.0]])}
        for name, v in vecs.items():
            object.__setattr__(self, name, _freeze(v))

    @property
    def n(self) -> int:
        return self.q.size


def _parts(inst: HomotopyInstance, v: np.ndarray):
    """x, y1, y2 and t of v = (x, y1, y2, t), the arrays as views, and
    the slack s = A x + q."""
    n = inst.n
    if v.shape != (3 * n + 1,):
        raise ValueError("point dimension does not match the instance")
    x = v[:n]
    s = inst.A @ x
    s += inst.q
    return x, v[n:2 * n], v[2 * n:3 * n], float(v[-1]), s


def _stationarity(inst: HomotopyInstance, x: np.ndarray, y1: np.ndarray,
                  y2: np.ndarray) -> np.ndarray:
    """(A + A^T) x + q - y1 - A^T y2, the limit system's first block."""
    g = inst.a_sym @ x
    g += inst.q
    g -= y1
    g -= inst.A.T @ y2
    return g


def _dh_dt(inst: HomotopyInstance, x: np.ndarray, y1: np.ndarray,
           y2: np.ndarray, s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """dH/dt at (x, y1, y2), given s = A x + q, written into ``out``;
    H is affine in t."""
    n = inst.n
    b1, b2 = out[:n], out[n:2 * n]
    np.subtract(x, inst.x0, out=b1)
    b1 -= _stationarity(inst, x, y1, y2)
    # -x0 - X s as -(X s + x0): rounding to nearest is sign-symmetric
    np.multiply(x, s, out=b2)
    b2 += inst.x0
    np.negative(b2, out=b2)
    np.negative(inst.y0, out=out[2 * n:])
    return out


def eval_H(inst: HomotopyInstance, v: np.ndarray) -> np.ndarray:
    """The stacked 3n residual of the deformation map at (u, t)."""
    x, y1, y2, t, s = _parts(inst, v)
    n, c = inst.n, 1.0 - t
    h = np.empty(3 * n)
    b1, b2, b3 = h[:n], h[n:2 * n], h[2 * n:]
    g = _stationarity(inst, x, y1, y2)
    g *= c
    np.subtract(x, inst.x0, out=b1)
    b1 *= t
    b1 += g
    np.multiply(y1, x, out=b2)
    b2 -= t * inst.x0
    xs = x * s
    xs *= c
    b2 += xs
    np.multiply(y2, s, out=b3)
    b3 -= t * inst.y0
    return h


def _fill_du(inst: HomotopyInstance, j: np.ndarray, x: np.ndarray,
             y1: np.ndarray, y2: np.ndarray, t: float,
             s: np.ndarray) -> None:
    """Write dH/du into the first 3n columns of the zeroed C-ordered j.

    The diagonal of the n x n block at (row, col) is a strided view of
    j's flat buffer: it starts at row * width + col and steps width + 1.
    """
    a, n = inst.A, inst.n
    c = 1.0 - t
    width = j.shape[1]
    flat = j.reshape(-1)
    step, span = width + 1, n * (width + 1)
    top, mid, bot = j[:n], j[n:2 * n], j[2 * n:]

    np.multiply(c, inst.a_sym, out=top[:, :n])
    flat[:span:step] += t
    flat[n:n + span:step] = -c
    np.multiply(-c, a.T, out=top[:, 2 * n:3 * n])

    # Y1 + (1-t)(S + X A), summed in the order the formula reads
    np.multiply(x[:, None], a, out=mid[:, :n])
    k = n * width
    d = flat[k:k + span:step]
    d += s
    mid[:, :n] *= c
    d += y1
    flat[k + n:k + n + span:step] = x

    np.multiply(y2[:, None], a, out=bot[:, :n])
    k = 2 * n * step
    flat[k:k + span:step] = s


def jac_full(inst: HomotopyInstance, v: np.ndarray) -> np.ndarray:
    """Wide 3n x (3n+1) derivative with respect to (x, y1, y2, t).

    Column blocks x, y1, y2 (the square part dH/du), then dH/dt:

        (1-t)(A + A^T) + tI      -(1-t)I   -(1-t)A^T   (x - x0) - g
        Y1 + (1-t)(S + X A)       X         0          -x0 - X s
        Y2 A                      0         S          -y0

    with s = A x + q, S = diag(s) and g the first block of the limit
    system.  Zero blocks are left as allocated.
    """
    x, y1, y2, t, s = _parts(inst, v)
    n = inst.n
    j = np.zeros((3 * n, 3 * n + 1))
    _fill_du(inst, j, x, y1, y2, t, s)
    _dh_dt(inst, x, y1, y2, s, j[:, -1])
    return j


def jac_u(inst: HomotopyInstance, v: np.ndarray) -> np.ndarray:
    """Exact 3n x 3n derivative with respect to (x, y1, y2): the first
    3n columns of :func:`jac_full`, C-ordered."""
    x, y1, y2, t, s = _parts(inst, v)
    n = inst.n
    j = np.zeros((3 * n, 3 * n))
    _fill_du(inst, j, x, y1, y2, t, s)
    return j


def jac_t(inst: HomotopyInstance, v: np.ndarray) -> np.ndarray:
    """Exact 3n derivative with respect to t (the last column of jac_full)."""
    x, y1, y2, _, s = _parts(inst, v)
    return _dh_dt(inst, x, y1, y2, s, np.empty(3 * inst.n))
