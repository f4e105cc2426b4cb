"""Interior homotopy between a known point and the complementarity system.

For a square problem (A, q) and a strictly feasible anchor
u0 = (x0, y1_0, y2_0), the map H(u, t) deforms, as t runs from 1 to 0,
a system solved exactly by u0 into one whose solutions solve the LCP:

    block 1:  (1-t) [(A + A^T) x + q - y1 - A^T y2] + t (x - x0)
    block 2:  Y1 x - t Y1_0 x0 + (1-t) X (A x + q)
    block 3:  Y2 (A x + q) - t Y2_0 (A x0 + q)

with X, Y1, Y2 the diagonal matrices of x, y1, y2.  At t = 0 nonnegative
solutions force the componentwise products x * (A x + q) to vanish.
The map and its derivatives take a location as the flat vector
v = (x, y1, y2, t).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoInteriorPointFound
from .vlcp_builder import SquareLcp

#: Level of every eta copy in the computed start.
_EPS_SMALL = 1e-2

#: Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class HomotopyPoint:
    """Read-only view of a path location v = (x, y1, y2, t).

    The tracer works on the flat vector alone; this view is built once
    per accepted point for output, and its parts are slices of v.
    """

    v: np.ndarray

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
        return self.v[2 * self._n:3 * self._n]

    @property
    def t(self) -> float:
        return float(self.v[-1])


@dataclass(frozen=True)
class HomotopyInstance:
    """Problem data plus a strictly interior anchor point.

    Requires finite A, q and anchor, with x0 > 0, y1_0 > 0, y2_0 > 0 and
    A x0 + q > 0 strictly.  The terms of the map that depend
    only on the data (A + A^T, the anchor slack y0 = A x0 + q and the
    anchor products y1_0 x0, y2_0 y0) are computed once here, as is the
    anchor's flat vector v0 = (x0, y1_0, y2_0, 1) where the path starts.
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
    v0: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.A, dtype=float)
        vecs = {}
        for name in ("q", "x0", "y1_0", "y2_0"):
            vecs[name] = np.asarray(getattr(self, name), dtype=float)
        n = vecs["q"].size
        if a.shape != (n, n) or any(v.size != n for v in vecs.values()):
            raise ValueError("A must be n x n and all vectors length n")
        if not all(np.isfinite(w).all() for w in (a, *vecs.values())):
            raise ValueError("A, q and the anchor must be finite")
        y0 = a @ vecs["x0"] + vecs["q"]
        # "not (min > 0)" so that a NaN slack fails as well
        anchor = (vecs["x0"], vecs["y1_0"], vecs["y2_0"], y0)
        if not all(w.min() > 0.0 for w in anchor):
            raise ValueError(
                "anchor must be strictly interior: x0 > 0, y1_0 > 0, "
                "y2_0 > 0 and A x0 + q > 0"
            )
        vecs["A"] = a
        vecs["a_sym"] = a + a.T
        vecs["y0"] = y0
        vecs["y1x0"] = vecs["y1_0"] * vecs["x0"]
        vecs["y2y0"] = vecs["y2_0"] * y0
        vecs["v0"] = np.concatenate(
            [vecs["x0"], vecs["y1_0"], vecs["y2_0"], [1.0]])
        for name, v in vecs.items():
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @property
    def n(self) -> int:
        return self.q.size

    @classmethod
    def from_lcp(cls, lcp: SquareLcp, x0: np.ndarray) -> "HomotopyInstance":
        """The instance anchored at x0 with y1_0 = y2_0 = 1."""
        e = np.ones(lcp.n)
        return cls(A=lcp.M, q=lcp.q, x0=np.asarray(x0, dtype=float),
                   y1_0=e, y2_0=e)


def _split(inst: HomotopyInstance, v: np.ndarray):
    """(x, y1, y2, t) of v = (x, y1, y2, t); the arrays are views."""
    n = inst.n
    if v.shape != (3 * n + 1,):
        raise ValueError("point dimension does not match the instance")
    return v[:n], v[n:2 * n], v[2 * n:3 * n], float(v[-1])


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


def eval_H(inst: HomotopyInstance, v: np.ndarray) -> np.ndarray:
    """The stacked 3n residual of the deformation map at (u, t)."""
    x, y1, y2, t = _split(inst, v)
    ax_q = inst.A @ x + inst.q
    b1 = (1.0 - t) * _stationarity(inst, x, y1, y2) + t * (x - inst.x0)
    b2 = y1 * x - t * inst.y1x0 + (1.0 - t) * (x * ax_q)
    b3 = y2 * ax_q - t * inst.y2y0
    return np.concatenate([b1, b2, b3])


def jac_full(inst: HomotopyInstance, v: np.ndarray) -> np.ndarray:
    """Wide 3n x (3n+1) derivative with respect to (x, y1, y2, t).

    Column blocks x, y1, y2 (the square part dH/du), then dH/dt:

        (1-t)(A + A^T) + tI      -(1-t)I   -(1-t)A^T   (x - x0) - g
        Y1 + (1-t)(S + X A)       X         0          -Y1_0 x0 - X s
        Y2 A                      0         S          -Y2_0 y0

    with s = A x + q, S = diag(s) and g the first block of the limit
    system.  Zero blocks are left as allocated.
    """
    x, y1, y2, t = _split(inst, v)
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


def jac_u(inst: HomotopyInstance, v: np.ndarray) -> np.ndarray:
    """Exact 3n x 3n derivative with respect to (x, y1, y2)."""
    return jac_full(inst, v)[:, :-1]


def jac_t(inst: HomotopyInstance, v: np.ndarray) -> np.ndarray:
    """Exact 3n derivative with respect to t (the last column of jac_full)."""
    x, y1, y2, _ = _split(inst, v)
    return _dh_dt(inst, x, y1, y2, inst.A @ x + inst.q)


def _computed_start(lcp: SquareLcp) -> tuple[np.ndarray, ...]:
    """x0 = x_eta + K u of :func:`find_interior_point`, its slack
    M x0 + q, the rows that slack lifts, a and b.

    A row is lifted only if its computed slack exceeds
    gamma_{n+1} (|M| |x0| + |q|), gamma_k = k u / (1 - k u) with u the
    unit roundoff, which bounds the rounding of that slack (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3): a slack of
    a few ulps of the row's terms may be no slack at all."""
    m, q, n = lcp.M, lcp.q, lcp.n
    x_eta, u = np.zeros(n), np.zeros(n)
    for j, rng in enumerate(lcp.J):
        if j < lcp.k // 2:
            x_eta[rng.start:rng.stop] = _EPS_SMALL
        else:
            u[rng.start:rng.stop] = 1.0 / len(rng)
    a = m @ x_eta + q
    b = m @ u
    lift = b > 0.0
    # an overflowing K gives a point (NaN where 0 * inf) whose slack is
    # NaN, which lifts no row
    with np.errstate(over="ignore", invalid="ignore"):
        k = 1.0 + float(np.max(-a[lift] / b[lift], initial=0.0))
        x = x_eta + k * u
        slack = m @ x + q
        gamma = (n + 1) * _UNIT_ROUNDOFF / (1.0 - (n + 1) * _UNIT_ROUNDOFF)
        lifted = slack > gamma * (np.abs(m) @ np.abs(x) + np.abs(q))
    return x, slack, lifted, a, b


def find_interior_point(lcp: SquareLcp) -> np.ndarray:
    """A strictly feasible start x0 > 0 with M x0 + q > 0.

    Every eta copy (the first half of the blocks) is set to 0.01, giving
    x_eta, and u puts 1/|J_j| on each copy of xi block j, so that every
    xi(s) sums to 1.  With a = M x_eta + q and b = M u, the start is
    x_eta + K u with

        K = 1 + max(0, max over rows with b_r > 0 of -a_r / b_r),

    which leaves every row with b_r > 0 a slack of at least b_r.  On a
    game-built matrix b >= 0 on every row, and b = 1 - beta * mass > 0 on
    the player-I rows, so in exact arithmetic only a player-II row of a
    state without player-II transition mass (b = 0) can fail: its slack
    is r2 - 0.01 * m1(s), whatever K is (see :func:`r2_shift`).  In
    floating point K b_r can be lost against a much larger reward, so a
    row counts as lifted only if its slack exceeds the rounding bound of
    :func:`_computed_start`.  NoInteriorPointFound names the unlifted row
    with the smallest slack."""
    x, slack, lifted, a, b = _computed_start(lcp)
    if x.min() > 0.0 and lifted.all():
        return x
    row, half = int(np.argmin(np.where(lifted, np.inf, slack))), lcp.k // 2
    block = next(j for j, rng in enumerate(lcp.J) if row in rng)
    where = (f"the player-II row {row - lcp.J[block].start + 1} of state "
             f"{block - half + 1}" if block >= half else f"row {row + 1}")
    raise NoInteriorPointFound(
        f"{where} cannot be lifted: its entry of M u is {float(b[row])!r} "
        f"and its slack without the xi copies is {float(a[row])!r}"
    )


def r2_shift(lcp: SquareLcp) -> float:
    """The c2 to add to r2 (q on the player-II rows) of a game-built
    problem before its start is computed: 0 unless the computed start
    leaves player-II rows, and only such rows, unlifted, by the rule
    :func:`find_interior_point` checks.  Then c2 = 1 + 0.01 max m1 -
    min r2 leaves every player-II row a slack of at least 1 without the
    xi copies; no shift lifts a player-I row."""
    first_ii = lcp.J[lcp.k // 2].start
    unlifted = ~_computed_start(lcp)[2]
    if unlifted[:first_ii].any() or not unlifted[first_ii:].any():
        return 0.0
    m1 = max(len(rng) for rng in lcp.J[:lcp.k // 2])
    return float(1.0 + _EPS_SMALL * m1 - lcp.q[first_ii:].min())
