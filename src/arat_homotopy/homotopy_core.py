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
v = (x, y1, y2, t).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoInteriorPointFound
from .game_model import _freeze
from .vlcp_builder import SquareLcp

#: Level of every eta copy in the computed start.
_EPS_SMALL = 1e-2

#: Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0 ** -53


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

    @classmethod
    def from_lcp(cls, lcp: SquareLcp, x0: np.ndarray) -> "HomotopyInstance":
        """The instance of the problem ``lcp`` anchored at x0."""
        return cls(A=lcp.M, q=lcp.q, x0=x0)


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


def r2_shift(lcp: SquareLcp) -> tuple[SquareLcp, float]:
    """The problem to trace and the c2 added to r2 (q on the player-II
    rows) of the game-built ``lcp`` to make it: ``lcp`` itself and 0
    unless its computed start leaves player-II rows, and only such rows,
    unlifted, by the rule :func:`find_interior_point` checks.  Then
    c2 = 1 + 0.01 max m1 - min r2 leaves every player-II row a slack of
    at least 1 without the xi copies, and the problem is a copy of
    ``lcp`` with c2 added to those rows of q, as if built from the game
    with r2 shifted; no shift lifts a player-I row."""
    first_ii = lcp.J[lcp.k // 2].start
    unlifted = ~_computed_start(lcp)[2]
    if unlifted[:first_ii].any() or not unlifted[first_ii:].any():
        return lcp, 0.0
    m1 = max(len(rng) for rng in lcp.J[:lcp.k // 2])
    c2 = float(1.0 + _EPS_SMALL * m1 - lcp.q[first_ii:].min())
    q = lcp.q.copy()
    q[first_ii:] += c2
    return SquareLcp(M=lcp.M, q=q, J=lcp.J), c2
