"""Vertical complementarity formulation of an additive game.

The game maps to a vertical block LCP (Cottle & Dantzig, J. Comb.
Theory 8, 1970): an m x k matrix A whose rows form k consecutive blocks,
one per column, and a vector q; find x >= 0 with w = A x + q >= 0 and,
for every column j, x_j times the product of w over block j zero.  The
columns are, per state, the player-II share ``eta(s)`` and the player-I
share ``xi(s)`` of the value, with ``eta(s) + xi(s) = v(s)``.
Duplicating each column once per row of its block yields an equivalent
square LCP; a solution's vertical variables are the sums of each
column's copies.

This is the only module that knows the game's block layout: the eta
blocks (player I's rows) come first, the xi blocks (player II's rows)
after.  It builds both problems, computes the square problem's strictly
feasible start, shifting r2 if it must (:func:`find_interior_point`),
and reads an endpoint's slack back as the pure pair
(:func:`recover_vlcp_solution`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import NoInteriorPointFound
from .game_model import AratGame, _counts, _freeze, validate

#: Level of every eta copy in the computed start.
_EPS_SMALL = 1e-2

#: Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True, eq=False)
class VlcpInstance:
    """Vertical problem: read-only m x k matrix A, q with one entry per
    row, and the row count of each column's block (consecutive rows)."""

    A: np.ndarray
    q: np.ndarray
    block_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        a, q = _freeze(self.A), _freeze(self.q)
        sizes = _counts(self.block_sizes, "block sizes")
        m, k = a.shape
        if k < 1 or m < k:
            raise ValueError(f"need m >= k >= 1, got {m} x {k}")
        if len(sizes) != k:
            raise ValueError("one block size per column required")
        if min(sizes) < 1 or sum(sizes) != m:
            raise ValueError("block sizes must be >= 1 and sum to the row count")
        if q.size != m:
            raise ValueError("q must have one entry per row")
        for name, value in {"A": a, "q": q, "block_sizes": sizes}.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class SquareLcp:
    """Equivalent square problem: n x n M, q, and the copy count of each
    vertical column.  J, derived from those sizes, maps block j to its
    copied columns: consecutive ranges that tile 0..n-1 in order."""

    M: np.ndarray
    q: np.ndarray
    block_sizes: tuple[int, ...]
    J: tuple[range, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m_mat, q = _freeze(self.M), _freeze(self.q)
        sizes = _counts(self.block_sizes, "block sizes")
        n = q.size
        if m_mat.shape != (n, n):
            raise ValueError("M must be square and match q")
        if min(sizes, default=0) < 1 or sum(sizes) != n:
            raise ValueError(f"block sizes must be >= 1 and sum to {n}, "
                             f"got {sizes}")
        stored = {"M": m_mat, "q": q, "block_sizes": sizes, "J": tuple(
            range(end - b, end) for b, end in zip(sizes, accumulate(sizes)))}
        for name, value in stored.items():
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.q.size

    @property
    def k(self) -> int:
        return len(self.J)


def build_vlcp(game: AratGame) -> VlcpInstance:
    """Assemble the vertical problem for an additive game; one that fails
    ``validate`` raises InvalidGame, whose message holds the report.

    Row order: player-I rows state-major then player-II rows state-major.
    Columns: eta(1..d) then xi(1..d).  Entry pattern per row block::

        player-I rows:  [-beta P1 | E - beta P1]   q = -r1
        player-II rows: [-E + beta P2 | beta P2]   q = +r2

    where E has a 1 wherever the row's state equals the column's state.
    """
    validate(game).raise_if_invalid()
    d = game.d
    sign = np.where(game.block < d, -1.0, 1.0)
    half = sign[:, None] * game.beta * game.p
    a = np.hstack((half, half))
    # E sits in the other player's half: block b (player I's state b,
    # then player II's state b - d) has it in column (b + d) mod 2d,
    # with the sign opposite to that row's transition term
    a[np.arange(game.r.size), (game.block + d) % (2 * d)] -= sign
    a += 0.0  # canonicalize -0.0 entries from negated zero probabilities
    q = sign * game.r
    return VlcpInstance(A=a, q=q, block_sizes=game.m1 + game.m2)


def to_equivalent_lcp(v: VlcpInstance) -> SquareLcp:
    """Square problem obtained by copying each column once per block row.

    ``np.repeat`` along the columns keeps M in C order, so products with
    M sum in the same order whatever the block sizes.
    """
    return SquareLcp(M=np.repeat(v.A, v.block_sizes, axis=1), q=v.q,
                     block_sizes=v.block_sizes)


def _state_count(lcp: SquareLcp) -> int:
    """d, half the block count; ValueError if that count is odd."""
    if lcp.k % 2 != 0:
        raise ValueError(f"{lcp.k} blocks: a game-built problem has an even "
                         f"number, an eta and a xi block per state")
    return lcp.k // 2


def recover_vlcp_solution(
        lcp: SquareLcp, w: Sequence[float]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pure pair ``(strategy_i, strategy_ii)`` read off a square-LCP
    slack w, as 0-based action indices.

    Each block's pure action is its smallest-index argmin slack row: the
    first half of the blocks are player I's states, the second half
    player II's.  Nothing here judges feasibility or complementarity:
    the pair is only a candidate, which ``oracle.certify`` checks
    against the game.  Raises ValueError unless the block count is even
    (an eta and a xi block per state), as for every game-built problem,
    and if w does not have the LCP dimension or holds a NaN.
    """
    w = np.asarray(w, dtype=float)
    d = _state_count(lcp)
    if w.shape != (lcp.n,):
        raise ValueError("w must have the LCP dimension")
    if np.isnan(w).any():
        raise ValueError("w holds a NaN")
    actions = tuple(int(np.argmin(w[rng.start:rng.stop])) for rng in lcp.J)
    return actions[:d], actions[d:]


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


def find_interior_point(lcp: SquareLcp) -> tuple[SquareLcp, np.ndarray, float]:
    """The problem to trace, its strictly feasible start x0 (x0 > 0,
    M x0 + q > 0) and the c2 added to r2 to make that problem from the
    game-built ``lcp`` (ValueError unless the block count is even).

    Every eta copy (the first half of the blocks) is 0.01, giving x_eta,
    and u puts 1/|J_j| on each copy of xi block j, so that every xi(s)
    sums to 1.  With a = M x_eta + q and b = M u, x0 = x_eta + K u with

        K = 1 + max(0, max over rows with b_r > 0 of -a_r / b_r),

    which leaves every row with b_r > 0 a slack of at least b_r.  On a
    game-built matrix b >= 0 on every row, and b = 1 - beta * mass > 0 on
    the player-I rows, so in exact arithmetic only a player-II row of a
    state without player-II transition mass (b = 0) can fail: its slack
    is r2 - 0.01 * m1(s), whatever K is.  In floating point K b_r can be
    lost against a much larger reward, so a row counts as lifted only if
    its slack exceeds the rounding bound of :func:`_computed_start`.
    If that start leaves player-II rows, and only those, unlifted, c2 =
    1 + 0.01 max m1 - min r2 is added to q on those rows (r2 shifted in
    the game), leaving each a slack of at least 1 without the xi copies,
    and the start of that copy is made; else c2 = 0.  NoInteriorPointFound
    names the unlifted row with the smallest slack of the last start made."""
    half = _state_count(lcp)
    first_ii, c2 = lcp.J[half].start, 0.0
    x, slack, lifted, a, b = _computed_start(lcp)
    if lifted[:first_ii].all() and not lifted[first_ii:].all():
        m1 = max(lcp.block_sizes[:half])
        c2 = float(1.0 + _EPS_SMALL * m1 - lcp.q[first_ii:].min())
        q = np.concatenate((lcp.q[:first_ii], lcp.q[first_ii:] + c2))
        lcp = SquareLcp(M=lcp.M, q=q, block_sizes=lcp.block_sizes)
        x, slack, lifted, a, b = _computed_start(lcp)
    if x.min() > 0.0 and lifted.all():
        return lcp, x, c2
    row = int(np.argmin(np.where(lifted, np.inf, slack)))
    block = next(j for j, rng in enumerate(lcp.J) if row in rng)
    raise NoInteriorPointFound(
        f"the player-{'II' if block >= half else 'I'} row "
        f"{row - lcp.J[block].start + 1} of state {block % half + 1} cannot "
        f"be lifted: its entry of M u is {float(b[row])!r} and its slack "
        f"without the xi copies is {float(a[row])!r}")
