"""Vertical complementarity formulation of an additive game.

The game maps to a vertical block LCP (Cottle & Dantzig, J. Comb.
Theory 8, 1970): an m x k matrix A whose rows form k consecutive blocks,
one per column, and a vector q; find x >= 0 with w = A x + q >= 0 and,
for every column j, x_j times the product of w over block j zero.  The
columns are, per state, the player-II share ``eta(s)`` and the player-I
share ``xi(s)`` of the value, with ``eta(s) + xi(s) = v(s)``.
Duplicating each column once per row of its block yields an equivalent
square LCP; solutions map back by summing the duplicated variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from .game_model import AratGame, _counts, _freeze, validate


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


@dataclass(frozen=True, eq=False)
class VlcpSolution:
    """Solution recovered in vertical coordinates.

    x stacks eta(1..d) then xi(1..d); value = eta + xi = x[:d] + x[d:].
    Strategies hold 0-based pure action indices.
    """

    x: np.ndarray
    value: np.ndarray
    strategy_i: tuple[int, ...]
    strategy_ii: tuple[int, ...]


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


def recover_vlcp_solution(lcp: SquareLcp, z: Sequence[float],
                          w: Sequence[float]) -> VlcpSolution:
    """Map a square-LCP point back to vertical coordinates.

    Block variables are the sums of their column copies.  Each block's
    pure action is its smallest-index argmin slack row.  Nothing here
    judges feasibility or complementarity: the pair is only a candidate,
    which ``oracle.certify`` checks exactly against the game.  Raises
    ValueError unless the block count is even (an eta and a xi block per
    state), as for every game-built problem.
    """
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    n = lcp.n
    if lcp.k % 2 != 0:
        raise ValueError(f"{lcp.k} blocks: a game-built problem has an even "
                         f"number, an eta and a xi block per state")
    if z.size != n or w.size != n:
        raise ValueError("z and w must have the LCP dimension")
    # "not (gap <= bound)" so that a NaN in z or w fails as well
    gap = np.max(np.abs(lcp.M @ z + lcp.q - w))
    if not (gap <= 1e-6 * (1.0 + np.abs(lcp.q).max())):
        raise ValueError("w is not M z + q for this problem")

    x = np.array([z[list(rng)].sum() for rng in lcp.J])
    d = lcp.k // 2
    actions = tuple(int(np.argmin(w[list(rng)])) for rng in lcp.J)
    return VlcpSolution(x=x, value=x[:d] + x[d:],
                        strategy_i=actions[:d], strategy_ii=actions[d:])
