"""Vertical complementarity formulation of an additive game.

The game maps to a rectangular (vertical block) complementarity problem
whose variables are, per state, the player-II share ``eta(s)`` and the
player-I share ``xi(s)`` of the value, with ``eta(s) + xi(s) = v(s)``.
Duplicating each column once per row of its block yields an equivalent
square LCP; solutions map back by summing the duplicated variables.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidGame
from .game_model import AratGame, validate

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class VerticalBlockMatrix:
    """Dense m x k matrix whose rows are grouped into k blocks."""

    entries: np.ndarray
    block_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "block_sizes", tuple(int(b) for b in self.block_sizes))
        m, k = entries.shape
        if k < 1 or m < k:
            raise ValueError(f"need m >= k >= 1, got {m} x {k}")
        if len(self.block_sizes) != k:
            raise ValueError("one block size per column required")
        if any(b < 1 for b in self.block_sizes) or sum(self.block_sizes) != m:
            raise ValueError("block sizes must be >= 1 and sum to the row count")

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def k(self) -> int:
        return self.entries.shape[1]

    def row_blocks(self) -> tuple[range, ...]:
        """Consecutive row ranges, one per column block."""
        out, start = [], 0
        for b in self.block_sizes:
            out.append(range(start, start + b))
            start += b
        return tuple(out)


@dataclass(frozen=True)
class VlcpInstance:
    """Vertical problem data plus per-column variable labels."""

    A: VerticalBlockMatrix
    q: np.ndarray
    column_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        if q.size != self.A.m:
            raise ValueError("q must have one entry per row")
        if len(self.column_labels) != self.A.k:
            raise ValueError("one label per column required")


@dataclass(frozen=True)
class SquareLcp:
    """Equivalent square problem; J maps block j to its copied columns."""

    M: np.ndarray
    q: np.ndarray
    J: tuple[range, ...]

    def __post_init__(self) -> None:
        m_mat = np.asarray(self.M, dtype=float)
        q = np.asarray(self.q, dtype=float)
        m_mat.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "M", m_mat)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "J", tuple(self.J))
        n = q.size
        if m_mat.shape != (n, n):
            raise ValueError("M must be square and match q")

    @property
    def n(self) -> int:
        return self.q.size

    @property
    def k(self) -> int:
        return len(self.J)


@dataclass(frozen=True)
class VlcpSolution:
    """Solution recovered in vertical coordinates.

    x stacks eta(1..d) then xi(1..d); value = eta + xi.  Strategies hold
    0-based pure action indices; eta/xi/value/strategies are None when the
    block structure is not game shaped (odd number of blocks).
    """

    x: np.ndarray
    w: np.ndarray
    eta: np.ndarray | None
    xi: np.ndarray | None
    value: np.ndarray | None
    strategy_i: tuple[int, ...] | None
    strategy_ii: tuple[int, ...] | None


def build_vlcp(game: AratGame) -> VlcpInstance:
    """Assemble the vertical problem for an additive game; one that fails
    ``validate`` raises InvalidGame, whose message holds the report.

    Row order: player-I rows state-major then player-II rows state-major.
    Columns: eta(1..d) then xi(1..d).  Entry pattern per row block::

        player-I rows:  [-beta P1 | E - beta P1]   q = -r1
        player-II rows: [-E + beta P2 | beta P2]   q = +r2

    where E has a 1 wherever the row's state equals the column's state.
    """
    report = validate(game)
    if not report.ok:
        raise InvalidGame(f"invalid game:\n{report}")
    d = game.d
    m1, m2 = game.m1, game.m2
    rows_i = sum(m1)
    rows_ii = sum(m2)
    m = rows_i + rows_ii
    beta = game.beta

    a = np.zeros((m, 2 * d))
    q = np.zeros(m)
    r = 0
    for s in range(d):
        for i in range(m1[s]):
            a[r, 0:d] = -beta * game.p1[s][i]
            a[r, d:2 * d] = -beta * game.p1[s][i]
            a[r, d + s] += 1.0
            q[r] = -game.r1[s][i]
            r += 1
    for s in range(d):
        for j in range(m2[s]):
            a[r, 0:d] = beta * game.p2[s][j]
            a[r, s] -= 1.0
            a[r, d:2 * d] = beta * game.p2[s][j]
            q[r] = game.r2[s][j]
            r += 1

    a += 0.0  # canonicalize -0.0 entries from negated zero probabilities
    block_sizes = tuple(m1) + tuple(m2)
    labels = tuple(f"eta({s + 1})" for s in range(d)) + tuple(
        f"xi({s + 1})" for s in range(d)
    )
    return VlcpInstance(
        A=VerticalBlockMatrix(entries=a, block_sizes=block_sizes),
        q=q,
        column_labels=labels,
    )


def to_equivalent_lcp(v: VlcpInstance) -> SquareLcp:
    """Square problem obtained by copying each column once per block row."""
    a = v.A.entries
    n = v.A.m
    m_mat = np.empty((n, n))
    blocks = v.A.row_blocks()
    for col, rng in enumerate(blocks):
        for p in rng:
            m_mat[:, p] = a[:, col]
    return SquareLcp(M=m_mat, q=v.q, J=blocks)


def recover_vlcp_solution(lcp: SquareLcp, z: Sequence[float],
                          w: Sequence[float]) -> VlcpSolution:
    """Map a square-LCP point back to vertical coordinates.

    Block variables are the sums of their column copies.  Each block's
    pure action is its smallest-index argmin slack row.  Nothing here
    judges feasibility or complementarity: the pair is only a candidate,
    which ``oracle.certify`` checks exactly against the game.
    """
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    n = lcp.n
    if z.size != n or w.size != n:
        raise ValueError("z and w must have the LCP dimension")
    if np.max(np.abs(lcp.M @ z + lcp.q - w)) > 1e-6 * (1.0 + np.abs(lcp.q).max()):
        raise ValueError("w is not M z + q for this problem")

    x = np.array([z[list(rng)].sum() for rng in lcp.J])
    k = lcp.k
    if k % 2 != 0:
        return VlcpSolution(x=x, w=w, eta=None, xi=None, value=None,
                            strategy_i=None, strategy_ii=None)

    d = k // 2
    eta = x[:d].copy()
    xi = x[d:].copy()
    actions = tuple(int(np.argmin(w[list(rng)])) for rng in lcp.J)
    return VlcpSolution(x=x, w=w, eta=eta, xi=xi, value=eta + xi,
                        strategy_i=actions[:d], strategy_ii=actions[d:])
