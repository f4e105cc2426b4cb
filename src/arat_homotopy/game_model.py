"""Discounted zero-sum stochastic games with additive rewards and transitions.

A game is "additive" when both the reward and the transition law split into
a player-I part and a player-II part:

    reward(s, i, j)       = r1[s][i] + r2[s][j]
    transition(s, i, j)   = p1[s][i] + p2[s][j]   (vector over next states)

States and actions are 0-based everywhere in this API; the file format and
all user-facing messages are 1-based (the CLI parser is the boundary).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Absolute tolerance on probability row sums.  Inputs are typically exact
#: rationals, so only rounding noise is tolerated.
PROB_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class AratGame:
    """An additive-reward additive-transition discounted game.

    beta: discount factor in (0, 1).
    r1, r2: per-state reward components, r1[s] has one entry per player-I
        action, r2[s] one per player-II action.
    p1, p2: per-state transition components, p1[s] is (actions x states),
        rows indexed by player-I actions; p2[s] likewise for player II.
    """

    beta: float
    r1: tuple[np.ndarray, ...]
    r2: tuple[np.ndarray, ...]
    p1: tuple[np.ndarray, ...]
    p2: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        r1 = tuple(_freeze(np.atleast_1d(a)) for a in self.r1)
        r2 = tuple(_freeze(np.atleast_1d(a)) for a in self.r2)
        p1 = tuple(_freeze(np.atleast_2d(a)) for a in self.p1)
        p2 = tuple(_freeze(np.atleast_2d(a)) for a in self.p2)
        d = len(r1)
        if not (len(r2) == len(p1) == len(p2) == d) or d == 0:
            raise ValueError("r1, r2, p1, p2 must all have one entry per state")
        for s in range(d):
            if p1[s].shape != (r1[s].size, d):
                raise ValueError(
                    f"state {s + 1}: player-I transitions must be "
                    f"{r1[s].size} x {d}, got {p1[s].shape}"
                )
            if p2[s].shape != (r2[s].size, d):
                raise ValueError(
                    f"state {s + 1}: player-II transitions must be "
                    f"{r2[s].size} x {d}, got {p2[s].shape}"
                )
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "r2", r2)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def d(self) -> int:
        """Number of states."""
        return len(self.r1)

    @property
    def m1(self) -> tuple[int, ...]:
        """Player-I action count per state."""
        return tuple(a.size for a in self.r1)

    @property
    def m2(self) -> tuple[int, ...]:
        """Player-II action count per state."""
        return tuple(a.size for a in self.r2)

    def shifted(self, c1: float, c2: float) -> "AratGame":
        """Return a copy with r1 shifted by c1 and r2 by c2."""
        return AratGame(
            beta=self.beta,
            r1=tuple(a + c1 for a in self.r1),
            r2=tuple(a + c2 for a in self.r2),
            p1=self.p1,
            p2=self.p2,
        )


@dataclass
class ValidationReport:
    """Outcome of :func:`validate`; violations are data, not exceptions."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid additive game"
        return "\n".join(self.violations)


def validate(game: AratGame) -> ValidationReport:
    """Check every structural invariant of an additive game.

    Reported (1-based indices throughout):
      * beta in (0, 1),
      * at least one action per player in every state,
      * finite rewards and transition components (NaN and infinities
        would otherwise pass the comparisons below),
      * nonnegative transition components,
      * composed transition rows summing to 1 (within ``PROB_TOL``),
      * per-player row sums constant within each state (a consequence of
        the previous check, reported separately for diagnosis),
      * zero-row consistency: an all-zero player-II row forces that
        state's entire player-II transition block to zero.
    """
    v: list[str] = []
    if not (0.0 < game.beta < 1.0):
        v.append(f"discount beta={game.beta!r} is not in (0, 1)")

    for s in range(game.d):
        for player, m in (("I", game.m1[s]), ("II", game.m2[s])):
            if m == 0:
                v.append(f"state {s + 1}: player {player} has no actions")
        for name, rewards in (("r1", game.r1[s]), ("r2", game.r2[s])):
            for (idx,) in np.argwhere(~np.isfinite(rewards)):
                v.append(
                    f"state {s + 1}: {name}[{idx + 1}] = "
                    f"{float(rewards[idx])!r} is not finite"
                )
        for name, block in (("p1", game.p1[s]), ("p2", game.p2[s])):
            for idx, dest in np.argwhere(~np.isfinite(block)):
                v.append(
                    f"state {s + 1}: {name}[{idx + 1}][{dest + 1}] = "
                    f"{float(block[idx, dest])!r} is not finite"
                )
            neg = np.argwhere(block < 0.0)
            for idx, dest in neg:
                v.append(
                    f"state {s + 1}: {name}[{idx + 1}][{dest + 1}] = "
                    f"{float(block[idx, dest])!r} is negative"
                )

    for s in range(game.d):
        sums1 = game.p1[s].sum(axis=1)
        sums2 = game.p2[s].sum(axis=1)
        for i in range(game.m1[s]):
            for j in range(game.m2[s]):
                total = sums1[i] + sums2[j]
                if abs(total - 1.0) > PROB_TOL:
                    v.append(
                        f"state {s + 1}, actions (i={i + 1}, j={j + 1}): "
                        f"row sum {float(total)!r} != 1"
                    )
        if sums1.size and np.ptp(sums1) > PROB_TOL:
            v.append(
                f"state {s + 1}: player-I transition mass varies across "
                f"actions ({sums1.tolist()})"
            )
        if sums2.size and np.ptp(sums2) > PROB_TOL:
            v.append(
                f"state {s + 1}: player-II transition mass varies across "
                f"actions ({sums2.tolist()})"
            )

    # Zero-row consistency: a single all-zero player-II row means that
    # player's transition mass in this state is zero, hence the whole
    # block must vanish.
    for s in range(game.d):
        block = game.p2[s]
        zero_rows = [j for j in range(game.m2[s]) if not block[j].any()]
        if zero_rows and block.any():
            v.append(
                f"state {s + 1}: player-II row {zero_rows[0] + 1} is all zero "
                f"but the player-II block is nonzero (zero-row consistency)"
            )
    return ValidationReport(v)

