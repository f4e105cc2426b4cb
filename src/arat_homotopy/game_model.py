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

    # Each check is one mask over the actions of all states stacked, and
    # only its hits are walked.  A hit is kept as (state, check, text) and
    # sorted by state, then check; one check finds its hits in state order.
    d = game.d
    hits: list[tuple[int, int, str]] = []
    # per player, (state x action) arrays: which entries are actions, the
    # row sums (NaN pads fail every comparison, as a NaN sum does) and
    # whether the row is nonzero
    acts, sums, nonzero = [], [], []
    for k, (name, rewards, blocks) in enumerate(
            (("I", game.r1, game.p1), ("II", game.r2, game.p2))):
        counts = np.array([a.size for a in rewards])
        state = np.repeat(np.arange(d), counts)
        action = np.arange(state.size) - (np.cumsum(counts) - counts)[state]
        r, p = np.concatenate(rewards), np.concatenate(blocks)
        hits += [(s, k, f"state {s + 1}: player {name} has no actions")
                 for s in np.flatnonzero(counts == 0)]
        hits += [(state[a], 2 + k, f"state {state[a] + 1}: r{k + 1}"
                  f"[{action[a] + 1}] = {float(r[a])!r} is not finite")
                 for a in np.flatnonzero(~np.isfinite(r))]
        for check, bad, what in ((4 + 2 * k, ~np.isfinite(p), "is not finite"),
                                 (5 + 2 * k, p < 0.0, "is negative")):
            hits += [(state[a], check, f"state {state[a] + 1}: p{k + 1}"
                      f"[{action[a] + 1}][{dest + 1}] = {float(p[a, dest])!r} "
                      f"{what}") for a, dest in np.argwhere(bad)]
        acts.append(np.arange(counts.max()) < counts[:, None])
        sums.append(np.full(acts[k].shape, np.nan))
        sums[k][state, action] = p.sum(axis=1)
        nonzero.append(np.zeros(acts[k].shape, dtype=bool))
        nonzero[k][state, action] = p.any(axis=1)
    v += [text for *_, text in sorted(hits, key=lambda h: h[:2])]

    # composed row sums of every action pair (i, j), state by state, i major
    total = sums[0][:, :, None] + sums[1][:, None, :]
    hits = [(s, 0, f"state {s + 1}, actions (i={i + 1}, j={j + 1}): row sum "
                   f"{float(total[s, i, j])!r} != 1")
            for s, i, j in np.argwhere(np.abs(total - 1.0) > PROB_TOL)]
    for k, name in enumerate(("I", "II")):
        spread = (sums[k].max(axis=1, where=acts[k], initial=-np.inf)
                  - sums[k].min(axis=1, where=acts[k], initial=np.inf))
        hits += [(s, 1 + k, f"state {s + 1}: player-{name} transition mass "
                            f"varies across actions "
                            f"({sums[k][s, acts[k][s]].tolist()})")
                 for s in np.flatnonzero(spread > PROB_TOL)]
    v += [text for *_, text in sorted(hits, key=lambda h: h[:2])]

    # Zero-row consistency: a single all-zero player-II row means that
    # player's transition mass in this state is zero, hence the whole
    # block must vanish.
    zero = acts[1] & ~nonzero[1]
    for s in np.flatnonzero(zero.any(axis=1) & nonzero[1].any(axis=1)):
        v.append(
            f"state {s + 1}: player-II row {zero[s].argmax() + 1} is all zero "
            f"but the player-II block is nonzero (zero-row consistency)"
        )
    return ValidationReport(v)
