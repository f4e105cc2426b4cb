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
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class AratGame:
    """An additive-reward additive-transition discounted game.

    beta: discount factor in (0, 1).
    r1, r2: per-state reward components, r1[s] has one entry per player-I
        action, r2[s] one per player-II action.
    p1, p2: per-state transition components, p1[s] is (actions x states),
        rows indexed by player-I actions; p2[s] likewise for player II.

    The game is stored once, as a copy of the inputs, with one row per
    action: player I's actions state by state, then player II's.  These
    stacked arrays are read-only, and r1, r2, p1 and p2 are views of them.

    r: every action's reward, shape (K,).
    p: the matching transition rows, shape (K, d).
    start: the first row of each of the 2d blocks; block s is player I's
        state s, block d + s player II's state s.
    block: the block of every row.
    m1, m2: the action count per state of player I and of player II.
    """

    beta: float
    r1: tuple[np.ndarray, ...]
    r2: tuple[np.ndarray, ...]
    p1: tuple[np.ndarray, ...]
    p2: tuple[np.ndarray, ...]
    r: np.ndarray = field(init=False, repr=False)
    p: np.ndarray = field(init=False, repr=False)
    start: np.ndarray = field(init=False, repr=False)
    block: np.ndarray = field(init=False, repr=False)
    m1: tuple[int, ...] = field(init=False, repr=False)
    m2: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        r1 = [np.ravel(np.asarray(a, dtype=float)) for a in self.r1]
        r2 = [np.ravel(np.asarray(a, dtype=float)) for a in self.r2]
        p1 = [np.atleast_2d(np.asarray(a, dtype=float)) for a in self.p1]
        p2 = [np.atleast_2d(np.asarray(a, dtype=float)) for a in self.p2]
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
        counts = tuple(a.size for a in r1 + r2)
        end = np.cumsum(counts)
        # concatenate copies, so the caller's arrays are neither frozen
        # nor able to change the game
        r = _freeze(np.concatenate(r1 + r2))
        p = _freeze(np.concatenate(p1 + p2))
        rows = [slice(e - c, e) for c, e in zip(counts, end.tolist())]
        stored = {
            "beta": float(self.beta), "r": r, "p": p,
            "start": _freeze(end - counts),
            "block": _freeze(np.repeat(np.arange(2 * d), counts)),
            "m1": counts[:d], "m2": counts[d:],
            "r1": tuple(r[k] for k in rows[:d]),
            "r2": tuple(r[k] for k in rows[d:]),
            "p1": tuple(p[k] for k in rows[:d]),
            "p2": tuple(p[k] for k in rows[d:]),
        }
        for name, value in stored.items():
            object.__setattr__(self, name, value)

    @property
    def d(self) -> int:
        """Number of states."""
        return len(self.m1)

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


@np.errstate(over="ignore", invalid="ignore")  # inf and NaN sums are reported
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

    # Each check is one mask over the stacked actions, and only its hits
    # are walked.  A hit is kept as (state, check, text) and sorted by
    # state, then check; one check finds its hits in state order.
    d, r, p, block = game.d, game.r, game.p, game.block
    state, player = block % d, block // d
    action = np.arange(r.size) - game.start[block]
    counts = np.array(game.m1 + game.m2)
    name = ("I", "II")
    hits = [(b % d, b // d, f"state {b % d + 1}: player {name[b // d]} has "
                            f"no actions") for b in np.flatnonzero(counts == 0)]
    hits += [(state[a], 2 + player[a], f"state {state[a] + 1}: r{player[a] + 1}"
              f"[{action[a] + 1}] = {float(r[a])!r} is not finite")
             for a in np.flatnonzero(~np.isfinite(r))]
    for check, bad, what in ((4, ~np.isfinite(p), "is not finite"),
                             (5, p < 0.0, "is negative")):
        hits += [(state[a], check + 2 * player[a], f"state {state[a] + 1}: "
                  f"p{player[a] + 1}[{action[a] + 1}][{dest + 1}] = "
                  f"{float(p[a, dest])!r} {what}")
                 for a, dest in np.argwhere(bad)]
    v += [text for *_, text in sorted(hits, key=lambda h: h[:2])]

    # (block x action) arrays: which entries are actions, the row sums
    # (NaN pads fail every comparison, as a NaN sum does) and whether the
    # row is nonzero; blocks d.. are player II's
    acts = np.arange(counts.max()) < counts[:, None]
    sums = np.full(acts.shape, np.nan)
    sums[block, action] = p.sum(axis=1)
    nonzero = np.zeros(acts.shape, dtype=bool)
    nonzero[block, action] = p.any(axis=1)

    # composed row sums of every action pair (i, j), state by state, i major
    total = sums[:d, :, None] + sums[d:, None, :]
    hits = [(s, 0, f"state {s + 1}, actions (i={i + 1}, j={j + 1}): row sum "
                   f"{float(total[s, i, j])!r} != 1")
            for s, i, j in np.argwhere(np.abs(total - 1.0) > PROB_TOL)]
    spread = (sums.max(axis=1, where=acts, initial=-np.inf)
              - sums.min(axis=1, where=acts, initial=np.inf))
    hits += [(b % d, 1 + b // d, f"state {b % d + 1}: player-{name[b // d]} "
                                 f"transition mass varies across actions "
                                 f"({sums[b, acts[b]].tolist()})")
             for b in np.flatnonzero(spread > PROB_TOL)]
    v += [text for *_, text in sorted(hits, key=lambda h: h[:2])]

    # Zero-row consistency: a single all-zero player-II row means that
    # player's transition mass in this state is zero, hence the whole
    # block must vanish.
    zero = acts[d:] & ~nonzero[d:]
    for s in np.flatnonzero(zero.any(axis=1) & nonzero[d:].any(axis=1)):
        v.append(
            f"state {s + 1}: player-II row {zero[s].argmax() + 1} is all zero "
            f"but the player-II block is nonzero (zero-row consistency)"
        )
    return ValidationReport(v)
