"""Discounted zero-sum stochastic games with additive rewards and transitions.

A game is "additive" when both the reward and the transition law split into
a player-I part and a player-II part:

    reward(s, i, j)       = r1[s][i] + r2[s][j]
    transition(s, i, j)   = p1[s][i] + p2[s][j]   (vector over next states)

States and actions are 0-based everywhere in this API; the file format and
all user-facing messages are 1-based (the CLI parser is the boundary).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

#: Absolute tolerance on probability row sums.  Inputs are typically exact
#: rationals, so only rounding noise is tolerated.
PROB_TOL = 1e-12


def _freeze(a, dtype=float) -> np.ndarray:
    """A read-only copy of ``a`` as an array of ``dtype``: the caller's
    array stays writable, and a later write to it does not reach the
    copy.  Every constructor stores its arrays through this."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _counts(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints; an entry that is not an integer
    (numpy's included, a bool not) raises ValueError naming ``what``."""
    values = tuple(values)
    # plain ints, what the parser and the builder give, skip the ABC test
    if not {*map(type, values)} <= {int} and any(
            isinstance(v, bool) or not isinstance(v, numbers.Integral)
            for v in values):
        raise ValueError(f"{what} must be integers, got {values!r}")
    return tuple(map(int, values))


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
    :meth:`from_stacked` builds a game from that layout directly.

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
        self._store(self.beta, np.concatenate(r1 + r2),
                    np.concatenate(p1 + p2), tuple(a.size for a in r1 + r2))

    @classmethod
    def from_stacked(cls, beta: float, r, p, m1, m2) -> AratGame:
        """The game whose stacked rows are ``r`` (shape (K,)) and ``p``
        (shape (K, d)), with ``m1[s]`` and ``m2[s]`` actions in state s,
        K = sum(m1) + sum(m2); stores a read-only copy, as the per-state
        constructor does.  Sizes that do not agree raise ValueError."""
        counts = _counts((*m1, *m2), "action counts")
        d = len(m1)
        r, p = np.asarray(r, dtype=float), np.asarray(p, dtype=float)
        if len(m2) != d or d == 0 or min(counts) < 0:
            raise ValueError("m1 and m2 must give a nonnegative action "
                             "count for every state, and d >= 1")
        k = sum(counts)
        if r.shape != (k,) or p.shape != (k, d):
            raise ValueError(
                f"r must be ({k},) and p {k} x {d} for these action counts, "
                f"got {r.shape} and {p.shape}"
            )
        game = object.__new__(cls)
        game._store(beta, r, p, counts)
        return game

    def _store(self, beta: float, r, p, counts: tuple[int, ...]) -> None:
        """Store the game: read-only copies of the stacked ``r`` and ``p``,
        the layout of ``counts`` (the action count of each of the 2d
        blocks) and r1..p2 as views of r and p."""
        d = len(counts) // 2
        r, p = _freeze(r), _freeze(p)
        end = list(accumulate(counts))
        start = [0, *end[:-1]]
        r_rows = [r[a:e] for a, e in zip(start, end)]
        p_rows = [p[a:e] for a, e in zip(start, end)]
        stored = {
            "beta": float(beta), "r": r, "p": p,
            "start": _freeze(start, int),
            "block": _freeze(np.arange(2 * d).repeat(counts), int),
            "m1": counts[:d], "m2": counts[d:],
            "r1": tuple(r_rows[:d]), "r2": tuple(r_rows[d:]),
            "p1": tuple(p_rows[:d]), "p2": tuple(p_rows[d:]),
        }
        for name, value in stored.items():
            object.__setattr__(self, name, value)

    @property
    def d(self) -> int:
        """Number of states."""
        return len(self.m1)


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
