"""Hoffman–Karp strategy iteration: a pure optimal stationary pair from
any pure starting pair.

Each round, player II best-responds to player I's actions by policy
iteration, and player I then switches, in every state at once, to its
best one-shot action where that gains; the rounds repeat until neither
player gains (Hoffman & Karp, Management Science 12, 1966).  In an
additive game the one-shot payoff of player I's action i against
player II's j is a_i + b_j, so pure stationary strategies suffice and
the pair where the rounds end is optimal (Raghavan, Tijs & Vrieze,
JOTA 47, 1985).  Only player I switches between best responses: the
simultaneous switch of both players (Pollatschek & Avi-Itzhak, 1969)
can cycle.

A gain is judged exactly as ``oracle.certify`` judges it, from the same
value, payoffs and slack (``oracle.one_shot_payoffs``): an action
gains when its one-shot payoff beats the pair's value by more than the
slack, and a player keeps its action where none does.  So a pair where
the rounds end passes ``certify``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .game_model import AratGame
from .oracle import _pure_rows, one_shot_payoffs

#: Most rounds, and most policy-iteration steps of player II in one
#: round (:func:`hoffman_karp` gives the most measured).
_MAX_ROUNDS = 32


def _switch(game: AratGame, pair: np.ndarray, v: np.ndarray,
            payoff: np.ndarray, slack: float, second: bool) -> bool:
    """Move one player's row of the stacked ``pair`` (player II's if
    ``second``), in every state where some action of that player gains
    more than ``slack`` at v, to its best row, the first in index order;
    True if any moved.  A NaN never gains."""
    d, start = game.d, game.start
    first = start[d:] if second else start[:d]
    lo, hi = int(first[0]), game.r.size if second else int(start[d])
    sign = -1.0 if second else 1.0  # player II minimises
    score = sign * payoff[lo:hi]
    best = np.maximum.reduceat(score, first - lo)
    gains = best > sign * v + slack
    if not gains.any():
        return False
    rows = np.arange(lo, hi)
    state = game.block[lo:hi] % d
    row = np.minimum.reduceat(np.where(score == best[state], rows, hi),
                              first - lo)
    own = pair[d:] if second else pair[:d]
    own[gains] = row[gains]
    return True


def hoffman_karp(game: AratGame, strategy_i: Sequence[int],
                 strategy_ii: Sequence[int]
                 ) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """``(strategy_i, strategy_ii, rounds)``: the pair where Hoffman–Karp
    from the pure pair ``(strategy_i, strategy_ii)`` (0-based actions)
    ends, and the rounds it ran; a pair ``certify`` refuses is a ValueError.

    The start pair is checked once, and the rounds move its stacked rows
    in place.  A round is player II's policy iteration against player
    I's actions, then player I's switch; the pair ends when player I does
    not switch.  At most ``_MAX_ROUNDS`` rounds run, each with at most
    ``_MAX_ROUNDS`` policy-iteration steps; no run on the seed-1
    benchmark pools took more than 3 rounds.  A run cut there returns its last
    pair, which ``certify`` judges: ``solve``, whose only fallback this
    is, answers with it and the ``solve`` verb exits 1 if it fails.  The
    game must be valid (``validate``).
    """
    pair = _pure_rows(game, strategy_i, strategy_ii)
    for rounds in range(1, _MAX_ROUNDS + 1):
        for _ in range(_MAX_ROUNDS):
            v, payoff, slack = one_shot_payoffs(game, pair)
            if not _switch(game, pair, v, payoff, slack, second=True):
                break
        else:
            break  # player II's policy iteration did not settle
        if not _switch(game, pair, v, payoff, slack, second=False):
            break
    actions = (pair - game.start).tolist()
    return tuple(actions[:game.d]), tuple(actions[game.d:]), rounds
