"""Answer check that trusts nothing the solver reports.

An answer is a pure stationary pair plus a value vector.  The pair is
re-evaluated exactly (one d x d solve); it must satisfy Shapley's
one-shot deviation inequalities at that exact value, and the reported
value must match it within the CLI's certificate tolerance.
"""

from __future__ import annotations

import numpy as np

from arat_homotopy.game_model import AratGame
from arat_homotopy.oracle import evaluate_pure_pair

from corpus import Game

#: Relative slack on the deviation inequalities at the exact value.
DEVIATION_TOL = 1e-9
#: Sup-norm tolerance on the reported value (the CLI certifies at 1e-4).
VALUE_TOL = 1e-4


def answer_errors(game: Game, strategy_i, strategy_ii, value) -> list[str]:
    """Every way the answer fails; empty when it is an optimal pair.

    Strategies are 0-based action indices, one per state.
    """
    d = game.d
    if len(strategy_i) != d or len(strategy_ii) != d or len(value) != d:
        return [f"answer has the wrong length for {d} states"]
    for s in range(d):
        if not (0 <= strategy_i[s] < game.r1[s].size
                and 0 <= strategy_ii[s] < game.r2[s].size):
            return [f"state {s + 1}: action index out of range"]
    exact = evaluate_pure_pair(
        AratGame(beta=game.beta, r1=game.r1, r2=game.r2, p1=game.p1,
                 p2=game.p2),
        strategy_i, strategy_ii,
    )
    tol = DEVIATION_TOL * (1.0 + float(np.abs(exact).max()))
    errors = []
    for s in range(d):
        i_star, j_star = strategy_i[s], strategy_ii[s]
        # One-shot payoff of every player-I row against j*, and of every
        # player-II column against i*, continuing with the exact value.
        rows = (game.r1[s] + game.r2[s][j_star]
                + game.beta * (game.p1[s] + game.p2[s][j_star]) @ exact)
        cols = (game.r1[s][i_star] + game.r2[s]
                + game.beta * (game.p1[s][i_star] + game.p2[s]) @ exact)
        if rows.max() > exact[s] + tol:
            errors.append(f"state {s + 1}: player I gains "
                          f"{float(rows.max() - exact[s])!r} by deviating")
        if cols.min() < exact[s] - tol:
            errors.append(f"state {s + 1}: player II gains "
                          f"{float(exact[s] - cols.min())!r} by deviating")
    value_error = float(np.abs(np.asarray(value, dtype=float) - exact).max())
    if value_error > VALUE_TOL:
        errors.append(f"reported value is off by {value_error!r}")
    return errors
