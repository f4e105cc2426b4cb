"""Independent ground truth for the solver pipeline.

Three unrelated routes to the answer live here: fixed-point value
iteration in separable sweeps (each state's pure saddle is the best
player-I row term plus the best player-II column term, so a sweep over
the whole game is one matrix-vector product and a segmented max and
min), direct policy evaluation of a pure stationary pair, and
complementary-support enumeration for small square LCPs.  Enumeration
visits only supports that hold at most one column from each group of
identical columns of M; any other support has a singular principal
submatrix.  None of them shares code with the homotopy path.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import MaxIterExceeded, SizeGuardExceeded
from .game_model import AratGame, composed_reward, composed_transition

if TYPE_CHECKING:  # pragma: no cover
    from .vlcp_builder import VlcpSolution

log = logging.getLogger(__name__)

#: Largest LCP dimension the support enumeration will attempt.
ENUMERATION_GUARD = 20

#: Relative slack on the one-shot deviation inequalities in certify.
_DEVIATION_SLACK = 1e-9


@dataclass(frozen=True)
class GameSolution:
    """Value vector and pure stationary strategies (0-based actions)."""

    v: np.ndarray
    strategy_i: tuple[int, ...]
    strategy_ii: tuple[int, ...]
    iterations: int
    residual: float


def value_iteration(game: AratGame, tol: float = 1e-10,
                    max_iter: int | None = None) -> GameSolution:
    """Fixed-point iteration v <- per-state pure saddle of the stage matrix.

    In an additive game the stage matrix of state s is a_i + b_j, with
    a = r1[s] + beta p1[s] v and b = r2[s] + beta p2[s] v, so its pure
    saddle value is max a + min b (Raghavan, Tijs & Vrieze, JOTA 47,
    1985).  The actions of both players in all states are stacked once
    per call, r = (r1, r2) and beta P = beta (p1; p2); a sweep is then
    one matrix-vector product r + beta P v, sliced into a and b, and one
    segmented max and min, O((sum m1 + sum m2) d) flops.  The strategies
    are the smallest-index argmax of each state's block of a and argmin
    of its block of b; ``residual`` is the step of one more sweep.

    Stops when the sup-norm step falls below
    tol (1 - beta) / (2 beta) (1 + max |v|), which bounds the distance
    to the fixed point by tol / 2 (1 + max |v|).  max |v| is formed only
    after the step is below that threshold taken at the a-priori bound
    max |v| <= R / (1 - beta), R = max |r1| + max |r2|.  The default
    ``max_iter`` is the larger of 100,000 and the contraction bound on
    the sweeps from v = 0 to the absolute threshold,
    1 + ln(tol (1 - beta) / (2 beta) / R) / ln beta.  Raises ValueError
    if a player has no action in some state, and MaxIterExceeded after
    ``max_iter`` sweeps.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    for s in range(game.d):
        for player, m in (("I", game.m1[s]), ("II", game.m2[s])):
            if m == 0:
                raise ValueError(f"state {s + 1}: player {player} has no "
                                 f"actions")
    beta = game.beta
    threshold = tol * (1.0 - beta) / (2.0 * beta) if beta > 0 else tol
    r1, r2 = np.concatenate(game.r1), np.concatenate(game.r2)
    reward_bound = float(np.abs(r1).max() + np.abs(r2).max())
    # the stop threshold at |v| <= reward_bound / (1 - beta), which holds
    # on every sweep from v = 0; max |v| is formed only below it
    loose = threshold * (1.0 + reward_bound / (1.0 - beta))
    if max_iter is None:
        max_iter = 100_000
        if 0 < beta and threshold < reward_bound:
            max_iter = max(max_iter, math.ceil(
                1.0 + math.log(threshold / reward_bound) / math.log(beta)))
    r = np.concatenate((r1, r2))
    bp = beta * np.vstack(game.p1 + game.p2)
    k = r1.size
    # first row of each state's block in the stacked arrays
    o1 = np.cumsum((0,) + game.m1[:-1])
    o2 = np.cumsum((0,) + game.m2[:-1])

    def sweep(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = r + bp @ v
        a, b = x[:k], x[k:]
        return a, b, np.maximum.reduceat(a, o1) + np.minimum.reduceat(b, o2)

    v = np.zeros(game.d)
    for it in range(1, max_iter + 1):
        v_next = sweep(v)[2]
        step = float(np.max(np.abs(v_next - v)))
        v = v_next
        if step <= loose and \
                step <= threshold * (1.0 + float(np.max(np.abs(v)))):
            a, b, v_check = sweep(v)
            return GameSolution(
                v=v,
                strategy_i=tuple(int(np.argmax(blk))
                                 for blk in np.split(a, o1[1:])),
                strategy_ii=tuple(int(np.argmin(blk))
                                  for blk in np.split(b, o2[1:])),
                iterations=it,
                residual=float(np.max(np.abs(v_check - v))),
            )
    raise MaxIterExceeded(f"no fixed point within {max_iter} sweeps")


def evaluate_pure_pair(game: AratGame, strategy_i: Sequence[int],
                       strategy_ii: Sequence[int]) -> np.ndarray:
    """Exact discounted value of a fixed pure stationary pair.

    Solves (I - beta P) v = r where row s of P is the composed transition
    under the pair's actions in state s.
    """
    d = game.d
    p = np.empty((d, d))
    r = np.empty(d)
    for s in range(d):
        i, j = strategy_i[s], strategy_ii[s]
        p[s] = composed_transition(game, s, i, j)
        r[s] = composed_reward(game, s, i, j)
    return np.linalg.solve(np.eye(d) - game.beta * p, r)


def enumerate_lcp(m: np.ndarray, q: np.ndarray,
                  guard: int = ENUMERATION_GUARD) -> list[tuple[np.ndarray, np.ndarray]]:
    """All solutions of ``w = M z + q, z, w >= 0, z circ w = 0`` by brute force.

    Walks the complementary supports (z free on alpha, w zero on alpha)
    in increasing bitmask order, solves the induced square system, and
    keeps nonnegative solutions.  A support holding two equal columns of
    M has a principal submatrix with two equal columns, which is
    singular, so only supports with at most one column from each group
    of equal columns are visited: prod (|J| + 1) supports over the
    groups J instead of 2^n (the blocks of a game-built M).
    Rank-deficient supports are skipped.  The result is deduplicated and
    lexicographically sorted, hence deterministic.
    """
    m = np.asarray(m, dtype=float)
    q = np.asarray(q, dtype=float)
    n = q.size
    if n > guard:
        raise SizeGuardExceeded(f"n={n} exceeds enumeration guard {guard}")
    feas_tol = 1e-10
    _, group = np.unique(m.T, axis=0, return_inverse=True)
    group = group.ravel()
    # per group: no column, or the bit of one of its columns
    choices = [(0,) + tuple(1 << int(i) for i in np.flatnonzero(group == g))
               for g in range(group.max() + 1)]
    solutions: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    for mask in sorted(map(sum, itertools.product(*choices))):
        alpha = [i for i in range(n) if mask >> i & 1]
        z = np.zeros(n)
        if alpha:
            sub = m[np.ix_(alpha, alpha)]
            rhs = -q[alpha]
            try:
                z_alpha = np.linalg.solve(sub, rhs)
            except np.linalg.LinAlgError:
                log.debug("support %s skipped: singular", alpha)
                continue
            if not np.all(np.isfinite(z_alpha)):
                continue
            z[alpha] = z_alpha
        w = m @ z + q
        if z.min() < -feas_tol or w.min() < -feas_tol:
            continue
        # refuse wildly ill-conditioned supports; the SVD behind cond
        # runs only on the feasible ones
        if alpha and np.linalg.cond(sub) > 1e12:
            log.debug("support %s skipped: ill-conditioned", alpha)
            continue
        z = np.where(np.abs(z) < feas_tol, 0.0, z)
        w = np.where(np.abs(w) < feas_tol, 0.0, w)
        key = tuple(np.round(z, 9)) + tuple(np.round(w, 9))
        solutions.setdefault(key, (z, w))
    return [solutions[k] for k in sorted(solutions)]


@dataclass(frozen=True)
class CertificateReport:
    """Per-check outcome of :func:`certify`."""

    value_match: bool
    ineq_player_i: bool
    ineq_player_ii: bool
    value_error: float
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.value_match and self.ineq_player_i and self.ineq_player_ii


def certify(game: AratGame, candidate: "VlcpSolution",
            tol: float = 1e-6) -> CertificateReport:
    """Check a candidate's pure pair exactly, and its value to ``tol``.

    The reference value is the pair's own discounted value, from one
    d x d solve (:func:`evaluate_pure_pair`).  At that value no one-shot
    deviation may gain, beyond a fixed slack of 1e-9 (1 + max |v|), for
    either player (Shapley's optimality conditions); a pair that passes
    is an optimal stationary pair.  ``tol`` bounds the sup-norm error of
    the candidate's value against the reference.
    """
    si, sii = candidate.strategy_i, candidate.strategy_ii
    v = evaluate_pure_pair(game, si, sii)
    slack = _DEVIATION_SLACK * (1.0 + float(np.abs(v).max()))
    violations: list[str] = []

    value_error = float(np.max(np.abs(np.asarray(candidate.value) - v)))
    value_match = value_error <= tol
    if not value_match:
        violations.append(
            f"value mismatch: sup-norm error {value_error!r} > {tol!r}"
        )

    ineq_i = True
    ineq_ii = True
    for s in range(game.d):
        # one-shot payoff of every player-I action against j*, and of
        # every player-II action against i*, continuing at the value v
        rows = (game.r1[s] + game.r2[s][sii[s]]
                + game.beta * (game.p1[s] + game.p2[s][sii[s]]) @ v)
        cols = (game.r1[s][si[s]] + game.r2[s]
                + game.beta * (game.p1[s][si[s]] + game.p2[s]) @ v)
        for i in np.flatnonzero(rows > v[s] + slack):
            ineq_i = False
            violations.append(
                f"state {s + 1}: player-I deviation i={i + 1} attains "
                f"{float(rows[i])!r} > value {float(v[s])!r}"
            )
        for j in np.flatnonzero(cols < v[s] - slack):
            ineq_ii = False
            violations.append(
                f"state {s + 1}: player-II deviation j={j + 1} attains "
                f"{float(cols[j])!r} < value {float(v[s])!r}"
            )
    return CertificateReport(
        value_match=value_match,
        ineq_player_i=ineq_i,
        ineq_player_ii=ineq_ii,
        value_error=value_error,
        violations=tuple(violations),
    )
