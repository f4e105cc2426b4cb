"""Independent ground truth for the solver pipeline.

Three unrelated routes to the answer live here: fixed-point value
iteration in separable sweeps (each state's pure saddle is the best
player-I row term plus the best player-II column term, so a sweep over
the whole game is one matrix-vector product and a segmented max and
min), stopped on the MacQueen-Porteus bracket of the fixed point, whose
width shrinks with the span of a sweep's step rather than at rate beta;
direct policy evaluation of a pure stationary pair; and
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

#: Rounding of one sweep, in ulps of the largest |v'| it returns, that
#: the value-iteration stop bracket allows for.
_ROUNDING_ULPS = 4

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
    """Fixed-point iteration v <- T v, T v = per-state pure saddle of the
    stage matrix, stopped on a bracket of the fixed point.

    In an additive game the stage matrix of state s is a_i + b_j, with
    a = r1[s] + beta p1[s] v and b = r2[s] + beta p2[s] v, so its pure
    saddle value is max a + min b (Raghavan, Tijs & Vrieze, JOTA 47,
    1985).  The actions of both players in all states are stacked once
    per call, r = (r1, r2) and beta P = beta (p1; p2); a sweep is then
    one matrix-vector product r + beta P v, sliced into a and b, and one
    segmented max and min, O((sum m1 + sum m2) d) flops.

    The stop is the error bracket of MacQueen (J. Math. Anal. Appl. 14,
    1966) and Porteus (Management Science 18, 1971).  Let sigma be the
    largest |composed row sum - 1| of the game (at most PROB_TOL on a
    valid game).  T is monotone, and for c >= 0 the sweep of v + c 1
    lies between T v + beta c (1 - sigma) and T v + beta c (1 + sigma),
    since every state's max a and min b move by beta c times a
    per-player mass, and those masses add to within sigma of 1.  After
    a sweep v' = T v let lo = min (v' - v) and hi = max (v' - v).  Then
    v' <= v + hi 1 gives max (T v' - v') <= beta hi + beta sigma |hi|, and
    the following maxima keep that sign and shrink at least at that
    rate, so summing them,

        v' + lo g_lo <= v* <= v' + hi g_hi,

    with g+ = beta (1 + sigma) / (1 - beta (1 + sigma)), g- likewise
    with 1 - sigma, g_hi = g+ if hi >= 0 else g-, and g_lo = g- if
    lo >= 0 else g+.  hi and lo shrink with the span of v' - v, which
    contracts far faster than beta on mixing games.  The rounding of a
    sweep is estimated as e, ``_ROUNDING_ULPS`` ulps of max |v'|; it
    moves v', lo and hi by about e, which widens the bracket by
    e (1 + g+) at each end.  This is an estimate, not a proven bound:
    the worst-case rounding of the d-term products in r + beta P v grows
    with d and with their largest entry, which can be far above max |v'|
    when rewards cancel.  Taken at that entry the allowance could exceed
    the stop threshold on a game that has converged, so it is taken at
    max |v'|, and it stays under the threshold while
    1 / (1 - beta) is small against tol / eps.  The returned v is the
    bracket's midpoint, v' shifted by a constant; iteration stops once
    the bracket's half-width is at most tol / 2 (1 + max |v|), which in
    exact arithmetic bounds the distance to the fixed point.  max |v'|
    and the rounding term are formed only once the bracket's exact
    width is at most 2 tol (1 + R / (1 - beta (1 + sigma)) + m), m the
    larger magnitude of its two offsets lo g_lo and hi g_hi and
    R = max |r1| + max |r2|: R / (1 - beta (1 + sigma)) bounds max |v'|
    on every sweep from v = 0, so no sweep that could stop is skipped.
    If beta (1 + sigma) >= 1 the bracket is unbounded and the iteration
    never stops.

    Each player's transition mass is constant within a state, so a
    constant shift of v moves all of a state's a (or b) alike: the
    strategies, the smallest-index argmax of each state's block of a and
    argmin of its block of b, come from one more sweep at the returned
    v, and ``residual`` is that sweep's step.  The default ``max_iter``
    is the larger of 100,000 and the contraction bound on the sweeps
    from v = 0 to the sup-norm step tol (1 - beta) / (2 beta),
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
    r1, r2 = np.concatenate(game.r1), np.concatenate(game.r2)
    reward_bound = float(np.abs(r1).max() + np.abs(r2).max())
    if max_iter is None:
        max_iter = 100_000
        threshold = tol * (1.0 - beta) / (2.0 * beta) if beta > 0 else tol
        if 0 < beta and threshold < reward_bound:
            max_iter = max(max_iter, math.ceil(
                1.0 + math.log(threshold / reward_bound) / math.log(beta)))
    # composed row sums of state s range over sums1[i] + sums2[j]
    sigma = 0.0
    for q1, q2 in zip(game.p1, game.p2):
        sums1, sums2 = q1.sum(axis=1), q2.sum(axis=1)
        sigma = max(sigma, abs(sums1.max() + sums2.max() - 1.0),
                    abs(sums1.min() + sums2.min() - 1.0))
    fast, slow = beta * (1.0 + sigma), beta * (1.0 - sigma)
    bounded = fast < 1.0
    if bounded:
        g_fast, g_slow = fast / (1.0 - fast), slow / (1.0 - slow)
        rounding = _ROUNDING_ULPS * np.finfo(float).eps / (1.0 - fast)
        # bounds 1 + max |v'| on every sweep from v = 0
        top_bound = 1.0 + reward_bound / (1.0 - fast)
    r = np.concatenate((r1, r2))
    bp = beta * np.vstack(game.p1 + game.p2)
    k = r1.size
    # first row of each state's block in the stacked arrays
    o1 = np.cumsum((0,) + game.m1[:-1])
    o2 = np.cumsum((0,) + game.m2[:-1])

    def sweep(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = r + bp @ v
        return x, (np.maximum.reduceat(x[:k], o1)
                   + np.minimum.reduceat(x[k:], o2))

    v = np.zeros(game.d)
    for it in range(1, max_iter + 1):
        v_next = sweep(v)[1]
        step = v_next - v
        v = v_next
        if not bounded:
            continue
        lo, hi = float(step.min()), float(step.max())
        low = lo * (g_slow if lo >= 0.0 else g_fast)
        high = hi * (g_fast if hi >= 0.0 else g_slow)
        if high - low > 2.0 * tol * (top_bound + max(-low, high)):
            continue
        v_min, v_max = float(v.min()), float(v.max())
        shift = 0.5 * (low + high)
        half = 0.5 * (high - low) + rounding * max(-v_min, v_max)
        top = max(abs(v_max + shift), abs(v_min + shift))
        if half <= 0.5 * tol * (1.0 + top):
            v = v + shift
            x, v_check = sweep(v)
            return GameSolution(
                v=v,
                strategy_i=tuple(int(np.argmax(blk))
                                 for blk in np.split(x[:k], o1[1:])),
                strategy_ii=tuple(int(np.argmin(blk))
                                  for blk in np.split(x[k:], o2[1:])),
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
