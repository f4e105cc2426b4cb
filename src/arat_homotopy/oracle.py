"""Independent ground truth for the solver pipeline.

Three unrelated routes to the answer live here: fixed-point value
iteration in separable sweeps (each state's pure saddle is the best
player-I row term plus the best player-II column term, so a sweep over
the whole game is one matrix-vector product and a segmented max and
min), stopped once the greedy pair of a sweep passes an exact check at
its own value; direct policy evaluation of a pure stationary pair; and
complementary-support enumeration for small square LCPs.  Enumeration
visits only supports that hold at most one column from each group of
identical columns of M; any other support has a singular principal
submatrix.  None of them shares code with the homotopy path.  The
certificate's one-shot payoffs (:func:`one_shot_payoffs`) are also how
Hoffman–Karp strategy iteration judges a gain.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MaxIterExceeded, SizeGuardExceeded
from .game_model import AratGame

log = logging.getLogger(__name__)

#: Largest LCP dimension the support enumeration will attempt.
ENUMERATION_GUARD = 20

#: Most supports whose principal systems one stacked solve takes; a
#: chunk holds _CHUNK k x k systems, 13 MB at k = 20.
_CHUNK = 4096

#: Relative slack on the one-shot deviation inequalities in certify.
_DEVIATION_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class GameSolution:
    """Value vector and pure stationary strategies (0-based actions)."""

    v: np.ndarray
    strategy_i: tuple[int, ...]
    strategy_ii: tuple[int, ...]
    iterations: int
    residual: float


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked
def value_iteration(game: AratGame, tol: float = 1e-10,
                    max_iter: int | None = None) -> GameSolution:
    """Fixed-point iteration v <- T v, T v = per-state pure saddle of the
    stage matrix, stopped once its greedy pair passes an exact check.

    In an additive game the stage matrix of state s is a_i + b_j, with
    a = r1[s] + beta p1[s] v and b = r2[s] + beta p2[s] v, so its pure
    saddle value is max a + min b (Raghavan, Tijs & Vrieze, JOTA 47,
    1985).  The game stores the actions of both players in all states
    stacked, r = (r1, r2) and P = (p1; p2); a sweep is then one
    matrix-vector product r + beta P v, sliced into a and b, and one
    segmented max and min, O((sum m1 + sum m2) d) flops.

    The greedy pair of a sweep, the smallest-index argmax of each
    state's block of a and argmin of its block of b, is checked whenever
    it differs from the last pair checked: w solves
    (I - beta P_pair) w = r_pair, and one sweep at w gives T w.  The
    iteration stops if neither player's largest one-shot gain at w
    exceeds eps = tol (1 - beta) / 2 (1 + max |w|), and returns w, the
    pair, and ``residual`` = max |T w - w|.  As T_pair w = w, that
    residual is at most eps, and T is a contraction of modulus
    beta (1 + sigma), sigma <= PROB_TOL the largest |composed row sum - 1|,
    so |w - v*| <= eps / (1 - beta (1 + sigma)) is proven, up to the
    rounding of w and of that sweep; for beta <= 0.9999 it is
    tol / 2 (1 + max |w|) to within a relative 1e-7.  Every pair greedy
    at v* is optimal, so the check passes once the iterates near v*.

    The default ``max_iter`` is the larger of 100,000 and the
    contraction bound on the sweeps from v = 0 to the sup-norm step
    tol (1 - beta) / (2 beta), 1 + ln(tol (1 - beta) / (2 beta) / R)
    / ln beta, R = max |r1| + max |r2|.  Raises ValueError if a player
    has no action in some state, OverflowError once a sweep leaves the
    float range, and MaxIterExceeded after ``max_iter`` sweeps.
    """
    if not (tol > 0):  # a NaN tol fails as well
        raise ValueError("tol must be positive")
    for s in range(game.d):
        for player, m in (("I", game.m1[s]), ("II", game.m2[s])):
            if m == 0:
                raise ValueError(f"state {s + 1}: player {player} has no "
                                 f"actions")
    beta, d, r, start, block = game.beta, game.d, game.r, game.start, game.block
    k = int(start[d])  # player I's rows come first
    o1, o2 = start[:d], start[d:] - k  # each block's first row in x[:k], x[k:]
    if max_iter is None:
        max_iter = 100_000
        threshold = tol * (1.0 - beta) / (2.0 * beta) if beta > 0 else tol
        # R / 2 and a difference of logarithms stay finite where R
        # overflows or threshold / R underflows
        half_bound = (float(np.abs(r[:k]).max()) / 2
                      + float(np.abs(r[k:]).max()) / 2)
        if 0 < beta and 0 < threshold / 2 < half_bound:
            max_iter = max(max_iter, math.ceil(1.0 + (
                math.log(threshold / 2) - math.log(half_bound)) / math.log(beta)))
    bp = beta * game.p
    rows = np.arange(r.size)

    def sweep(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stacked entries r + beta P v, and each block's max a or min b."""
        x = r + bp @ v
        return x, np.concatenate((np.maximum.reduceat(x[:k], o1),
                                  np.minimum.reduceat(x[k:], o2)))

    v = np.zeros(d)
    checked = None
    for it in range(1, max_iter + 1):
        x, best = sweep(v)
        v = best[:d] + best[d:]
        if not np.isfinite(v).all():
            raise OverflowError(f"sweep {it} left the float range")
        # stacked row of each block's first best entry
        pair = np.minimum.reduceat(np.where(x == best[block], rows, r.size),
                                   start)
        if np.array_equal(pair, checked):
            continue
        checked = pair
        i, j = pair[:d], pair[d:]
        w = np.linalg.solve(np.eye(d) - bp[i] - bp[j], r[i] + r[j])
        x, best = sweep(w)
        gain = float(np.abs(best - x[pair]).max())
        if gain <= tol * (1.0 - beta) / 2.0 * (1.0 + float(np.abs(w).max())):
            return GameSolution(
                v=w,
                strategy_i=tuple((i - o1).tolist()),
                strategy_ii=tuple((j - k - o2).tolist()),
                iterations=it,
                residual=float(np.abs(best[:d] + best[d:] - w).max()),
            )
    raise MaxIterExceeded(f"no fixed point within {max_iter} sweeps")


@np.errstate(over="ignore", invalid="ignore")  # an overflow reads inf
def evaluate_pure_pair(game: AratGame, strategy_i: Sequence[int],
                       strategy_ii: Sequence[int]) -> np.ndarray:
    """Exact discounted value of a fixed pure stationary pair.

    Solves (I - beta P) v = r where row s of P is the composed transition
    p1[s][i] + p2[s][j] under the pair's actions (i, j) in state s, and r
    the composed reward r1[s][i] + r2[s][j].  Raises ValueError unless
    each strategy holds one valid 0-based action per state, an integer
    (numpy's included, a bool not).
    """
    d = game.d
    for player, strategy, counts in (("I", strategy_i, game.m1),
                                     ("II", strategy_ii, game.m2)):
        if len(strategy) != d:
            raise ValueError(f"player-{player} strategy has length "
                             f"{len(strategy)}, need one action for each "
                             f"of {d} states")
        for s, (a, m) in enumerate(zip(strategy, counts)):
            # start + strategy would turn a bool or a float into a row
            if (isinstance(a, bool) or not isinstance(a, numbers.Integral)
                    or not 0 <= a < m):
                raise ValueError(f"state {s + 1}: player-{player} action "
                                 f"index {a!r} is not in 0..{m - 1}")
    pair = game.start + np.array([*strategy_i, *strategy_ii], dtype=np.int64)
    i, j = pair[:d], pair[d:]
    return np.linalg.solve(np.eye(d) - game.beta * (game.p[i] + game.p[j]),
                           game.r[i] + game.r[j])


def check_enumeration_size(n: int, guard: int = ENUMERATION_GUARD) -> None:
    """Raise SizeGuardExceeded if n, the dimension of a square LCP, exceeds
    ``guard``, the largest that :func:`enumerate_lcp` enumerates."""
    if n > guard:
        raise SizeGuardExceeded(f"n={n} exceeds enumeration guard {guard}")


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

    The supports of one size are solved together, up to ``_CHUNK`` of
    them in one stacked ``np.linalg.solve``, so memory stays
    O(_CHUNK n^2); each system is solved, and w = M z + q formed, exactly
    as it would be alone.  Rank-deficient supports are skipped.  The
    result is deduplicated (the first support in bitmask order wins) and
    lexicographically sorted, hence deterministic.
    """
    m = np.asarray(m, dtype=float)
    q = np.asarray(q, dtype=float)
    n = q.size
    check_enumeration_size(n, guard)
    feas_tol = 1e-10
    _, group = np.unique(m.T, axis=0, return_inverse=True)
    group = group.ravel()
    # every support as a bitmask, per group no column or the bit of one
    # of its columns, in increasing order, and its size; the masks are
    # Python ints once a bit would not fit an int64
    dtype = np.int64 if n < 63 else object
    masks = np.zeros(1, dtype=dtype)
    sizes = np.zeros(1, dtype=np.int64)
    for g in range(group.max() + 1):
        columns = np.flatnonzero(group == g)
        bits = np.array([0] + [1 << int(i) for i in columns], dtype=dtype)
        masks = (masks[:, None] + bits).ravel()
        sizes = (sizes[:, None] + (bits != 0)).ravel()
    order = np.argsort(masks)
    masks, sizes = masks[order], sizes[order]
    shifts = np.arange(n).astype(dtype)

    found: list[tuple[np.ndarray, ...]] = []  # masks, z, w of the feasible
    for k in range(n + 1):
        of_size = masks[sizes == k]
        for lo in range(0, of_size.size, _CHUNK):
            chunk = of_size[lo:lo + _CHUNK]
            alpha = np.nonzero(chunk[:, None] >> shifts & 1)[1].reshape(
                chunk.size, k)
            z = np.zeros((chunk.size, n))
            if k:
                sub = m[alpha[:, :, None], alpha[:, None, :]]
                z[np.arange(chunk.size)[:, None], alpha] = _solve_each(
                    sub, -q[alpha], alpha)
            idx = np.flatnonzero(np.isfinite(z).all(axis=1)
                                 & ~(z.min(axis=1) < -feas_tol))
            # one matrix-vector product per support, as for a lone z
            w = np.matmul(m, z[idx][..., None])[..., 0] + q
            keep = ~(w.min(axis=1) < -feas_tol)
            idx, w = idx[keep], w[keep]
            # refuse wildly ill-conditioned supports; the SVDs behind
            # cond run only on the feasible ones
            if k and idx.size:
                keep = ~(np.linalg.cond(sub[idx]) > 1e12)
                for a in alpha[idx[~keep]]:
                    log.debug("support %s skipped: ill-conditioned",
                              a.tolist())
                idx, w = idx[keep], w[keep]
            found.append((chunk[idx], z[idx], w))
    masks, z, w = (np.concatenate(parts) for parts in zip(*found))
    order = np.argsort(masks)
    z = np.where(np.abs(z) < feas_tol, 0.0, z)[order]
    w = np.where(np.abs(w) < feas_tol, 0.0, w)[order]
    solutions: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    for zi, wi, z_key, w_key in zip(z, w, np.round(z, 9), np.round(w, 9)):
        solutions.setdefault(tuple(z_key) + tuple(w_key), (zi, wi))
    return [solutions[k] for k in sorted(solutions)]


def _solve_each(sub: np.ndarray, rhs: np.ndarray,
                alpha: np.ndarray) -> np.ndarray:
    """The solution of every stacked system sub[c] z = rhs[c], NaN where
    sub[c] is singular.

    ``solve`` calls a system singular where LU with partial pivoting
    meets an exact zero pivot, which the same factorization behind
    ``slogdet`` reports as sign 0.  Those systems, common among the
    principal submatrices of a sparse game, are replaced in ``sub`` by
    the identity, so that one stacked solve takes the whole chunk
    instead of raising.  Should it raise all the same, each system is
    solved alone."""
    singular = np.linalg.slogdet(sub)[0] == 0
    for a in alpha[singular]:
        log.debug("support %s skipped: singular", a.tolist())
    sub[singular] = np.eye(sub.shape[-1])
    try:
        out = np.linalg.solve(sub, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for c in np.flatnonzero(~singular):
            try:
                out[c] = np.linalg.solve(sub[c], rhs[c])
            except np.linalg.LinAlgError:
                log.debug("support %s skipped: singular", alpha[c].tolist())
    out[singular] = np.nan
    return out


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Verdict of :func:`certify` on a pure pair (0-based actions) and
    the pair's exact value."""

    strategy_i: tuple[int, ...]
    strategy_ii: tuple[int, ...]
    value: np.ndarray
    ineq_player_i: bool
    ineq_player_ii: bool
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.ineq_player_i and self.ineq_player_ii


@np.errstate(over="ignore", invalid="ignore")  # an overflow reads inf
def one_shot_payoffs(game: AratGame, strategy_i: Sequence[int],
                     strategy_ii: Sequence[int]
                     ) -> tuple[np.ndarray, np.ndarray, float]:
    """A pure pair's value v (:func:`evaluate_pure_pair`), every action's
    one-shot payoff at v, and the slack a deviation must beat to gain.

    The payoffs are one product over the stacked game, r + beta P v of
    each player's rows composed with the other player's row in the pair,
    so they come in the order of ``game.r``.  The slack is
    1e-9 (1 + max |v|) over the finite entries of v.  :func:`certify`
    and ``strategy_iteration`` judge gains by these alone.
    """
    v = evaluate_pure_pair(game, strategy_i, strategy_ii)
    d, r, p, start, block = game.d, game.r, game.p, game.start, game.block
    # each row's opponent row in the pair
    other = (start + [*strategy_i, *strategy_ii])[(block + d) % (2 * d)]
    payoff = r + r[other] + game.beta * (p + p[other]) @ v
    scale = float(np.abs(v[np.isfinite(v)]).max(initial=0))
    return v, payoff, _DEVIATION_SLACK * (1.0 + scale)


@np.errstate(over="ignore", invalid="ignore")  # non-finite entries fail
def certify(game: AratGame, strategy_i: Sequence[int],
            strategy_ii: Sequence[int]) -> CertificateReport:
    """Check a pure stationary pair by Shapley's one-shot deviation
    conditions at its own value v, from one d x d solve
    (:func:`one_shot_payoffs`).

    Every action's one-shot payoff at v is one product over the stacked
    game, each player's rows against the other's action in the pair.
    No deviation may gain more than a slack of 1e-9 (1 + max |v|), so
    smaller gains pass.  A v(s) that is not finite fails both players
    (its state is not compared further), a payoff that is not finite its
    own player.  Violations come by state, player I before II, then by
    action.  Raises ValueError unless each strategy holds one valid
    0-based action per state.
    """
    v, payoff, slack = one_shot_payoffs(game, strategy_i, strategy_ii)
    si, sii = tuple(map(int, strategy_i)), tuple(map(int, strategy_ii))
    d, start, block = game.d, game.start, game.block
    state, second = block % d, block >= d
    finite = np.isfinite(v)
    bad = (np.where(second, payoff < v[state] - slack,
                    payoff > v[state] + slack)
           | ~np.isfinite(payoff)) & finite[state]

    hits = [(s, -1, f"state {s + 1}: value {float(v[s])!r} is not finite")
            for s in np.flatnonzero(~finite)]
    for a in np.flatnonzero(bad):
        s, x = state[a], float(payoff[a])
        player, act, cmp = ("II", "j", "<") if second[a] else ("I", "i", ">")
        verdict = (f" {cmp} value {float(v[s])!r}" if math.isfinite(x)
                   else ", which is not finite")
        hits.append((s, a, f"state {s + 1}: player-{player} deviation "
                           f"{act}={a - start[block[a]] + 1} attains {x!r}"
                           f"{verdict}"))
    hits.sort(key=lambda h: h[:2])
    return CertificateReport(
        strategy_i=si,
        strategy_ii=sii,
        value=v,
        ineq_player_i=bool(finite.all() and not bad[~second].any()),
        ineq_player_ii=bool(finite.all() and not bad[second].any()),
        violations=tuple(text for *_, text in hits),
    )
