from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from arat_homotopy.game_model import PROB_TOL, AratGame
from arat_homotopy.homotopy_core import HomotopyInstance
from arat_homotopy.oracle import (
    CertificateReport,
    GameSolution,
    enumerate_lcp,
    evaluate_pure_pair,
)
from arat_homotopy.vlcp_builder import SquareLcp

FIXTURES = Path(__file__).parent / "fixtures"


def make_example1() -> AratGame:
    """Two states, two actions each, beta = 1/2, half/half transition split."""
    return AratGame(
        beta=0.5,
        r1=([4.0, 3.0], [5.0, 4.0]),
        r2=([3.0, 6.0], [6.0, 2.0]),
        p1=(
            [[0.5, 0.0], [0.5, 0.0]],
            [[0.0, 0.5], [0.0, 0.5]],
        ),
        p2=(
            [[0.5, 0.0], [0.0, 0.5]],
            [[0.0, 0.5], [0.5, 0.0]],
        ),
    )


def make_example2() -> AratGame:
    """Same rewards as example 1, quarter/three-quarter split in state 1."""
    return AratGame(
        beta=0.5,
        r1=([4.0, 3.0], [5.0, 4.0]),
        r2=([3.0, 6.0], [6.0, 2.0]),
        p1=(
            [[0.25, 0.0], [0.25, 0.0]],
            [[0.0, 0.5], [0.0, 0.5]],
        ),
        p2=(
            [[0.75, 0.0], [0.0, 0.75]],
            [[0.0, 0.5], [0.5, 0.0]],
        ),
    )


def make_two_absorbing_states(beta: float) -> AratGame:
    """Two absorbing states with stage rewards 1 and 3, split evenly
    between the players: v* = (1, 3) / (1 - beta)."""
    return AratGame(
        beta=beta,
        r1=([0.5], [1.5]),
        r2=([0.5], [1.5]),
        p1=([[0.5, 0.0]], [[0.0, 0.5]]),
        p2=([[0.5, 0.0]], [[0.0, 0.5]]),
    )


def random_arat_game(rng: np.random.Generator, *, d_max: int = 2,
                     actions_max: int = 2, betas=(0.3, 0.5, 0.9)) -> AratGame:
    """Random valid additive game with strictly positive rewards.

    Each state draws a mass split c in [0, 1]; player-I rows are random
    distributions scaled by c, player-II rows by 1 - c, so composed rows
    sum to one and per-player row sums are constant within a state.
    """
    d = int(rng.integers(1, d_max + 1))
    beta = float(rng.choice(betas))
    r1, r2, p1, p2 = [], [], [], []
    for _ in range(d):
        n1 = int(rng.integers(1, actions_max + 1))
        n2 = int(rng.integers(1, actions_max + 1))
        c = float(rng.uniform(0.0, 1.0))
        rows1 = rng.dirichlet(np.ones(d), size=n1) * c
        rows2 = rng.dirichlet(np.ones(d), size=n2) * (1.0 - c)
        r1.append(rng.uniform(0.5, 6.0, size=n1))
        r2.append(rng.uniform(0.5, 6.0, size=n2))
        p1.append(rows1)
        p2.append(rows2)
    return AratGame(beta=beta, r1=tuple(r1), r2=tuple(r2),
                    p1=tuple(p1), p2=tuple(p2))


def shifted_game(game: AratGame, c1: float, c2: float) -> AratGame:
    """A copy of ``game`` with r1 shifted by c1 and r2 by c2."""
    return AratGame(beta=game.beta, r1=tuple(a + c1 for a in game.r1),
                    r2=tuple(a + c2 for a in game.r2), p1=game.p1,
                    p2=game.p2)


def composed_reward(game: AratGame, s: int, i: int, j: int) -> float:
    """Reward paid by player II to player I in state ``s`` under (i, j)."""
    return float(game.r1[s][i] + game.r2[s][j])


def composed_transition(game: AratGame, s: int, i: int, j: int) -> np.ndarray:
    """Next-state distribution from state ``s`` under action pair (i, j)."""
    return game.p1[s][i] + game.p2[s][j]


def game_to_doc(game: AratGame) -> dict:
    """Serialize a game to the game file schema (round-trip safe)."""
    return {
        "beta": game.beta,
        "states": [
            {
                "playerI": {
                    "rewards": game.r1[s].tolist(),
                    "transitions": game.p1[s].tolist(),
                },
                "playerII": {
                    "rewards": game.r2[s].tolist(),
                    "transitions": game.p2[s].tolist(),
                },
            }
            for s in range(game.d)
        ],
    }


def assert_same_store(game: AratGame, reference: AratGame) -> None:
    """``game`` stores exactly what ``reference`` stores: the same beta,
    m1 and m2, and r, p, start and block equal byte for byte and
    read-only, with r1..p2 read-only views of r and p."""
    assert (game.beta, game.m1, game.m2) == (
        reference.beta, reference.m1, reference.m2)
    for name in ("r", "p", "start", "block"):
        a, b = getattr(game, name), getattr(reference, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape,
                                                   b.tobytes())
        assert not a.flags.writeable
    for views, base in (((*game.r1, *game.r2), game.r),
                        ((*game.p1, *game.p2), game.p)):
        for view in views:
            assert view.base is base and not view.flags.writeable


def stage_matrix(game: AratGame, s: int, v: np.ndarray) -> np.ndarray:
    """Auxiliary one-shot matrix of state ``s``, entry by entry: composed
    reward plus discounted continuation at ``v``."""
    m1, m2 = game.m1[s], game.m2[s]
    q = np.empty((m1, m2))
    for i in range(m1):
        for j in range(m2):
            q[i, j] = composed_reward(game, s, i, j) + game.beta * (
                composed_transition(game, s, i, j) @ v
            )
    return q


def pure_saddle(q: np.ndarray, tol: float = 1e-9) -> tuple[float, int, int]:
    """Pure saddle point of a matrix, smallest-index tie-break.

    Raises ValueError when max-min and min-max over pure actions differ
    by more than ``tol`` relative; a matrix with additively split entries
    always has a pure saddle.
    """
    row_min = q.min(axis=1)
    col_max = q.max(axis=0)
    i_star = int(np.argmax(row_min))
    j_star = int(np.argmin(col_max))
    maxmin = row_min[i_star]
    minmax = col_max[j_star]
    scale = 1.0 + max(abs(maxmin), abs(minmax))
    if abs(maxmin - minmax) > tol * scale:
        raise ValueError(
            f"max-min {maxmin!r} != min-max {minmax!r}; matrix has no pure "
            f"saddle point"
        )
    return float(maxmin), i_star, j_star


def is_strictly_feasible(m: np.ndarray, q: np.ndarray, x: np.ndarray) -> bool:
    """x > 0 and M x + q > 0, both strictly."""
    x = np.asarray(x, dtype=float)
    return bool(x.min() > 0.0 and (m @ x + q).min() > 0.0)


def block_sums(lcp: SquareLcp, z: np.ndarray) -> np.ndarray:
    """The vertical solution of a square-LCP point z: the sum of each
    block's column copies, eta(1..d) then xi(1..d) for a game-built
    problem, so that eta + xi is x[:d] + x[d:]."""
    return np.array([np.asarray(z)[list(rng)].sum() for rng in lcp.J])


def jac_u0(inst: HomotopyInstance, v: np.ndarray) -> tuple[np.ndarray, float]:
    """Derivative of the map with respect to the anchor at
    v = (x, y1, y2, t), and its closed-form determinant.

    The matrix is block lower triangular with diagonal blocks -tI, -tX0,
    -tY0, so its determinant is (-1)^(3n) t^(3n) prod(x0_i * y0_i) with
    y0 = A x0 + q.
    """
    n = inst.n
    t = float(v[-1])
    zero = np.zeros((n, n))
    j0 = np.vstack([
        np.hstack([-t * np.eye(n), zero, zero]),
        np.hstack([-t * np.eye(n), -t * np.diag(inst.x0), zero]),
        np.hstack([-t * inst.A, zero,
                   -t * np.diag(inst.y0)]),
    ])
    det = float((-1.0) ** (3 * n) * t ** (3 * n) * np.prod(inst.x0 * inst.y0))
    return j0, det


def enumerate_lcp_all_supports(m: np.ndarray, q: np.ndarray, masks=None
                               ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Reference for :func:`enumerate_lcp`: the plain walk over all 2^n
    supports (or over the bitmasks ``masks``) in increasing bitmask
    order, one support at a time, with the same skips, dedup and sort."""
    m = np.asarray(m, dtype=float)
    q = np.asarray(q, dtype=float)
    n = q.size
    feas_tol = 1e-10
    solutions: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    for mask in sorted(masks) if masks is not None else range(1 << n):
        alpha = [i for i in range(n) if mask >> i & 1]
        z = np.zeros(n)
        if alpha:
            sub = m[np.ix_(alpha, alpha)]
            try:
                z_alpha = np.linalg.solve(sub, -q[alpha])
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(z_alpha)):
                continue
            if np.linalg.cond(sub) > 1e12:
                continue
            z[alpha] = z_alpha
        w = m @ z + q
        if z.min() < -feas_tol or w.min() < -feas_tol:
            continue
        z = np.where(np.abs(z) < feas_tol, 0.0, z)
        w = np.where(np.abs(w) < feas_tol, 0.0, w)
        key = tuple(np.round(z, 9)) + tuple(np.round(w, 9))
        solutions.setdefault(key, (z, w))
    return [solutions[k] for k in sorted(solutions)]


def validate_per_state(game: AratGame) -> list[str]:
    """Reference for :func:`validate`: the same checks and messages, state
    by state and action pair by action pair; returns the violations."""
    v: list[str] = []
    if not (0.0 < game.beta < 1.0):
        v.append(f"discount beta={game.beta!r} is not in (0, 1)")
    for s in range(game.d):
        for player, m in (("I", game.m1[s]), ("II", game.m2[s])):
            if m == 0:
                v.append(f"state {s + 1}: player {player} has no actions")
        for name, rewards in (("r1", game.r1[s]), ("r2", game.r2[s])):
            for (idx,) in np.argwhere(~np.isfinite(rewards)):
                v.append(f"state {s + 1}: {name}[{idx + 1}] = "
                         f"{float(rewards[idx])!r} is not finite")
        for name, block in (("p1", game.p1[s]), ("p2", game.p2[s])):
            for mask, what in ((~np.isfinite(block), "is not finite"),
                               (block < 0.0, "is negative")):
                for idx, dest in np.argwhere(mask):
                    v.append(f"state {s + 1}: {name}[{idx + 1}][{dest + 1}]"
                             f" = {float(block[idx, dest])!r} {what}")
    for s in range(game.d):
        sums1 = game.p1[s].sum(axis=1)
        sums2 = game.p2[s].sum(axis=1)
        for i in range(game.m1[s]):
            for j in range(game.m2[s]):
                total = sums1[i] + sums2[j]
                if abs(total - 1.0) > PROB_TOL:
                    v.append(f"state {s + 1}, actions (i={i + 1}, "
                             f"j={j + 1}): row sum {float(total)!r} != 1")
        for player, sums in (("I", sums1), ("II", sums2)):
            if sums.size and np.ptp(sums) > PROB_TOL:
                v.append(f"state {s + 1}: player-{player} transition mass "
                         f"varies across actions ({sums.tolist()})")
    for s in range(game.d):
        block = game.p2[s]
        zero_rows = [j for j in range(game.m2[s]) if not block[j].any()]
        if zero_rows and block.any():
            v.append(f"state {s + 1}: player-II row {zero_rows[0] + 1} is "
                     f"all zero but the player-II block is nonzero "
                     f"(zero-row consistency)")
    return v


def per_state_payoffs(game: AratGame, strategy_i, strategy_ii,
                      v: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each state's one-shot payoffs at v: player I's actions against j*
    (rows) and player II's actions against i* (cols)."""
    si, sii = tuple(map(int, strategy_i)), tuple(map(int, strategy_ii))
    return [(game.r1[s] + game.r2[s][sii[s]]
             + game.beta * (game.p1[s] + game.p2[s][sii[s]]) @ v,
             game.r1[s][si[s]] + game.r2[s]
             + game.beta * (game.p1[s][si[s]] + game.p2[s]) @ v)
            for s in range(game.d)]


def certify_per_state(game: AratGame, strategy_i, strategy_ii
                      ) -> CertificateReport:
    """Reference for :func:`certify` on finite games: the same value, slack
    and messages, state by state (:func:`per_state_payoffs`)."""
    v = evaluate_pure_pair(game, strategy_i, strategy_ii)
    si, sii = tuple(map(int, strategy_i)), tuple(map(int, strategy_ii))
    slack = 1e-9 * (1.0 + float(np.abs(v).max()))
    violations: list[str] = []
    ineq_i = ineq_ii = True
    for s, (rows, cols) in enumerate(per_state_payoffs(game, si, sii, v)):
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
    return CertificateReport(strategy_i=si, strategy_ii=sii, value=v,
                             ineq_player_i=ineq_i, ineq_player_ii=ineq_ii,
                             violations=tuple(violations))


def value_iteration_sup_norm(game: AratGame, tol: float = 1e-10,
                             max_iter: int = 1_000_000) -> GameSolution:
    """Reference for :func:`value_iteration`: the same stacked sweep from
    v = 0, stopped once the sup-norm step is at most
    tol (1 - beta) / (2 beta) (1 + max |v|), the contraction bound on the
    distance to the fixed point; returns the last iterate itself."""
    beta = game.beta
    threshold = tol * (1.0 - beta) / (2.0 * beta) if beta > 0 else tol
    k = sum(game.m1)
    r = np.concatenate(game.r1 + game.r2)
    bp = beta * np.vstack(game.p1 + game.p2)
    o1 = np.cumsum((0,) + game.m1[:-1])
    o2 = np.cumsum((0,) + game.m2[:-1])

    def sweep(v):
        x = r + bp @ v
        return x, (np.maximum.reduceat(x[:k], o1)
                   + np.minimum.reduceat(x[k:], o2))

    v = np.zeros(game.d)
    for it in range(1, max_iter + 1):
        v_next = sweep(v)[1]
        step = float(np.max(np.abs(v_next - v)))
        v = v_next
        if step <= threshold * (1.0 + float(np.max(np.abs(v)))):
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
    raise AssertionError(f"reference: no fixed point within {max_iter} "
                         f"sweeps")


def _unique_solution_is(lcp_solutions: list, z_expect: np.ndarray,
                        w_expect: np.ndarray, tol: float = 1e-9) -> bool:
    if len(lcp_solutions) != 1:
        return False
    z, w = lcp_solutions[0]
    return bool(
        np.max(np.abs(z - z_expect)) <= tol
        and np.max(np.abs(w - w_expect)) <= tol
    )


def verify_vbe_e(lcp: SquareLcp, guard: int = 20) -> bool:
    """Enumeration check that LCP(e, M) has the unique solution w=e, z=0."""
    e = np.ones(lcp.n)
    sols = enumerate_lcp(lcp.M, e, guard=guard)
    return _unique_solution_is(sols, np.zeros(lcp.n), e)


def verify_vbr0_enum(lcp: SquareLcp, guard: int = 20) -> bool:
    """Enumeration check that LCP(0, M) has the unique solution w=0, z=0."""
    zero = np.zeros(lcp.n)
    sols = enumerate_lcp(lcp.M, zero, guard=guard)
    return _unique_solution_is(sols, zero, zero)


@pytest.fixture
def example1() -> AratGame:
    return make_example1()


@pytest.fixture
def example2() -> AratGame:
    return make_example2()
