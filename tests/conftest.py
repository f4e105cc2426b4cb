from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from arat_homotopy.game_model import AratGame
from arat_homotopy.homotopy_core import HomotopyInstance
from arat_homotopy.oracle import enumerate_lcp
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
        np.hstack([-t * np.diag(inst.y1_0), -t * np.diag(inst.x0), zero]),
        np.hstack([-t * np.diag(inst.y2_0) @ inst.A, zero,
                   -t * np.diag(inst.y0)]),
    ])
    det = float((-1.0) ** (3 * n) * t ** (3 * n) * np.prod(inst.x0 * inst.y0))
    return j0, det


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
