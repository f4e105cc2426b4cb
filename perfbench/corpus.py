"""Seeded game corpus owned by the benchmark.

Each workload has a fixed pool of games drawn once from the distribution
of the test suite's ``random_arat_game`` helper, generalised to a lower
bound on the state and action counts so that each workload can fix its
own size range (``d=(1, d_max)``, ``actions=(1, actions_max)`` reproduce
the helper draw for draw).  The run's seed makes the concrete inputs: it
relabels the states and the actions of every pool game and shuffles the
order of the games.

Why a fixed pool: on a 2-vCPU x86-64 VM a fresh draw of ~80 games per
seed put the seed-to-seed spread of throughput and tail latency at
15-45% of the median (a few long paths dominate), far above any useful
regression bound.  Scaling the rewards by as little as 1% per seed still
moved the total step count by 10%, because paths that wander until the
step budget flip status.  Relabelling changes every input file but not
the game, so the measured spread is left to the machine, and a solver
whose work depends on the labelling shows it as spread.

Games are written as files in the CLI's input schema; the program under
test receives nothing else.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True, eq=False)
class Game:
    """Plain game data (0-based actions) as the benchmark generated it."""

    beta: float
    r1: tuple[np.ndarray, ...]
    r2: tuple[np.ndarray, ...]
    p1: tuple[np.ndarray, ...]
    p2: tuple[np.ndarray, ...]

    @property
    def d(self) -> int:
        return len(self.r1)

    def to_doc(self) -> dict:
        return {
            "beta": self.beta,
            "states": [
                {
                    "playerI": {"rewards": self.r1[s].tolist(),
                                "transitions": self.p1[s].tolist()},
                    "playerII": {"rewards": self.r2[s].tolist(),
                                 "transitions": self.p2[s].tolist()},
                }
                for s in range(self.d)
            ],
        }


def _game(beta, r1, r2, p1, p2) -> Game:
    return Game(beta=float(beta),
                r1=tuple(np.asarray(a, dtype=float) for a in r1),
                r2=tuple(np.asarray(a, dtype=float) for a in r2),
                p1=tuple(np.asarray(a, dtype=float) for a in p1),
                p2=tuple(np.asarray(a, dtype=float) for a in p2))


#: The two games the README walks through (two states, two actions each).
EXAMPLE1 = _game(
    0.5,
    r1=([4.0, 3.0], [5.0, 4.0]),
    r2=([3.0, 6.0], [6.0, 2.0]),
    p1=([[0.5, 0.0], [0.5, 0.0]], [[0.0, 0.5], [0.0, 0.5]]),
    p2=([[0.5, 0.0], [0.0, 0.5]], [[0.0, 0.5], [0.5, 0.0]]),
)
EXAMPLE2 = _game(
    0.5,
    r1=([4.0, 3.0], [5.0, 4.0]),
    r2=([3.0, 6.0], [6.0, 2.0]),
    p1=([[0.25, 0.0], [0.25, 0.0]], [[0.0, 0.5], [0.0, 0.5]]),
    p2=([[0.75, 0.0], [0.0, 0.75]], [[0.0, 0.5], [0.5, 0.0]]),
)


def random_game(rng: np.random.Generator, *, d: tuple[int, int],
                actions: tuple[int, int], betas: tuple[float, ...]) -> Game:
    """Random valid additive game with strictly positive rewards.

    ``d`` and ``actions`` are inclusive ranges.  Each state draws a mass
    split c in [0, 1]; player-I rows are random distributions scaled by
    c, player-II rows by 1 - c, so composed rows sum to one and per-player
    row sums are constant within a state.
    """
    n_states = int(rng.integers(d[0], d[1] + 1))
    beta = float(rng.choice(betas))
    r1, r2, p1, p2 = [], [], [], []
    for _ in range(n_states):
        n1 = int(rng.integers(actions[0], actions[1] + 1))
        n2 = int(rng.integers(actions[0], actions[1] + 1))
        c = float(rng.uniform(0.0, 1.0))
        p1.append(rng.dirichlet(np.ones(n_states), size=n1) * c)
        p2.append(rng.dirichlet(np.ones(n_states), size=n2) * (1.0 - c))
        r1.append(rng.uniform(0.5, 6.0, size=n1))
        r2.append(rng.uniform(0.5, 6.0, size=n2))
    return Game(beta=beta, r1=tuple(r1), r2=tuple(r2),
                p1=tuple(p1), p2=tuple(p2))


def relabel(game: Game, rng: np.random.Generator) -> Game:
    """The same game with its states and each state's actions permuted."""
    states = rng.permutation(game.d)
    r1, r2, p1, p2 = [], [], [], []
    for s in states:
        for rewards, trans, r_out, p_out in ((game.r1[s], game.p1[s], r1, p1),
                                             (game.r2[s], game.p2[s], r2, p2)):
            rows = rng.permutation(rewards.size)
            r_out.append(rewards[rows])
            p_out.append(trans[rows][:, states])
    return Game(beta=game.beta, r1=tuple(r1), r2=tuple(r2),
                p1=tuple(p1), p2=tuple(p2))


def make_pool(name: str, count: int, *, d: tuple[int, int],
              actions: tuple[int, int], betas: tuple[float, ...],
              examples: bool) -> list[Game]:
    """The workload's fixed pool: ``count`` games, examples first if asked.

    The pool depends only on the workload's name and ranges.
    """
    games = [EXAMPLE1, EXAMPLE2] if examples else []
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    while len(games) < count:
        games.append(random_game(rng, d=d, actions=actions, betas=betas))
    return games


def make_corpus(pool: list[Game], seed: int) -> list[Game]:
    """The seed's inputs: every pool game relabelled (the two examples are
    kept exactly), in a seed-dependent order."""
    rng = np.random.default_rng(seed)
    games = [g if g in (EXAMPLE1, EXAMPLE2) else relabel(g, rng)
             for g in pool]
    return [games[k] for k in rng.permutation(len(games))]


def write_corpus(games: list[Game], directory: Path) -> list[Path]:
    """One JSON file per game; returns the paths in corpus order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, game in enumerate(games):
        path = directory / f"game_{k:04d}.json"
        path.write_text(json.dumps(game.to_doc()) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
