"""Hoffman–Karp strategy iteration and the solve stage that runs it."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from arat_homotopy import cli, oracle, strategy_iteration
from arat_homotopy.oracle import certify, value_iteration
from arat_homotopy.path_tracer import extract_solution
from arat_homotopy.strategy_iteration import hoffman_karp

from conftest import (FIXTURES, make_example1, make_example2,
                      random_arat_game, traced_problem)

#: A small_mix pool game (d = 8) whose start and endpoint pairs fail;
#: Hoffman–Karp from the endpoint's pair answers it in 2 rounds.
POOL_28 = FIXTURES / "small_mix_28.json"


def pure_pairs(game):
    """Every pure stationary pair of the game, 0-based."""
    return itertools.product(itertools.product(*map(range, game.m1)),
                             itertools.product(*map(range, game.m2)))


class TestHoffmanKarp:
    def test_every_pure_start_ends_at_a_certified_pair(self):
        rng = np.random.default_rng(33)
        rounds_seen = []
        for _ in range(40):
            game = random_arat_game(rng, d_max=3, actions_max=3)
            truth = value_iteration(game).v
            for si, sii in pure_pairs(game):
                *pair, rounds = hoffman_karp(game, si, sii)
                report = certify(game, *pair)
                assert report.passed, (si, sii, report.violations)
                np.testing.assert_allclose(report.value, truth, atol=1e-6)
                rounds_seen.append(rounds)
        assert len(rounds_seen) == 1242
        assert set(rounds_seen) == {1, 2, 3}

    @pytest.mark.parametrize("make", [make_example1, make_example2])
    def test_an_optimal_start_stays_in_one_round(self, make):
        game = make()
        assert hoffman_karp(game, (0, 0), (0, 1)) == ((0, 0), (0, 1), 1)

    def test_player_ii_best_responds_before_player_i_switches(self):
        # from example 1's pair with player II's worse action in state 2,
        # player II switches back, and player I never moves
        game = make_example1()
        assert not certify(game, (0, 0), (0, 0)).passed
        assert hoffman_karp(game, (0, 0), (0, 0)) == ((0, 0), (0, 1), 1)

    def test_checks_its_start_pair_once(self, monkeypatch):
        # the pair is checked on the way in; every later round moves its
        # stacked rows, which need no check
        game = cli.load_game(POOL_28)
        lcp, _ = traced_problem(game)
        end_pair = extract_solution(cli.solve(game).result.path[-1].x, lcp)
        checked = []
        pure_rows = oracle._pure_rows

        def counted(game, strategy_i, strategy_ii):
            checked.append((strategy_i, strategy_ii))
            return pure_rows(game, strategy_i, strategy_ii)

        monkeypatch.setattr(oracle, "_pure_rows", counted)
        monkeypatch.setattr(strategy_iteration, "_pure_rows", counted)
        *pair, rounds = hoffman_karp(game, *end_pair)
        assert rounds == 2
        assert checked == [end_pair]
        assert certify(game, *pair).passed


class TestStrategyIterationStage:
    def test_pool_game_is_answered_in_two_rounds(self, tmp_path, capsys):
        json_out = tmp_path / "result.json"
        code = cli.main(["solve", str(POOL_28), "--json-out", str(json_out)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[:2] == ["status: Converged (139 accepted steps)",
                             "stage: strategy_iteration"]
        assert "certificate: PASS" in lines
        doc = json.loads(json_out.read_text())
        assert (doc["stage"], doc["strategy_iteration_rounds"]) == (
            "strategy_iteration", 2)
        game = cli.load_game(POOL_28)
        np.testing.assert_allclose(doc["value"], value_iteration(game).v,
                                   atol=1e-6)

    def test_a_capped_run_reports_the_cap_and_certify_decides(
            self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(strategy_iteration, "_MAX_ROUNDS", 1)
        json_out = tmp_path / "result.json"
        code = cli.main(["solve", str(POOL_28), "--json-out", str(json_out)])
        out = capsys.readouterr().out
        doc = json.loads(json_out.read_text())
        assert (doc["stage"], doc["strategy_iteration_rounds"]) == (
            "strategy_iteration", 1)
        report = certify(cli.load_game(POOL_28),
                         [a - 1 for a in doc["strategy_player_i"]],
                         [a - 1 for a in doc["strategy_player_ii"]])
        # one round leaves player I a gain in states 4 and 7
        assert not report.passed
        assert code == 1
        assert "certificate: FAIL" in out
        assert doc["certificate"] == {"ineq_player_i": False,
                                      "ineq_player_ii": True}
