from __future__ import annotations

import contextlib
import importlib.machinery
import io
import json
import logging
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arat_homotopy
from arat_homotopy import cli, path_tracer, vlcp_builder
from arat_homotopy.errors import InvalidGame, MaxIterExceeded
from arat_homotopy.game_model import AratGame, validate
from arat_homotopy.homotopy_core import HomotopyInstance
from arat_homotopy.oracle import certify, value_iteration
from arat_homotopy.path_tracer import PathPoint
from arat_homotopy.vlcp_builder import (
    SquareLcp,
    VlcpInstance,
    _computed_start,
    build_vlcp,
    find_interior_point,
    recover_vlcp_solution,
    to_equivalent_lcp,
)

from conftest import (
    FIXTURES,
    assert_same_store,
    composed_reward,
    composed_transition,
    game_to_doc,
    make_example1,
    make_example2,
    make_two_absorbing_states,
    random_arat_game,
    relabelled,
    run_python,
    traced_problem,
    y_blocks,
)

EX1 = str(FIXTURES / "example1.json")
EX2 = str(FIXTURES / "example2.json")
# two small_mix pool games whose anchor pair fails, so solve traces them:
# game 28 converges and Hoffman-Karp answers; game 30 ends NoProgress
# and the pair of its path point 65 answers
MIX28 = str(FIXTURES / "small_mix_28.json")
MIX30 = str(FIXTURES / "small_mix_30.json")
# r2 = -1 <= 0.01 m1 in a state without player-II mass: solve shifts r2
ONE_STATE_SHIFTED = AratGame(beta=0.5, r1=([2.0],), r2=([-1.0],),
                             p1=([[1.0]],), p2=([[0.0]],))


VERBS = ["validate", "solve", "oracle", "build"]


def recording_certify(judged: list):
    """``certify`` that first appends the pair it judges to ``judged``,
    to stand in for ``cli.certify``."""
    def recorded(game, strategy_i, strategy_ii):
        judged.append((strategy_i, strategy_ii))
        return certify(game, strategy_i, strategy_ii)
    return recorded


def assert_one_parse_error(capsys) -> None:
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("parse error:"), err


def write_game(tmp_path: Path, doc: dict, name: str = "game.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestValidateCommand:
    def test_example1_valid_with_flags(self, capsys):
        code = cli.main(["validate", EX1])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "game file is a valid additive game\n"

    @pytest.mark.parametrize("verb", VERBS)
    def test_malformed_json_exits_2(self, tmp_path, capsys, verb):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli.main([verb, str(path)]) == 2
        assert_one_parse_error(capsys)

    @pytest.mark.parametrize("verb", VERBS)
    def test_missing_file_exits_2(self, tmp_path, capsys, verb):
        assert cli.main([verb, str(tmp_path / "nope.json")]) == 2
        assert_one_parse_error(capsys)

    def test_unreadable_file_is_reported_before_a_bad_step_budget(
            self, tmp_path, capsys):
        # main reads the game before any verb looks at its flags
        path = str(tmp_path / "nope.json")
        assert cli.main(["solve", path, "--max-steps", "0"]) == 2
        assert_one_parse_error(capsys)

    def test_non_utf8_file_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("parse error: 'utf-8'")

    def test_deeply_nested_json_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("parse error: ")

    @pytest.mark.parametrize("where, value, message", [
        ("beta", "0.5", "beta: '0.5' is not a number"),
        ("rewards", "2", "state 2, playerII: rewards: '2' is not a number"),
        ("rewards", True, "state 2, playerII: rewards: True is not a number"),
        ("transitions", False,
         "state 2, playerII: transitions: False is not a number"),
        ("rewards", 10**400,
         "state 2, playerII: int too large to convert to float"),
        # the document's shape: its top level, its states, a row's length
        ("document", [], "top level must be a JSON object"),
        ("states", [], "'states' must be a non-empty array"),
        ("row", [0.5],
         "state 2, playerII: every transition row needs 2 entries"),
        # player I's entries are checked the same way
        ("rewards", 10**400,
         "state 1, playerI: int too large to convert to float"),
        ("transitions", True,
         "state 1, playerI: transitions: True is not a number"),
    ])
    def test_non_number_or_huge_integer_is_a_parse_error(
            self, tmp_path, capsys, where, value, message):
        doc = game_to_doc(make_example1())
        # the entry edited is in the block the message names
        if message.startswith("state 1, playerI:"):
            player = doc["states"][0]["playerI"]
        else:
            player = doc["states"][1]["playerII"]
        if where == "document":
            doc = value
        elif where in ("beta", "states"):
            doc[where] = value
        elif where == "rewards":
            player["rewards"][0] = value
        elif where == "row":
            player["transitions"][0] = value
        else:
            player["transitions"][0][0] = value
        for verb in ("validate", "oracle"):
            assert cli.main([verb, write_game(tmp_path, doc)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("parse error: ")
            assert err.count("\n") == 1
            assert message in err

    def test_numpy_numbers_are_accepted(self):
        game = make_example1()
        doc = game_to_doc(game)
        doc["beta"] = np.float64(game.beta)
        doc["states"][0]["playerI"]["rewards"] = list(game.r1[0])
        doc["states"][0]["playerI"]["transitions"] = list(game.p1[0])
        parsed = cli.parse_game_doc(doc)
        assert parsed.beta == game.beta
        np.testing.assert_array_equal(parsed.r1[0], game.r1[0])
        np.testing.assert_array_equal(parsed.p1[0], game.p1[0])

        # integer entries (rewards such as 4, rows such as [1, 0]) take
        # the entry-by-entry route and store what the floats store
        def integers(x):
            if isinstance(x, float) and x.is_integer():
                return int(x)
            if isinstance(x, list):
                return [integers(v) for v in x]
            if isinstance(x, dict):
                return {k: integers(v) for k, v in x.items()}
            return x

        unit_rows = {"beta": 0.5, "states": [
            {"playerI": {"rewards": [4.0, 1.5],
                         "transitions": [[1.0, 0.0], [0.0, 1.0]]},
             "playerII": {"rewards": [3.0], "transitions": [[0.0, 0.0]]}},
            {"playerI": {"rewards": [2.0], "transitions": [[0.0, 1.0]]},
             "playerII": {"rewards": [-1.0], "transitions": [[0.0, 0.0]]}},
        ]}
        for doc in (game_to_doc(game), unit_rows):
            written = {"beta": doc["beta"],
                       "states": integers(doc["states"])}
            first = written["states"][0]["playerI"]
            assert type(first["rewards"][0]) is int
            assert first["rewards"][0] == 4
            assert 0 in first["transitions"][0]
            assert_same_store(cli.parse_game_doc(written),
                              cli.parse_game_doc(doc))

    def test_negative_probability_exits_1_with_index(self, tmp_path, capsys):
        doc = game_to_doc(make_example1())
        doc["states"][0]["playerI"]["transitions"][0][0] = -0.5
        path = write_game(tmp_path, doc)
        code = cli.main(["validate", path])
        out = capsys.readouterr().out
        assert code == 1
        assert "p1[1][1]" in out and "negative" in out

    def test_inconsistent_lengths_exit_2(self, tmp_path):
        doc = game_to_doc(make_example1())
        doc["states"][0]["playerI"]["rewards"].append(1.0)
        assert cli.main(["validate", write_game(tmp_path, doc)]) == 2


def _empty_action_game() -> AratGame:
    """Player I has no action in state 1 (a game validate rejects)."""
    return AratGame(beta=0.5, r1=([], [1.0]), r2=([1.0], [2.0, 3.0]),
                    p1=(np.zeros((0, 2)), [[0.5, 0.5]]),
                    p2=([[0.5, 0.0]], [[0.0, 0.5], [0.5, 0.0]]))


@pytest.mark.parametrize("game", [
    make_example1(), make_example2(),
    *(random_arat_game(np.random.default_rng(seed), d_max=5, actions_max=3)
      for seed in range(20)),
    _empty_action_game(),
], ids=["example1", "example2", *(f"random{seed}" for seed in range(20)),
        "empty_actions"])
def test_parser_stores_what_the_per_state_constructor_stores(game):
    parsed = cli.parse_game_doc(game_to_doc(game))
    assert_same_store(parsed, game)
    assert validate(parsed).violations == validate(game).violations


def endpoint_game() -> AratGame:
    """A seeded game (d = 3, n = 14) whose anchor pair fails and whose
    trace converges in 61 steps to an endpoint whose pair answers."""
    return random_arat_game(np.random.default_rng(6), d_max=5, actions_max=3)


class TestSolveCommand:
    def test_example1_defaults(self, capsys, tmp_path):
        json_out = tmp_path / "result.json"
        code = cli.main(["solve", EX1, "--json-out", str(json_out)])
        out = capsys.readouterr().out
        assert code == 0
        assert "state 1: player I action 1, player II action 1" in out
        assert "state 2: player I action 1, player II action 2" in out
        assert "certificate: PASS" in out
        doc = json.loads(json_out.read_text())
        np.testing.assert_allclose(doc["value"], [14.0, 14.0], atol=1e-4)
        assert doc["strategy_player_i"] == [1, 1]
        assert doc["strategy_player_ii"] == [1, 2]
        assert doc["certificate"] == {"ineq_player_i": True,
                                      "ineq_player_ii": True}
        assert sorted(doc) == [
            "certificate", "detail", "final_t", "rejected_trials", "residual",
            "stage", "status", "steps", "strategy_iteration_rounds",
            "strategy_player_i", "strategy_player_ii", "value", "value_shift"]
        # the anchor's pair answers
        assert (doc["stage"], doc["strategy_iteration_rounds"]) == ("path", 0)
        assert "stage: path" in out

    def test_example1_answers_at_the_anchor(self, capsys, tmp_path):
        # the pair of the computed start passes, so nothing is traced:
        # no status line, null trace fields and a header-only CSV
        json_out, csv_path = tmp_path / "result.json", tmp_path / "path.csv"
        code = cli.main(["solve", EX1, "--json-out", str(json_out),
                         "--trace", str(csv_path)])
        assert code == 0
        assert capsys.readouterr().out == (
            "stage: path\n"
            "value: 14 14\n"
            "  state 1: player I action 1, player II action 1\n"
            "  state 2: player I action 1, player II action 2\n"
            "certificate: PASS\n")
        doc = json.loads(json_out.read_text())
        assert {key: doc[key] for key in (
            "status", "detail", "steps", "rejected_trials", "final_t",
            "residual", "stage", "strategy_iteration_rounds",
            "value_shift")} == {
            "status": None, "detail": None, "steps": 0,
            "rejected_trials": 0, "final_t": None, "residual": None,
            "stage": "path", "strategy_iteration_rounds": 0,
            "value_shift": 0.0}
        assert doc["value"] == [14.0, 14.0]
        assert csv_path.read_text() == ",".join(
            ["step", "t", "residual", "step_length", "det_sign"]
            + [f"{name}_{i}" for name in ("x", "y1", "y2")
               for i in range(1, 9)]) + "\n"
        answer = cli.solve(make_example1())
        assert answer.result is None
        assert (answer.stage, answer.passed) == ("path", True)

    def test_anchor_answer_traces_nothing(self, monkeypatch, capsys,
                                          tmp_path):
        # the anchor's pair is certified before a homotopy is built
        def refused(*args, **kwargs):
            raise AssertionError("the anchor's pair answers first")

        monkeypatch.setattr(cli, "trace", refused)
        monkeypatch.setattr(cli, "HomotopyInstance", refused)
        json_out = tmp_path / "result.json"
        for path in (EX1, EX2):
            assert cli.main(["solve", path, "--json-out", str(json_out)]) == 0
            out = capsys.readouterr().out
            assert out.startswith("stage: path\n")
            assert "certificate: PASS" in out
            doc = json.loads(json_out.read_text())
            assert (doc["stage"], doc["steps"], doc["status"]) == (
                "path", 0, None)

    def test_endpoint_answer_prints_no_stage_line(self, capsys, tmp_path,
                                                  monkeypatch):
        # a converged endpoint's pair answers: the status line, no stage
        # line on stdout and no stage line at info level on stderr
        monkeypatch.setenv("ARAT_HOMOTOPY_LOG", "info")
        game = endpoint_game()
        path = write_game(tmp_path, game_to_doc(game))
        json_out = tmp_path / "result.json"
        code = cli.main(["solve", path, "--json-out", str(json_out)])
        out, err = capsys.readouterr()
        assert code == 0
        assert out.startswith("status: Converged (61 accepted steps)\n")
        assert "stage:" not in out  # printed only for the later stages
        assert "certificate: PASS" in out
        assert not [line for line in err.splitlines()
                    if "answered by" in line or "strategy iteration" in line]
        doc = json.loads(json_out.read_text())
        assert doc["status"] == "Converged"
        assert doc["residual"] <= 1e-6
        assert (doc["stage"], doc["strategy_iteration_rounds"]) == (
            "endpoint", 0)
        result = cli.solve(game).result
        assert doc["steps"] == len(result.path) - 1
        assert doc["rejected_trials"] == result.rejected > 0
        np.testing.assert_allclose(doc["value"], value_iteration(game).v,
                                   atol=1e-6)

    def test_unequal_blocks_certify(self, capsys):
        # 1 and 3 player-I actions, 2 and 1 player-II actions: the pair is
        # read off blocks of four different sizes, at the anchor
        path = str(FIXTURES / "uneven_blocks.json")
        code = cli.main(["solve", path])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines == [
            "stage: path",
            "value: 2.75 5.75",
            "  state 1: player I action 1, player II action 1",
            "  state 2: player I action 1, player II action 1",
            "certificate: PASS"]
        # the trace converges, and its endpoint reads the same pair
        lcp, inst = traced_problem(cli.load_game(path))
        result = path_tracer.trace(inst)
        assert result.status is path_tracer.TraceStatus.CONVERGED
        assert path_tracer.extract_solution(result.path[-1].x, lcp) == (
            (0, 0), (0, 0))

    def test_path_starts_at_the_computed_start(self):
        # solve takes no start: it traces from the computed one
        game = cli.load_game(MIX30)
        start = cli.solve(game).result.path[0].x
        np.testing.assert_array_equal(start, traced_problem(game)[1].x0)

    def test_trace_csv_matches_path(self, tmp_path):
        csv_path = tmp_path / "path.csv"
        assert cli.main(["solve", MIX28, "--trace", str(csv_path)]) == 0
        game = cli.load_game(MIX28)
        n = game.r.size
        lines = csv_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["step", "t", "residual", "step_length",
                              "det_sign"]
        assert header[5] == "x_1" and header[-1] == f"y2_{n}"
        # the t column is the literal path, starting at 1
        assert float(lines[1].split(",")[1]) == 1.0
        ts = [float(line.split(",")[1]) for line in lines[1:]]
        assert abs(ts[-1]) <= 1e-7
        steps = [int(line.split(",")[0]) for line in lines[1:]]
        assert steps == list(range(len(steps)))
        # row count equals the (deterministic) library solve's path length
        result = cli.solve(game).result
        assert len(lines) - 1 == len(result.path)
        np.testing.assert_array_equal(ts, [pt.t for pt in result.path])
        # every other column round-trips its path point exactly
        assert header[5:] == ([f"x_{i}" for i in range(1, n + 1)]
                              + [f"y1_{i}" for i in range(1, n + 1)]
                              + [f"y2_{i}" for i in range(1, n + 1)])
        for line, pt in zip(lines[1:], result.path):
            cells = line.split(",")
            assert float(cells[2]) == pt.residual
            assert float(cells[3]) == pt.step_length
            assert int(cells[4]) == pt.det_sign
            coords = np.array([float(c) for c in cells[5:]])
            np.testing.assert_array_equal(coords[:n], pt.x)
            y1, y2 = y_blocks(pt)
            np.testing.assert_array_equal(coords[n:2 * n], y1)
            np.testing.assert_array_equal(coords[2 * n:], y2)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        outs = []
        for k in range(2):
            json_path = tmp_path / f"r{k}.json"
            csv_path = tmp_path / f"r{k}.csv"
            code = cli.main(["solve", MIX30, "--json-out", str(json_path),
                             "--trace", str(csv_path)])
            assert code == 0
            outs.append((json_path.read_bytes(), csv_path.read_bytes(),
                         capsys.readouterr().out))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]
        assert outs[0][2] == outs[1][2]

    def test_max_steps_one_answers_from_the_path(self, capsys, tmp_path):
        # one step does not reach t = 0 ...
        game = cli.load_game(MIX30)
        result = path_tracer.trace(traced_problem(game)[1], 1)
        assert result.status is path_tracer.TraceStatus.MAX_STEPS
        assert len(result.path) == 2
        # ... neither point of that path reads a certifying pair, and
        # Hoffman-Karp from the last one's answers
        json_out = tmp_path / "result.json"
        code = cli.main(["solve", MIX30, "--max-steps", "1",
                         "--json-out", str(json_out)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[:2] == ["status: MaxSteps (1 accepted steps; no "
                             "convergence within 1 steps)",
                             "stage: strategy_iteration"]
        assert "certificate: PASS" in lines
        doc = json.loads(json_out.read_text())
        assert (doc["status"], doc["stage"], doc["strategy_iteration_rounds"],
                doc["steps"]) == ("MaxSteps", "strategy_iteration", 2, 1)
        np.testing.assert_allclose(doc["value"], value_iteration(game).v,
                                   atol=1e-6)

    def test_no_progress_is_answered_by_its_last_points_pair(
            self, monkeypatch, tmp_path, capsys):
        # a small_mix pool game (d = 8) whose trace stalls at t ~ 0.007
        path = MIX30
        game = cli.load_game(path)
        result = cli.solve(game).result
        judged = []
        monkeypatch.setattr(cli, "certify", recording_certify(judged))
        json_out = tmp_path / "result.json"
        code = cli.main(["solve", path, "--json-out", str(json_out)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0].startswith("status: NoProgress (65 accepted steps; "
                                   "step length fell below eps3")
        assert lines[1] == "stage: path"
        assert "certificate: PASS" in lines
        doc = json.loads(json_out.read_text())
        assert (doc["status"], doc["stage"], doc["steps"],
                doc["rejected_trials"], doc["value_shift"],
                doc["strategy_iteration_rounds"]) == (
            "NoProgress", "path", 65, 21, 0.0, 0)
        # solve certified the start's pair, which fails, then that of the
        # last point, which answers
        lcp, _ = traced_problem(game)
        start_pair, last_pair = (
            recover_vlcp_solution(lcp, lcp.M @ point.x + lcp.q)
            for point in (result.path[0], result.path[-1]))
        answer = (tuple(a - 1 for a in doc["strategy_player_i"]),
                  tuple(a - 1 for a in doc["strategy_player_ii"]))
        assert answer == last_pair
        assert judged == [start_pair, last_pair]
        np.testing.assert_allclose(doc["value"], value_iteration(game).v,
                                   atol=1e-6)

    def test_each_pair_is_certified_once(self, monkeypatch, capsys,
                                         tmp_path):
        # fixture 28: the start's pair and the endpoint's fail, and
        # Hoffman-Karp's pair answers in 2 rounds; each is judged once
        judged = []
        monkeypatch.setattr(cli, "certify", recording_certify(judged))
        json_out = tmp_path / "result.json"
        assert cli.main(["solve", MIX28, "--json-out", str(json_out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "stage: strategy_iteration" in lines
        assert "certificate: PASS" in lines
        doc = json.loads(json_out.read_text())
        assert (doc["stage"], doc["strategy_iteration_rounds"]) == (
            "strategy_iteration", 2)
        lcp, inst = traced_problem(cli.load_game(MIX28))
        start_pair = recover_vlcp_solution(lcp, lcp.M @ inst.x0 + lcp.q)
        assert len(judged) == len(set(judged)) == 3
        assert judged[0] == start_pair
        assert judged[-1] == (
            tuple(a - 1 for a in doc["strategy_player_i"]),
            tuple(a - 1 for a in doc["strategy_player_ii"]))

    @pytest.mark.parametrize("fixture, points", [
        (MIX28, 140), (MIX30, 66),
    ], ids=["small_mix_28", "small_mix_30"])
    def test_solve_reads_at_most_two_path_points(self, fixture, points,
                                                 monkeypatch):
        # the start's pair fails on both games, so solve reads it and then
        # the last point's: game 30's answers, and Hoffman-Karp starts
        # from game 28's as read
        read = []

        def counted(x, lcp):
            read.append(x)
            return path_tracer.extract_solution(x, lcp)

        monkeypatch.setattr(cli, "extract_solution", counted)
        answer = cli.solve(cli.load_game(fixture))
        assert len(answer.result.path) == points
        assert len(read) == 2
        np.testing.assert_array_equal(read[-1], answer.result.path[-1].x)

    def test_mass_to_larger_player_ii_state_solves(self, tmp_path, capsys):
        # state 1's player-I row sends all its mass to state 2, which has
        # two player-II actions: one level on every xi copy cannot lift
        # that row, the computed start does
        game = AratGame(
            beta=0.9,
            r1=([1.0], [1.0, 2.0]), r2=([1.0], [1.0, 2.0]),
            p1=([[0.0, 1.0]], [[0.5, 0.0], [0.5, 0.0]]),
            p2=([[0.0, 0.0]], [[0.0, 0.5], [0.0, 0.5]]),
        )
        path = write_game(tmp_path, game_to_doc(game))
        assert cli.main(["solve", path]) == 0
        assert "certificate: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("game, c2", [
        # r2 = -1 <= 0.01 m1(1): shifted up to 1 + 0.01 = 1.01
        (ONE_STATE_SHIFTED, 2.01),
        # r2 = 0.01 = 0.01 m1(2) leaves state 2 no strict slack
        (AratGame(beta=0.5, r1=([2.0], [2.0]), r2=([1.0], [0.01]),
                  p1=([[0.5, 0.5]], [[0.0, 1.0]]),
                  p2=([[0.0, 0.0]], [[0.0, 0.0]])), 1.0),
        # m1 = 100: shifting r2 to 1 (the old --shift-rewards) is not enough
        (AratGame(beta=0.9, r1=(np.arange(100.0) % 7,), r2=([-1.0],),
                  p1=(np.ones((100, 1)),), p2=([[0.0]],)), 3.0),
    ], ids=["one_state", "two_states", "m1_100"])
    def test_start_without_player_ii_mass_shifts_r2(self, tmp_path, capsys,
                                                     monkeypatch, game, c2):
        # the shift is decided without a failed start: one start is made
        calls = []

        def counted(lcp):
            calls.append(lcp)
            return find_interior_point(lcp)

        monkeypatch.setattr(cli, "find_interior_point", counted)
        path = write_game(tmp_path, game_to_doc(game))
        json_out = tmp_path / "r.json"
        assert cli.main(["solve", path, "--json-out", str(json_out)]) == 0
        assert len(calls) == 1
        assert "certificate: PASS" in capsys.readouterr().out
        doc = json.loads(json_out.read_text())
        # the pair is evaluated on the game as given, not the shifted one
        np.testing.assert_allclose(doc["value"], value_iteration(game).v,
                                   rtol=0, atol=1e-4)
        assert doc["value_shift"] == pytest.approx(c2 / (1.0 - game.beta),
                                                   rel=1e-15)

    @pytest.mark.parametrize("beta, r2, message", [
        (1.0, -1.0, "discount beta=1.0 is not in (0, 1)"),
        (0.5, -np.inf, "state 1: r2[1] = -inf is not finite"),
    ], ids=["beta_one", "r2_minus_inf"])
    def test_invalid_game_is_reported_as_given(self, beta, r2, message):
        # the game is validated before a shift is decided, so the report
        # speaks of the game as given
        game = AratGame(beta=beta, r1=([2.0],), r2=([r2],),
                        p1=([[1.0]],), p2=([[0.0]],))
        with pytest.raises(InvalidGame, match=re.escape(message)):
            cli.solve(game)

    @pytest.mark.parametrize("game, starts", [
        (cli.load_game(EX1), 1), (cli.load_game(MIX28), 1),
        (cli.load_game(MIX30), 1), (ONE_STATE_SHIFTED, 2),
    ], ids=["example1", "small_mix_28", "small_mix_30", "one_state"])
    def test_one_computed_start_per_solve(self, game, starts, monkeypatch):
        # the shift is decided from the built problem's start, computed
        # once; only a shifted problem needs the start of its copy
        calls = []

        def counted(lcp):
            calls.append(lcp)
            return _computed_start(lcp)

        monkeypatch.setattr(vlcp_builder, "_computed_start", counted)
        cli.solve(game)
        assert len(calls) == starts

    @staticmethod
    def start_fails(game):
        # the unshifted computed start leaves a row unlifted: the rule
        # the shift decision is checked against
        lifted = _computed_start(to_equivalent_lcp(build_vlcp(game)))[2]
        return not lifted.all()

    @pytest.mark.parametrize("m1", [1, 3, 7, 14, 15])
    def test_r2_shift_decided_exactly_at_the_boundary(self, m1):
        # a state without player-II mass leaves its row the slack
        # r2 - 0.01 m1 whatever the lift, and its rounding depends on m1:
        # the shift is taken exactly when the unshifted start fails, on
        # either side of 0.01 k
        for k in range(1, 16):
            for ulps in (-2, -1, 0, 1, 2):
                value = 0.01 * k
                for _ in range(abs(ulps)):
                    value = float(np.nextafter(value, np.sign(ulps) * np.inf))
                game = AratGame(beta=0.5, r1=(np.arange(m1) % 3.0,),
                                r2=([value],), p1=(np.ones((m1, 1)),),
                                p2=([[0.0]],))
                answer = cli.solve(game, max_steps=1)
                assert (answer.value_shift > 0.0) == self.start_fails(game), \
                    (k, ulps)

    @pytest.mark.parametrize("mass", [1e-20, 1e-16, 1e-15])
    def test_nearly_massless_state_shifts_r2(self, mass):
        # M u = 0.5 * mass > 0 on the player-II row, so K ~ 1 / mass and
        # the row's slack is lost to rounding (at 1e-15 a slack of one ulp
        # of the row's terms is left, inside their rounding bound): the
        # start fails there, r2 is shifted by 2.01 and the shifted game
        # certifies
        game = AratGame(beta=0.5, r1=([2.0],), r2=([-1.0],),
                        p1=([[1.0]],), p2=([[mass]],))
        assert self.start_fails(game)
        answer = cli.solve(game)
        assert answer.value_shift == pytest.approx(4.02, rel=1e-15)
        assert answer.passed

    @pytest.mark.parametrize("ulps", [1, 2])
    def test_slack_of_a_few_ulps_shifts_r2(self, ulps):
        # no player-II mass and r2 = 0.01 m1 + a few ulps: the start's
        # slack on that row is below the rounding bound of its terms, so
        # it counts as unlifted, r2 is shifted, and the game certifies
        value = 0.01
        for _ in range(ulps):
            value = float(np.nextafter(value, np.inf))
        game = AratGame(beta=0.5, r1=([2.0],), r2=([value],),
                        p1=([[1.0]],), p2=([[0.0]],))
        assert self.start_fails(game)
        answer = cli.solve(game)
        assert answer.value_shift > 0.0
        assert answer.passed

    @pytest.mark.parametrize("flags", [
        ["--max-steps", "0"], ["--max-steps", "-1"],
        ["--max-steps", "-100"], ["--max-steps", "-3"],
    ])
    def test_bad_tracer_settings_exit_2(self, flags, capsys):
        assert cli.main(["solve", EX1] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad tracer settings:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("fixture", [EX1, MIX28, MIX30],
                             ids=["example1", "small_mix_28", "small_mix_30"])
    @pytest.mark.parametrize("max_steps", [0, -1, float("nan"), 2.5, True])
    def test_library_budget_below_one_raises_before_anything_is_built(
            self, fixture, max_steps, monkeypatch):
        # example 1's start pair answers and the other two trace: the
        # budget is refused either way, before the game is built; a
        # budget that is not an integer (a bool included) is refused too
        def refuse(game):
            raise AssertionError("built a problem")

        monkeypatch.setattr(cli, "build_vlcp", refuse)
        game = cli.load_game(fixture)
        message = ("^max_steps must be at least 1$" if type(max_steps) is int
                   else "^max_steps must be integers")
        with pytest.raises(ValueError, match=message):
            cli.solve(game, max_steps)

    @pytest.mark.parametrize("flags", [
        ["--eps1", "1e-7"], ["--eps2", "1e-3"], ["--eps3", "1e-5"],
        ["--l0", "0.5"], ["--m", "2"], ["--a0", "1e-8"],
        ["--r-accept", "1.0"],
        # a prefix of --max-steps is not taken for it
        ["--max", "3"],
        # the start shifts r2 by itself when it must
        ["--shift-rewards"],
        # the start is always computed, on the game as given
        ["--x0", "1,2"], ["--beta-override", "0.3"],
    ], ids=lambda flags: flags[0])
    def test_removed_or_abbreviated_flag_exits_2(self, flags, capsys,
                                                  monkeypatch):
        def no_trace(*args, **kwargs):
            raise AssertionError("the walk must not start")

        monkeypatch.setattr(cli, "trace", no_trace)
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", EX1] + flags)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--json-out", "--trace"])
    def test_unwritable_output_exits_2_without_traceback(self, tmp_path,
                                                         flag):
        # run as a program, so an escaping exception would show as a
        # traceback on stderr instead of failing inside the test process
        target = tmp_path / "missing" / "out"
        proc = run_python("-m", "arat_homotopy", "solve", EX1, flag,
                          str(target))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"cannot write {target}: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert "certificate: PASS" in proc.stdout


class TestInProcessReuse:
    def test_no_setting_leaks_into_the_next_call(self, tmp_path, capsys):
        # one process, several calls: each call reads only its own flags
        assert cli.main(["oracle", EX1, "--guard", "3"]) == 0
        assert "enumeration skipped" in capsys.readouterr().out
        assert cli.main(["oracle", EX1]) == 0
        out = capsys.readouterr().out
        assert "enumeration skipped" not in out
        assert "z = 6.5 0 5.5 0 7.5 0 0 8.5" in out
        json_out = tmp_path / "r.json"
        assert cli.main(["solve", EX1, "--json-out", str(json_out)]) == 0
        assert json_out.exists()
        json_out.unlink()
        assert cli.main(["solve", EX1]) == 0
        assert "certificate: PASS" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


def test_array_holding_types_compare_by_identity():
    # a generated __eq__ would compare the arrays (ValueError on more
    # than one element) and a frozen one would leave hash to raise
    def build():
        game = cli.load_game(MIX30)  # traced: the answer holds its path
        vlcp = build_vlcp(game)
        lcp, inst = traced_problem(game)
        answer = cli.solve(game)
        return (game, vlcp, lcp, inst, answer, answer.result,
                answer.result.path[-1], answer.certificate,
                value_iteration(game))

    first, second = build(), build()
    assert {type(a).__name__ for a in first} == {
        "AratGame", "VlcpInstance", "SquareLcp", "HomotopyInstance",
        "Answer", "TraceResult", "PathPoint", "CertificateReport",
        "GameSolution"}
    for a, b in zip(first, second):
        assert a == a and a != b
        assert len({a, b, a}) == 2


# type -> (build it around the caller's array a, the array's data, the
# stored arrays that hold a's values)
STORES_A_COPY = {
    "AratGame": (lambda a: AratGame(beta=0.5, r1=(a,), r2=(a,),
                                    p1=([[0.5]],), p2=([[0.5]],)),
                 [2.0], lambda g: (g.r1[0], g.r2[0])),
    "AratGame.from_stacked": (
        lambda a: AratGame.from_stacked(0.5, a, [[0.5], [0.5]], (1,), (1,)),
        [2.0, 1.0], lambda g: (g.r, g.r1[0], g.r2[0])),
    "VlcpInstance": (lambda a: VlcpInstance(A=a, q=a[0], block_sizes=(1, 1)),
                     [[2.0, 1.0], [0.0, 3.0]], lambda v: (v.A, v.q)),
    "SquareLcp": (lambda a: SquareLcp(M=a, q=a[0], block_sizes=(1, 1)),
                  [[2.0, 1.0], [0.0, 3.0]], lambda lcp: (lcp.M, lcp.q)),
    "HomotopyInstance": (lambda a: HomotopyInstance(A=np.eye(2), q=a, x0=a),
                         [1.0, 2.0], lambda inst: (inst.q, inst.x0)),
    "PathPoint": (lambda a: PathPoint(a, residual=0.0, step_length=0.0,
                                      det_sign=1),
                  [1.0, 2.0, 3.0, 0.5], lambda pt: (pt.v,)),
}


@pytest.mark.parametrize("make, data, stored", STORES_A_COPY.values(),
                         ids=STORES_A_COPY.keys())
def test_constructor_stores_a_read_only_copy(make, data, stored):
    # the caller's array stays writable, and writing to it later does
    # not reach the object
    a = np.array(data)
    obj = make(a)
    kept = [w.copy() for w in stored(obj)]
    assert a.flags.writeable
    assert not any(w.flags.writeable for w in stored(obj))
    a += 99.0
    for w, k in zip(stored(obj), kept):
        np.testing.assert_array_equal(w, k)


class TestValidateOnce:
    @pytest.mark.parametrize("argv", [
        ["solve", EX1], ["oracle", EX1], ["build", EX1],
        # n = 8 > 3: the oracle validates without building a problem
        ["oracle", EX1, "--guard", "3"],
    ], ids=["solve", "oracle", "build", "oracle-guard-3"])
    def test_each_verb_validates_once(self, argv, monkeypatch, capsys):
        from arat_homotopy import vlcp_builder

        calls = []

        def counted(game):
            calls.append(game)
            return validate(game)

        # both places a verb can look the name up
        monkeypatch.setattr(cli, "validate", counted)
        monkeypatch.setattr(vlcp_builder, "validate", counted)
        assert cli.main(argv) == 0
        assert len(calls) == 1

    def test_solve_with_r2_shift_builds_and_validates_once(self,
                                                           monkeypatch):
        # the shift is applied to the built problem, not to a rebuilt game
        from arat_homotopy import vlcp_builder

        calls = []

        def counted(name, real):
            def call(game):
                calls.append(name)
                return real(game)
            return call

        monkeypatch.setattr(cli, "validate", counted("validate", validate))
        monkeypatch.setattr(vlcp_builder, "validate",
                            counted("validate", validate))
        monkeypatch.setattr(cli, "build_vlcp",
                            counted("build_vlcp", build_vlcp))
        game = AratGame(beta=0.5, r1=([2.0],), r2=([-1.0],),
                        p1=([[1.0]],), p2=([[0.0]],))
        answer = cli.solve(game)
        assert answer.value_shift > 0.0 and answer.passed
        assert sorted(calls) == ["build_vlcp", "validate"]

    @pytest.mark.parametrize("fixture", [EX1, EX2],
                             ids=["example1", "example2"])
    def test_start_answer_evaluates_its_pair_once(self, fixture,
                                                  monkeypatch):
        # the start's pair answers both examples, so nothing is traced
        from arat_homotopy import oracle

        calls = []
        one_shot_payoffs = oracle.one_shot_payoffs

        def counted(game, pair):
            actions = (pair - game.start).tolist()
            calls.append((tuple(actions[:game.d]), tuple(actions[game.d:])))
            return one_shot_payoffs(game, pair)

        # certify evaluates a pair through one_shot_payoffs
        monkeypatch.setattr(oracle, "one_shot_payoffs", counted)
        answer = cli.solve(cli.load_game(fixture))
        assert answer.passed
        cert = answer.certificate
        assert calls == [(cert.strategy_i, cert.strategy_ii)]


class TestSolveProperty:
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=28)  # the start's pair answers, so nothing is traced
    # the endpoint's pair fails and Hoffman-Karp answers; after one step
    # the last point's pair is the start's
    @example(seed=100)
    @settings(max_examples=40, deadline=None)
    def test_exit_0_means_an_optimal_pair(self, seed):
        # Every solve exits 0, at the default step budget and at a budget
        # of one step, where Hoffman-Karp answers most traced games.  The
        # answer is checked here against value iteration, not against the
        # solver's own certificate, and no pair is certified twice.
        game = random_arat_game(np.random.default_rng(seed), d_max=3,
                                actions_max=2)
        v = value_iteration(game).v
        slack = 1e-8 * (1.0 + np.abs(v).max())
        for max_steps in (path_tracer.MAX_STEPS, 1):
            judged = []
            with tempfile.TemporaryDirectory() as tmp, \
                    mock.patch.object(cli, "certify",
                                      recording_certify(judged)):
                path = write_game(Path(tmp), game_to_doc(game))
                json_out = Path(tmp) / "r.json"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["solve", path, "--max-steps",
                                     str(max_steps), "--json-out",
                                     str(json_out)])
                doc = json.loads(json_out.read_text())
            assert code == 0, max_steps
            assert len(judged) == len(set(judged))
            si = [a - 1 for a in doc["strategy_player_i"]]
            sii = [a - 1 for a in doc["strategy_player_ii"]]
            for s in range(game.d):
                for i in range(game.m1[s]):
                    gain = composed_reward(game, s, i, sii[s]) + game.beta * (
                        composed_transition(game, s, i, sii[s]) @ v)
                    assert gain <= v[s] + slack
                for j in range(game.m2[s]):
                    loss = composed_reward(game, s, si[s], j) + game.beta * (
                        composed_transition(game, s, si[s], j) @ v)
                    assert loss >= v[s] - slack
            np.testing.assert_allclose(doc["value"], v, rtol=0, atol=1e-4)


class TestSolveMetamorphic:
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(-4, 4))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_relabelled_and_scaled_games_answer_alike(self, seed, k):
        # A game with its states and actions relabelled, or its rewards
        # times 2^k, has the same optimal pairs, relabelled, and the same
        # value, permuted or times 2^k.  With a budget of 200 steps,
        # Hoffman-Karp answers any path that wanders.
        rng = np.random.default_rng(seed)
        game = random_arat_game(rng, d_max=3, actions_max=2)
        answer = cli.solve(game, 200)
        assert answer.passed
        value = answer.certificate.value

        moved, state_map, action_map = relabelled(game, rng)
        cert = cli.solve(moved, 200).certificate
        assert cert.passed
        back = [[int(np.argsort(action_map[s, player])[
            strategy[state_map[s]]]) for s in range(game.d)]
            for player, strategy in (("I", cert.strategy_i),
                                     ("II", cert.strategy_ii))]
        assert certify(game, *back).passed
        np.testing.assert_allclose(cert.value[state_map], value, rtol=1e-9)

        scaled = AratGame(beta=game.beta,
                          r1=tuple(r * 2.0**k for r in game.r1),
                          r2=tuple(r * 2.0**k for r in game.r2),
                          p1=game.p1, p2=game.p2)
        cert = cli.solve(scaled, 200).certificate
        assert cert.passed
        assert certify(game, cert.strategy_i, cert.strategy_ii).passed
        np.testing.assert_allclose(cert.value / 2.0**k, value, rtol=1e-9)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_strictly_dominated_action_is_never_picked(self, seed):
        # A copy of one action with the same transition row and a reward
        # worse by 1 for its player (lower for player I, higher for player
        # II) is strictly dominated: the game keeps its optimal pairs and
        # its value, and a certified pair never plays the copy.
        rng = np.random.default_rng(seed)
        game = random_arat_game(rng, d_max=3, actions_max=2)
        answer = cli.solve(game, 200)
        assert answer.passed
        s, second = int(rng.integers(game.d)), bool(rng.integers(2))
        blocks = {"r1": list(game.r1), "r2": list(game.r2),
                  "p1": list(game.p1), "p2": list(game.p2)}
        r, p = ("r2", "p2") if second else ("r1", "p1")
        m = blocks[r][s].size
        a = int(rng.integers(m))
        blocks[r][s] = np.append(blocks[r][s],
                                 blocks[r][s][a] + (1.0 if second else -1.0))
        blocks[p][s] = np.vstack([blocks[p][s], blocks[p][s][a]])
        added = AratGame(beta=game.beta,
                         **{name: tuple(b) for name, b in blocks.items()})
        cert = cli.solve(added, 200).certificate
        assert cert.passed
        assert (cert.strategy_ii if second else cert.strategy_i)[s] < m
        assert certify(game, cert.strategy_i, cert.strategy_ii).passed
        np.testing.assert_allclose(cert.value, answer.certificate.value,
                                   rtol=1e-9)


class TestOracleCommand:
    def test_example1_listing(self, capsys):
        code = cli.main(["oracle", EX1])
        out = capsys.readouterr().out
        assert code == 0
        assert "value: 14 14" in out
        assert "z = 6.5 0 5.5 0 7.5 0 0 8.5" in out

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_output_matches_committed_fixture(self, name, capsys):
        # the committed listing is the reference: value iteration and the
        # enumeration must not move it by a byte
        assert cli.main(["oracle", str(FIXTURES / f"{name}.json")]) == 0
        assert capsys.readouterr().out == (
            FIXTURES / f"{name}_oracle.txt").read_text(encoding="utf-8")

    def test_past_guard_builds_neither_problem(self, monkeypatch, capsys):
        # n = sum m1 + sum m2 = 8 > 3: the listing ends at the skip line,
        # and nothing is built to get there
        def refuse(*_):
            raise AssertionError("a problem was built past the guard")

        monkeypatch.setattr(cli, "build_vlcp", refuse)
        monkeypatch.setattr(cli, "to_equivalent_lcp", refuse)
        assert cli.main(["oracle", EX1, "--guard", "3"]) == 0
        assert capsys.readouterr().out == (
            FIXTURES / "example1_oracle_guard3.txt").read_text(
                encoding="utf-8")

    @pytest.mark.parametrize("edit", ["beta", "row_sum"])
    def test_invalid_game_same_report_either_side_of_guard(
            self, tmp_path, capsys, edit):
        doc = game_to_doc(make_example1())
        if edit == "beta":
            doc["beta"] = 1.5
        else:
            doc["states"][0]["playerII"]["transitions"][0][0] = 0.2
        path = write_game(tmp_path, doc)
        seen = []
        for guard in ("3", "8", "20"):  # n = 8
            code = cli.main(["oracle", path, "--guard", guard])
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        assert seen[0] == seen[1] == seen[2]
        code, out, err = seen[0]
        assert code == 1 and out == ""
        assert err.startswith("invalid game:\n")

    def test_single_state_geometric_value(self, tmp_path, capsys):
        game = AratGame(beta=0.5, r1=([0.5],), r2=([0.5],),
                        p1=([[0.5]],), p2=([[0.5]],))
        path = write_game(tmp_path, game_to_doc(game))
        code = cli.main(["oracle", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "value: 2" in out

    def test_enumerated_value_is_the_pairs_value_with_negative_r2(
            self, tmp_path, capsys):
        # with r2 < 0, eta + xi of the unshifted LCP's solution reads
        # 2.667 5.333; the pair's own value is the game's, 2.25 3.25
        doc = json.loads((FIXTURES / "uneven_blocks.json").read_text(
            encoding="utf-8"))
        doc["states"][1]["playerII"]["rewards"] = [-1.0]
        code = cli.main(["oracle", write_game(tmp_path, doc)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "value: 2.25 3.25"
        enumerated = [line for line in lines if line.startswith("    value = ")]
        assert enumerated == ["    value = 2.25 3.25"]

    def test_enumeration_skipped_past_guard(self, tmp_path, capsys):
        # 6 states x 3 actions per player per state: n = 36 > 20
        d, acts = 6, 3
        rows = [[1.0 / (2 * d)] * d] * acts
        game = AratGame(
            beta=0.5,
            r1=tuple([1.0] * acts for _ in range(d)),
            r2=tuple([1.0] * acts for _ in range(d)),
            p1=tuple(rows for _ in range(d)),
            p2=tuple(rows for _ in range(d)),
        )
        path = write_game(tmp_path, game_to_doc(game))
        code = cli.main(["oracle", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "enumeration skipped" in out
        assert "value:" in out

    def test_beta_near_one_returns_value(self, tmp_path, capsys):
        # the greedy pair of the first sweep from v = 0 is optimal, so
        # its check passes after one sweep even at beta = 0.9999
        doc = game_to_doc(make_example1())
        doc["beta"] = 0.9999
        code = cli.main(["oracle", write_game(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 0
        assert "value: 70000 70000" in captured.out.splitlines()
        assert captured.err == ""

    def test_beta_near_one_within_sweep_cap(self, tmp_path, capsys):
        # the steps (1, 3) beta^k contract only at rate beta, but each
        # player has one action, so the only pair is checked at its own
        # value (1, 3) / (1 - beta) after the first sweep
        game = make_two_absorbing_states(0.9999)
        code = cli.main(["oracle", write_game(tmp_path,
                                              game_to_doc(game))])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert "value: 10000 30000" in lines
        sweeps = int(lines[1].split("(")[1].split()[0])
        assert sweeps == 1
        assert captured.err == ""

    def test_closed_stdout_exits_2_without_traceback(self, monkeypatch,
                                                     capsys):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = cli.main(["oracle", EX1])
        monkeypatch.undo()
        assert code == cli.EXIT_PARSE == 2
        assert capsys.readouterr().err == ""

    def test_closed_pipe_is_pointed_at_devnull(self, monkeypatch):
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        with open(write_fd, "w") as pipe:
            monkeypatch.setattr(sys, "stdout", pipe)
            code = cli.main(["oracle", EX1])
            monkeypatch.undo()
            assert code == 2
            assert os.path.samestat(os.fstat(write_fd), os.stat(os.devnull))
            pipe.flush()  # what is still buffered goes nowhere, quietly

    def test_no_fixed_point_within_sweep_cap_exits_1(self, monkeypatch,
                                                      capsys):
        def capped(game):
            raise MaxIterExceeded("no fixed point within 100000 sweeps")

        monkeypatch.setattr(cli, "value_iteration", capped)
        code = cli.main(["oracle", EX1])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ("value iteration: no fixed point within "
                                "100000 sweeps\n")
        assert captured.out == ""

    @pytest.mark.parametrize("verb", ["validate", "oracle"])
    @pytest.mark.parametrize("player", ["playerI", "playerII"])
    def test_player_without_actions_exits_1(self, tmp_path, capsys, verb,
                                            player):
        doc = game_to_doc(make_example1())
        doc["states"][1][player] = {"rewards": [], "transitions": []}
        code = cli.main([verb, write_game(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 1
        name = "I" if player == "playerI" else "II"
        assert (f"state 2: player {name} has no actions"
                in captured.out + captured.err)

    @pytest.mark.parametrize("edit, message", [
        ("beta", "discount beta=1.5 is not in (0, 1)"),
        ("row_sum", "row sum 0.7 != 1"),
    ])
    def test_invalid_game_exits_1_without_traceback(self, tmp_path, edit,
                                                     message):
        # run as a program, so an escaping exception would show as a
        # traceback on stderr instead of failing inside the test process
        doc = game_to_doc(make_example1())
        if edit == "beta":
            doc["beta"] = 1.5
        else:
            doc["states"][0]["playerII"]["transitions"][0][0] = 0.2
        proc = run_python("-m", "arat_homotopy", "oracle",
                          write_game(tmp_path, doc))
        assert proc.returncode == 1
        assert proc.stderr.startswith("invalid game:")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestNonFiniteGame:
    @pytest.mark.parametrize("verb, player, field, value", [
        ("validate", "playerI", "rewards", "nan"),
        ("solve", "playerI", "transitions", "nan"),
        ("oracle", "playerII", "rewards", "inf"),
        ("build", "playerI", "rewards", "nan"),
    ])
    def test_exits_1_without_traceback(self, tmp_path, verb, player, field,
                                       value):
        # run as a program, so an escaping exception would show as a
        # traceback on stderr instead of failing inside the test process
        doc = game_to_doc(make_example1())
        entries = doc["states"][0][player][field]
        if field == "rewards":
            entries[0] = float(value)
        else:
            entries[0][0] = float(value)
        proc = run_python("-m", "arat_homotopy", verb,
                          write_game(tmp_path, doc))
        assert proc.returncode == 1
        # validate reports on stdout, the other verbs on stderr
        report = proc.stdout if verb == "validate" else proc.stderr
        assert report.startswith("invalid game:")
        assert f"= {value} is not finite" in report
        assert "Traceback" not in proc.stderr


class TestLargeRewards:
    """Valid games whose rewards are too large for the float arithmetic
    end with one stderr line and exit 1."""

    # the row the start fails on, named in game terms
    PLAYER_I_UNLIFTED = ("no interior start: the player-I row 1 of state 1 "
                         "cannot be lifted")

    @staticmethod
    def one_state(r1, r2):
        return {"beta": 0.5, "states": [{
            "playerI": {"rewards": [r1], "transitions": [[0.5]]},
            "playerII": {"rewards": [r2], "transitions": [[0.5]]}}]}

    @staticmethod
    def run(tmp_path, verb, doc):
        # run as a program, so an escaping exception would show as a
        # traceback on stderr instead of failing inside the test process
        return run_python("-m", "arat_homotopy", verb,
                          write_game(tmp_path, doc))

    def test_solve_without_interior_start(self, tmp_path):
        # K b_r is lost to rounding against a player-I reward of 1e17,
        # and no r2 shift helps a player-I row
        proc = self.run(tmp_path, "solve", self.one_state(1e17, 1.0))
        assert proc.returncode == 1
        assert proc.stderr.startswith(self.PLAYER_I_UNLIFTED)
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    def test_player_i_row_is_not_retried_with_r2_shifted(self, tmp_path,
                                                          monkeypatch, capsys):
        # no r2 shift lifts a player-I row, so the start is computed once
        calls = []

        def counted(lcp):
            calls.append(lcp)
            return find_interior_point(lcp)

        monkeypatch.setattr(cli, "find_interior_point", counted)
        path = write_game(tmp_path, self.one_state(1e17, 1.0))
        assert cli.main(["solve", path]) == 1
        assert len(calls) == 1
        err = capsys.readouterr().err
        assert err.startswith(self.PLAYER_I_UNLIFTED)
        assert err.count("\n") == 1

    def test_solve_overflowing_lift_warns_nothing(self, tmp_path, capsys):
        # the lift K overflows; the point it gives is rejected without a
        # numpy warning ahead of the one error line
        path = write_game(tmp_path, self.one_state(1e308, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["solve", path])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("no interior start: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_solve_overflowing_lift_without_player_ii_mass(self, tmp_path,
                                                           capsys):
        # r1 = 1e308: the lift K overflows and 0 * inf leaves every slack
        # NaN, the player-I row's too, so r2 is not shifted; r2 = -1e17:
        # the shift c2 = 1.01 + 1e17 rounds to 1e17, which leaves the
        # player-II row its slack of -0.01.  One line, no warning
        for r1, r2, message in (
                (1e308, -1.0, self.PLAYER_I_UNLIFTED),
                (2.0, -1e17, "no interior start: the player-II row 1 of "
                             "state 1 cannot be lifted")):
            doc = {"beta": 0.5, "states": [{
                "playerI": {"rewards": [r1], "transitions": [[1.0]]},
                "playerII": {"rewards": [r2], "transitions": [[0.0]]}}]}
            path = write_game(tmp_path, doc)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(["solve", path])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.err.startswith(message)
            assert captured.err.count("\n") == 1
            assert captured.out == ""

    def test_oracle_rewards_overflow_in_one_state(self, tmp_path):
        proc = self.run(tmp_path, "oracle", self.one_state(1e308, 1e308))
        assert proc.returncode == 1
        assert proc.stderr == "value iteration: sweep 1 left the float range\n"
        assert proc.stdout == ""

    def test_oracle_reward_maxima_in_different_states(self, tmp_path):
        doc = {"beta": 0.5, "states": [
            {"playerI": {"rewards": [1e308], "transitions": [[0.5, 0.0]]},
             "playerII": {"rewards": [1.0], "transitions": [[0.5, 0.0]]}},
            {"playerI": {"rewards": [1.0], "transitions": [[0.0, 0.5]]},
             "playerII": {"rewards": [1e308], "transitions": [[0.0, 0.5]]}},
        ]}
        assert validate(cli.parse_game_doc(doc)).ok
        proc = self.run(tmp_path, "oracle", doc)
        assert proc.returncode == 1
        assert proc.stderr.startswith("value iteration: sweep ")
        assert proc.stderr.endswith(" left the float range\n")
        assert proc.stdout == ""

    @pytest.mark.parametrize("verb", ["validate", "oracle", "solve", "build"])
    def test_overflowing_row_sum_warns_nothing(self, tmp_path, capsys, verb):
        # a player-I row sums to inf: the report says so, and no numpy
        # warning comes ahead of it
        doc = {"beta": 0.5, "states": [
            {"playerI": {"rewards": [1.0], "transitions": [[1e308, 1e308]]},
             "playerII": {"rewards": [0.0], "transitions": [[0.0, 0.0]]}},
            {"playerI": {"rewards": [1.0], "transitions": [[0.5, 0.5]]},
             "playerII": {"rewards": [0.0], "transitions": [[0.0, 0.0]]}},
        ]}
        path = write_game(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([verb, path])
        captured = capsys.readouterr()
        assert code == 1
        report = captured.out if verb == "validate" else captured.err
        assert report.startswith("invalid game:\n")
        assert "row sum inf != 1" in report
        assert "Warning" not in captured.err


class TestModuleEntry:
    def test_python_m_runs_the_command_line_without_warnings(self):
        proc = run_python("-W", "error", "-m", "arat_homotopy", "validate",
                          EX1)
        assert proc.returncode == 0
        assert proc.stdout == "game file is a valid additive game\n"
        assert proc.stderr == ""

    def test_package_exports_the_cli_solve(self):
        assert arat_homotopy.solve is cli.solve
        assert arat_homotopy.Answer is cli.Answer


class TestColdStart:
    """Only the tracer factors, and it loads scipy's LAPACK extension
    module by itself, so no verb runs the ``scipy.linalg`` package.  The
    tests that solve use game 30, which is traced; ``oracle`` enumerates
    example 1 (n = 8) and skips game 30 (n = 33)."""

    ROUTINES = ("dgetrf", "dtrcon", "dtrtrs", "dgetrs", "dlaswp")

    def test_no_verb_loads_the_scipy_linalg_package(self):
        # a fresh interpreter: this test session has imported scipy.linalg
        script = (
            "import contextlib, io, json, sys\n"
            "from arat_homotopy import cli, path_tracer\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.split('.')[:2] == ['scipy', 'linalg'])\n"
            "codes, after = {}, {}\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for verb in ('validate', 'build', 'oracle', 'solve'):\n"
            "        codes[verb] = [cli.main([verb, game])\n"
            "                       for game in sys.argv[1:3]]\n"
            "        after[verb] = loaded()\n"
            "import scipy.linalg.lapack\n"
            "same = [getattr(scipy.linalg.lapack, name)\n"
            "        is getattr(path_tracer._lapack(), name)\n"
            "        for name in sys.argv[3:]]\n"
            "print(json.dumps([codes, after, same]))\n"
        )
        proc = run_python("-c", script, EX1, MIX30, *self.ROUTINES)
        assert proc.returncode == 0, proc.stderr
        codes, after, same = json.loads(proc.stdout)
        assert codes == {verb: [0, 0] for verb in VERBS}
        assert after["validate"] == after["build"] == after["oracle"] == []
        # the extension module is all there is; the interpreter itself
        # lists a single-phase extension in sys.modules when it loads one
        assert set(after["solve"]) <= {"scipy.linalg._flapack"}
        assert same == [True] * len(self.ROUTINES)

    def test_anchor_answer_loads_no_scipy(self):
        # a fresh interpreter: example 1's anchor pair answers, so no
        # factorization runs and no scipy module is loaded at all
        script = (
            "import contextlib, io, json, sys\n"
            "from arat_homotopy import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = cli.main(['solve', sys.argv[1]])\n"
            "print(json.dumps([code, out.getvalue().splitlines()[0],\n"
            "                  sorted(m for m in sys.modules\n"
            "                         if m.split('.')[0] == 'scipy')]))\n"
        )
        proc = run_python("-c", script, EX1)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, "stage: path", []]

    def test_loads_after_the_scipy_linalg_package(self):
        module = sys.modules["scipy.linalg._flapack"]
        path_tracer._lapack.cache_clear()
        try:
            routines = path_tracer._lapack()
            for name in self.ROUTINES:
                assert getattr(routines, name) is getattr(
                    scipy.linalg.lapack, name)
            # scipy's own module is left in place
            assert sys.modules["scipy.linalg._flapack"] is module
        finally:
            path_tracer._lapack.cache_clear()

    def test_imports_the_package_where_the_module_is_not_found(
            self, monkeypatch, capsys):
        find_spec = importlib.machinery.PathFinder.find_spec

        def no_flapack(name, path=None, target=None):
            if name == "scipy.linalg._flapack":
                return None
            return find_spec(name, path, target)

        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                            no_flapack)
        path_tracer._lapack.cache_clear()
        try:
            assert path_tracer._lapack() is scipy.linalg.lapack
            assert cli.main(["solve", MIX30]) == 0
            out = capsys.readouterr().out
            assert "status: NoProgress (65 accepted steps; " in out
            assert "certificate: PASS" in out
        finally:
            path_tracer._lapack.cache_clear()


class TestBuildCommand:
    @pytest.mark.parametrize("name", ["example1", "example2",
                                      "uneven_blocks"])
    def test_output_matches_committed_fixture(self, name, capsys):
        # the committed output is the reference: a change to how the
        # problem is built must not move it by a byte
        assert cli.main(["build", str(FIXTURES / f"{name}.json")]) == 0
        out = capsys.readouterr().out
        assert out == (FIXTURES / f"{name}_build.json").read_text(encoding="utf-8")
        labels = json.loads(out)["column_labels"]
        assert labels == ["eta(1)", "eta(2)", "xi(1)", "xi(2)"]

    def test_emits_construction_json(self, capsys):
        code = cli.main(["build", EX1])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(
            doc["A"][0], [-0.25, 0.0, 0.75, 0.0])
        np.testing.assert_allclose(
            doc["q"], [-4, -3, -5, -4, 3, 6, 6, 2])
        assert doc["J"]["1"] == [1, 2]
        assert len(doc["M"]) == 8 and len(doc["M"][0]) == 8


class TestRoundTrip:
    def test_serializer_round_trip(self, example1, example2):
        for game in (example1, example2):
            doc = game_to_doc(game)
            back = cli.parse_game_doc(json.loads(json.dumps(doc)))
            assert back.beta == game.beta
            for s in range(game.d):
                np.testing.assert_array_equal(back.r1[s], game.r1[s])
                np.testing.assert_array_equal(back.r2[s], game.r2[s])
                np.testing.assert_array_equal(back.p1[s], game.p1[s])
                np.testing.assert_array_equal(back.p2[s], game.p2[s])


class TestLogging:
    def test_info_level_logs_to_stderr(self, capsys, monkeypatch):
        monkeypatch.setenv("ARAT_HOMOTOPY_LOG", "info")
        code = cli.main(["solve", MIX30])
        err = capsys.readouterr().err
        assert code == 0
        result = cli.solve(cli.load_game(MIX30)).result
        assert (f"trace finished: NoProgress after {len(result.path) - 1} "
                f"accepted steps and {result.rejected} rejected trials") in err

    @pytest.mark.parametrize("name, stage_lines", [
        ("small_mix_30", ["answered by the pair of path point 65"]),
        ("small_mix_28", ["strategy iteration ended after 2 rounds"]),
        ("example1", ["answered by the pair of path point 0"]),
    ])
    def test_info_level_names_the_stage_past_the_endpoint(
            self, name, stage_lines, capsys, monkeypatch):
        # an answer from the endpoint's pair logs no stage line
        # (TestSolveCommand.test_endpoint_answer_prints_no_stage_line);
        # example 1's anchor pair answers before anything is traced
        monkeypatch.setenv("ARAT_HOMOTOPY_LOG", "info")
        assert cli.main(["solve", str(FIXTURES / f"{name}.json")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line.removeprefix("INFO arat_homotopy.cli: ") for line in err
                if "answered by" in line or "strategy iteration" in line
                ] == stage_lines

    def test_each_call_logs_to_its_own_stderr(self, monkeypatch):
        # in-process callers redirect stderr per call: each call's lines
        # go to that call's stream, at that call's level, and only once
        errs = []
        for level in ("info", "info", "quiet"):
            monkeypatch.setenv("ARAT_HOMOTOPY_LOG", level)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                assert cli.main(["solve", MIX30]) == 0
            errs.append(err.getvalue())
        for err in errs[:2]:
            assert err.count("trace finished") == 1
        assert errs[2] == ""

    def test_other_loggers_keep_their_level(self, monkeypatch, caplog):
        # a host's loggers are untouched while a quiet call runs, and the
        # call leaves no handler behind
        caplog.set_level(logging.DEBUG)
        monkeypatch.setenv("ARAT_HOMOTOPY_LOG", "quiet")
        validate = cli.validate

        def host_logs(game):
            logging.getLogger("host").debug("inside the call")
            return validate(game)

        monkeypatch.setattr(cli, "validate", host_logs)
        package = logging.getLogger("arat_homotopy")
        handlers = list(package.handlers)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["validate", EX1]) == 0
        assert "inside the call" in caplog.messages
        assert logging.getLogger().level == logging.DEBUG
        assert package.handlers == handlers
