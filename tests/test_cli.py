from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from arat_homotopy import cli
from arat_homotopy.game_model import AratGame
from arat_homotopy.oracle import value_iteration

from conftest import FIXTURES, make_example1

EX1 = str(FIXTURES / "example1.json")
EX2 = str(FIXTURES / "example2.json")


def write_game(tmp_path: Path, doc: dict, name: str = "game.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestValidateCommand:
    def test_example1_valid_with_flags(self, capsys):
        code = cli.main(["validate", EX1])
        out = capsys.readouterr().out
        assert code == 0
        assert "valid additive game" in out
        assert "holds_a=False" in out and "holds_b=False" in out

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_negative_probability_exits_1_with_index(self, tmp_path, capsys):
        doc = cli.game_to_doc(make_example1())
        doc["states"][0]["playerI"]["transitions"][0][0] = -0.5
        path = write_game(tmp_path, doc)
        code = cli.main(["validate", path])
        out = capsys.readouterr().out
        assert code == 1
        assert "p1[1][1]" in out and "negative" in out

    def test_inconsistent_lengths_exit_2(self, tmp_path):
        doc = cli.game_to_doc(make_example1())
        doc["states"][0]["playerI"]["rewards"].append(1.0)
        assert cli.main(["validate", write_game(tmp_path, doc)]) == 2


class TestSolveCommand:
    def test_example1_defaults(self, capsys, tmp_path):
        json_out = tmp_path / "result.json"
        code = cli.main(["solve", EX1, "--json-out", str(json_out)])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: Converged" in out
        assert "state 1: player I action 1, player II action 1" in out
        assert "state 2: player I action 1, player II action 2" in out
        assert "certificate: PASS" in out
        doc = json.loads(json_out.read_text())
        np.testing.assert_allclose(doc["value"], [14.0, 14.0], atol=1e-4)
        assert doc["strategy_player_i"] == [1, 1]
        assert doc["strategy_player_ii"] == [1, 2]
        assert doc["certificate"]["value_match"] is True
        assert doc["certificate"]["ineq_player_i"] is True
        assert doc["certificate"]["ineq_player_ii"] is True
        assert doc["residual"] <= 1e-6

    def test_example2_with_bundled_start_hint(self, capsys):
        hint = (FIXTURES / "example2_x0.txt").read_text().strip()
        code = cli.main(["solve", EX2, "--x0", hint])
        out = capsys.readouterr().out
        assert code == 0
        assert "certificate: PASS" in out

    def test_example1_bundled_hint_falls_back_to_auto(self, capsys):
        hint = (FIXTURES / "example1_x0.txt").read_text().strip()
        code = cli.main(["solve", EX1, "--x0", hint])
        assert code == 0

    def test_trace_csv_matches_path(self, tmp_path):
        csv_path = tmp_path / "path.csv"
        assert cli.main(["solve", EX1, "--trace", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["step", "t", "residual", "step_length",
                              "det_sign"]
        assert header[5] == "x_1" and header[-1] == "y2_8"
        # the t column is the literal path, starting at 1
        assert float(lines[1].split(",")[1]) == 1.0
        ts = [float(line.split(",")[1]) for line in lines[1:]]
        assert abs(ts[-1]) <= 1e-7
        steps = [int(line.split(",")[0]) for line in lines[1:]]
        assert steps == list(range(len(steps)))
        # row count equals the (deterministic) library trace's path length
        from arat_homotopy.homotopy_core import HomotopyInstance, find_interior_point
        from arat_homotopy.path_tracer import trace
        from arat_homotopy.vlcp_builder import build_vlcp, to_equivalent_lcp
        lcp = to_equivalent_lcp(build_vlcp(make_example1()))
        result = trace(HomotopyInstance.from_lcp(lcp, find_interior_point(lcp)))
        assert len(lines) - 1 == len(result.path)
        np.testing.assert_array_equal(ts, [pt.u.t for pt in result.path])

    def test_byte_identical_reruns(self, tmp_path, capsys):
        outs = []
        for k in range(2):
            json_path = tmp_path / f"r{k}.json"
            csv_path = tmp_path / f"r{k}.csv"
            code = cli.main(["solve", EX1, "--json-out", str(json_path),
                             "--trace", str(csv_path)])
            assert code == 0
            outs.append((json_path.read_bytes(), csv_path.read_bytes(),
                         capsys.readouterr().out))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]
        assert outs[0][2] == outs[1][2]

    def test_max_steps_one_exits_1(self, capsys):
        code = cli.main(["solve", EX1, "--max-steps", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "MaxSteps" in out

    def test_beta_override(self, capsys, tmp_path):
        json_out = tmp_path / "r.json"
        code = cli.main(["solve", EX1, "--beta-override", "0.3",
                         "--json-out", str(json_out)])
        assert code == 0
        doc = json.loads(json_out.read_text())
        import dataclasses
        truth = value_iteration(
            dataclasses.replace(make_example1(), beta=0.3))
        np.testing.assert_allclose(doc["value"], truth.v, atol=1e-4)

    def test_infeasible_without_shift_exits_3(self, tmp_path):
        game = AratGame(beta=0.5, r1=([2.0],), r2=([-1.0],),
                        p1=([[1.0]],), p2=([[0.0]],))
        path = write_game(tmp_path, cli.game_to_doc(game))
        assert cli.main(["solve", path]) == 3

    def test_shift_rewards_solves_and_unshifts(self, tmp_path, capsys):
        game = AratGame(beta=0.5, r1=([2.0],), r2=([-1.0],),
                        p1=([[1.0]],), p2=([[0.0]],))
        path = write_game(tmp_path, cli.game_to_doc(game))
        json_out = tmp_path / "r.json"
        code = cli.main(["solve", path, "--shift-rewards",
                         "--json-out", str(json_out)])
        assert code == 0
        doc = json.loads(json_out.read_text())
        # oracle on the original game: v = (2 - 1) / (1 - 1/2) = 2
        np.testing.assert_allclose(doc["value"], [2.0], atol=1e-4)
        assert doc["value_shift"] == pytest.approx(4.0)

    def test_bad_x0_list_exits_2(self):
        assert cli.main(["solve", EX1, "--x0", "1,2,banana"]) == 2

    @pytest.mark.parametrize("flags", [
        ["--l0", "1.5"], ["--eps1", "nan"], ["--m", "0"],
        ["--max-steps", "-3"],
    ])
    def test_bad_tracer_settings_exit_2(self, flags, capsys):
        assert cli.main(["solve", EX1] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad tracer settings:")
        assert "Traceback" not in err


class TestOracleCommand:
    def test_example1_listing(self, capsys):
        code = cli.main(["oracle", EX1])
        out = capsys.readouterr().out
        assert code == 0
        assert "value: 14 14" in out
        assert "z = 6.5 0 5.5 0 7.5 0 0 8.5" in out

    def test_single_state_geometric_value(self, tmp_path, capsys):
        game = AratGame(beta=0.5, r1=([0.5],), r2=([0.5],),
                        p1=([[0.5]],), p2=([[0.5]],))
        path = write_game(tmp_path, cli.game_to_doc(game))
        code = cli.main(["oracle", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "value: 2" in out

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
        path = write_game(tmp_path, cli.game_to_doc(game))
        code = cli.main(["oracle", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "enumeration skipped" in out
        assert "value:" in out


class TestBuildCommand:
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
            doc = cli.game_to_doc(game)
            back = cli.parse_game_doc(json.loads(json.dumps(doc)))
            assert back.beta == game.beta
            for s in range(game.d):
                np.testing.assert_array_equal(back.r1[s], game.r1[s])
                np.testing.assert_array_equal(back.r2[s], game.r2[s])
                np.testing.assert_array_equal(back.p1[s], game.p1[s])
                np.testing.assert_array_equal(back.p2[s], game.p2[s])


class TestLogging:
    def test_info_level_logs_to_stderr(self, tmp_path, capsys, monkeypatch):
        import logging
        monkeypatch.setenv("ARAT_HOMOTOPY_LOG", "info")
        root = logging.getLogger()
        for h in list(root.handlers):
            root.removeHandler(h)
        code = cli.main(["solve", EX1])
        err = capsys.readouterr().err
        assert code == 0
        assert "trace finished" in err
