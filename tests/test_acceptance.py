"""Acceptance suite: one test per shipping criterion, one line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every tolerance is pinned here, none is configurable.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from arat_homotopy import cli
from arat_homotopy.game_model import validate
from arat_homotopy.homotopy_core import HomotopyInstance, eval_H, jac_full
from arat_homotopy.oracle import (
    certify,
    enumerate_lcp,
    evaluate_pure_pair,
    value_iteration,
)
from arat_homotopy.path_tracer import (
    TraceStatus,
    corrector_core,
    extract_solution,
    tangent,
    trace,
)
from arat_homotopy.vlcp_builder import (
    SquareLcp,
    build_vlcp,
    recover_vlcp_solution,
    to_equivalent_lcp,
)

from conftest import (
    FIXTURES,
    block_sums,
    corrector_probe,
    jac_u0,
    make_example1,
    make_example2,
    random_arat_game,
    traced_problem,
    verify_vbe_e,
)

EX1 = str(FIXTURES / "example1.json")
EX2 = str(FIXTURES / "example2.json")


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {title}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {title}")


def solve_to_json(tmp_path, fixture, name):
    json_path = tmp_path / f"{name}.json"
    code = cli.main(["solve", fixture, "--json-out", str(json_path)])
    return code, json.loads(json_path.read_text())


def test_criterion_1_example1_pipeline(tmp_path, capsys):
    with criterion(1, "example-1 pipeline: value (14, 14), pure strategies, "
                      "certified, < 5 s"):
        start = time.perf_counter()
        code, doc = solve_to_json(tmp_path, EX1, "e1")
        # the anchor's pair answers; the path it would follow converges
        result = trace(traced_problem(make_example1())[1])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert result.status is TraceStatus.CONVERGED
        truth = value_iteration(make_example1())
        np.testing.assert_allclose(doc["value"], [14.0, 14.0], atol=1e-4)
        assert np.max(np.abs(np.array(doc["value"]) - truth.v)) <= 1e-4
        assert doc["strategy_player_i"] == [1, 1]
        assert doc["strategy_player_ii"] == [1, 2]
        assert doc["certificate"] == {"ineq_player_i": True,
                                      "ineq_player_ii": True}
        # the reported value is the pair's own exact value
        assert doc["value"] == evaluate_pure_pair(
            make_example1(), [a - 1 for a in doc["strategy_player_i"]],
            [a - 1 for a in doc["strategy_player_ii"]]).tolist()
        assert elapsed < 5.0


def test_criterion_2_example2_pipeline(tmp_path, capsys):
    with criterion(2, "example-2 pipeline: converged and certified at 1e-4, "
                      "< 5 s"):
        start = time.perf_counter()
        code, doc = solve_to_json(tmp_path, EX2, "e2")
        # the anchor's pair answers; the path it would follow converges
        result = trace(traced_problem(make_example2())[1])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert result.status is TraceStatus.CONVERGED
        truth = value_iteration(make_example2())
        assert np.max(np.abs(np.array(doc["value"]) - truth.v)) <= 1e-4
        assert doc["certificate"] == {"ineq_player_i": True,
                                      "ineq_player_ii": True}
        # the reported value is the pair's own exact value
        assert doc["value"] == evaluate_pure_pair(
            make_example2(), [a - 1 for a in doc["strategy_player_i"]],
            [a - 1 for a in doc["strategy_player_ii"]]).tolist()
        assert elapsed < 5.0
        # the reference endpoint recorded for this example, kept for
        # comparison only; it fails feasibility under this construction
        print("  reference x (not a pass criterion): "
              "(1, 0, 1, 0, 2, 3.33333, 0, 0); solver value:",
              np.round(doc["value"], 5).tolist())


def test_criterion_3_construction_check():
    with criterion(3, "construction: 8x4 block matrix, literal first row "
                      "and q, exact column copies"):
        inst = build_vlcp(make_example1())
        assert inst.A.shape == (8, 4)
        np.testing.assert_allclose(inst.A[0],
                                   [-0.25, 0.0, 0.75, 0.0])
        np.testing.assert_allclose(
            inst.q, [-4.0, -3.0, -5.0, -4.0, 3.0, 6.0, 6.0, 2.0])
        lcp = to_equivalent_lcp(inst)
        assert lcp.n == 8
        for j, rng in enumerate(lcp.J):
            for p in rng:
                assert np.array_equal(lcp.M[:, p], inst.A[:, j])


def test_criterion_4_class_membership_executable():
    with criterion(4, "membership check: unit-q enumeration unique on both "
                      "examples, < 1 s at n = 8"):
        for make in (make_example1, make_example2):
            lcp = to_equivalent_lcp(build_vlcp(make()))
            start = time.perf_counter()
            assert verify_vbe_e(lcp) is True
            assert time.perf_counter() - start < 1.0


def test_criterion_5_jacobian_suite():
    with criterion(5, "jacobians: 100-point finite-difference sweep <= 1e-5, "
                      "anchor determinant formula to 1e-10"):
        _, inst = traced_problem(make_example1())
        n = inst.n
        rng = np.random.default_rng(515)
        h = 1e-6
        worst = 0.0
        for _ in range(100):
            v0 = np.concatenate([rng.uniform(0.2, 3.0, n),
                                 rng.uniform(0.2, 3.0, n),
                                 rng.uniform(0.2, 3.0, n),
                                 [rng.uniform(0.05, 0.95)]])
            exact = jac_full(inst, v0)
            fd = np.empty_like(exact)
            for col in range(v0.size):
                vp, vm = v0.copy(), v0.copy()
                vp[col] += h
                vm[col] -= h
                fd[:, col] = (eval_H(inst, vp) - eval_H(inst, vm)) / (2 * h)
            rel = np.abs(exact - fd).max() / max(1.0, np.abs(exact).max())
            worst = max(worst, rel)
        assert worst <= 1e-5
        for t in (1.0, 0.5, 0.1):
            j0, det = jac_u0(inst, np.append(inst.v0[:-1], t))
            sign, logabs = np.linalg.slogdet(j0)
            det_lu = sign * np.exp(logabs)
            assert abs(det - det_lu) <= 1e-10 * abs(det_lu)


def test_criterion_6_homotopy_endpoints():
    with criterion(6, "endpoints: H(u0, 1) = 0 to 1e-13 scale, H(., 0) is "
                      "the limit system to machine precision"):
        _, inst = traced_problem(make_example1())
        scale = 1.0 + max(np.abs(inst.q).max(), np.abs(inst.v0[:-1]).max())
        assert np.abs(eval_H(inst, inst.v0)).max() <= 1e-13 * scale
        rng = np.random.default_rng(66)
        a, q, n = inst.A, inst.q, inst.n
        for _ in range(20):
            x, y1, y2 = rng.uniform(0.1, 4.0, (3, n))
            expected = np.concatenate([
                (a + a.T) @ x + q - y1 - a.T @ y2,
                y1 * x + x * (a @ x + q),
                y2 * (a @ x + q),
            ])
            v = np.concatenate([x, y1, y2, [0.0]])
            np.testing.assert_allclose(eval_H(inst, v), expected,
                                       rtol=0.0, atol=1e-12)


def test_criterion_7_tangent_sign():
    with criterion(7, "tangent: det(dH/du) > 0 at the anchor, negative "
                      "t-component and negative bordered determinant on "
                      "example 1 and 20 random problems"):
        instances = [traced_problem(make_example1())[1]]
        rng = np.random.default_rng(1212)
        while len(instances) < 21:
            n = int(rng.integers(2, 7))
            a = rng.normal(size=(n, n))
            x0 = rng.uniform(0.5, 2.0, n)
            y0 = rng.uniform(0.2, 1.5, n)
            q = y0 - a @ x0
            lcp_r = SquareLcp(M=a, q=q,
                              block_sizes=(1,) * n)
            instances.append(HomotopyInstance(lcp_r.M, lcp_r.q, x0))
        for inst in instances:
            tau, det_sign = tangent(inst, inst.v0)
            assert det_sign == 1
            assert tau[-1] < 0.0
            bordered = np.vstack([jac_full(inst, inst.v0), tau])
            sign, _ = np.linalg.slogdet(bordered)
            assert sign < 0


def test_criterion_8_corrector_order_probe():
    with criterion(8, "corrector order probe on the tracer's minimum-norm "
                      "route: single-pass order >= 4.5 over the 1e-1..1e-3 "
                      "ladder, < 1 s"):
        start = time.perf_counter()
        f, jac, d = corrector_probe()
        errs_in = [1e-1, 1e-2, 1e-3]
        errs_out = [
            float(np.linalg.norm(corrector_core(f, jac, e * d, passes=1)))
            for e in errs_in
        ]
        slopes = [
            (np.log(errs_out[k + 1]) - np.log(errs_out[k]))
            / (np.log(errs_in[k + 1]) - np.log(errs_in[k]))
            for k in range(len(errs_in) - 1)
        ]
        assert min(slopes) >= 4.5
        assert time.perf_counter() - start < 1.0
        print(f"  observed orders: {[round(float(s), 3) for s in slopes]}")


def test_criterion_9_random_game_certificates():
    with criterion(9, "25 random games: solve certifies all 25, the pair "
                      "of >= 24 traced |t| <= eps1 endpoints certifies, "
                      "certified values "
                      "match value iteration at 1e-4, enumeration always "
                      "matches, < 60 s"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260810)
        stages, endpoint = [], 0
        for k in range(25):
            game = random_arat_game(rng)
            assert validate(game).ok
            lcp = to_equivalent_lcp(build_vlcp(game))
            truth = value_iteration(game)

            # independent route: enumeration must contain a solution
            # recovering the oracle value and certified strategies; it
            # enumerates the unshifted problem on purpose, whose eta + xi
            # is the game's value
            matched = False
            for z, w in enumerate_lcp(lcp.M, lcp.q):
                report = certify(game, *recover_vlcp_solution(lcp, w))
                x = block_sums(lcp, z)
                eta_xi = x[:game.d] + x[game.d:]
                if (np.abs(eta_xi - truth.v).max() <= 1e-6
                        and np.abs(eta_xi - report.value).max() <= 1e-6
                        and report.passed):
                    matched = True
                    break
            assert matched, f"game {k}: enumeration lacks a certified solution"

            # the shipped pipeline, as the solve verb runs it
            answer = cli.solve(game)
            assert answer.passed, (
                f"game {k}: stage {answer.stage}: "
                f"{answer.certificate.violations[:1]}")
            value = answer.certificate.value
            assert np.abs(value - truth.v).max() <= 1e-4, (
                f"game {k}: certified value {value} is not the "
                f"oracle's {truth.v}"
            )
            stages.append(answer.stage)

            # the path solve follows, traced to t = 0 even where the
            # anchor's pair answers: its endpoint's pair certifies
            traced, inst = traced_problem(game)
            result = trace(inst)
            if (result.status is TraceStatus.CONVERGED and certify(
                    game, *extract_solution(result.path[-1].x,
                                            traced)).passed):
                endpoint += 1
            else:
                print(f"  game {k:02d}: {result.status.value} path, "
                      f"answered at stage {answer.stage}")
        elapsed = time.perf_counter() - start
        print(f"  certified 25/25, {stages.count('path')} at stage path, "
              f"{endpoint} endpoints certify, in {elapsed:.1f} s")
        assert elapsed < 60.0
        assert len(stages) == 25
        assert endpoint >= 24


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "determinism: byte-identical JSON and CSV across "
                       "repeated solve runs"):
        # a small_mix pool game whose anchor pair fails, so its path is
        # traced (65 steps) and written
        game = str(FIXTURES / "small_mix_30.json")
        blobs = []
        for k in range(2):
            json_path = tmp_path / f"d{k}.json"
            csv_path = tmp_path / f"d{k}.csv"
            code = cli.main(["solve", game, "--json-out", str(json_path),
                             "--trace", str(csv_path)])
            assert code == 0
            blobs.append((json_path.read_bytes(), csv_path.read_bytes()))
        assert blobs[0] == blobs[1]
