from __future__ import annotations

import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arat_homotopy import oracle
from arat_homotopy.errors import SizeGuardExceeded
from arat_homotopy.game_model import AratGame, validate
from arat_homotopy.oracle import (
    certify,
    enumerate_lcp,
    evaluate_pure_pair,
    one_shot_payoffs,
    value_iteration,
)
from arat_homotopy.vlcp_builder import build_vlcp, recover_vlcp_solution, to_equivalent_lcp
from conftest import (
    certify_per_state,
    enumerate_lcp_all_supports,
    make_example1,
    make_example2,
    per_state_payoffs,
    pure_saddle,
    random_arat_game,
    shifted_game,
    stage_matrix,
    value_iteration_sup_norm,
)


class TestValueIteration:
    def test_example1_value_and_strategies(self, example1):
        # independent oracle: for the pure pair ((1,1),(1,2)) the policy
        # system reads v1 = 7 + v1/2 and v2 = 7 + v1/4 + v2/4, giving
        # v = (14, 14); the saddle inequalities were checked by hand
        sol = value_iteration(example1)
        np.testing.assert_allclose(sol.v, [14.0, 14.0], atol=1e-9)
        assert sol.strategy_i == (0, 0)
        assert sol.strategy_ii == (0, 1)
        assert sol.residual <= 1e-9

    def test_example2_value_and_strategies(self, example2):
        # same fixed-point algebra: v1 = 7 + v1/2, v2 = 7 + v1/4 + v2/4
        sol = value_iteration(example2)
        np.testing.assert_allclose(sol.v, [14.0, 14.0], atol=1e-9)
        assert sol.strategy_i == (0, 0)
        assert sol.strategy_ii == (0, 1)

    def test_zero_discount_reduces_to_matrix_game(self, example1):
        # pure saddles of [[7,10],[6,9]] and [[11,7],[10,6]] are both 7
        game = dataclasses.replace(example1, beta=0.0)
        sol = value_iteration(game)
        np.testing.assert_allclose(sol.v, [7.0, 7.0], atol=1e-12)

    def test_constant_reward_fixed_point(self):
        # r == 3 everywhere and beta = 1/2 gives v = 3 / (1 - 1/2) = 6
        game = AratGame(
            beta=0.5,
            r1=([1.0, 1.0], [1.0]),
            r2=([2.0], [2.0, 2.0]),
            p1=(
                [[0.25, 0.25], [0.25, 0.25]],
                [[0.5, 0.0]],
            ),
            p2=(
                [[0.5, 0.0]],
                [[0.25, 0.25], [0.0, 0.5]],
            ),
        )
        sol = value_iteration(game, tol=1e-12)
        np.testing.assert_allclose(sol.v, [6.0, 6.0], atol=1e-10)

    def test_agrees_with_pure_pair_evaluation(self, example1, example2):
        for game in (example1, example2):
            sol = value_iteration(game)
            v = evaluate_pure_pair(game, sol.strategy_i, sol.strategy_ii)
            np.testing.assert_allclose(v, sol.v, atol=1e-10)

    def test_no_pure_saddle_raises(self):
        with pytest.raises(ValueError):
            pure_saddle(np.array([[1.0, -1.0], [-1.0, 1.0]]))

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
    def test_tol_must_be_positive(self, example1, tol):
        # a NaN tol would pass "tol <= 0" and sweep to MaxIterExceeded
        with pytest.raises(ValueError, match="tol must be positive"):
            value_iteration(example1, tol=tol)

    def test_example1_stops_after_one_sweep(self, example1):
        # the greedy pair of the first sweep from v = 0 is optimal, so
        # its check passes at v* = 7 + 7 beta / (1 - beta) = 14 at once
        sol = value_iteration(example1)
        assert sol.iterations == 1
        np.testing.assert_allclose(sol.v, [14.0, 14.0], rtol=0, atol=1e-12)

    def test_max_iter_exceeded(self):
        # the greedy pairs of this game's first two sweeps fail the check
        from arat_homotopy.errors import MaxIterExceeded
        game = random_arat_game(np.random.default_rng(2), d_max=4,
                                actions_max=3, betas=(0.99,))
        assert value_iteration(game).iterations == 3
        with pytest.raises(MaxIterExceeded):
            value_iteration(game, max_iter=2)

    def test_stage_matrix_example1(self, example1):
        q1 = stage_matrix(example1, 0, np.array([14.0, 14.0]))
        np.testing.assert_allclose(q1, [[14.0, 17.0], [13.0, 16.0]])

    @pytest.mark.parametrize("player", ["I", "II"])
    def test_player_without_actions_raises(self, example1, player):
        r, p = ("r1", "p1") if player == "I" else ("r2", "p2")
        game = dataclasses.replace(example1, **{
            r: (getattr(example1, r)[0], np.zeros(0)),
            p: (getattr(example1, p)[0], np.zeros((0, 2))),
        })
        with pytest.raises(ValueError,
                           match=f"state 2: player {player} has no actions"):
            value_iteration(game)


def _brute_force_sweep(game: AratGame, v: np.ndarray):
    """Per-state pure saddle of the entry-by-entry stage matrix at v."""
    saddles = [pure_saddle(stage_matrix(game, s, v)) for s in range(game.d)]
    return (np.array([val for val, _, _ in saddles]),
            tuple(i for _, i, _ in saddles),
            tuple(j for _, _, j in saddles))


def _duplicated_actions(game: AratGame) -> AratGame:
    """Every action of both players listed twice in a row."""
    return AratGame(
        beta=game.beta,
        r1=tuple(np.repeat(a, 2) for a in game.r1),
        r2=tuple(np.repeat(a, 2) for a in game.r2),
        p1=tuple(np.repeat(a, 2, axis=0) for a in game.p1),
        p2=tuple(np.repeat(a, 2, axis=0) for a in game.p2),
    )


class TestStackedSweepParity:
    """The separable sweep against the brute-force stage-matrix saddle."""

    def _assert_matches_brute_force(self, game):
        # tol=inf passes the check on the greedy pair of the first sweep
        # from v = 0 and returns that pair's own value; the residual
        # comes from one more sweep at that value
        sol = value_iteration(game, tol=np.inf)
        assert sol.iterations == 1
        _, si, sii = _brute_force_sweep(game, np.zeros(game.d))
        assert sol.strategy_i == si
        assert sol.strategy_ii == sii
        v_pair = evaluate_pure_pair(game, si, sii)
        np.testing.assert_allclose(sol.v, v_pair, rtol=0,
                                   atol=1e-12 * (1 + np.abs(v_pair).max()))
        v2, _, _ = _brute_force_sweep(game, sol.v)
        assert abs(sol.residual - np.abs(v2 - sol.v).max()) <= \
            1e-12 * (1 + np.abs(v2).max())
        # at the fixed point the brute-force saddle reproduces v and pair
        sol = value_iteration(game)
        v_fix, si, sii = _brute_force_sweep(game, sol.v)
        np.testing.assert_allclose(v_fix, sol.v, rtol=0,
                                   atol=1e-9 * (1 + np.abs(sol.v).max()))
        assert sol.strategy_i == si
        assert sol.strategy_ii == sii
        return sol

    @given(seed=st.integers(0, 2**32 - 1),
           d_max=st.integers(1, 5),
           actions_max=st.integers(1, 4),
           beta=st.sampled_from([0.0, 0.5, 0.99]))
    @settings(max_examples=60, deadline=None)
    def test_random_games(self, seed, d_max, actions_max, beta):
        game = random_arat_game(np.random.default_rng(seed), d_max=d_max,
                                actions_max=actions_max, betas=(beta,))
        self._assert_matches_brute_force(game)

    @pytest.mark.parametrize("base", [
        make_example1(),
        random_arat_game(np.random.default_rng(11), d_max=4, actions_max=3,
                         betas=(0.5,)),
    ], ids=["example1", "random"])
    def test_duplicated_actions_take_the_first_copy(self, base):
        sol = value_iteration(base)
        dup = self._assert_matches_brute_force(_duplicated_actions(base))
        assert dup.strategy_i == tuple(2 * i for i in sol.strategy_i)
        assert dup.strategy_ii == tuple(2 * j for j in sol.strategy_ii)
        np.testing.assert_allclose(dup.v, sol.v, rtol=1e-12)


class TestBracketStop:
    """The greedy-pair check stop (which replaced a bracket stop) against
    the sup-norm stop and its error bound."""

    @pytest.mark.parametrize("beta", [0.5, 0.9, 0.99, 0.999])
    def test_matches_sup_norm_reference(self, beta):
        rng = np.random.default_rng(int(beta * 1000))
        for _ in range(8):
            game = random_arat_game(rng, d_max=6, actions_max=3,
                                    betas=(beta,))
            sol = value_iteration(game)
            ref = value_iteration_sup_norm(game)
            assert sol.strategy_i == ref.strategy_i
            assert sol.strategy_ii == ref.strategy_ii
            np.testing.assert_allclose(
                sol.v, ref.v, rtol=0,
                atol=1e-10 * (1 + np.abs(ref.v).max()))
            assert sol.iterations <= ref.iterations

    @pytest.mark.parametrize("beta", [0.99, 0.999, 0.9999])
    def test_guarantee_with_row_sum_above_one(self, beta):
        # a valid game whose composed row sums to 1 + 0.9e-12, near the
        # 1e-12 that validate allows: the returned value is still within
        # tol / 2 (1 + |v|) of v* = 2 / (1 - beta s) at these discounts
        game = AratGame(beta=beta, r1=([1.0],), r2=([1.0],),
                        p1=([[0.5]],), p2=([[0.5 + 0.9e-12]],))
        assert validate(game).ok
        s = 0.5 + (0.5 + 0.9e-12)
        tol = 1e-10
        v = value_iteration(game, tol=tol).v[0]
        assert abs(v - 2.0 / (1.0 - beta * s)) <= tol / 2 * (1 + abs(v))

    @pytest.mark.parametrize("beta", [0.99, 0.999, 0.9999])
    def test_exact_ties_take_the_first_copy(self, beta):
        # the two copies of a duplicated action tie exactly in every
        # sweep, so the doubled game checks the first copies of the
        # undoubled game's pairs, in the same sweeps
        rng = np.random.default_rng(round(beta * 10_000))
        for _ in range(10):
            base = random_arat_game(rng, d_max=12, actions_max=3,
                                    betas=(beta,))
            sol = value_iteration(base)
            dup = value_iteration(_duplicated_actions(base))
            assert dup.strategy_i == tuple(2 * i for i in sol.strategy_i)
            assert dup.strategy_ii == tuple(2 * j for j in sol.strategy_ii)
            assert dup.iterations == sol.iterations <= 5
            np.testing.assert_allclose(dup.v, sol.v, rtol=1e-12)

    @pytest.mark.parametrize("beta, reward", [(0.9999, 10.0), (0.99, 1000.0)])
    def test_cancelling_rewards_stop_after_one_sweep(self, beta, reward):
        # the only pair's value w = 0 is exact and so are both gains at
        # it, so the check passes after one sweep, although its eps
        # scales with max |w| = 0 and not with the stacked entries
        game = AratGame(beta=beta, r1=([reward],), r2=([-reward],),
                        p1=([[0.5]],), p2=([[0.5]],))
        assert validate(game).ok
        sol = value_iteration(game)
        assert sol.v.tolist() == [0.0]
        assert sol.iterations == 1


class TestShiftCovariance:
    def test_value_shifts_by_constant_over_one_minus_beta(self, example1):
        c1, c2 = 2.5, -1.25
        base = value_iteration(example1, tol=1e-11)
        shifted = value_iteration(shifted_game(example1, c1, c2),
                                  tol=1e-11)
        offset = (c1 + c2) / (1.0 - example1.beta)
        np.testing.assert_allclose(shifted.v, base.v + offset, atol=1e-8)
        assert shifted.strategy_i == base.strategy_i
        assert shifted.strategy_ii == base.strategy_ii


class TestEvaluatePurePair:
    def test_example1_optimal_pair(self, example1):
        np.testing.assert_allclose(
            evaluate_pure_pair(example1, (0, 0), (0, 1)), [14.0, 14.0]
        )

    def test_zero_discount_returns_stage_reward(self, example1):
        game = dataclasses.replace(example1, beta=0.0)
        np.testing.assert_allclose(
            evaluate_pure_pair(game, (0, 0), (0, 1)), [7.0, 7.0]
        )

    def test_absorbing_single_state_geometric_series(self):
        game = AratGame(beta=0.5, r1=([0.5],), r2=([0.5],),
                        p1=([[0.5]],), p2=([[0.5]],))
        np.testing.assert_allclose(evaluate_pure_pair(game, (0,), (0,)), [2.0])

    @pytest.mark.parametrize("action", [0.5, 0.0, True, "0"])
    @pytest.mark.parametrize("check", [evaluate_pure_pair, certify])
    def test_non_integer_action_raises(self, example1, check, action):
        with pytest.raises(ValueError,
                           match=f"state 2: player-II action index "
                                 f"{re.escape(repr(action))} is not in"):
            check(example1, (0, 0), (0, action))
        with pytest.raises(ValueError, match="state 1: player-I action"):
            check(example1, (action, 0), (0, 1))


class TestEnumerateLcp:
    def test_identity_negative_q(self):
        n = 4
        sols = enumerate_lcp(np.eye(n), -np.ones(n))
        assert len(sols) == 1
        z, w = sols[0]
        np.testing.assert_allclose(z, np.ones(n))
        np.testing.assert_allclose(w, np.zeros(n))

    def test_nonnegative_q_contains_trivial_solution(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(5, 5))
        q = rng.uniform(0.1, 1.0, size=5)
        sols = enumerate_lcp(m, q)
        assert any(
            np.allclose(z, 0.0) and np.allclose(w, q) for z, w in sols
        )

    def test_example1_contains_expected_solution(self, example1):
        lcp = to_equivalent_lcp(build_vlcp(example1))
        sols = enumerate_lcp(lcp.M, lcp.q)
        z_expect = np.array([6.5, 0.0, 5.5, 0.0, 7.5, 0.0, 0.0, 8.5])
        w_expect = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 3.0, 4.0, 0.0])
        assert any(
            np.allclose(z, z_expect, atol=1e-9)
            and np.allclose(w, w_expect, atol=1e-9)
            for z, w in sols
        )

    def test_solutions_satisfy_lcp_conditions(self, example2):
        lcp = to_equivalent_lcp(build_vlcp(example2))
        sols = enumerate_lcp(lcp.M, lcp.q)
        assert sols
        for z, w in sols:
            np.testing.assert_allclose(w, lcp.M @ z + lcp.q, atol=1e-10)
            assert min(z.min(), w.min()) >= -1e-10
            assert abs(z @ w) <= 1e-10

    @staticmethod
    def _assert_same(got, want):
        assert len(got) == len(want)
        for (z, w), (z_ref, w_ref) in zip(got, want):
            np.testing.assert_array_equal(z, z_ref)
            np.testing.assert_array_equal(w, w_ref)

    @pytest.mark.parametrize("make", [make_example1, make_example2])
    def test_matches_all_supports_on_examples(self, make):
        lcp = to_equivalent_lcp(build_vlcp(make()))
        self._assert_same(enumerate_lcp(lcp.M, lcp.q),
                          enumerate_lcp_all_supports(lcp.M, lcp.q))

    def test_matches_all_supports_on_random_games(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 12:
            game = random_arat_game(rng, d_max=3, actions_max=2)
            lcp = to_equivalent_lcp(build_vlcp(game))
            if lcp.n > 12:
                continue
            self._assert_same(enumerate_lcp(lcp.M, lcp.q),
                              enumerate_lcp_all_supports(lcp.M, lcp.q))
            checked += 1

    def test_matches_all_supports_with_repeated_and_zero_columns(self):
        # columns 0, 2 and 5 are equal, 1 and 4 are equal, 3 is zero
        rng = np.random.default_rng(5)
        base = rng.normal(size=(6, 3))
        m = np.column_stack([base[:, 0], base[:, 1], base[:, 0],
                             np.zeros(6), base[:, 1], base[:, 0]])
        for _ in range(20):
            q = rng.normal(size=6)
            self._assert_same(enumerate_lcp(m, q),
                              enumerate_lcp_all_supports(m, q))

    @pytest.mark.parametrize("zero_column, unscreened", [
        (False, False), (True, False), (True, True)])
    def test_matches_all_supports_across_chunks(self, monkeypatch,
                                                zero_column, unscreened):
        # n = 15 distinct columns: 6,435 supports each of sizes 7 and 8,
        # more than one stacked chunk; a zero column makes a singular
        # system in every chunk that holds it, and with slogdet made to
        # call every system regular those chunks raise and are solved one
        # system at a time
        assert math.comb(15, 7) > oracle._CHUNK
        if unscreened:
            monkeypatch.setattr(np.linalg, "slogdet", lambda a: (
                np.ones(a.shape[:-2]), np.zeros(a.shape[:-2])))
        rng = np.random.default_rng(21)
        m = rng.normal(size=(15, 15)) + 4.0 * np.eye(15)
        if zero_column:
            m[:, 6] = 0.0
        q = rng.normal(size=15)
        self._assert_same(enumerate_lcp(m, q),
                          enumerate_lcp_all_supports(m, q))

    def test_matches_grouped_supports_past_63_columns(self):
        # one state with 32 actions per player: n = 64, and 33^2 supports
        # whose bitmasks do not fit an int64
        rng = np.random.default_rng(8)
        game = AratGame(beta=0.9, r1=(rng.uniform(0.5, 6.0, 32),),
                        r2=(rng.uniform(0.5, 6.0, 32),),
                        p1=(np.full((32, 1), 0.25),),
                        p2=(np.full((32, 1), 0.75),))
        lcp = to_equivalent_lcp(build_vlcp(game))
        assert lcp.n == 64
        masks = [sum(bits) for bits in itertools.product(
            *([0] + [1 << i for i in block] for block in lcp.J))]
        self._assert_same(enumerate_lcp(lcp.M, lcp.q, guard=64),
                          enumerate_lcp_all_supports(lcp.M, lcp.q, masks))

    @staticmethod
    def _count_solves(monkeypatch, m, q) -> int:
        # systems solved: a stacked call counts its leading dimension
        shapes = []
        solve = np.linalg.solve

        def counting_solve(a, b):
            shapes.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        enumerate_lcp(m, q)
        return sum(math.prod(shape[:-2]) for shape in shapes)

    def test_visits_one_column_per_block_on_example1(self, monkeypatch):
        # four blocks of two equal columns: 3^4 supports, and the empty
        # one needs no solve; all 2^8 supports would take 255 solves
        lcp = to_equivalent_lcp(build_vlcp(make_example1()))
        assert self._count_solves(monkeypatch, lcp.M, lcp.q) == 80

    def test_visits_every_support_without_equal_columns(self, monkeypatch):
        assert self._count_solves(monkeypatch, np.eye(5),
                                  -np.ones(5)) == 2 ** 5 - 1

    def test_guard(self):
        with pytest.raises(SizeGuardExceeded):
            enumerate_lcp(np.eye(30), np.ones(30))

    def test_sorted_and_deduplicated(self):
        # degenerate problem with many supports giving the same point
        m = np.eye(3)
        q = np.zeros(3)
        sols = enumerate_lcp(m, q)
        assert len(sols) == 1
        keys = [tuple(z) + tuple(w) for z, w in sols]
        assert keys == sorted(keys)


class TestCertify:
    def _candidate(self, game):
        lcp = to_equivalent_lcp(build_vlcp(game))
        _, w = enumerate_lcp(lcp.M, lcp.q)[0]
        return recover_vlcp_solution(lcp, w)

    def test_example1_enumerated_solution_passes(self, example1):
        report = certify(example1, *self._candidate(example1))
        assert report.passed
        assert report.violations == ()

    def test_report_holds_the_pair_and_its_exact_value(self, example1):
        # the value is the one evaluation of the pair, bit for bit, and
        # the pair comes back as tuples of Python ints
        si, sii = np.array([0, 0]), [np.int64(0), np.int64(1)]
        report = certify(example1, si, sii)
        assert report.strategy_i == (0, 0)
        assert report.strategy_ii == (0, 1)
        assert all(type(a) is int
                   for a in report.strategy_i + report.strategy_ii)
        assert np.array_equal(report.value,
                              evaluate_pure_pair(example1, si, sii))
        np.testing.assert_allclose(report.value, [14.0, 14.0], atol=1e-12)

    def test_negative_action_index_raises(self, example1):
        # a negative index would wrap round to another action
        with pytest.raises(ValueError,
                           match="state 1: player-I action index -2 is not in 0..1"):
            certify(example1, (-2, 0), (0, 1))
        with pytest.raises(ValueError,
                           match="state 2: player-II action index -1 is not in 0..1"):
            certify(example1, (0, 0), (0, -1))

    def test_extra_strategy_entries_raise(self, example1):
        with pytest.raises(ValueError, match=("player-I strategy has length 3, "
                                              "need one action for each of 2")):
            certify(example1, (0, 0, 5), (0, 1, 7))

    def test_short_strategy_raises_in_pair_evaluation(self, example1):
        with pytest.raises(ValueError, match=("player-I strategy has length 1, "
                                              "need one action for each of 2")):
            evaluate_pure_pair(example1, (0,), (0, 1))

    def test_non_saddle_strategies_fail_with_deviation_listed(self, example1):
        strategy_i, _ = self._candidate(example1)
        report = certify(example1, strategy_i, (1, 0))
        assert not report.passed
        assert any("deviation" in v for v in report.violations)


_VIOLATION = re.compile(r"state (\d+): player-(I|II) deviation [ij]=(\d+) "
                        r"attains (\S+) [<>] value \S+$")


def _violations(report):
    """(state, player, action), 1-based, and the payoff of each
    deviation line of a certificate, in report order."""
    keys, payoffs = [], []
    for line in report.violations:
        state, player, action, payoff = _VIOLATION.match(line).groups()
        keys.append((int(state), player, int(action)))
        payoffs.append(float(payoff))
    return keys, np.array(payoffs)


def _random_pair(rng, game):
    """A random pure pair, or with probability 1/4 value iteration's."""
    if rng.random() < 0.25:
        sol = value_iteration(game)
        return sol.strategy_i, sol.strategy_ii
    return ([int(rng.integers(m)) for m in game.m1],
            [int(rng.integers(m)) for m in game.m2])


class TestCertifyParity:
    """The stacked certificate against the per-state reference loop."""

    def test_random_pairs_match_the_per_state_loop(self):
        rng = np.random.default_rng(2024)
        failing = 0
        for _ in range(2500):
            game = random_arat_game(rng, d_max=8, actions_max=3,
                                    betas=(0.3, 0.5, 0.9, 0.99))
            si, sii = _random_pair(rng, game)
            report, reference = certify(game, si, sii), \
                certify_per_state(game, si, sii)
            assert (report.passed, report.ineq_player_i,
                    report.ineq_player_ii) == (reference.passed,
                                               reference.ineq_player_i,
                                               reference.ineq_player_ii)
            assert np.array_equal(report.value, reference.value)
            keys, payoffs = _violations(report)
            ref_keys, ref_payoffs = _violations(reference)
            assert keys == ref_keys
            # the one stacked product may round each payoff differently
            assert np.all(np.abs(payoffs - ref_payoffs)
                          <= 4 * np.spacing(np.abs(ref_payoffs)))
            failing += not reference.passed
        assert 1000 < failing < 2000  # both verdicts are exercised (1722)


def _one_state(r1, r2, p1, p2, beta=0.5):
    return AratGame(beta=beta, r1=(r1,), r2=(r2,), p1=(p1,), p2=(p2,))


class TestOneShotPayoffs:
    def test_payoffs_match_the_per_state_reference(self):
        # game.r order: player I's rows state by state, then player II's
        rng = np.random.default_rng(34)
        for _ in range(200):
            game = random_arat_game(rng, d_max=4, actions_max=3)
            si = tuple(int(rng.integers(m)) for m in game.m1)
            sii = tuple(int(rng.integers(m)) for m in game.m2)
            v, payoff, slack = one_shot_payoffs(game, si, sii)
            assert np.array_equal(v, evaluate_pure_pair(game, si, sii))
            per_state = per_state_payoffs(game, si, sii, v)
            reference = np.concatenate([rows for rows, _ in per_state]
                                       + [cols for _, cols in per_state])
            assert payoff.shape == game.r.shape
            # the one stacked product may round the last digit differently
            assert np.all(np.abs(payoff - reference)
                          <= 4 * np.spacing(np.abs(reference)))
            assert slack == 1e-9 * (1.0 + float(np.abs(v).max()))

    @pytest.mark.parametrize("game", [
        _one_state([1e308], [1e308], [[0.5]], [[0.5]]),
        _one_state([1e308], [-1.0], [[1.0]], [[0.0]]),
    ], ids=["reward-sum-overflows", "value-overflows"])
    def test_slack_of_an_infinite_value_is_the_bare_tolerance(self, game):
        # max |v| runs over the finite entries of v, here none
        v, _, slack = one_shot_payoffs(game, (0,), (0,))
        assert v.tolist() == [math.inf]
        assert slack == 1e-9


class TestCertifyNonFinite:
    """A value or a payoff that is not finite fails, without a warning."""

    @pytest.mark.parametrize("game", [
        _one_state([1e308], [1e308], [[0.5]], [[0.5]]),
        _one_state([1e308], [-1.0], [[1.0]], [[0.0]]),
    ], ids=["reward-sum-overflows", "value-overflows"])
    def test_infinite_value_fails_both_players(self, game):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = certify(game, (0,), (0,))
        assert report.value.tolist() == [math.inf]
        assert not report.passed
        assert not report.ineq_player_i and not report.ineq_player_ii
        assert report.violations == ("state 1: value inf is not finite",)

    @pytest.mark.parametrize("game", [
        _one_state([1e308], [1e308], [[0.5]], [[0.5]]),
        _one_state([1e308], [-1.0], [[1.0]], [[0.0]]),
    ], ids=["reward-sum-overflows", "value-overflows"])
    def test_evaluate_pure_pair_alone_returns_inf_without_a_warning(self,
                                                                    game):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = evaluate_pure_pair(game, (0,), (0,))
        assert not np.isfinite(value).any()

    @pytest.mark.parametrize("r1, r2, payoff", [
        ([-1e308, 1e308], [1e308], "inf"),
        ([1e308, -1e308], [-1e308], "-inf"),
    ])
    def test_infinite_payoff_fails_its_own_player(self, r1, r2, payoff):
        # the pair's rewards cancel (v = 0); player I's second action
        # overflows, upward as a gain and downward as a loss alike
        game = _one_state(r1, r2, [[0.5], [0.5]], [[0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = certify(game, (0,), (0,))
        assert report.value.tolist() == [0.0]
        assert not report.ineq_player_i and report.ineq_player_ii
        assert report.violations == (
            f"state 1: player-I deviation i=2 attains {payoff}, which is "
            f"not finite",)


def _relabelled(game, rng):
    """The game with its states and each block's actions permuted, and
    the maps of states and of (state, player) actions, old to new."""
    states = rng.permutation(game.d)
    r1, r2, p1, p2, actions = [], [], [], [], {}
    for s in states:
        for player, r, p, r_out, p_out in (
                ("I", game.r1[s], game.p1[s], r1, p1),
                ("II", game.r2[s], game.p2[s], r2, p2)):
            rows = rng.permutation(r.size)
            actions[s, player] = np.argsort(rows)
            r_out.append(r[rows])
            p_out.append(p[rows][:, states])
    return (AratGame(beta=game.beta, r1=tuple(r1), r2=tuple(r2),
                     p1=tuple(p1), p2=tuple(p2)),
            np.argsort(states), actions)


def _near_tie(c):
    """Player I's second action gains 1e-4 c against the pair (1, 1)."""
    return _one_state(np.array([1.0, 1.0 + 1e-4]) * c, np.array([1.0]) * c,
                      [[0.5], [0.5]], [[0.5]])


class TestCertifyMetamorphic:
    """Transformed games whose certificate is known from the original."""

    def test_relabelling_maps_verdict_and_violations(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            game = random_arat_game(rng, d_max=5, actions_max=3)
            si, sii = _random_pair(rng, game)
            report = certify(game, si, sii)
            new, state_map, action_map = _relabelled(game, rng)
            new_si = [0] * game.d
            new_sii = [0] * game.d
            for s in range(game.d):
                new_si[state_map[s]] = int(action_map[s, "I"][si[s]])
                new_sii[state_map[s]] = int(action_map[s, "II"][sii[s]])
            moved = certify(new, new_si, new_sii)
            assert (moved.ineq_player_i, moved.ineq_player_ii) == (
                report.ineq_player_i, report.ineq_player_ii)
            np.testing.assert_allclose(moved.value[state_map], report.value,
                                       rtol=1e-12)
            mapped = sorted(
                (int(state_map[s - 1]) + 1, player,
                 int(action_map[s - 1, player][a - 1]) + 1)
                for s, player, a in _violations(report)[0])
            assert sorted(_violations(moved)[0]) == mapped

    def test_rewards_times_two_to_the_twenty(self):
        # scaling by a power of two is exact in every product and sum
        rng = np.random.default_rng(78)
        for _ in range(300):
            game = random_arat_game(rng, d_max=5, actions_max=3)
            si, sii = _random_pair(rng, game)
            report = certify(game, si, sii)
            scaled = certify(AratGame(
                beta=game.beta, r1=tuple(r * 2.0**20 for r in game.r1),
                r2=tuple(r * 2.0**20 for r in game.r2), p1=game.p1,
                p2=game.p2), si, sii)
            assert np.array_equal(scaled.value, report.value * 2.0**20)
            assert (scaled.ineq_player_i, scaled.ineq_player_ii) == (
                report.ineq_player_i, report.ineq_player_ii)
            keys, payoffs = _violations(report)
            scaled_keys, scaled_payoffs = _violations(scaled)
            assert scaled_keys == keys
            assert np.array_equal(scaled_payoffs, payoffs * 2.0**20)

    def test_near_tie_fails_at_unit_scale(self):
        report = certify(_near_tie(1.0), (0,), (0,))
        assert not report.passed
        assert _violations(report)[0] == [(1, "I", 2)]

    @pytest.mark.xfail(strict=True, reason=(
        "the slack 1e-9 (1 + max |v|) has an absolute part: at rewards "
        "x 2^-20 the gain of 1e-4 x 2^-20 falls below 1e-9 and the pair "
        "passes; the exact certificate decides this pair"))
    def test_near_tie_fails_at_every_power_of_two(self):
        report = certify(_near_tie(2.0**-20), (0,), (0,))
        assert not report.passed
