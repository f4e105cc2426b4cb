from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arat_homotopy.game_model import AratGame, validate

from conftest import (
    assert_same_store,
    composed_reward,
    composed_transition,
    make_example1,
    shifted_game,
    validate_per_state,
)


def reward_matrix(game, s):
    return np.array(
        [[composed_reward(game, s, i, j) for j in range(game.m2[s])]
         for i in range(game.m1[s])]
    )


class TestValidate:
    def test_example1_is_valid(self, example1):
        report = validate(example1)
        assert report.ok
        assert report.violations == []
        assert str(report) == "valid additive game"

    def test_example2_is_valid(self, example2):
        assert validate(example2).ok

    def test_row_sum_violation(self):
        # 0.5 + 0.6 = 1.1 exceeds 1 by construction
        game = AratGame(
            beta=0.5,
            r1=([1.0], [1.0]),
            r2=([1.0], [1.0]),
            p1=([[0.5, 0.0]], [[0.0, 0.5]]),
            p2=([[0.6, 0.0]], [[0.5, 0.0]]),
        )
        report = validate(game)
        assert not report.ok
        assert any("1.1" in v and "!= 1" in v for v in report.violations)
        assert not any("np.float64" in v for v in report.violations)

    def test_zero_row_consistency_violation(self):
        # second player-II row all zero while the first is not
        game = AratGame(
            beta=0.5,
            r1=([1.0], [1.0]),
            r2=([1.0, 2.0], [1.0]),
            p1=([[0.5, 0.0]], [[0.0, 0.5]]),
            p2=([[0.5, 0.0], [0.0, 0.0]], [[0.5, 0.0]]),
        )
        report = validate(game)
        assert any("zero-row consistency" in v for v in report.violations)

    def test_negative_probability_reported_with_index(self):
        game = AratGame(
            beta=0.5,
            r1=([1.0], [1.0]),
            r2=([1.0], [1.0]),
            p1=([[-0.25, 0.5]], [[0.0, 0.5]]),
            p2=([[0.5, 0.25]], [[0.5, 0.0]]),
        )
        report = validate(game)
        assert any("negative" in v and "p1[1][1]" in v for v in report.violations)
        assert any("= -0.25 is negative" in v for v in report.violations)
        assert not any("np.float64" in v for v in report.violations)

    @pytest.mark.parametrize("edit, message", [
        ("r1_nan", "state 1: r1[2] = nan is not finite"),
        ("p2_nan", "state 2: p2[1][2] = nan is not finite"),
        ("r2_inf", "state 1: r2[1] = inf is not finite"),
    ])
    def test_non_finite_entry_reported_with_index(self, example1, edit,
                                                   message):
        r1 = [a.copy() for a in example1.r1]
        r2 = [a.copy() for a in example1.r2]
        p2 = [a.copy() for a in example1.p2]
        if edit == "r1_nan":
            r1[0][1] = np.nan
        elif edit == "p2_nan":
            p2[1][0, 1] = np.nan
        else:
            r2[0][0] = np.inf
        game = AratGame(beta=example1.beta, r1=tuple(r1), r2=tuple(r2),
                        p1=example1.p1, p2=tuple(p2))
        report = validate(game)
        assert not report.ok
        assert message in report.violations

    def test_beta_out_of_range(self):
        game = AratGame(
            beta=1.0,
            r1=([1.0],),
            r2=([1.0],),
            p1=([[0.5]],),
            p2=([[0.5]],),
        )
        assert any("beta" in v for v in validate(game).violations)

    def test_single_state_game_valid(self):
        game = AratGame(beta=0.5, r1=([1.0],), r2=([1.0],),
                        p1=([[0.5]],), p2=([[0.5]],))
        assert validate(game).ok

    @pytest.mark.parametrize("player", ["I", "II"])
    def test_player_without_actions_reported(self, example1, player):
        r, p = ("r1", "p1") if player == "I" else ("r2", "p2")
        game = dataclasses.replace(example1, **{
            r: (np.zeros(0), getattr(example1, r)[1]),
            p: (np.zeros((0, 2)), getattr(example1, p)[1]),
        })
        report = validate(game)
        assert not report.ok
        assert f"state 1: player {player} has no actions" in report.violations

    def test_report_text_and_order(self):
        # one game with every kind of violation but a state without
        # actions: the report is checked line by line, in order
        nan, inf = np.nan, np.inf
        game = AratGame(
            beta=1.0,
            r1=([nan, 1.0], [1.0]),
            r2=([2.0, -inf], [1.0, 2.0, 3.0]),
            p1=([[0.5, -0.25], [0.25, 0.25]], [[nan, 0.5]]),
            p2=([[0.5, 0.0], [0.25, inf]],
                [[0.75, -0.25], [0.0, 0.0], [0.5, 0.0]]),
        )
        assert validate(game).violations == [
            "discount beta=1.0 is not in (0, 1)",
            "state 1: r1[1] = nan is not finite",
            "state 1: r2[2] = -inf is not finite",
            "state 1: p1[1][2] = -0.25 is negative",
            "state 1: p2[2][2] = inf is not finite",
            "state 2: p1[1][1] = nan is not finite",
            "state 2: p2[1][2] = -0.25 is negative",
            "state 1, actions (i=1, j=1): row sum 0.75 != 1",
            "state 1, actions (i=1, j=2): row sum inf != 1",
            "state 1, actions (i=2, j=2): row sum inf != 1",
            "state 1: player-I transition mass varies across actions "
            "([0.25, 0.5])",
            "state 1: player-II transition mass varies across actions "
            "([0.5, inf])",
            "state 2: player-II transition mass varies across actions "
            "([0.5, 0.0, 0.5])",
            "state 2: player-II row 2 is all zero but the player-II block "
            "is nonzero (zero-row consistency)",
        ]

    def test_matches_per_state_reference(self):
        # seeded games with every kind of violation, states without
        # actions and all-zero rows; entries drawn from a small set so
        # that hits are common
        rng = np.random.default_rng(4)
        entries = np.array([0.0, 0.0, 0.25, 0.5, 0.5, 1.0, -0.25, 1e-13,
                            np.nan, np.inf, -np.inf])
        with np.errstate(invalid="ignore", over="ignore"):
            for _ in range(300):
                d = int(rng.integers(1, 4))
                counts = rng.integers(0, 4, size=(2, d))
                counts[:, rng.random(d) < 0.8] |= 1
                rewards = [tuple(rng.choice(entries, size=m) for m in c)
                           for c in counts]
                blocks = [tuple(rng.choice(entries, size=(m, d))
                                if rng.random() < 0.5 else
                                np.full((m, d), rng.choice(entries[:6]) / d)
                                for m in c) for c in counts]
                for block in blocks[1]:
                    if len(block) and rng.random() < 0.3:
                        block[rng.integers(len(block))] = 0.0
                game = AratGame(beta=float(rng.choice([0.5, 1.0, np.nan])),
                                r1=rewards[0], r2=rewards[1],
                                p1=blocks[0], p2=blocks[1])
                assert validate(game).violations == validate_per_state(game)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            AratGame(beta=0.5, r1=([1.0, 2.0],), r2=([1.0],),
                     p1=([[0.5]],), p2=([[0.5]],))
        # two states for r1 and p1, one for r2 and p2
        with pytest.raises(ValueError, match="r1, r2, p1, p2 must all have "
                                             "one entry per state"):
            AratGame(beta=0.5, r1=([1.0], [1.0]), r2=([1.0],),
                     p1=([[0.5, 0.0]], [[0.0, 0.5]]), p2=([[0.5]],))
        # player II has two actions, but one transition row
        with pytest.raises(ValueError, match=re.escape(
                "state 1: player-II transitions must be 2 x 1, got (1, 1)")):
            AratGame(beta=0.5, r1=([1.0],), r2=([1.0, 2.0],),
                     p1=([[0.5]],), p2=([[0.5]],))


class TestStackedStore:
    def test_store_matches_the_per_state_tuples(self):
        # random shapes, states without actions included: the stacked
        # rows are player I's state by state, then player II's
        rng = np.random.default_rng(19)
        for _ in range(200):
            d = int(rng.integers(1, 5))
            counts = rng.integers(0, 4, size=(2, d))
            r = [tuple(rng.normal(size=m) for m in c) for c in counts]
            p = [tuple(rng.uniform(size=(m, d)) for m in c) for c in counts]
            game = AratGame(beta=0.5, r1=r[0], r2=r[1], p1=p[0], p2=p[1])
            assert game.m1 == tuple(counts[0].tolist())
            assert game.m2 == tuple(counts[1].tolist())
            rows = [(k, s, a) for k in range(2) for s in range(d)
                    for a in range(counts[k][s])]
            assert game.r.shape == (len(rows),)
            assert game.p.shape == (len(rows), d)
            for row, (k, s, a) in enumerate(rows):
                assert game.r[row] == r[k][s][a]
                assert np.array_equal(game.p[row], p[k][s][a])
                assert game.block[row] == k * d + s
                assert row - game.start[k * d + s] == a
            for k, (rewards, blocks) in enumerate(
                    ((game.r1, game.p1), (game.r2, game.p2))):
                for s in range(d):
                    assert game.start[k * d + s] == sum(
                        counts[0]) * k + sum(counts[k][:s])
                    assert np.array_equal(rewards[s], r[k][s])
                    assert np.array_equal(blocks[s], p[k][s])
                    assert rewards[s].base is game.r
                    assert blocks[s].base is game.p
            for a in (game.r, game.p, game.start, game.block,
                      *game.r1, *game.r2, *game.p1, *game.p2):
                assert not a.flags.writeable

    def test_caller_arrays_stay_writable_and_apart(self):
        r, p = np.array([1.0, 2.0]), np.array([[0.5], [0.5]])
        game = AratGame(beta=0.5, r1=(r,), r2=(np.array([1.0]),),
                        p1=(p,), p2=(np.array([[0.5]]),))
        assert r.flags.writeable and p.flags.writeable
        r[0], p[0, 0] = 9.0, 9.0
        assert game.r1[0][0] == game.r[0] == 1.0
        assert game.p1[0][0, 0] == game.p[0, 0] == 0.5


class TestFromStacked:
    def test_stores_what_the_per_state_constructor_stores(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            counts = rng.integers(0, 4, size=(2, d))
            r = [tuple(rng.normal(size=m) for m in c) for c in counts]
            p = [tuple(rng.uniform(size=(m, d)) for m in c) for c in counts]
            game = AratGame(beta=0.5, r1=r[0], r2=r[1], p1=p[0], p2=p[1])
            stacked = AratGame.from_stacked(
                0.5, np.concatenate(r[0] + r[1]),
                np.concatenate(p[0] + p[1]).reshape(-1, d), *counts)
            assert_same_store(stacked, game)

    @pytest.mark.parametrize("r, p, m1, m2, message", [
        ([1.0, 2.0], [[0.5], [0.5]], (2,), (1,), "r must be"),  # r.size != 3
        ([1.0, 2.0, 3.0], [[0.5], [0.5]], (2,), (1,), "r must be"),  # 2 x 1
        ([1.0, 2.0, 3.0], [[0.5, 0.0]] * 3, (2,), (1,), "r must be"),  # 3 x 2
        ([1.0, 2.0, 3.0], [[0.5]] * 3, (2,), (1, 0), "m1 and m2"),
        ([], np.zeros((0, 0)), (), (), "m1 and m2"),  # d = 0
    ])
    def test_sizes_that_do_not_agree_raise(self, r, p, m1, m2, message):
        with pytest.raises(ValueError, match=message):
            AratGame.from_stacked(0.5, r, p, m1, m2)


class TestComposedQuantities:
    def test_example1_reward_matrices(self, example1):
        np.testing.assert_allclose(
            reward_matrix(example1, 0), [[7.0, 10.0], [6.0, 9.0]]
        )
        np.testing.assert_allclose(
            reward_matrix(example1, 1), [[11.0, 7.0], [10.0, 6.0]]
        )

    def test_zero_rewards_compose_to_zero(self):
        game = AratGame(beta=0.5, r1=([0.0],), r2=([0.0],),
                        p1=([[0.5]],), p2=([[0.5]],))
        assert composed_reward(game, 0, 0, 0) == 0.0

    def test_example1_transitions(self, example1):
        np.testing.assert_allclose(
            composed_transition(example1, 0, 0, 0), [1.0, 0.0]
        )
        np.testing.assert_allclose(
            composed_transition(example1, 1, 0, 1), [0.5, 0.5]
        )

    def test_transitions_sum_to_one_when_valid(self, example1, example2):
        for game in (example1, example2):
            assert validate(game).ok
            for s in range(game.d):
                for i in range(game.m1[s]):
                    for j in range(game.m2[s]):
                        t = composed_transition(game, s, i, j)
                        assert t.min() >= 0.0
                        assert abs(t.sum() - 1.0) <= 1e-12

    def test_index_out_of_range(self, example1):
        with pytest.raises(IndexError):
            composed_reward(example1, 0, 5, 0)
        with pytest.raises(IndexError):
            composed_transition(example1, 0, 0, 7)


class TestShiftInvariance:
    @given(
        c1=st.floats(-20, 20, allow_nan=False),
        c2=st.floats(-20, 20, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_uniform_shift_moves_every_entry_by_constant(self, c1, c2):
        game = make_example1()
        shifted = shifted_game(game, c1, c2)
        for s in range(game.d):
            np.testing.assert_allclose(
                reward_matrix(shifted, s),
                reward_matrix(game, s) + (c1 + c2),
                atol=1e-9,
            )

    def test_saddle_actions_unchanged_under_shift(self, example1):
        # argmax/argmin of each state matrix (plus any fixed continuation
        # term) are invariant under a constant shift of all entries
        v = np.array([2.0, -3.0])
        shifted = shifted_game(example1, 5.0, -2.5)
        for s in range(example1.d):
            def aux(game):
                q = reward_matrix(game, s).copy()
                for i in range(game.m1[s]):
                    for j in range(game.m2[s]):
                        q[i, j] += game.beta * composed_transition(
                            game, s, i, j) @ v
                return q

            a, b = aux(example1), aux(shifted)
            assert np.argmax(a.min(axis=1)) == np.argmax(b.min(axis=1))
            assert np.argmin(a.max(axis=0)) == np.argmin(b.max(axis=0))
