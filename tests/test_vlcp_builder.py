from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from arat_homotopy.errors import SizeGuardExceeded
from arat_homotopy.game_model import AratGame
from arat_homotopy.oracle import enumerate_lcp, value_iteration
from arat_homotopy.vlcp_builder import (
    SquareLcp,
    VlcpInstance,
    build_vlcp,
    recover_vlcp_solution,
    to_equivalent_lcp,
)

from conftest import (
    composed_reward,
    composed_transition,
    make_example1,
    random_arat_game,
    verify_vbe_e,
    verify_vbr0_enum,
)

# frozen by hand from the block formula [-bP1 | E-bP1; -E+bP2 | bP2]
# with beta = 1/2 and the example transition tables
EX1_A = np.array([
    [-0.25, 0.00, 0.75, 0.00],
    [-0.25, 0.00, 0.75, 0.00],
    [0.00, -0.25, 0.00, 0.75],
    [0.00, -0.25, 0.00, 0.75],
    [-0.75, 0.00, 0.25, 0.00],
    [-1.00, 0.25, 0.00, 0.25],
    [0.00, -0.75, 0.00, 0.25],
    [0.25, -1.00, 0.25, 0.00],
])
EX1_Q = np.array([-4.0, -3.0, -5.0, -4.0, 3.0, 6.0, 6.0, 2.0])


class TestBuildVlcp:
    def test_example1_matrix_and_q(self, example1):
        inst = build_vlcp(example1)
        np.testing.assert_allclose(inst.A, EX1_A)
        np.testing.assert_allclose(inst.q, EX1_Q)
        assert inst.block_sizes == (2, 2, 2, 2)

    def test_example1_specific_rows(self, example1):
        inst = build_vlcp(example1)
        np.testing.assert_allclose(inst.A[0], [-0.25, 0.0, 0.75, 0.0])
        assert inst.q[0] == -4.0
        np.testing.assert_allclose(inst.A[7], [0.25, -1.0, 0.25, 0.0])
        assert inst.q[7] == 2.0

    def test_zero_player_i_transitions_leave_identity_rows(self):
        # with p1 = 0 the top-left block vanishes and top-right reduces to E
        game = AratGame(
            beta=0.5,
            r1=([1.0], [2.0]),
            r2=([1.0, 2.0], [1.0]),
            p1=([[0.0, 0.0]], [[0.0, 0.0]]),
            p2=([[0.5, 0.5], [1.0, 0.0]], [[0.25, 0.75]]),
        )
        inst = build_vlcp(game)
        np.testing.assert_allclose(inst.A[0], [0.0, 0.0, 1.0, 0.0])
        np.testing.assert_allclose(inst.A[1], [0.0, 0.0, 0.0, 1.0])

    def test_invalid_game_rejected(self, example1):
        import dataclasses
        bad = dataclasses.replace(example1, beta=1.5)
        with pytest.raises(ValueError, match="invalid game"):
            build_vlcp(bad)

    def test_block_matrix_invariants(self):
        with pytest.raises(ValueError):
            VlcpInstance(A=np.ones((2, 3)), q=np.ones(2), block_sizes=(1, 1, 1))
        with pytest.raises(ValueError):
            VlcpInstance(A=np.ones((3, 2)), q=np.ones(3), block_sizes=(1, 1))
        with pytest.raises(ValueError, match="one entry per row"):
            VlcpInstance(A=np.ones((2, 2)), q=np.ones(3), block_sizes=(1, 1))
        inst = VlcpInstance(A=np.ones((3, 2)), q=np.ones(3), block_sizes=(2, 1))
        assert not inst.A.flags.writeable
        assert not inst.q.flags.writeable

    def test_caller_arrays_stay_writable_and_apart(self):
        # each constructor freezes a copy, not the caller's array
        a, q = np.ones((2, 2)), np.ones(2)
        vlcp = VlcpInstance(A=a, q=q, block_sizes=(1, 1))
        lcp = SquareLcp(M=a, q=q, J=(range(0, 1), range(1, 2)))
        assert a.flags.writeable and q.flags.writeable
        a[0, 0], q[0] = 9.0, 9.0
        for m, rhs in ((vlcp.A, vlcp.q), (lcp.M, lcp.q)):
            assert not m.flags.writeable and not rhs.flags.writeable
            assert m[0, 0] == rhs[0] == 1.0


class TestEquivalentLcp:
    def test_example1_dimensions_and_ranges(self, example1):
        lcp = to_equivalent_lcp(build_vlcp(example1))
        assert lcp.n == 8
        assert [list(r) for r in lcp.J] == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_columns_are_exact_copies(self, example1, example2):
        for game in (example1, example2):
            inst = build_vlcp(game)
            lcp = to_equivalent_lcp(inst)
            for j, rng in enumerate(lcp.J):
                for p in rng:
                    assert np.array_equal(lcp.M[:, p], inst.A[:, j])
            # first and last copy of each block agree byte for byte
            for rng in lcp.J:
                assert np.array_equal(lcp.M[:, rng.start], lcp.M[:, rng.stop - 1])
            np.testing.assert_array_equal(lcp.q, inst.q)
            # products with M sum in row-major order
            assert lcp.M.flags.c_contiguous

    def test_all_blocks_size_one_is_identity_reduction(self):
        a = np.array([[2.0, 1.0], [0.5, 3.0]])
        lcp = to_equivalent_lcp(
            VlcpInstance(A=a, q=np.array([1.0, 2.0]), block_sizes=(1, 1))
        )
        np.testing.assert_array_equal(lcp.M, a)

    @pytest.mark.parametrize("blocks", [
        (range(0, 1),),                 # too short: row 1 in no block
        (range(0, 3), range(3, 5)),     # too long: rows past n
        (range(0, 1), range(1, 1), range(1, 2)),  # an empty block
        (range(1, 2), range(0, 1)),     # out of order
        (range(0, 2, 2),),              # step 2
        (range(0, 2), range(1, 2)),     # overlap
        ([0], [1]),                     # index lists, not ranges
        ((0,), range(1, 2)),            # one block a tuple
        (range(0, 1), 1),               # one block a bare index
    ])
    def test_blocks_must_tile_the_rows(self, blocks):
        # unchecked, a short J fails in find_interior_point (StopIteration)
        # and a long one in recover_vlcp_solution (IndexError)
        with pytest.raises(ValueError, match="J must tile"):
            SquareLcp(M=np.eye(2), q=np.array([1.0, -1.0]), J=blocks)

    @given(
        z=arrays(np.float64, 8,
                 elements=st.floats(0, 10, allow_nan=False, width=32)),
    )
    @settings(max_examples=30, deadline=None)
    def test_column_copy_identity_on_random_z(self, z):
        # M z equals the vertical matrix applied to the block sums of z
        inst = build_vlcp(make_example1())
        lcp = to_equivalent_lcp(inst)
        x = np.array([z[list(rng)].sum() for rng in lcp.J])
        np.testing.assert_allclose(lcp.M @ z, inst.A @ x, atol=1e-9)


class TestRecoverSolution:
    def test_example1_expected_point(self, example1):
        lcp = to_equivalent_lcp(build_vlcp(example1))
        z = np.array([6.5, 0.0, 5.5, 0.0, 7.5, 0.0, 0.0, 8.5])
        w = lcp.M @ z + lcp.q
        sol = recover_vlcp_solution(lcp, z, w)
        np.testing.assert_allclose(sol.x, [6.5, 5.5, 7.5, 8.5])
        np.testing.assert_allclose(sol.x[:2], [6.5, 5.5])  # eta
        np.testing.assert_allclose(sol.x[2:], [7.5, 8.5])  # xi
        np.testing.assert_allclose(sol.value, [14.0, 14.0])
        assert sol.strategy_i == (0, 0)
        assert sol.strategy_ii == (0, 1)

    def test_zero_solution_for_nonnegative_q(self):
        m = np.eye(4)
        q = np.array([1.0, 2.0, 0.5, 3.0])
        lcp = SquareLcp(M=m, q=q, J=(range(0, 1), range(1, 2), range(2, 3),
                                     range(3, 4)))
        sol = recover_vlcp_solution(lcp, np.zeros(4), q)
        np.testing.assert_array_equal(sol.x, np.zeros(4))
        # the pair is read off w = q, one row per block
        assert sol.strategy_i == (0, 0) and sol.strategy_ii == (0, 0)
        np.testing.assert_array_equal(sol.value, np.zeros(2))

    def test_complementarity_breach_reported(self, example1):
        lcp = to_equivalent_lcp(build_vlcp(example1))
        z = np.full(8, 1.0)
        w = lcp.M @ z + lcp.q
        # force a feasible-looking pair with visible products
        z = np.abs(z)
        w = np.abs(w) + 0.5
        with pytest.raises(ValueError, match=r"M z \+ q"):
            recover_vlcp_solution(lcp, z, w)

    def test_nan_point_is_refused(self, example1):
        # NaN fails the check that w is M z + q, as a wrong w does
        lcp = to_equivalent_lcp(build_vlcp(example1))
        z = np.full(lcp.n, np.nan)
        with pytest.raises(ValueError, match=r"M z \+ q"):
            recover_vlcp_solution(lcp, z, z)

    def test_odd_block_count_skips_value_recovery(self):
        # no game has an odd block count, so recovery refuses one
        m = np.eye(3)
        q = np.array([1.0, 1.0, 1.0])
        lcp = SquareLcp(M=m, q=q, J=(range(0, 1), range(1, 2), range(2, 3)))
        with pytest.raises(ValueError, match="3 blocks"):
            recover_vlcp_solution(lcp, np.zeros(3), q)

    def test_round_trip_all_enumerated_solutions(self, example1, example2):
        for game in (example1, example2):
            inst = build_vlcp(game)
            lcp = to_equivalent_lcp(inst)
            for z, w in enumerate_lcp(lcp.M, lcp.q):
                sol = recover_vlcp_solution(lcp, z, w)
                assert sol.x.min() >= -1e-8
                np.testing.assert_allclose(
                    inst.A @ sol.x + inst.q, w, atol=1e-8
                )
                for b, rng in enumerate(lcp.J):
                    prod = sol.x[b] * np.prod(w[list(rng)])
                    assert abs(prod) <= 1e-8


class TestShapleyInequalities:
    def test_recovered_strategies_satisfy_optimality(self, example1, example2):
        # recovered pure strategies must be optimal against the oracle
        # value: no player-I deviation gains, no player-II deviation saves
        for game in (example1, example2):
            lcp = to_equivalent_lcp(build_vlcp(game))
            z, w = enumerate_lcp(lcp.M, lcp.q)[0]
            sol = recover_vlcp_solution(lcp, z, w)
            v = value_iteration(game).v
            for s in range(game.d):
                j0 = sol.strategy_ii[s]
                for i in range(game.m1[s]):
                    lhs = composed_reward(game, s, i, j0) + game.beta * (
                        composed_transition(game, s, i, j0) @ v)
                    assert lhs <= v[s] + 1e-6
                i0 = sol.strategy_i[s]
                for j in range(game.m2[s]):
                    lhs = composed_reward(game, s, i0, j) + game.beta * (
                        composed_transition(game, s, i0, j) @ v)
                    assert lhs >= v[s] - 1e-6


class TestMatrixClassChecks:
    def test_vbe_e_on_examples(self, example1, example2):
        for game in (example1, example2):
            lcp = to_equivalent_lcp(build_vlcp(game))
            assert verify_vbe_e(lcp) is True

    def test_vbe_e_identity(self):
        lcp = SquareLcp(M=np.eye(3), q=np.zeros(3),
                        J=(range(0, 1), range(1, 2), range(2, 3)))
        assert verify_vbe_e(lcp) is True
        assert verify_vbr0_enum(lcp) is True

    def test_guard_exceeded(self):
        n = 30
        lcp = SquareLcp(M=np.eye(n), q=np.zeros(n),
                        J=tuple(range(i, i + 1) for i in range(n)))
        with pytest.raises(SizeGuardExceeded):
            verify_vbe_e(lcp)

    def test_vbe_e_holds_for_random_games(self):
        # executable version of the game-matrix class membership claim
        rng = np.random.default_rng(7)
        for _ in range(6):
            game = random_arat_game(rng)
            lcp = to_equivalent_lcp(build_vlcp(game))
            if lcp.n > 12:
                continue
            assert verify_vbe_e(lcp) is True
