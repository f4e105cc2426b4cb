from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from arat_homotopy.errors import NoInteriorPointFound, SizeGuardExceeded
from arat_homotopy.game_model import AratGame
from arat_homotopy.oracle import enumerate_lcp, value_iteration
from arat_homotopy.vlcp_builder import (
    SquareLcp,
    VlcpInstance,
    build_vlcp,
    find_interior_point,
    recover_vlcp_solution,
    to_equivalent_lcp,
)

from conftest import (
    block_sums,
    composed_reward,
    composed_transition,
    is_strictly_feasible,
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
        with pytest.raises(ValueError, match="one block size per column"):
            VlcpInstance(A=np.ones((3, 2)), q=np.ones(3),
                         block_sizes=(1, 1, 1))
        with pytest.raises(ValueError, match="M must be square and match q"):
            SquareLcp(M=np.ones((2, 3)), q=np.ones(2), block_sizes=(1, 1))
        inst = VlcpInstance(A=np.ones((3, 2)), q=np.ones(3), block_sizes=(2, 1))
        assert not inst.A.flags.writeable
        assert not inst.q.flags.writeable

    def test_caller_arrays_stay_writable_and_apart(self):
        # each constructor freezes a copy, not the caller's array
        a, q = np.ones((2, 2)), np.ones(2)
        vlcp = VlcpInstance(A=a, q=q, block_sizes=(1, 1))
        lcp = SquareLcp(M=a, q=q, block_sizes=(1, 1))
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

    def test_blocks_are_derived_from_their_sizes(self):
        lcp = SquareLcp(M=np.eye(6), q=np.ones(6), block_sizes=(2, 1, 3))
        assert lcp.block_sizes == (2, 1, 3) and lcp.k == 3
        assert lcp.J == (range(0, 2), range(2, 3), range(3, 6))

    def test_blocks_are_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            SquareLcp(M=np.eye(2), q=np.ones(2), block_sizes=(1, 1),
                      J=(range(0, 1), range(1, 2)))

    @pytest.mark.parametrize("blocks", [
        (1,),           # too few: row 2 in no block
        (1, 1, 1),      # too many: a block past n
        (0, 2),         # an empty first block
        (2, 0),         # an empty last block
        (1, 0, 1),      # an empty block between two
        (3, -1),        # a negative size, the sum n
        (-1, 3),        # a negative size first
        (1, 2),         # a sum past n
        (),             # no block
    ])
    def test_blocks_must_tile_the_rows(self, blocks):
        # the blocks are derived from their sizes, so only sizes that do
        # not tile 0..n-1 are left to refuse
        with pytest.raises(ValueError, match="block sizes must be >= 1"):
            SquareLcp(M=np.eye(2), q=np.array([1.0, -1.0]), block_sizes=blocks)

    @given(
        z=arrays(np.float64, 8,
                 elements=st.floats(0, 10, allow_nan=False, width=32)),
    )
    @settings(max_examples=30, deadline=None)
    def test_column_copy_identity_on_random_z(self, z):
        # M z equals the vertical matrix applied to the block sums of z
        inst = build_vlcp(make_example1())
        lcp = to_equivalent_lcp(inst)
        np.testing.assert_allclose(lcp.M @ z, inst.A @ block_sums(lcp, z),
                                   atol=1e-9)


class TestRecoverSolution:
    def test_example1_expected_point(self, example1):
        lcp = to_equivalent_lcp(build_vlcp(example1))
        z = np.array([6.5, 0.0, 5.5, 0.0, 7.5, 0.0, 0.0, 8.5])
        w = lcp.M @ z + lcp.q
        assert recover_vlcp_solution(lcp, w) == ((0, 0), (0, 1))
        x = block_sums(lcp, z)
        np.testing.assert_allclose(x[:2], [6.5, 5.5])  # eta
        np.testing.assert_allclose(x[2:], [7.5, 8.5])  # xi
        np.testing.assert_allclose(x[:2] + x[2:], [14.0, 14.0])

    def test_zero_solution_for_nonnegative_q(self):
        m = np.eye(4)
        q = np.array([1.0, 2.0, 0.5, 3.0])
        lcp = SquareLcp(M=m, q=q, block_sizes=(1, 1, 1, 1))
        # the pair is read off w = q, one row per block
        assert recover_vlcp_solution(lcp, q) == ((0, 0), (0, 0))

    def test_nan_point_is_refused(self, example1):
        # argmin would read a NaN as the smallest slack; one NaN refuses
        lcp = to_equivalent_lcp(build_vlcp(example1))
        w = np.ones(lcp.n)
        w[3] = np.nan
        with pytest.raises(ValueError, match="w holds a NaN"):
            recover_vlcp_solution(lcp, w)

    def test_wrong_size_slack_is_refused(self, example1):
        lcp = to_equivalent_lcp(build_vlcp(example1))
        for w in (np.ones(lcp.n - 1), np.ones((1, lcp.n))):
            with pytest.raises(ValueError, match="LCP dimension"):
                recover_vlcp_solution(lcp, w)

    def test_odd_block_count_skips_value_recovery(self):
        # no game has an odd block count, so recovery refuses one
        m = np.eye(3)
        q = np.array([1.0, 1.0, 1.0])
        lcp = SquareLcp(M=m, q=q, block_sizes=(1, 1, 1))
        with pytest.raises(ValueError, match="3 blocks"):
            recover_vlcp_solution(lcp, q)

    def test_unequal_blocks_read_each_states_rows(self):
        # blocks of 1 and 3 player-I rows, then 2 and 1 player-II rows:
        # each block's action is its own argmin row, counted from 0
        w = np.array([5.0, 4.0, 0.5, 3.0, 2.0, 1.0, 7.0])
        lcp = SquareLcp(M=np.eye(7), q=w, block_sizes=(1, 3, 2, 1))
        assert recover_vlcp_solution(lcp, w) == ((0, 1), (1, 0))

    def test_round_trip_all_enumerated_solutions(self, example1, example2):
        for game in (example1, example2):
            inst = build_vlcp(game)
            lcp = to_equivalent_lcp(inst)
            for z, w in enumerate_lcp(lcp.M, lcp.q):
                x = block_sums(lcp, z)
                assert x.min() >= -1e-8
                np.testing.assert_allclose(inst.A @ x + inst.q, w, atol=1e-8)
                for b, rng in enumerate(lcp.J):
                    prod = x[b] * np.prod(w[list(rng)])
                    assert abs(prod) <= 1e-8


class TestInteriorPoint:
    def test_example1_heuristic_is_feasible(self):
        lcp = to_equivalent_lcp(build_vlcp(make_example1()))
        traced, x0, c2 = find_interior_point(lcp)
        assert traced is lcp and c2 == 0.0
        assert is_strictly_feasible(lcp.M, lcp.q, x0)
        # eta copies at 0.01; each xi(s) is K split over its two copies,
        # with K = 1 + 5.005 / 0.75 set by the tightest player-I row
        # (r1 = 5, slack -5.005 before the lift, M u = 1 - 0.5 * 0.5)
        np.testing.assert_allclose(x0[:4], 0.01)
        np.testing.assert_allclose(x0[4:], (1.0 + 5.005 / 0.75) / 2.0)

    def test_positive_q_game_needs_no_lift(self):
        # all r1 < 0 and r2 > 0 make q > 0: no row needs the xi copies,
        # so K = 1 and every xi(s) sums to exactly 1
        base = make_example1()
        game = AratGame(beta=base.beta, r1=tuple(-r for r in base.r1),
                        r2=base.r2, p1=base.p1, p2=base.p2)
        lcp = to_equivalent_lcp(build_vlcp(game))
        assert lcp.q.min() > 0.0
        x0 = find_interior_point(lcp)[1]
        assert is_strictly_feasible(lcp.M, lcp.q, x0)
        np.testing.assert_allclose(x0[:4], 0.01)
        for rng in lcp.J[2:]:
            assert x0[list(rng)].sum() == pytest.approx(1.0, abs=1e-15)

    def test_start_is_feasible_on_random_games(self):
        # games whose player-I rows send mass to states with more
        # player-II actions defeat a common level on the xi copies
        rng = np.random.default_rng(0)
        for k in range(400):
            game = random_arat_game(rng, d_max=4, actions_max=3,
                                    betas=(0.3, 0.5, 0.9, 0.99))
            lcp = to_equivalent_lcp(build_vlcp(game))
            traced, x0, _ = find_interior_point(lcp)
            assert is_strictly_feasible(traced.M, traced.q, x0), f"draw {k}"

    def test_infeasible_problem_raises(self):
        # x > 0 forces M x + q = -x + q < 0 in the first row, a player-I
        # row that no r2 shift lifts; the start is defined for game-built
        # problems only, so an odd block count is refused outright
        for n, error, message in (
                (2, NoInteriorPointFound,
                 "the player-I row 1 of state 1 cannot be lifted"),
                (3, ValueError,
                 "3 blocks: a game-built problem has an even number")):
            m = -np.eye(n)
            q = np.array([0.0] + [1.0] * (n - 1))
            lcp = SquareLcp(M=m, q=q, block_sizes=(1,) * n)
            with pytest.raises(error, match=f"^{message}"):
                find_interior_point(lcp)

    def test_state_without_player_ii_mass_is_named(self):
        # such a row's slack is r2 - 0.01 m1(s), whatever the lift: a
        # plain r2 <= 0.01 m1(s) is shifted, not refused ...
        game = AratGame(beta=0.5, r1=([2.0],), r2=([-1.0],),
                        p1=([[1.0]],), p2=([[0.0]],))
        assert find_interior_point(to_equivalent_lcp(build_vlcp(game)))[2] \
            == pytest.approx(2.01, rel=1e-15)
        # ... and the row is named only when the shift is lost to
        # rounding: c2 = 1.01 + 1e17 rounds to 1e17, which leaves the row
        # its slack of -0.01
        game = AratGame(beta=0.5, r1=([2.0],), r2=([-1e17],),
                        p1=([[1.0]],), p2=([[0.0]],))
        lcp = to_equivalent_lcp(build_vlcp(game))
        with pytest.raises(NoInteriorPointFound, match=(
                "^the player-II row 1 of state 1 cannot be lifted")):
            find_interior_point(lcp)
        # the message names the state that fails, not the first one
        game = AratGame(beta=0.5, r1=([2.0], [2.0]), r2=([1.0], [-1e17]),
                        p1=([[0.5, 0.5]], [[0.0, 1.0]]),
                        p2=([[0.0, 0.0]], [[0.0, 0.0]]))
        lcp = to_equivalent_lcp(build_vlcp(game))
        with pytest.raises(NoInteriorPointFound, match=(
                "^the player-II row 1 of state 2 cannot be lifted")):
            find_interior_point(lcp)

    def test_r2_shift_keeps_the_blocks(self):
        # three player-I actions and two player-II actions without mass:
        # the shifted copy differs from the built problem only in q
        game = AratGame(beta=0.5, r1=([2.0, 1.0, 0.5],), r2=([-1.0, 0.0],),
                        p1=(np.ones((3, 1)),), p2=(np.zeros((2, 1)),))
        lcp = to_equivalent_lcp(build_vlcp(game))
        shifted, x0, c2 = find_interior_point(lcp)
        assert c2 > 0.0 and shifted is not lcp
        assert is_strictly_feasible(shifted.M, shifted.q, x0)
        assert shifted.block_sizes == lcp.block_sizes == (3, 2)
        assert shifted.J == lcp.J == (range(0, 3), range(3, 5))
        assert np.array_equal(shifted.M, lcp.M)
        np.testing.assert_array_equal(shifted.q[3:], lcp.q[3:] + c2)


class TestShapleyInequalities:
    def test_recovered_strategies_satisfy_optimality(self, example1, example2):
        # recovered pure strategies must be optimal against the oracle
        # value: no player-I deviation gains, no player-II deviation saves
        for game in (example1, example2):
            lcp = to_equivalent_lcp(build_vlcp(game))
            _, w = enumerate_lcp(lcp.M, lcp.q)[0]
            strategy_i, strategy_ii = recover_vlcp_solution(lcp, w)
            v = value_iteration(game).v
            for s in range(game.d):
                j0 = strategy_ii[s]
                for i in range(game.m1[s]):
                    lhs = composed_reward(game, s, i, j0) + game.beta * (
                        composed_transition(game, s, i, j0) @ v)
                    assert lhs <= v[s] + 1e-6
                i0 = strategy_i[s]
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
                        block_sizes=(1, 1, 1))
        assert verify_vbe_e(lcp) is True
        assert verify_vbr0_enum(lcp) is True

    def test_guard_exceeded(self):
        n = 30
        lcp = SquareLcp(M=np.eye(n), q=np.zeros(n),
                        block_sizes=(1,) * n)
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


# each constructor that takes counts, given one bad count
TAKES_COUNTS = {
    "VlcpInstance": lambda c: VlcpInstance(A=np.eye(2), q=np.ones(2),
                                           block_sizes=(1, c)),
    "SquareLcp": lambda c: SquareLcp(M=np.eye(2), q=np.ones(2),
                                     block_sizes=(1, c)),
    "AratGame.from_stacked": lambda c: AratGame.from_stacked(
        0.5, [1.0, 1.0], [[0.5], [0.5]], (c,), (1,)),
}


@pytest.mark.parametrize("count", [2.9, True, "1"])
@pytest.mark.parametrize("build", TAKES_COUNTS.values(), ids=TAKES_COUNTS)
def test_counts_must_be_integers(build, count):
    # int() would read 2.9 as 2 and True or '1' as 1
    with pytest.raises(ValueError, match="must be integers"):
        build(count)
    assert build(np.int64(1)) is not None
