from __future__ import annotations

import numpy as np
import pytest

from arat_homotopy.errors import NoInteriorPointFound
from arat_homotopy.game_model import AratGame
from arat_homotopy.homotopy_core import (
    HomotopyInstance,
    eval_H,
    find_interior_point,
    jac_full,
    jac_t,
    jac_u,
    r2_shift,
)
from arat_homotopy.vlcp_builder import SquareLcp, build_vlcp, to_equivalent_lcp

from conftest import (
    FIXTURES,
    is_strictly_feasible,
    jac_u0,
    make_example1,
    random_arat_game,
)


def example1_instance():
    lcp = to_equivalent_lcp(build_vlcp(make_example1()))
    x0 = find_interior_point(lcp)
    return lcp, HomotopyInstance(lcp.M, lcp.q, x0)


def fd_jacobian(inst, v0, h=1e-6):
    """Central-difference oracle for the full (u, t) derivative."""
    dim = v0.size
    out = np.empty((3 * inst.n, dim))
    for col in range(dim):
        vp = v0.copy()
        vm = v0.copy()
        vp[col] += h
        vm[col] -= h
        out[:, col] = (eval_H(inst, vp) - eval_H(inst, vm)) / (2.0 * h)
    return out


def random_point(rng, n, t_range=(0.05, 0.95)):
    """A flat vector v = (x, y1, y2, t) with positive x, y1 and y2."""
    return np.concatenate([
        rng.uniform(0.2, 3.0, n),
        rng.uniform(0.2, 3.0, n),
        rng.uniform(0.2, 3.0, n),
        [rng.uniform(*t_range)],
    ])


class TestEvalH:
    def test_zero_at_anchor(self):
        _, inst = example1_instance()
        h = eval_H(inst, inst.v0)
        scale = 1.0 + max(np.abs(inst.q).max(), np.abs(inst.v0[:-1]).max())
        assert np.abs(h).max() <= 1e-13 * scale

    def test_t_zero_matches_limit_system(self):
        _, inst = example1_instance()
        rng = np.random.default_rng(11)
        a, q, n = inst.A, inst.q, inst.n
        for _ in range(10):
            v = random_point(rng, n, t_range=(0.0, 0.0))
            x, y1, y2 = np.split(v[:-1], 3)
            expected = np.concatenate([
                (a + a.T) @ x + q - y1 - a.T @ y2,
                y1 * x + x * (a @ x + q),
                y2 * (a @ x + q),
            ])
            np.testing.assert_allclose(eval_H(inst, v), expected, atol=1e-13)

    def test_affine_in_t(self):
        _, inst = example1_instance()
        rng = np.random.default_rng(5)
        for _ in range(10):
            v0 = random_point(rng, inst.n)
            mk = lambda t: np.append(v0[:-1], t)
            mid = eval_H(inst, mk(0.5))
            avg = 0.5 * (eval_H(inst, mk(0.0)) + eval_H(inst, mk(1.0)))
            np.testing.assert_allclose(mid, avg, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        _, inst = example1_instance()
        with pytest.raises(ValueError):
            eval_H(inst, np.append(np.ones(9), 0.5))
        # a vector missing its t entry is rejected by every entry point
        v = random_point(np.random.default_rng(13), inst.n)
        for fn in (eval_H, jac_full, jac_u, jac_t):
            with pytest.raises(ValueError):
                fn(inst, v[:-1])


class TestJacobians:
    def test_full_jacobian_against_central_differences(self):
        _, inst = example1_instance()
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            v = random_point(rng, inst.n)
            exact = jac_full(inst, v)
            approx = fd_jacobian(inst, v)
            err = np.abs(exact - approx).max()
            rel = err / max(1.0, np.abs(exact).max())
            worst = max(worst, rel)
        assert worst <= 1e-5

    def test_structure_at_anchor(self):
        _, inst = example1_instance()
        n = inst.n
        ju = jac_u(inst, inst.v0)
        eye = np.eye(n)
        np.testing.assert_allclose(ju[:n, :n], eye, atol=1e-14)
        np.testing.assert_allclose(ju[:n, n:], np.zeros((n, 2 * n)), atol=1e-14)
        np.testing.assert_allclose(ju[n:2 * n, :n], eye, atol=1e-14)
        np.testing.assert_allclose(ju[n:2 * n, n:2 * n], np.diag(inst.x0), atol=1e-14)
        np.testing.assert_allclose(ju[2 * n:, :n], inst.A, atol=1e-14)
        np.testing.assert_allclose(ju[2 * n:, 2 * n:], np.diag(inst.y0), atol=1e-14)

    def test_jac_t_block1_at_anchor_is_negated_stationarity(self):
        _, inst = example1_instance()
        n = inst.n
        a, q = inst.A, inst.q
        jt = jac_t(inst, inst.v0)
        expected = -((a + a.T) @ inst.x0 + q - 1.0 - a.T @ np.ones(n))
        np.testing.assert_allclose(jt[:n], expected, atol=1e-13)

    def test_jac_full_is_u_then_t(self):
        _, inst = example1_instance()
        rng = np.random.default_rng(8)
        v = random_point(rng, inst.n)
        jf = jac_full(inst, v)
        np.testing.assert_array_equal(jf[:, :-1], jac_u(inst, v))
        np.testing.assert_array_equal(jf[:, -1], jac_t(inst, v))


class TestAnchorJacobian:
    def test_scalar_example(self):
        # n = 1, A = (1), q = (1), x0 = (1): det = (-1)^3 t^3 * 1 * 2
        lcp = SquareLcp(M=np.array([[1.0]]), q=np.array([1.0]), block_sizes=(1,))
        inst = HomotopyInstance(lcp.M, lcp.q, np.array([1.0]))
        for t in (1.0, 0.5, 0.1):
            j0, det = jac_u0(inst, np.array([1.0, 1.0, 1.0, t]))
            assert det == pytest.approx(-2.0 * t ** 3, rel=1e-12)

    def test_formula_matches_lu_determinant(self):
        # independent oracle: LU-based determinant of the assembled matrix
        _, inst = example1_instance()
        rng = np.random.default_rng(3)
        for t in (1.0, 0.5, 0.1):
            v = random_point(rng, inst.n, t_range=(t, t))
            j0, det = jac_u0(inst, v)
            sign, logabs = np.linalg.slogdet(j0)
            det_lu = sign * np.exp(logabs)
            assert abs(det - det_lu) <= 1e-10 * abs(det_lu)

    def test_unit_anchor_at_t_one(self):
        # x0 = e and A x0 + q = e make the determinant (-1)^(3n)
        n = 3
        a = np.diag([0.5, 0.25, 0.125])
        q = np.ones(n) - a @ np.ones(n)
        lcp = SquareLcp(M=a, q=q, block_sizes=(1,) * n)
        inst = HomotopyInstance(lcp.M, lcp.q, np.ones(n))
        _, det = jac_u0(inst, inst.v0)
        assert det == pytest.approx((-1.0) ** (3 * n), rel=1e-12)


class TestInteriorPoint:
    def test_example1_heuristic_is_feasible(self):
        lcp = to_equivalent_lcp(build_vlcp(make_example1()))
        x0 = find_interior_point(lcp)
        assert is_strictly_feasible(lcp.M, lcp.q, x0)
        # eta copies at 0.01; each xi(s) is K split over its two copies,
        # with K = 1 + 5.005 / 0.75 set by the tightest player-I row
        # (r1 = 5, slack -5.005 before the lift, M u = 1 - 0.5 * 0.5)
        np.testing.assert_allclose(x0[:4], 0.01)
        np.testing.assert_allclose(x0[4:], (1.0 + 5.005 / 0.75) / 2.0)

    def test_bundled_hint_for_example1_is_rejected(self):
        # the bundled reference starting vector has a negative slack in
        # this construction: the anchor check refuses it, never replaces it
        lcp = to_equivalent_lcp(build_vlcp(make_example1()))
        x0 = np.loadtxt(FIXTURES / "example1_x0.txt", delimiter=",")
        assert not is_strictly_feasible(lcp.M, lcp.q, x0)
        with pytest.raises(ValueError, match="strictly interior"):
            HomotopyInstance(lcp.M, lcp.q, x0)

    def test_positive_q_game_needs_no_lift(self):
        # all r1 < 0 and r2 > 0 make q > 0: no row needs the xi copies,
        # so K = 1 and every xi(s) sums to exactly 1
        base = make_example1()
        game = AratGame(beta=base.beta, r1=tuple(-r for r in base.r1),
                        r2=base.r2, p1=base.p1, p2=base.p2)
        lcp = to_equivalent_lcp(build_vlcp(game))
        assert lcp.q.min() > 0.0
        x0 = find_interior_point(lcp)
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
            x0 = find_interior_point(lcp)
            assert is_strictly_feasible(lcp.M, lcp.q, x0), f"draw {k}"

    def test_infeasible_problem_raises(self):
        # x > 0 forces M x + q = -x + q < 0 in the first row
        m = -np.eye(2)
        q = np.array([0.0, 1.0])
        lcp = SquareLcp(M=m, q=q, block_sizes=(1, 1))
        with pytest.raises(NoInteriorPointFound):
            find_interior_point(lcp)

    def test_state_without_player_ii_mass_is_named(self):
        # such a row's slack is r2 - 0.01 m1(s), whatever the lift
        game = AratGame(beta=0.5, r1=([2.0],), r2=([-1.0],),
                        p1=([[1.0]],), p2=([[0.0]],))
        lcp = to_equivalent_lcp(build_vlcp(game))
        with pytest.raises(NoInteriorPointFound, match=(
                "player-II row 1 of state 1 cannot be lifted")):
            find_interior_point(lcp)
        # the message names the state that fails, not the first one; a
        # reward equal to 0.01 m1(s) fails too (no strict slack is left)
        game = AratGame(beta=0.5, r1=([2.0], [2.0]), r2=([1.0], [0.01]),
                        p1=([[0.5, 0.5]], [[0.0, 1.0]]),
                        p2=([[0.0, 0.0]], [[0.0, 0.0]]))
        lcp = to_equivalent_lcp(build_vlcp(game))
        with pytest.raises(NoInteriorPointFound, match=(
                "player-II row 1 of state 2 cannot be lifted")):
            find_interior_point(lcp)

    def test_r2_shift_keeps_the_blocks(self):
        # three player-I actions and two player-II actions without mass:
        # the shifted copy differs from the built problem only in q
        game = AratGame(beta=0.5, r1=([2.0, 1.0, 0.5],), r2=([-1.0, 0.0],),
                        p1=(np.ones((3, 1)),), p2=(np.zeros((2, 1)),))
        lcp = to_equivalent_lcp(build_vlcp(game))
        shifted, c2 = r2_shift(lcp)
        assert c2 > 0.0 and shifted is not lcp
        assert shifted.block_sizes == lcp.block_sizes == (3, 2)
        assert shifted.J == lcp.J == (range(0, 3), range(3, 5))
        assert np.array_equal(shifted.M, lcp.M)
        np.testing.assert_array_equal(shifted.q[3:], lcp.q[3:] + c2)


class TestInstanceInvariants:
    def test_boundary_anchor_rejected(self):
        lcp = to_equivalent_lcp(build_vlcp(make_example1()))
        x0 = find_interior_point(lcp)
        bad = x0.copy()
        bad[0] = 0.0
        with pytest.raises(ValueError, match="strictly interior"):
            HomotopyInstance(lcp.M, lcp.q, bad)

    def test_nan_anchor_rejected(self):
        # NaN compares False both ways, so "min <= 0" cannot catch it;
        # let through, it fails only later, as a singular Jacobian
        lcp = SquareLcp(M=np.eye(2), q=np.ones(2), block_sizes=(1, 1))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                HomotopyInstance(lcp.M, lcp.q, np.array([1.0, bad]))

    def test_caller_arrays_stay_writable_and_apart(self):
        a, q, x0 = np.eye(2), np.ones(2), np.ones(2)
        inst = HomotopyInstance(A=a, q=q, x0=x0)
        assert a.flags.writeable and q.flags.writeable and x0.flags.writeable
        a[0, 0], q[0], x0[0] = 9.0, 9.0, 9.0
        assert inst.A[0, 0] == inst.q[0] == inst.x0[0] == 1.0
        for w in (inst.A, inst.q, inst.x0, inst.a_sym, inst.y0, inst.v0):
            assert not w.flags.writeable

    def test_nan_data_rejected(self):
        q = np.array([1.0, np.nan])
        lcp = SquareLcp(M=np.eye(2), q=q, block_sizes=(1, 1))
        with pytest.raises(ValueError, match="finite"):
            HomotopyInstance(lcp.M, lcp.q, np.ones(2))
        lcp = SquareLcp(M=np.array([[1.0, np.inf], [0.0, 1.0]]),
                        q=np.ones(2), block_sizes=(1, 1))
        with pytest.raises(ValueError, match="finite"):
            HomotopyInstance(lcp.M, lcp.q, np.ones(2))

    def test_infeasible_slack_rejected(self):
        lcp = to_equivalent_lcp(build_vlcp(make_example1()))
        with pytest.raises(ValueError, match="strictly interior"):
            HomotopyInstance(lcp.M, lcp.q, np.full(lcp.n, 1e-4))

    def test_block3_product_identity_on_path_points(self):
        # any H = 0 point with t in (0,1) satisfies
        # y2 * (A x + q) = t * (A x0 + q) componentwise
        from arat_homotopy.path_tracer import trace

        lcp, inst = example1_instance()
        result = trace(inst)
        anchor = inst.y0
        for pt in result.path[1:]:
            if not (0.0 < pt.t < 1.0):
                continue
            lhs = pt.y2 * (inst.A @ pt.x + inst.q)
            # the identity is exact on the path; accepted points sit
            # within their recorded residual of it
            np.testing.assert_allclose(
                lhs, pt.t * anchor, atol=max(1e-10, pt.residual)
            )
            assert (inst.A @ pt.x + inst.q).min() > 0.0
