from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import lapack

from arat_homotopy import path_tracer
from arat_homotopy.errors import SingularJacobian
from arat_homotopy.homotopy_core import (
    HomotopyInstance,
    eval_H,
    find_interior_point,
    jac_full,
    jac_u,
)
from arat_homotopy.oracle import certify
from arat_homotopy.path_tracer import (
    _A0,
    _EPS1,
    _EPS2,
    _EPS3,
    _L0,
    _R_ACCEPT,
    PathPoint,
    TraceResult,
    TraceStatus,
    _lu_with_guard,
    corrector_core,
    det_sign_lu,
    extract_solution,
    minnorm_solve,
    tangent,
    trace,
)
from arat_homotopy.vlcp_builder import SquareLcp, build_vlcp, to_equivalent_lcp

from conftest import FIXTURES, make_example1, random_arat_game


def instance_for(game):
    lcp = to_equivalent_lcp(build_vlcp(game))
    return lcp, HomotopyInstance(lcp.M, lcp.q, find_interior_point(lcp))


def random_feasible_instance(rng, n):
    """Strictly feasible synthetic problem: q = y0 - A x0 with y0 > 0."""
    a = rng.normal(size=(n, n))
    x0 = rng.uniform(0.5, 2.0, n)
    y0 = rng.uniform(0.2, 1.5, n)
    q = y0 - a @ x0
    lcp = SquareLcp(M=a, q=q, block_sizes=(1,) * n)
    return HomotopyInstance(lcp.M, lcp.q, x0)


class TestStepBudget:
    def test_constants_keep_their_ordering(self):
        assert _EPS2 > _EPS3 > _EPS1 > 0.0
        assert _A0 > 0.0 and 0.0 < _L0 < 1.0

    @pytest.mark.parametrize("max_steps", [0, -3])
    def test_budget_below_one_rejected(self, max_steps):
        _, inst = instance_for(make_example1())
        with pytest.raises(ValueError, match="max_steps must be at least 1"):
            trace(inst, max_steps=max_steps)


def random_vector(rng, n, lo, hi, t_range):
    """v = (x, y1, y2, t) with x, y1, y2 uniform in [lo, hi]."""
    return np.concatenate([rng.uniform(lo, hi, n), rng.uniform(lo, hi, n),
                           rng.uniform(lo, hi, n), [rng.uniform(*t_range)]])


def lu_sign(a):
    lu, piv, _ = lapack.dgetrf(a)
    return det_sign_lu(lu, piv)


class TestDetSign:
    def test_known_signs(self):
        assert lu_sign(np.eye(4)) == 1
        assert lu_sign(np.diag([1.0, -2.0, 3.0])) == -1
        m = np.array([[0.0, 1.0], [1.0, 0.0]])  # permutation, det = -1
        assert lu_sign(m) == -1
        assert lu_sign(np.zeros((2, 2))) == 0

    def test_odd_pivot_permutation_alone_sets_sign(self):
        # partial pivoting swaps the rows once; both U pivots are positive
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        lu, piv, _ = lapack.dgetrf(a)
        assert np.count_nonzero(piv != np.arange(2)) % 2 == 1
        assert np.diag(lu).min() > 0.0
        assert det_sign_lu(lu, piv) == -1 == np.sign(np.linalg.det(a))

    def test_tangent_sign_matches_determinant(self):
        _, inst = instance_for(make_example1())
        rng = np.random.default_rng(31)
        odd_swaps = 0
        for _ in range(20):
            v = random_vector(rng, inst.n, 0.2, 3.0, (0.05, 0.95))
            ju = jac_u(inst, v)
            _, sign = tangent(inst, v)
            assert sign == np.sign(np.linalg.det(ju))
            # the tangent factors J_u^T, whose pivots differ from J_u's
            piv = lapack.dgetrf(ju.T)[1]
            odd_swaps += np.count_nonzero(piv != np.arange(piv.size)) % 2
        assert odd_swaps > 0

    def test_exact_zero_pivot_is_rejected_by_the_guard(self):
        # the tangent reads the sign only after this guard, so it never
        # sees det_sign_lu return 0
        for a in (np.array([[1.0, 0.0], [0.0, 0.0]]),
                  np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((3, 3))):
            with pytest.raises(SingularJacobian):
                _lu_with_guard(a)


class TestMinNorm:
    def test_interleaved_shapes_match_pseudoinverse(self):
        # alternating shapes, square and wide, through one kernel
        rng = np.random.default_rng(9)
        shapes = [(1, 2), (4, 5), (24, 25), (3, 3), (10, 11), (24, 25),
                  (1, 2), (4, 5), (10, 11), (3, 3)]
        for rows, cols in shapes:
            j = rng.normal(size=(rows, cols))
            h = rng.normal(size=rows)
            d = minnorm_solve(j, h)
            np.testing.assert_allclose(d, np.linalg.pinv(j) @ h,
                                       rtol=1e-10, atol=1e-10)

    def test_one_by_two(self):
        # d = j^T h / |j|^2 for a single row
        j = np.array([[3.0, 4.0]])
        np.testing.assert_allclose(minnorm_solve(j, np.array([5.0])),
                                   [0.6, 0.8], rtol=1e-14)

    def test_tall_rejected(self):
        with pytest.raises(ValueError):
            minnorm_solve(np.ones((3, 2)), np.ones(3))

    def test_more_than_one_extra_column_rejected(self):
        # the tracer's systems are 3n x (3n+1); a wider one has no route
        for rows, cols in ((1, 3), (4, 7), (10, 31)):
            with pytest.raises(ValueError, match="one column more"):
                minnorm_solve(np.ones((rows, cols)), np.ones(rows))

    def test_wide_system_minimum_norm(self):
        rng = np.random.default_rng(0)
        j = rng.normal(size=(4, 5))
        h = rng.normal(size=4)
        d = minnorm_solve(j, h)
        np.testing.assert_allclose(j @ d, h, atol=1e-12)
        # minimum-norm solution equals the pseudoinverse applied to h
        np.testing.assert_allclose(d, np.linalg.pinv(j) @ h, atol=1e-10)

    def test_square_system_reduces_to_solve(self):
        rng = np.random.default_rng(1)
        j = rng.normal(size=(5, 5))
        h = rng.normal(size=5)
        np.testing.assert_allclose(
            minnorm_solve(j, h), np.linalg.solve(j, h), atol=1e-10
        )

    def test_singular_rejected(self):
        j = np.zeros((3, 4))
        with pytest.raises(SingularJacobian):
            minnorm_solve(j, np.ones(3))

    def test_fold_shape_with_singular_leading_block(self):
        # the shape of jac_full at a fold: the leading square block
        # (dH/du) is exactly singular, yet the 3n rows stay independent
        rng = np.random.default_rng(12)
        rows = 12
        j = rng.integers(-5, 6, size=(rows, rows + 1)).astype(float)
        j[-1, :-1] = j[0, :-1] + j[1, :-1]
        j[-1, -1] = j[0, -1] + j[1, -1] + 1.0
        assert np.linalg.matrix_rank(j[:, :-1]) == rows - 1
        assert np.linalg.matrix_rank(j) == rows
        h = rng.normal(size=rows)
        np.testing.assert_allclose(minnorm_solve(j, h),
                                   np.linalg.pinv(j) @ h,
                                   rtol=1e-10, atol=1e-10)

    def test_repeated_row_rejected(self):
        rng = np.random.default_rng(13)
        j = rng.normal(size=(5, 6))
        j[3] = j[1]
        with pytest.raises(SingularJacobian):
            minnorm_solve(j, np.ones(5))

    def test_nan_entry_rejected(self):
        # a NaN ends up either in U (the gated factor) or in the row
        # pivoting leaves out of U; every position must raise, on the
        # square solve (k = 0) and on the closed-form one (k = 1)
        rng = np.random.default_rng(14)
        for rows, cols in ((4, 4), (4, 5)):
            base = rng.normal(size=(rows, cols))
            for row in range(rows):
                for col in range(cols):
                    j = base.copy()
                    j[row, col] = np.nan
                    with pytest.raises(SingularJacobian):
                        minnorm_solve(j, np.ones(rows))

    def test_matches_pseudoinverse_along_example1_path(self, example1):
        # the path passes a fold near t ~ 0.24 (test_fold_is_navigated)
        _, inst = instance_for(example1)
        for pt in trace(inst).path:
            j = jac_full(inst, pt.v)
            h = eval_H(inst, pt.v)
            ref = np.linalg.pinv(j) @ h
            err = np.linalg.norm(minnorm_solve(j, h) - ref)
            assert err <= 1e-12 * np.linalg.norm(ref)


class TestTangent:
    def test_unit_norm_and_negative_t_component_at_anchor(self):
        _, inst = instance_for(make_example1())
        tau, sign = tangent(inst, inst.v0)
        assert np.linalg.norm(tau) == pytest.approx(1.0, abs=1e-12)
        assert tau[-1] < 0.0
        assert sign == 1

    def test_bordered_determinant_negative_at_anchor(self):
        _, inst = instance_for(make_example1())
        tau, _ = tangent(inst, inst.v0)
        bordered = np.vstack([jac_full(inst, inst.v0), tau])
        sign, _ = np.linalg.slogdet(bordered)
        assert sign < 0

    def test_twenty_random_feasible_lcps(self):
        rng = np.random.default_rng(77)
        for k in range(20):
            n = int(rng.integers(2, 7))
            inst = random_feasible_instance(rng, n)
            tau, det_sign = tangent(inst, inst.v0)
            # dH/du at the anchor is block lower triangular with diagonal
            # blocks I, X0 and diag(A x0 + q): its determinant is positive
            assert det_sign == 1
            assert np.linalg.norm(tau) == pytest.approx(1.0, abs=1e-10)
            assert tau[-1] < 0.0
            bordered = np.vstack([jac_full(inst, inst.v0), tau])
            sign, _ = np.linalg.slogdet(bordered)
            assert sign < 0

    def test_sign_rule_flips_direction(self):
        # independent oracle: sign(det J_u) * normalize((J_u^-1 J_t, -1))
        # from np.linalg.solve and slogdet, at 20 fabricated points
        _, inst = instance_for(make_example1())
        rng = np.random.default_rng(4)
        signs = set()
        for _ in range(20):
            v = random_vector(rng, inst.n, 0.5, 2.0, (0.05, 0.95))
            j = jac_full(inst, v)
            det_sign, _ = np.linalg.slogdet(j[:, :-1])
            raw = np.append(np.linalg.solve(j[:, :-1], j[:, -1]), -1.0)
            expected = det_sign * raw / np.linalg.norm(raw)
            tau, sign = tangent(inst, v)
            assert sign == det_sign
            np.testing.assert_allclose(tau, expected, rtol=1e-9, atol=1e-12)
            signs.add(sign)
        assert signs == {-1, 1}


class TestCorrector:
    @staticmethod
    def probe_system():
        def f(v):
            x, y, z = v
            return np.array([
                x + y * y + x * z,
                y + z * z + 0.5 * x * y,
                z + x * x + y * z * z,
            ])

        def jac(v):
            x, y, z = v
            return np.array([
                [1.0 + z, 2.0 * y, x],
                [0.5 * y, 1.0 + 0.5 * x, 2.0 * z],
                [2.0 * x, z * z, 1.0 + 2.0 * y * z],
            ])

        return f, jac

    def test_zero_residual_is_fixed_point(self):
        _, inst = instance_for(make_example1())
        out = corrector_core(lambda w: eval_H(inst, w),
                             lambda w: jac_full(inst, w), inst.v0, passes=3)
        np.testing.assert_allclose(out, inst.v0, rtol=0, atol=1e-14)

    def test_single_pass_order_at_least_four_and_a_half(self):
        f, jac = self.probe_system()
        rng = np.random.default_rng(123)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        errs_in = [1e-1, 1e-2, 1e-3]
        errs_out = [
            float(np.linalg.norm(corrector_core(f, jac, e * d, passes=1)))
            for e in errs_in
        ]
        for k in range(len(errs_in) - 1):
            slope = (np.log(errs_out[k + 1]) - np.log(errs_out[k])) / (
                np.log(errs_in[k + 1]) - np.log(errs_in[k])
            )
            assert slope >= 4.5

    def test_two_passes_reach_deep_accuracy(self):
        # wherever one pass lands at error <= 1e-3, two passes land far
        # below 1e-12 (composite high order)
        f, jac = self.probe_system()
        rng = np.random.default_rng(123)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        for e0 in (0.1, 0.2, 0.3):
            one = float(np.linalg.norm(corrector_core(f, jac, e0 * d, passes=1)))
            assert one <= 1e-3
            two = float(np.linalg.norm(corrector_core(f, jac, e0 * d, passes=2)))
            assert two < 1e-12


class TestTrace:
    def test_example1_converges_to_certified_solution(self, example1):
        lcp, inst = instance_for(example1)
        result = trace(inst)
        assert result.status is TraceStatus.CONVERGED
        assert abs(result.path[-1].t) <= _EPS1
        sol = extract_solution(result, lcp)
        np.testing.assert_allclose(sol.value, [14.0, 14.0], atol=1e-4)
        assert sol.strategy_i == (0, 0)
        assert sol.strategy_ii == (0, 1)
        assert certify(example1, sol.strategy_i, sol.strategy_ii).passed

    def test_example2_converges_to_certified_solution(self, example2):
        lcp, inst = instance_for(example2)
        result = trace(inst)
        assert result.status is TraceStatus.CONVERGED
        sol = extract_solution(result, lcp)
        assert certify(example2, sol.strategy_i, sol.strategy_ii).passed
        # frozen from the oracle: eta = (8.25, 5.5), xi = (5.75, 8.5)
        np.testing.assert_allclose(sol.x[:2], [8.25, 5.5], atol=1e-4)
        np.testing.assert_allclose(sol.x[2:], [5.75, 8.5], atol=1e-4)

    def test_example2_from_the_papers_start(self, example2):
        # a caller's own anchor goes through the stages, not solve
        lcp = to_equivalent_lcp(build_vlcp(example2))
        x0 = np.loadtxt(FIXTURES / "example2_x0.txt", delimiter=",")
        result = trace(HomotopyInstance(lcp.M, lcp.q, x0))
        assert result.status is TraceStatus.CONVERGED
        np.testing.assert_array_equal(result.path[0].x, x0)
        sol = extract_solution(result, lcp)
        assert certify(example2, sol.strategy_i, sol.strategy_ii).passed

    def test_path_invariants(self, example1):
        lcp, inst = instance_for(example1)
        result = trace(inst)
        assert result.path[0].t == 1.0
        for pt in result.path:
            assert pt.residual <= _R_ACCEPT
            # gated components stay strictly positive on accepted points
            assert pt.x.min() > 0.0
            assert pt.y2.min() > 0.0
            assert (inst.A @ pt.x + inst.q).min() > 0.0

    def test_endpoint_certificate(self, example1):
        lcp, inst = instance_for(example1)
        result = trace(inst)
        z = result.path[-1].x
        w = inst.A @ z + inst.q
        res = float(np.linalg.norm(eval_H(inst, result.path[-1].v)))
        assert res <= 1e-6 * (1.0 + np.linalg.norm(inst.q))
        assert min(z.min(), w.min()) >= -1e-8
        assert np.abs(z * w).max() <= 1e-6

    def test_determinism(self, example1):
        lcp, inst = instance_for(example1)
        r1 = trace(inst)
        r2 = trace(inst)
        assert r1.status == r2.status
        assert len(r1.path) == len(r2.path)
        for p1, p2 in zip(r1.path, r2.path):
            np.testing.assert_array_equal(p1.v, p2.v)
            assert p1.residual == p2.residual
            assert p1.step_length == p2.step_length
            assert p1.det_sign == p2.det_sign

    def test_bundled_examples_step_counts(self, example1, example2):
        # pinned path length under the default config: a kernel change
        # that perturbs the path shows here
        for game, steps in ((example1, 52), (example2, 47)):
            _, inst = instance_for(game)
            assert len(trace(inst).path) - 1 == steps

    def test_max_steps_truncation(self, example1):
        _, inst = instance_for(example1)
        result = trace(inst, max_steps=1)
        assert result.status is TraceStatus.MAX_STEPS
        # the endpoint is the point after the one step allowed
        assert len(result.path) == 2
        assert abs(result.path[-1].t) > _EPS1

    def test_fold_is_navigated(self, example1):
        # the example-1 path turns around near t ~ 0.24; the trace must
        # pass through with the orientation rule (t rises then falls)
        _, inst = instance_for(example1)
        result = trace(inst)
        ts = [pt.t for pt in result.path]
        rises = any(b > a for a, b in zip(ts, ts[1:]))
        assert rises
        assert any(s == -1 for s in
                   [pt.det_sign for pt in result.path[1:]])


def rung(a: float) -> int:
    """The ladder rung k of a step length a = _L0**k."""
    return round(float(np.log(a) / np.log(_L0)))


def stub_ladder(monkeypatch, refuse):
    """Stub the tracer's corrector so that it refuses a trial whenever
    ``refuse(step, rung)`` holds: it returns the prediction with x_1 = -1,
    which the positivity gate rejects.  Other trials are corrected as
    usual.  Returns the rungs tried, one list per step, filled as the
    trace runs."""
    tried = []
    currents = []
    real_tangent, real_corrector = path_tracer.tangent, path_tracer.corrector

    def spy_tangent(inst, v):
        tried.append([])
        currents.append(v.copy())
        return real_tangent(inst, v)

    def stub_corrector(inst, v):
        # the tangent is a unit vector, so the distance is the length
        k = rung(float(np.linalg.norm(v - currents[-1])))
        tried[-1].append(k)
        if refuse(len(tried) - 1, k):
            bad = v.copy()
            bad[0] = -1.0
            return bad
        return real_corrector(inst, v)

    monkeypatch.setattr(path_tracer, "tangent", spy_tangent)
    monkeypatch.setattr(path_tracer, "corrector", stub_corrector)
    return tried


# the first rung at or below _EPS3, where a failing trial far from the
# target hyperplane ends the walk
EPS3_RUNG = int(np.ceil(np.log(_EPS3) / np.log(_L0)))


class TestStepLadder:
    def test_each_ladder_starts_one_rung_above_the_last_accepted(
            self, monkeypatch, example1):
        # every third step refuses its four longest trials
        _, inst = instance_for(example1)
        tried = stub_ladder(monkeypatch,
                            lambda step, k: step % 3 == 0 and k < 4)
        result = trace(inst, max_steps=12)
        accepted = [rung(pt.step_length) for pt in result.path[1:]]
        assert len(accepted) == len(tried) == 12
        assert [rungs[-1] for rungs in tried] == accepted
        assert tried[0][0] == 0
        for k in range(1, 12):
            assert tried[k][0] == max(0, accepted[k - 1] - 1)
        assert tried[1][0] == accepted[0] - 1 >= 3  # the rule was exercised
        assert result.rejected == sum(len(r) for r in tried) - 12

    def test_warm_ladder_retries_from_a_equals_one_before_no_progress(
            self, monkeypatch, example1):
        # step 0 is accepted at rung 5; step 1 refuses every trial, so its
        # ladder runs from rung 4 down to the eps3 rung, then rungs 0-3
        _, inst = instance_for(example1)
        tried = stub_ladder(monkeypatch,
                            lambda step, k: k < 5 if step == 0 else True)
        result = trace(inst)
        assert result.status is TraceStatus.NO_PROGRESS
        assert "fell below eps3" in result.detail
        assert len(result.path) == 2
        assert result.path[1].step_length == _L0 ** 5
        assert tried[1] == list(range(4, EPS3_RUNG + 1)) + [0, 1, 2, 3]
        assert result.rejected == 5 + len(tried[1])

    def test_the_retry_from_a_equals_one_can_accept(self, monkeypatch,
                                                    example1):
        # as above, but step 1 takes rung 1 once the retry reaches it
        _, inst = instance_for(example1)
        tried = stub_ladder(
            monkeypatch, lambda step, k: k < 5 if step == 0 else
            (step == 1 and k != 1))
        result = trace(inst, max_steps=3)
        assert result.status is TraceStatus.MAX_STEPS
        assert tried[1] == list(range(4, EPS3_RUNG + 1)) + [0, 1]
        assert result.path[2].step_length == _L0
        assert tried[2][0] == 0

    def test_corrector_calls_pinned_on_a_deep_ladder_game(self, monkeypatch):
        # a path whose ladders reach rung 19; when every ladder started
        # at a = 1, the same 52 steps took 183 corrector calls
        game = random_arat_game(np.random.default_rng(15), d_max=3,
                                actions_max=2)
        lcp, inst = instance_for(game)
        calls = []
        real_corrector = path_tracer.corrector

        def counted(inst, v):
            calls.append(v)
            return real_corrector(inst, v)

        monkeypatch.setattr(path_tracer, "corrector", counted)
        result = trace(inst)
        assert result.status is TraceStatus.CONVERGED
        assert max(rung(pt.step_length) for pt in result.path[1:]) == 19
        assert len(result.path) - 1 == 52
        assert len(calls) == 82
        assert result.rejected == 82 - 52
        sol = extract_solution(result, lcp)
        assert certify(game, sol.strategy_i, sol.strategy_ii).passed


class TestTraceEndings:
    def test_singular_tangent_ends_the_walk(self, monkeypatch, example1):
        # the third tangent (after two accepted steps) cannot be factored
        _, inst = instance_for(example1)
        real_tangent, calls = path_tracer.tangent, []

        def tangent(inst, v):
            calls.append(v)
            if len(calls) == 3:
                raise SingularJacobian("derivative matrix has reciprocal "
                                       "condition 0.0")
            return real_tangent(inst, v)

        monkeypatch.setattr(path_tracer, "tangent", tangent)
        result = trace(inst)
        assert result.status is TraceStatus.SINGULAR_JACOBIAN
        assert result.detail == ("derivative matrix has reciprocal "
                                 "condition 0.0")
        assert len(result.path) == 3

    def test_singular_corrector_ends_the_walk_at_the_floor(self, monkeypatch,
                                                           example1):
        # every trial raises: the first ladder runs from a = 1 down to the
        # first rung at or below _A0, and only that one ends the walk
        _, inst = instance_for(example1)

        def corrector(inst, v):
            raise SingularJacobian("correction system has reciprocal "
                                   "condition 0.0")

        monkeypatch.setattr(path_tracer, "corrector", corrector)
        result = trace(inst)
        assert result.status is TraceStatus.SINGULAR_JACOBIAN
        assert result.detail == ("correction system has reciprocal "
                                 "condition 0.0")
        assert len(result.path) == 1
        floor = int(np.ceil(np.log(_A0) / np.log(_L0)))
        assert _L0 ** floor <= _A0 < _L0 ** (floor - 1)
        assert result.rejected == floor + 1

    def test_coordinate_beyond_the_bound_ends_the_walk(self, monkeypatch,
                                                       example1):
        _, inst = instance_for(example1)
        bound = 0.5 * float(np.abs(inst.v0[:-1]).max())
        monkeypatch.setattr(path_tracer, "_BOUND_B", bound)
        result = trace(inst)
        assert result.status is TraceStatus.PATH_UNBOUNDED
        assert result.detail == f"iterate norm exceeded {bound!r}"
        assert len(result.path) == 2

    def test_stall_next_to_the_target_hyperplane(self, monkeypatch,
                                                 example1):
        # every trial that lands below t = 5e-4 is refused, so the walk
        # creeps up to that level; its last ladder fails within _EPS2 of
        # t = 0 and goes on below _EPS3 down to the progress floor
        _, inst = instance_for(example1)
        level = 5e-4
        real_tangent, currents = path_tracer.tangent, []
        real_corrector, lengths = path_tracer.corrector, []

        def tangent(inst, v):
            currents.append(v)
            return real_tangent(inst, v)

        def corrector(inst, v):
            lengths.append(float(np.linalg.norm(v - currents[-1])))
            cand = real_corrector(inst, v)
            if cand[-1] < level:
                cand[0] = -1.0  # fails the positivity gate
            return cand

        monkeypatch.setattr(path_tracer, "tangent", tangent)
        monkeypatch.setattr(path_tracer, "corrector", corrector)
        result = trace(inst)
        assert result.status is TraceStatus.NO_PROGRESS
        assert result.detail.startswith("stalled within eps2 of the target "
                                        "hyperplane")
        assert level <= result.path[-1].t < _EPS2
        assert min(lengths) <= _A0

    def test_implausible_dt_shrinks_the_step(self, monkeypatch, example1):
        # the first step's three longest trials return a point next to
        # the current one (dt = 0) that both gates would accept; the
        # ladder shrinks past them and accepts the fourth
        _, inst = instance_for(example1)
        real_corrector, calls = path_tracer.corrector, []

        def corrector(inst, v):
            calls.append(v)
            if len(calls) > 3:
                return real_corrector(inst, v)
            cand = inst.v0.copy()
            cand[inst.n] += 1e-6  # y1, which no gate reads
            return cand

        monkeypatch.setattr(path_tracer, "corrector", corrector)
        result = trace(inst, max_steps=1)
        assert result.path[1].step_length == _L0 ** 3
        assert result.rejected == 3
        assert result.path[1].t < 1.0


class TestExtractSolution:
    def test_not_converged_raises(self, example1):
        _, inst = instance_for(example1)
        result = trace(inst, max_steps=1)
        lcp = to_equivalent_lcp(build_vlcp(example1))
        with pytest.raises(ValueError, match="trace ended with status "
                                             "MaxSteps"):
            extract_solution(result, lcp)

    def test_trivial_lcp_with_positive_q(self):
        # endpoint z = 0 gives w = q; an odd block count is no game's,
        # so it is refused
        for q in (np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0, 4.0])):
            n = q.size
            lcp = SquareLcp(M=np.eye(n), q=q, block_sizes=(1,) * n)
            v = np.concatenate([np.zeros(n), q, np.zeros(n + 1)])
            result = TraceResult(
                status=TraceStatus.CONVERGED,
                path=(PathPoint(v, residual=0.0, step_length=0.0,
                                det_sign=1),),
            )
            if n % 2:
                with pytest.raises(ValueError, match="3 blocks"):
                    extract_solution(result, lcp)
                continue
            sol = extract_solution(result, lcp)
            # the pair is read off w = M z + q = q, one row per block
            assert sol.strategy_i == (0, 0) and sol.strategy_ii == (0, 0)
            np.testing.assert_array_equal(sol.x, np.zeros(n))
            np.testing.assert_array_equal(sol.value, np.zeros(2))

    def test_small_negatives_clamped(self, example1):
        lcp, inst = instance_for(example1)
        z = np.array([6.5, -5e-9, 5.5, 0.0, 7.5, 0.0, -1e-10, 8.5])
        w = lcp.M @ z + lcp.q
        result = TraceResult(
            status=TraceStatus.CONVERGED,
            path=(PathPoint(np.concatenate([z, w, z, [0.0]]), residual=0.0,
                            step_length=0.0, det_sign=1),),
        )
        # no clamping: tiny negatives pass through, and the block sums
        # they land in stay positive
        sol = extract_solution(result, lcp)
        assert sol.x.min() >= 0.0
        np.testing.assert_allclose(sol.value, [14.0, 14.0], atol=1e-6)
