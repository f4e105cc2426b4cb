from __future__ import annotations

import re

import numpy as np
import pytest
from scipy.linalg import lapack

from arat_homotopy import cli, path_tracer
from arat_homotopy.errors import SingularJacobian
from arat_homotopy.homotopy_core import HomotopyInstance, eval_H, jac_full, jac_u
from arat_homotopy.oracle import certify, value_iteration
from arat_homotopy.path_tracer import (
    _A0,
    _EPS1,
    _EPS2,
    _EPS3,
    _L0,
    _R_ACCEPT,
    TraceStatus,
    _lu_with_guard,
    corrector_core,
    det_sign_lu,
    extract_solution,
    minnorm_solve,
    tangent,
    trace,
)
from arat_homotopy.vlcp_builder import (
    SquareLcp,
    build_vlcp,
    find_interior_point,
    recover_vlcp_solution,
    to_equivalent_lcp,
)

from conftest import FIXTURES, block_sums, make_example1, random_arat_game


def instance_for(game):
    lcp = to_equivalent_lcp(build_vlcp(game))
    return lcp, HomotopyInstance(lcp.M, lcp.q, find_interior_point(lcp)[1])


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

    @pytest.mark.parametrize("max_steps", [0, -3, float("nan"), 2.5, True])
    def test_budget_below_one_rejected(self, max_steps):
        # a budget that is not an integer (a bool included) is refused
        # too; a numpy integer of at least 1 is a budget
        _, inst = instance_for(make_example1())
        message = ("max_steps must be at least 1" if type(max_steps) is int
                   else "max_steps must be integers")
        with pytest.raises(ValueError, match=message):
            trace(inst, max_steps=max_steps)
        assert len(trace(inst, max_steps=np.int64(1)).path) == 2


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
            with pytest.raises(SingularJacobian, match=re.escape(
                    "derivative matrix has reciprocal condition 0.0")):
                _lu_with_guard(a, "derivative matrix", overwrite=True)

    def test_tangent_at_the_origin_raises_the_derivative_message(self):
        # at x = y1 = y2 = 0 and t = 1 on example 1, dH/du has an exact
        # zero pivot; the real tangent reports it through the shared guard
        _, inst = instance_for(make_example1())
        v = np.zeros(3 * inst.n + 1)
        v[-1] = 1.0
        with pytest.raises(SingularJacobian) as err:
            tangent(inst, v)
        assert str(err.value) == ("derivative matrix has reciprocal "
                                  "condition 0.0")


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
        with pytest.raises(SingularJacobian, match=re.escape(
                "correction system has reciprocal condition 0.0")):
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
        pair = extract_solution(result.path[-1].x, lcp)
        assert pair == ((0, 0), (0, 1))
        assert certify(example1, *pair).passed
        x = block_sums(lcp, result.path[-1].x)
        np.testing.assert_allclose(x[:2] + x[2:], [14.0, 14.0], atol=1e-4)

    def test_example2_converges_to_certified_solution(self, example2):
        lcp, inst = instance_for(example2)
        result = trace(inst)
        assert result.status is TraceStatus.CONVERGED
        pair = extract_solution(result.path[-1].x, lcp)
        assert certify(example2, *pair).passed
        # frozen from the oracle: eta = (8.25, 5.5), xi = (5.75, 8.5)
        x = block_sums(lcp, result.path[-1].x)
        np.testing.assert_allclose(x[:2], [8.25, 5.5], atol=1e-4)
        np.testing.assert_allclose(x[2:], [5.75, 8.5], atol=1e-4)

    def test_example2_from_the_papers_start(self, example2):
        # a caller's own anchor goes through the stages, not solve
        lcp = to_equivalent_lcp(build_vlcp(example2))
        x0 = np.loadtxt(FIXTURES / "example2_x0.txt", delimiter=",")
        result = trace(HomotopyInstance(lcp.M, lcp.q, x0))
        assert result.status is TraceStatus.CONVERGED
        np.testing.assert_array_equal(result.path[0].x, x0)
        pair = extract_solution(result.path[-1].x, lcp)
        assert certify(example2, *pair).passed

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

    def test_bundled_examples_step_counts(self):
        # pinned path length and rejected trials under the default
        # config: a change to the kernels, the ladder, the gates or the
        # rungs refused for crossing t = 0 shows here; both endpoints'
        # pairs certify
        for name, steps, rejected in (("example1", 52, 30),
                                      ("example2", 47, 30)):
            game = cli.load_game(FIXTURES / f"{name}.json")
            lcp, inst = instance_for(game)
            result = trace(inst)
            assert (result.status, len(result.path) - 1, result.rejected) == (
                TraceStatus.CONVERGED, steps, rejected), name
            assert certify(game, *extract_solution(result.path[-1].x,
                                                   lcp)).passed, name

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
# the first rung at or below the progress floor _A0
FLOOR_RUNG = int(np.ceil(np.log(_A0) / np.log(_L0)))


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
        # at a = 1, the same 52 steps took 183 corrector calls, and when
        # rungs whose prediction crosses t = 0 were still corrected, 82.
        # Every one of the 30 refused rungs crosses, so each corrector
        # call is an accepted step.
        game = deep_ladder_game()
        lcp, inst = instance_for(game)
        calls = spy_corrector(monkeypatch)
        result = trace(inst)
        assert result.status is TraceStatus.CONVERGED
        assert max(rung(pt.step_length) for pt in result.path[1:]) == 19
        assert len(result.path) - 1 == 52
        assert len(calls) == 52
        assert result.rejected == 30
        assert certify(game, *extract_solution(result.path[-1].x, lcp)).passed


def deep_ladder_game():
    return random_arat_game(np.random.default_rng(15), d_max=3,
                            actions_max=2)


def spy_corrector(monkeypatch) -> list:
    """Record every vector the tracer's corrector is called on."""
    calls = []
    real_corrector = path_tracer.corrector

    def counted(inst, v):
        calls.append(v.copy())
        return real_corrector(inst, v)

    monkeypatch.setattr(path_tracer, "corrector", counted)
    return calls


class TestCrossingRungs:
    """A rung whose prediction t + a tau_t is at or below 0 is refused
    without a correction: on H = 0 with x and the slack s strictly
    positive, block 3 reads y2 * s = t y0, so t <= 0 forces y2 <= 0,
    which the positivity gate refuses."""

    @pytest.mark.parametrize("make_game", [make_example1, deep_ladder_game],
                             ids=["example1", "deep_ladder"])
    def test_no_corrector_input_crosses(self, monkeypatch, make_game):
        _, inst = instance_for(make_game())
        calls = spy_corrector(monkeypatch)
        result = trace(inst)
        assert result.status is TraceStatus.CONVERGED
        assert min(v[-1] for v in calls) > 0.0
        # the same count as when crossing rungs were corrected and then
        # refused by the positivity gate
        assert result.rejected == 30

    @pytest.mark.parametrize("k", [0, 2])
    def test_crossing_rungs_are_skipped(self, monkeypatch, example1, k):
        # the first tangent is stretched to tau_t = -1.5 * 2**k at t = 1,
        # so rung j predicts t = 1 - 1.5 * 2**(k - j): rungs 0..k cross
        _, inst = instance_for(example1)
        real_tangent, taus = path_tracer.tangent, []

        def tangent(inst, v):
            tau, sign = real_tangent(inst, v)
            if not taus:
                tau = tau * (1.5 * 2 ** k / -tau[-1])
            taus.append(tau)
            return tau, sign

        monkeypatch.setattr(path_tracer, "tangent", tangent)
        calls = spy_corrector(monkeypatch)
        result = trace(inst, max_steps=1)
        tried = [rung((v[-1] - 1.0) / taus[0][-1]) for v in calls]
        assert tried == list(range(k + 1, k + 1 + len(tried)))
        assert rung(result.path[1].step_length) == tried[-1]
        assert result.rejected == tried[-1]

    @pytest.mark.parametrize("failure", ["singular", "positivity",
                                         "residual", "implausible_dt"])
    def test_walk_past_the_target_ends_at_the_floor(self, monkeypatch,
                                                     example1, failure):
        # the walk starts at t = -1e-4 and heads down, so every rung
        # crosses; only the floor rung is corrected, and it fails as every
        # rung did when each was corrected.  Whatever the failure, the
        # floor rung ends the walk: no next-rung path of _trial is open
        # at a <= _A0, which is what ends the ladder's first range
        _, inst = instance_for(example1)
        v0 = inst.v0.copy()
        v0[-1] = -1e-4
        object.__setattr__(inst, "v0", v0)
        n = inst.n
        calls = []

        def corrector(inst, v):
            calls.append(v.copy())
            if failure == "singular":
                raise SingularJacobian("correction system has reciprocal "
                                       "condition 0.0")
            bad = v.copy()
            if failure == "residual":
                # y1 is not gated: positivity passes, ||H|| does not
                bad[n:2 * n] += 1e3
                assert path_tracer._positivity_gate(inst, bad)
                assert np.linalg.norm(eval_H(inst, bad)) > _R_ACCEPT
                return bad
            if failure == "implausible_dt":
                bad[-1] = v0[-1]  # back at the current t: dt = 0
            bad[0] = -1.0  # fails the positivity gate
            return bad

        real_trial, rungs = path_tracer._trial, []

        def trial(inst, current, tau, a):
            rungs.append(rung(a))
            assert len(rungs) <= 2 * FLOOR_RUNG, "the ladder does not end"
            return real_trial(inst, current, tau, a)

        monkeypatch.setattr(path_tracer, "corrector", corrector)
        monkeypatch.setattr(path_tracer, "_trial", trial)
        result = trace(inst)
        assert rungs == list(range(FLOOR_RUNG + 1))
        assert len(calls) == 1
        assert (np.linalg.norm(calls[0] - v0)
                == pytest.approx(_L0 ** FLOOR_RUNG))
        assert len(result.path) == 1
        assert result.rejected == FLOOR_RUNG + 1
        if failure == "singular":
            assert result.status is TraceStatus.SINGULAR_JACOBIAN
        else:
            assert result.status is TraceStatus.NO_PROGRESS
            assert result.detail.startswith("stalled within eps2 of the "
                                            "target hyperplane")


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
        assert _L0 ** FLOOR_RUNG <= _A0 < _L0 ** (FLOOR_RUNG - 1)
        assert result.rejected == FLOOR_RUNG + 1

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
    def test_every_point_of_an_unconverged_trace_gives_its_pair(
            self, example1):
        # no status is checked: each point's pair is its slack's readout
        lcp, inst = instance_for(example1)
        result = trace(inst, max_steps=3)
        assert result.status is TraceStatus.MAX_STEPS
        for point in result.path:
            assert extract_solution(point.x, lcp) == recover_vlcp_solution(
                lcp, lcp.M @ point.x + lcp.q)

    def test_trivial_lcp_with_positive_q(self):
        # endpoint z = 0 gives w = q; an odd block count is no game's,
        # so it is refused
        for q in (np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0, 4.0])):
            n = q.size
            lcp = SquareLcp(M=np.eye(n), q=q, block_sizes=(1,) * n)
            if n % 2:
                with pytest.raises(ValueError, match="3 blocks"):
                    extract_solution(np.zeros(n), lcp)
                continue
            # the pair is read off w = M z + q = q, one row per block
            assert extract_solution(np.zeros(n), lcp) == ((0, 0), (0, 0))

    def test_small_negatives_clamped(self, example1):
        lcp, inst = instance_for(example1)
        z = np.array([6.5, -5e-9, 5.5, 0.0, 7.5, 0.0, -1e-10, 8.5])
        # no clamping: tiny negatives pass through to w = M z + q, and
        # the pair read off it is example 1's optimal one
        assert extract_solution(z, lcp) == ((0, 0), (0, 1))
        x = block_sums(lcp, z)
        assert x.min() >= 0.0
        np.testing.assert_allclose(x[:2] + x[2:], [14.0, 14.0], atol=1e-6)


def small_mix_games() -> list:
    """Twelve seeded games in the shape of the benchmark's ``small_mix``
    workload: d <= 8, at most 3 actions per player."""
    rng = np.random.default_rng(10)
    return [random_arat_game(rng, d_max=8, actions_max=3) for _ in range(12)]


def trace_to_pair(game):
    """The endpoint of the game's trace (budget 1000) and the pair read
    off it, each block's smallest-index argmin slack row."""
    lcp, inst = instance_for(game)
    result = trace(inst, 1000)
    assert result.status is TraceStatus.CONVERGED
    return result.path[-1], extract_solution(result.path[-1].x, lcp)


class TestSpuriousEndpoints:
    """Some converged endpoints are spurious: y1_i = -w_i < 0 where
    x_i > 0, so x and the slack w are not complementary there.  This is a
    property of the paper's map, not of the step control: a tighter
    tracer ends at the same spurious endpoints.  A change to the map
    must update both assertions below (the spurious games, and the pair
    the tighter tracer reaches) and say why."""

    def test_spurious_count_is_pinned(self):
        spurious = []
        for k, game in enumerate(small_mix_games()):
            end, _ = trace_to_pair(game)
            if end.y1.min() < -1e-3:
                spurious.append(k)
        # all 12 traces converge; 3 endpoints are spurious
        assert spurious == [0, 9, 10]

    def test_solve_stages_are_pinned(self):
        # the pair of a spurious endpoint can still be optimal (games 9
        # and 10); game 0's is not
        assert [certify(game, *trace_to_pair(game)[1]).passed
                 for game in small_mix_games()] == [False] + [True] * 11
        # but the anchor's pair answers 11 of the 12 games, the three
        # spurious ones included; only game 5 is traced, and its
        # endpoint's pair answers
        answers = [cli.solve(game, 1000) for game in small_mix_games()]
        assert all(answer.passed for answer in answers)
        assert [answer.stage for answer in answers] == (
            ["path"] * 5 + ["endpoint"] + ["path"] * 6)
        assert [k for k, answer in enumerate(answers)
                if answer.result is not None] == [5]

    def test_games_whose_anchor_pair_fails_keep_their_stage_and_pair(self):
        # the stage and pair each game was answered with when solve
        # certified no pair before tracing: a game whose anchor pair
        # fails is answered as then; one whose anchor pair passes is
        # answered by that pair, untraced, at stage path, and on these
        # games it is the pair the traced path answered with
        traced = {
            0: ("path", ((0, 0, 1, 1, 0, 1, 0), (0, 1, 0, 2, 0, 1, 0))),
            1: ("endpoint", ((0, 0, 2, 0, 0), (2, 0, 2, 1, 0))),
            2: ("endpoint", ((0, 1, 0, 1), (1, 0, 0, 2))),
            3: ("endpoint", ((0, 0, 1, 0, 2, 0), (0, 0, 1, 0, 1, 1))),
            4: ("endpoint", ((0, 0, 2, 2, 0), (1, 0, 1, 0, 1))),
            5: ("endpoint", ((2, 0, 0), (0, 0, 1))),
            6: ("endpoint", ((0, 0, 0, 0), (0, 1, 0, 0))),
            7: ("endpoint", ((0,), (2,))),
            8: ("endpoint", ((1, 0, 0, 0, 0, 0, 2, 0),
                             (0, 1, 0, 0, 2, 1, 0, 0))),
            9: ("endpoint", ((0, 0, 0, 1, 0), (1, 0, 0, 1, 0))),
            10: ("endpoint", ((0, 0, 1), (0, 0, 0))),
            11: ("endpoint", ((0, 0, 1, 0), (0, 0, 0, 1))),
        }
        for k, game in enumerate(small_mix_games()):
            lcp = to_equivalent_lcp(build_vlcp(game))
            anchor = extract_solution(find_interior_point(lcp)[1], lcp)
            answer = cli.solve(game, 1000)
            pair = (answer.certificate.strategy_i,
                    answer.certificate.strategy_ii)
            if certify(game, *anchor).passed:
                assert answer.result is None, k
                assert (answer.stage, pair) == ("path", anchor), k
                assert pair == traced[k][1], k
            else:
                assert answer.result is not None, k
                assert (answer.stage, pair) == traced[k], k
            np.testing.assert_allclose(answer.certificate.value,
                                       value_iteration(game).v, atol=1e-6)

    @pytest.mark.parametrize("k", [9, 10])
    def test_tighter_tracer_reaches_the_same_pair(self, monkeypatch, k):
        game = small_mix_games()[k]
        _, pair = trace_to_pair(game)
        # a residual gate 1e6 times tighter and two corrector passes
        monkeypatch.setattr(path_tracer, "_R_ACCEPT", 1e-6)
        monkeypatch.setattr(path_tracer, "_M", 2)
        end, tight_pair = trace_to_pair(game)
        assert end.y1.min() < -1e-3
        assert tight_pair == pair
