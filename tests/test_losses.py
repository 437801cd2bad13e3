import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glasd.errors import (
    DegenerateDataError,
    DomainMismatchError,
    MalformedDataError,
    NotPositiveDefiniteError,
)
from glasd.losses import (
    LOSS_KINDS,
    _forward,
    _loss_robust_from_factor,
    _loss_value,
    AngleObjective,
    DataMatrix,
    LossSpec,
    iqr_threshold,
    loss_gaussian,
    loss_robust,
    mahalanobis_sq_all,
    outlier_report,
    pilot_correlation,
    read_data_csv,
    resolved_spec,
    rho_huber,
    rho_truncated,
    rho_tukey,
    sample_correlation,
    shrink_to_pd,
    standardize_columns,
)
from glasd.estimate import estimate_correlation
from glasd.manifold import check_correlation, cholesky_rows, corr_to_angles, default_angle_box

TWO = np.array([[1.0, 0.5], [0.5, 1.0]])


class TestMahalanobis:
    def test_identity_metric(self):
        d2 = mahalanobis_sq_all(np.array([[3.0, 4.0]]), np.eye(2))
        assert d2[0] == pytest.approx(25.0, abs=1e-12)

    def test_correlated_metric_closed_form(self):
        # 2x2 inverse in closed form: (2 - 2*rho) / (1 - rho^2)
        d2 = mahalanobis_sq_all(np.array([[1.0, 1.0]]), TWO)
        assert d2[0] == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_zero_vector(self):
        d2 = mahalanobis_sq_all(np.array([[0.0, 0.0]]), TWO)
        assert d2[0] == pytest.approx(0.0, abs=1e-15)

    def test_non_pd_raises(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            mahalanobis_sq_all(np.array([[1.0, 1.0]]), bad)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainMismatchError):
            mahalanobis_sq_all(np.ones((3, 3)), np.eye(2))

    @pytest.mark.parametrize("call", [
        mahalanobis_sq_all,
        lambda X, C: loss_robust(X, C, LossSpec("huber", "iqr-auto")),
    ], ids=["mahalanobis_sq_all", "loss_robust"])
    def test_one_data_width_rule(self, call):
        with pytest.raises(DomainMismatchError,
                           match="data has 3 columns but the matrix is 2 x 2"):
            call(np.ones((5, 3)), TWO)

    def test_matches_explicit_inverse_on_fuzz(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = int(rng.integers(2, 7))
            A = rng.standard_normal((p + 3, p))
            S = A.T @ A / (p + 3) + 0.2 * np.eye(p)
            d = np.sqrt(np.diag(S))
            C = S / np.outer(d, d)
            X = rng.standard_normal((6, p))
            expected = np.einsum("ij,jk,ik->i", X, np.linalg.inv(C), X)
            got = mahalanobis_sq_all(X, C)
            assert np.abs(got - expected).max() < 1e-8


class TestForward:
    @settings(deadline=None, max_examples=200)
    # cond(L) ~ 3.7e16: here _forward and np.linalg.solve differ by 111
    # relative, since the dense solve's own error is of the same size
    @example(p=12, cols=1, seed=3113677, corners=0.3125)
    @given(p=st.integers(2, 12), cols=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
           corners=st.floats(0.0, 1.0))
    def test_matches_dense_solve(self, p, cols, seed, corners):
        # angles at the box bounds put diagonals of the factor near 1e-6.
        # Forward substitution is componentwise backward stable, as a dense
        # solve is: |B - L Y| <= p eps |L| |Y|, and forming the residual costs
        # as much again
        rng = np.random.default_rng(seed)
        box = default_angle_box(p)
        a = rng.uniform(box.lower, box.upper)
        hit = rng.random(a.size) < corners
        a[hit] = np.where(rng.random(a.size) < 0.5, box.lower, box.upper)[hit]
        L = cholesky_rows(a)
        B = np.hstack([rng.standard_t(3.0, (p, cols)), np.eye(p)])
        Y = _forward(L, B)
        bound = 2 * p * np.finfo(float).eps * (np.abs(L) @ np.abs(Y))
        assert np.all(np.abs(B - L @ Y) <= bound)


class TestGaussianLoss:
    def test_single_row_identity(self):
        assert loss_gaussian(np.array([[3.0, 4.0]]), np.eye(2)) == pytest.approx(12.5, abs=1e-12)

    def test_two_rows_closed_form(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        expected = math.log(0.75) + 4.0 / 3.0
        assert loss_gaussian(X, TWO) == pytest.approx(expected, abs=1e-12)

    def test_quadratic_scaling(self):
        for a in (0.5, 2.0, 7.0):
            X = np.array([[a, 0.0], [a, 0.0]])
            assert loss_gaussian(X, np.eye(2)) == pytest.approx(a * a, abs=1e-12)


class TestRhoFunctions:
    def test_huber_values(self):
        assert rho_huber(1.0, 4.0) == pytest.approx(1.0, abs=0)
        assert rho_huber(9.0, 4.0) == pytest.approx(8.0, abs=1e-12)
        assert rho_huber(4.0, 4.0) == pytest.approx(4.0, abs=0)

    def test_tukey_values(self):
        assert rho_tukey(0.0, 3.0) == pytest.approx(0.0, abs=0)
        assert rho_tukey(9.0, 3.0) == pytest.approx(1.5, abs=1e-12)
        assert rho_tukey(4.5, 3.0) == pytest.approx(1.3125, abs=1e-12)

    def test_continuity_at_knots(self):
        eps = 1e-9
        assert abs(rho_huber(4.0 + eps, 4.0) - rho_huber(4.0 - eps, 4.0)) < 1e-8
        assert abs(rho_tukey(9.0 + eps, 3.0) - rho_tukey(9.0 - eps, 3.0)) < 1e-8
        assert abs(rho_truncated(5.0 + eps, 5.0) - rho_truncated(5.0 - eps, 5.0)) < 1e-8

    @given(st.floats(0.0, 1e6), st.floats(0.0, 1e6))
    def test_monotone_in_d2(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert rho_huber(lo, 4.0) <= rho_huber(hi, 4.0) + 1e-12
        assert rho_tukey(lo, 3.0) <= rho_tukey(hi, 3.0) + 1e-12
        assert rho_truncated(lo, 5.0) <= rho_truncated(hi, 5.0)

    @given(st.floats(0.0, 1e6), st.floats(1e-3, 1e3))
    def test_bounds(self, d2, tau):
        assert rho_tukey(d2, tau) <= tau * tau / 6.0 + 1e-12
        assert rho_truncated(d2, tau) <= d2
        assert rho_huber(d2, tau) <= d2 + 1e-9


class TestRobustLoss:
    X = np.array([[0.3, -0.2], [1.0, 0.4], [-0.5, 0.9]])

    def test_equals_gaussian_when_thresholds_inactive(self):
        base = loss_gaussian(self.X, TWO)
        big = 1e6
        for kind in ("huber", "truncated"):
            val = loss_robust(self.X, TWO, LossSpec(kind, big))
            assert val == base

    def test_truncated_example(self):
        X = np.array([[3.0, 4.0]])
        val = loss_robust(X, np.eye(2), LossSpec("truncated", 5.0))
        assert val == pytest.approx(2.5, abs=1e-12)

    def test_dominated_by_gaussian(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            X = rng.standard_normal((8, 2)) * 3
            thr = float(rng.uniform(0.5, 10))
            base = loss_gaussian(X, TWO)
            for kind in ("huber", "truncated", "tukey"):
                assert loss_robust(X, TWO, LossSpec(kind, thr)) <= base + 1e-12

    @pytest.mark.parametrize("kwargs", [
        {"threshold": math.inf},
        # a gaussian spec checks a threshold before it drops it
        {"kind": "gaussian", "threshold": math.inf},
        {"kind": "gaussian", "threshold": -1.0},
        {"kind": "gaussian", "threshold": "iqr"},
        {"threshold": "median"},
        # a bool is not a number of the d^2 scale
        {"threshold": True},
        {"threshold": np.True_},
        {"kind": "gaussian", "threshold": True},
    ])
    def test_spec_numbers_checked(self, kwargs):
        # a threshold must be a positive finite number or a policy
        with pytest.raises(ValueError):
            LossSpec(**{"kind": "huber", **kwargs})

    def test_gaussian_spec_stores_no_threshold(self):
        assert LossSpec("gaussian", 5.0).threshold is None
        assert LossSpec("gaussian", "iqr-pilot") == LossSpec("gaussian")

    def test_unresolved_pilot_threshold_rejected(self):
        with pytest.raises(ValueError):
            loss_robust(self.X, TWO, LossSpec("huber", "iqr-pilot"))

    def test_dynamic_threshold_is_current_metric_cutoff(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((40, 2))
        d2 = mahalanobis_sq_all(X, TWO)
        expected = loss_robust(X, TWO, LossSpec("truncated", iqr_threshold(d2)))
        got = loss_robust(X, TWO, LossSpec("truncated", "iqr-auto"))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_fast_cutoff_matches_quantile_convention(self):
        rng = np.random.default_rng(10)
        for n in (4, 7, 40, 101):
            d2 = rng.uniform(0, 50, n)
            q1, q3 = np.quantile(d2, [0.25, 0.75])
            assert iqr_threshold(d2) == pytest.approx(q3 + 3.0 * (q3 - q1), rel=1e-14)

    @settings(max_examples=300)
    # tukey's 1 - (1 - u)^3 cancels for u << 1 unless written without the
    # subtraction; a subnormal result carries no relative accuracy at all
    @example(kind="tukey", d2=[0.0, 0.0, 0.0, 1.3181207996528282e-19])
    @example(kind="tukey", d2=[0.0, 0.0, 0.0, 5e-324])
    @example(kind="tukey", d2=[0.0, 0.0, 5e-324, 5e-324])
    @given(kind=st.sampled_from(["huber", "truncated", "tukey"]),
           d2=st.lists(st.floats(0.0, 1e4), min_size=4, max_size=200))
    def test_sorted_split_matches_rho_reference(self, kind, d2):
        # 'iqr-auto' splits the sorted distances at the cutoff; the rho_*
        # functions with the same cutoff are the reference
        d2 = np.array(d2)
        thr = iqr_threshold(d2)
        rho = {"huber": lambda: rho_huber(d2, thr),
               "truncated": lambda: rho_truncated(d2, thr),
               "tukey": lambda: rho_tukey(d2, math.sqrt(thr))}[kind]()
        ref = float(np.sum(rho))
        got = 2.0 * _loss_value(d2.size, 0.0, d2, kind, "iqr-auto")
        assert abs(got - ref) <= 1e-12 * ref + np.finfo(float).tiny

    def test_tukey_small_distances_keep_relative_accuracy(self):
        # rho(d2) = d2/2 - d2^2/(2 tau^2) + ... near zero
        tau = 2.0
        for d2 in (1e-19, 1e-12, 1e-6):
            exact = 0.5 * d2 - d2 * d2 / (2 * tau**2) + d2**3 / (6 * tau**4)
            assert rho_tukey(d2, tau) == pytest.approx(exact, rel=1e-15)

    def test_dynamic_threshold_bounded_near_singular(self):
        # frozen cutoffs leave the truncated objective unbounded below as the
        # metric degenerates; the per-evaluation cutoff keeps it coercive
        rng = np.random.default_rng(9)
        X = rng.standard_normal((50, 3))
        base = loss_robust(X, np.eye(3), LossSpec("truncated", "iqr-auto"))
        for rho in (0.9, 0.99, 0.999, 0.99999):
            C = np.full((3, 3), rho)
            np.fill_diagonal(C, 1.0)
            assert loss_robust(X, C, LossSpec("truncated", "iqr-auto")) > base


# one move: (coordinate pick, position in the box, accept?, shape of the move)
MOVES = st.tuples(st.integers(0, 10**6), st.floats(0.0, 1.0), st.booleans(),
                  st.sampled_from(["one", "same", "jump"]))


class TestAngleObjective:
    @staticmethod
    def _spec(kind, policy, X, rng):
        if kind == "gaussian":
            return LossSpec("gaussian")
        if policy == "number":
            return LossSpec(kind, float(rng.uniform(0.5, 4.0 * X.shape[1])))
        return resolved_spec(X, LossSpec(kind, policy))

    @settings(deadline=None, max_examples=150)
    # a full solve at a near-singular point (row 1 diagonal 1e-6), then a
    # one-angle move back to a well-conditioned one
    @example(p=4, kind="gaussian", policy="number", seed=1,
             moves=[(0, 0.0, False, "jump"), (0, 0.0, False, "one"),
                    (0, 0.5, False, "one")])
    # a full solve at a near-singular point, an accepted move in row 2 (a
    # rank-one update of row 3 of L^{-1}), then a move in row 1 whose tail
    # vector reads that updated row
    @example(p=4, kind="huber", policy="iqr-auto", seed=2,
             moves=[(0, 0.0, True, "jump"), (1, 0.5, True, "one"),
                    (0, 1e-7, False, "one"), (0, 1e-6, True, "one"),
                    (2, 0.2, False, "one")])
    # a move into a near-singular point, accepted; a rejected move out of it,
    # which the growth guard solves afresh; then a move in another angle,
    # which must not start from the rejected point
    @example(p=3, kind="gaussian", policy="number", seed=0,
             moves=[(0, 0.0, True, "one"), (0, 0.5, False, "one"),
                    (1, 0.0, False, "one")])
    # an accepted move into a near-singular point, then a move out of it whose
    # squared norms fall 1e6-1e8 below the base's: the growth guard must
    # solve it afresh to keep the 1e-10 agreement
    @example(p=2, kind="gaussian", policy="number", seed=1,
             moves=[(0, 1e-06, True, "one"), (0, 0.0078125, False, "one")])
    # the refused move out of a near-singular point accepted, so the objective
    # adopts its solve; then one-pass moves from that adopted base, the first
    # accepted into it in place
    @example(p=3, kind="gaussian", policy="number", seed=0,
             moves=[(0, 0.0, True, "one"), (0, 0.5, True, "one"),
                    (1, 0.3, True, "one"), (0, 0.2, False, "one")])
    @given(p=st.integers(2, 12), kind=st.sampled_from(LOSS_KINDS),
           policy=st.sampled_from(["number", "iqr-pilot", "iqr-auto"]),
           seed=st.integers(0, 2**32 - 1), moves=st.lists(MOVES, min_size=1, max_size=40))
    def test_matches_full_evaluation(self, p, kind, policy, seed, moves):
        # the caller's current point follows accept/reject, and a jump in two
        # angles is a new start; every evaluated point must agree with the
        # reference evaluation from the full factor
        rng = np.random.default_rng(seed)
        X = standardize_columns(rng.standard_t(3.0, (p + int(rng.integers(4, 40)), p)))
        spec = self._spec(kind, policy, X, rng)
        box = default_angle_box(p)
        f = AngleObjective(X, spec)

        def check(a, value):
            ref = _loss_robust_from_factor(X, cholesky_rows(a), spec)
            assert value == pytest.approx(ref, rel=1e-10, abs=1e-10)

        current = rng.uniform(box.lower, box.upper)
        check(current, f(current))
        i = 0
        for pick, frac, accept, shape in moves:
            a = current.copy()
            if shape != "same":
                i = pick % a.size
            a[i] = box.lower[i] + frac * (box.upper[i] - box.lower[i])
            if shape == "jump":
                j = (i + 1 + pick // a.size) % a.size
                a[j] = rng.uniform(box.lower[j], box.upper[j])
                check(a, f(a))
                current = a
                continue
            check(a, f.move(a, i))
            if accept:
                f.accept()
                current = a

    @pytest.mark.parametrize("kind", ["gaussian", "huber", "tukey"])
    def test_long_walk_stays_exact(self, kind):
        # 2,000 one-angle moves, half redraws and half small steps, accepted on
        # descent or else with probability 0.05: each accept updates the
        # cached whitened data in place, and its rounding must not build up
        rng = np.random.default_rng(14)
        p = 12
        X = standardize_columns(rng.standard_t(3.0, (60, p)))
        spec = LossSpec(kind, None if kind == "gaussian" else "iqr-auto")
        box = default_angle_box(p)
        f = AngleObjective(X, spec)
        current = rng.uniform(box.lower, box.upper)
        value = f(current)
        for k in range(2000):
            a = current.copy()
            i = int(rng.integers(a.size))
            if k % 2:
                a[i] = rng.uniform(box.lower[i], box.upper[i])
            else:
                step = 0.05 * (box.upper[i] - box.lower[i]) * rng.standard_normal()
                a[i] = min(max(a[i] + step, box.lower[i]), box.upper[i])
            moved = f.move(a, i)
            if k % 100 == 99:
                ref = _loss_robust_from_factor(X, cholesky_rows(a), spec)
                assert moved == pytest.approx(ref, rel=1e-10)
            if moved < value or rng.uniform() < 0.05:
                f.accept()
                current, value = a, moved

    def test_one_angle_move_skips_the_full_rebuild(self, monkeypatch):
        import glasd.manifold

        rng = np.random.default_rng(4)
        p = 6
        X = rng.standard_normal((30, p))
        box = default_angle_box(p)
        f = AngleObjective(X, LossSpec("tukey", "iqr-auto"))
        calls = []
        # the full path (shared with every angle objective) lives in manifold
        monkeypatch.setattr(glasd.manifold, "cholesky_rows",
                            lambda a: (calls.append(1), cholesky_rows(a))[1])
        a = rng.uniform(box.lower, box.upper)
        f(a)
        assert len(calls) == 1
        for i in (0, 7, 14, 7):
            a = a.copy()
            a[i] = rng.uniform(box.lower[i], box.upper[i])
            f.move(a, i)
            f.accept()                        # the next move starts here
        assert len(calls) == 1
        f(a)                                  # a plain call: always the full path
        assert len(calls) == 2

    def test_null_move_is_not_evaluated(self, monkeypatch):
        # a step toward a bound the angle sits on leaves the point as it is,
        # as at the warm start corr_to_angles(I), whose rows >= 3 start at
        # their first angle's lower bound 0
        import glasd.losses
        import glasd.manifold

        X = np.random.default_rng(5).standard_normal((30, 4))
        f = AngleObjective(X, LossSpec("huber", "iqr-auto"))
        a = corr_to_angles(np.eye(4))
        value = f(a)
        calls = []
        monkeypatch.setattr(glasd.manifold, "cholesky_rows",
                            lambda a: (calls.append("cholesky_rows"), cholesky_rows(a))[1])
        monkeypatch.setattr(glasd.losses, "_loss_value",
                            lambda *args: (calls.append("loss"), _loss_value(*args))[1])
        for i in (1, 3):
            assert a[i] == 0.0
            assert f.move(a.copy(), i) == value
        assert calls == []

    def test_growth_guard_covers_identity_columns(self, monkeypatch):
        # at a near-singular point whose near-null direction (x0 + x1) the data
        # avoids, only columns of L^{-1} are large; leaving the point shrinks
        # them by ~1e12, and that alone must send the move to a fresh solve
        import glasd.losses

        p = 3
        box = default_angle_box(p)
        x = np.random.default_rng(0).standard_normal((2, 40))
        X = np.column_stack([x[0], -x[0], x[1]])
        spec = LossSpec("gaussian")
        f = AngleObjective(X, spec)
        a = 0.5 * (box.lower + box.upper)
        a[0] = box.lower[0]                 # row 1 diagonal 1e-6
        b = a.copy()
        b[0] = 0.0
        c = b.copy()
        c[1] = box.lower[1]
        ref_b, ref_c = (_loss_robust_from_factor(X, cholesky_rows(v), spec) for v in (b, c))
        fresh = AngleObjective(X, spec)
        fresh(b)
        calls = []
        monkeypatch.setattr(glasd.losses, "_forward",
                            lambda L, B: (calls.append(1), _forward(L, B))[1])
        f(a)
        assert len(calls) == 1
        assert f.move(b, 0) == pytest.approx(ref_b, rel=1e-13)
        assert len(calls) == 2
        f.accept()                          # accepting it adopts that solve
        assert len(calls) == 2
        # bit for bit the state of a full evaluation at b
        for name in ("_Y", "_sq", "_sq_floor"):
            assert getattr(f, name).tobytes() == getattr(fresh, name).tobytes(), name
        assert f.move(c, 1) == pytest.approx(ref_c, rel=1e-13)
        assert len(calls) == 2

    def test_dimension_mismatch(self):
        f = AngleObjective(np.ones((5, 3)) + np.eye(5, 3), LossSpec("gaussian"))
        with pytest.raises(DomainMismatchError):
            f(np.zeros(6))

    def test_unresolved_pilot_threshold_rejected(self):
        with pytest.raises(ValueError):
            AngleObjective(np.eye(4, 2), LossSpec("huber", "iqr-pilot"))


class TestIqrThreshold:
    def test_worked_example(self):
        assert iqr_threshold([1, 2, 3, 4]) == pytest.approx(7.75, abs=1e-12)

    def test_constant_vector(self):
        assert iqr_threshold([3.0] * 6) == pytest.approx(3.0, abs=0)

    def test_needs_four_values(self):
        with pytest.raises(ValueError):
            iqr_threshold([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            iqr_threshold([1.0, 2.0, bad, 4.0, 5.0])


class TestResolveThreshold:
    def test_whitened_columns_reduce_to_plain_norms(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((400, 4))
        # orthogonalize columns so the sample correlation is exactly I
        q, _ = np.linalg.qr(X - X.mean(axis=0))
        Xw = q * math.sqrt(400 - 1)
        S = sample_correlation(Xw)
        assert np.abs(S - np.eye(4)).max() < 1e-10
        thr = resolved_spec(Xw, LossSpec("truncated", "iqr-pilot")).threshold
        d2 = np.sum(Xw**2, axis=1)
        assert thr == pytest.approx(iqr_threshold(d2), rel=1e-12)

    def test_chi_square_bracket(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((1000, 5))
        thr = resolved_spec(X, LossSpec("huber", "iqr-pilot")).threshold
        assert 11.0 <= thr <= 30.0

    def test_shifted_row_exceeds_threshold(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((200, 5))
        X[13] += 100.0
        thr = resolved_spec(X, LossSpec("truncated", "iqr-pilot")).threshold
        d2 = mahalanobis_sq_all(X, pilot_correlation(X))
        assert d2[13] > thr

    def test_degenerate_column(self):
        X = np.ones((50, 3))
        X[:, 1] = np.arange(50)
        X[:, 2] = np.arange(50) ** 2
        with pytest.raises(DegenerateDataError):
            resolved_spec(X, LossSpec("huber", "iqr-pilot"))


class TestShrinkage:
    def test_already_pd_untouched(self):
        out = shrink_to_pd(TWO)
        assert np.array_equal(out, TWO)

    def test_repairs_indefinite(self):
        C = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        assert np.linalg.eigvalsh(C).min() < 0
        out = shrink_to_pd(C)
        assert np.linalg.eigvalsh(out).min() >= 1e-3 - 1e-12
        assert np.allclose(np.diag(out), 1.0)
        # minimality: floor reached, not exceeded by much
        assert np.linalg.eigvalsh(out).min() == pytest.approx(1e-3, rel=1e-6)

    def test_preserves_zero_pattern(self):
        # two 2x2 blocks with smallest eigenvalue 1e-4, under the 1e-3 floor
        C = np.eye(4)
        C[0, 1] = C[1, 0] = 0.9999
        C[2, 3] = C[3, 2] = -0.9999
        out = shrink_to_pd(C)
        assert not np.array_equal(out, C)
        assert np.linalg.eigvalsh(out).min() == pytest.approx(1e-3, rel=1e-6)
        assert out[0, 2] == 0.0 and out[1, 3] == 0.0


class TestOutlierReport:
    def test_single_outlier(self):
        X = np.column_stack([[1, 2, 3, 4, 100], [1, 2, 3, 4, 5]]).astype(float)
        counts = dict(outlier_report(X))
        assert counts["x1"] == 1
        assert counts["x2"] == 0

    def test_constant_column(self):
        X = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        counts = dict(outlier_report(X))
        assert counts["x1"] == 0

    def test_normal_rate(self):
        rng = np.random.default_rng(11)
        X = np.column_stack([rng.standard_normal(10_000), rng.standard_normal(10_000)])
        counts = dict(outlier_report(X))
        for name in ("x1", "x2"):
            assert 0.003 <= counts[name] / 10_000 <= 0.012

    def test_uses_column_names(self):
        dm = DataMatrix(np.random.default_rng(0).standard_normal((20, 2)),
                        column_names=["alpha", "beta"])
        counts = dict(outlier_report(dm))
        assert set(counts) == {"alpha", "beta"}


class TestDataMatrix:
    @pytest.mark.parametrize("values, names, match", [
        (np.ones((1, 3)), None, "at least 2 rows"),
        (np.eye(3), ["a", "b"], "column_names length"),
    ], ids=["one-row", "names-length"])
    def test_shape_checked(self, values, names, match):
        with pytest.raises(MalformedDataError, match=match):
            DataMatrix(values, column_names=names)


class TestStandardize:
    def test_zero_mean_unit_sd(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((100, 3)) * 5 + 2
        Z = standardize_columns(X)
        assert np.abs(Z.mean(axis=0)).max() < 1e-12
        assert np.abs(Z.std(axis=0, ddof=1) - 1).max() < 1e-12

    def test_constant_column_raises(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        with pytest.raises(DegenerateDataError):
            standardize_columns(X)


class TestNonFiniteData:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("call", [
        lambda X: estimate_correlation(X, LossSpec("gaussian"), n_starts=1, master_seed=0),
        lambda X: loss_robust(X, np.eye(3), LossSpec("huber", "iqr-auto")),
        lambda X: mahalanobis_sq_all(X, np.eye(3)),
        lambda X: AngleObjective(X, LossSpec("gaussian")),
        standardize_columns,
    ], ids=["estimate_correlation", "loss_robust", "mahalanobis_sq_all",
            "AngleObjective", "standardize_columns"])
    def test_fails_loudly(self, call, bad):
        X = np.random.default_rng(13).standard_normal((20, 3))
        X[4, 1] = bad
        with pytest.raises(MalformedDataError):
            call(X)

    def test_one_dimensional_rejected(self):
        with pytest.raises(MalformedDataError):
            mahalanobis_sq_all(np.ones(3), np.eye(3))


def nan_pair():
    C = np.eye(3)
    C[0, 1] = C[1, 0] = math.nan
    return C


def lower_only(asymmetry=0.5):
    C = np.eye(3)
    C[1, 0] = asymmetry          # the upper triangle keeps 0
    return C


class TestBadMatrix:
    @pytest.mark.parametrize("C", [nan_pair(), lower_only()], ids=["nan", "asymmetric"])
    @pytest.mark.parametrize("call", [
        corr_to_angles,
        lambda C: loss_robust(np.ones((5, 3)), C, LossSpec("huber", "iqr-auto")),
        lambda C: mahalanobis_sq_all(np.ones((5, 3)), C),
    ], ids=["corr_to_angles", "loss_robust", "mahalanobis_sq_all"])
    def test_fails_loudly(self, call, C):
        # np.linalg.cholesky returns NaN for the one and reads only the lower
        # triangle of the other
        with pytest.raises(NotPositiveDefiniteError):
            call(C)

    @pytest.mark.parametrize("call", [
        lambda C: loss_robust(np.ones((5, 3)), C, LossSpec("gaussian")),
        lambda C: mahalanobis_sq_all(np.ones((5, 3)), C),
        corr_to_angles,
        check_correlation,
    ], ids=["loss_robust", "mahalanobis_sq_all", "corr_to_angles", "check_correlation"])
    def test_not_square(self, call):
        with pytest.raises(DomainMismatchError, match="square"):
            call(np.eye(3, 4))

    def test_asymmetry_tolerance(self):
        # an asymmetry of 1e-12 max|C| is rounding; 1e-11 is not
        corr_to_angles(lower_only(asymmetry=1e-12))
        with pytest.raises(NotPositiveDefiniteError, match="symmetric"):
            corr_to_angles(lower_only(asymmetry=1e-11))


class TestCsvLoading:
    def test_header_detection(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        dm = read_data_csv(path)
        assert dm.column_names == ["a", "b"]
        assert dm.values.shape == (2, 2)

    def test_headerless(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        dm = read_data_csv(path)
        assert dm.column_names is None
        assert dm.names() == ["x1", "x2"]

    @pytest.mark.parametrize("text, names", [
        ("1,2\n3,4\n5,7\n", None), ("a,b\n1,2\n3,4\n5,7\n", ["a", "b"]),
    ], ids=["headerless", "header"])
    def test_byte_order_mark_dropped(self, tmp_path, text, names):
        # a spreadsheet export may start with one; read as a cell, it would
        # turn a headerless file's first observation into a header
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        dm = read_data_csv(path)
        assert dm.column_names == names
        assert dm.values.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]]

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(MalformedDataError):
            read_data_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(MalformedDataError):
            read_data_csv(path)

    def test_nan_is_hard_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\nnan,4\n")
        with pytest.raises(MalformedDataError):
            read_data_csv(path)

    @pytest.mark.parametrize("text, match", [
        (b"", "empty file"), (b"\n\n", "empty file"), (b"a,b\n", "no data rows"),
        (b"a,b\n1,\xff\n", "not UTF-8"),
    ], ids=["empty", "blank-lines", "header-only", "not-utf8"])
    def test_no_data_or_bad_encoding_is_hard_error(self, tmp_path, text, match):
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        with pytest.raises(MalformedDataError, match=match):
            read_data_csv(path)
