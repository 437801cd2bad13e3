import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glasd.errors import DomainMismatchError, NotPositiveDefiniteError
from glasd.manifold import (
    ANGLE_MARGIN,
    angle_dim,
    angles_to_corr,
    check_correlation,
    cholesky_rows,
    corr_to_angles,
    default_angle_box,
    factor_row,
    matrix_dim,
    minimize_over_corr,
)
from glasd.optimizer import OptimizerConfig


def interior_angles(M, rng, margin=1e-3):
    box = default_angle_box(M)
    return rng.uniform(box.lower + margin, box.upper - margin)


class TestAngleDim:
    @pytest.mark.parametrize("M,n", [(2, 1), (3, 3), (50, 1225)])
    def test_counts(self, M, n):
        assert angle_dim(M) == n
        assert matrix_dim(n) == M

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            angle_dim(1)

    def test_rejects_non_triangular(self):
        with pytest.raises(DomainMismatchError):
            matrix_dim(4)


class TestAngleBox:
    def test_m2(self):
        box = default_angle_box(2)
        assert box.dim == 1
        assert box.lower[0] == pytest.approx(-math.pi / 2 + 1e-6, abs=0)
        assert box.upper[0] == pytest.approx(math.pi / 2 - 1e-6, abs=0)

    def test_m3(self):
        box = default_angle_box(3)
        assert box.dim == 3
        # row-3 block: first angle then the full-circle last angle
        assert box.lower[1] == 0.0 and box.upper[1] == pytest.approx(math.pi / 2 - 1e-6)
        assert box.lower[2] == 0.0 and box.upper[2] == pytest.approx(2 * math.pi - 1e-6)

    def test_m4_middle_angle(self):
        box = default_angle_box(4)
        assert box.dim == 6
        # row-4 block is (first, middle, last)
        assert box.lower[4] == pytest.approx(1e-6)
        assert box.upper[4] == pytest.approx(math.pi - 1e-6)


class TestForwardMap:
    def test_identity_at_zero_angle(self):
        C = angles_to_corr(np.zeros(1))
        assert np.array_equal(C, np.eye(2))

    def test_half_correlation(self):
        C = angles_to_corr(np.array([math.pi / 6]))
        assert C[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert C[0, 1] == C[1, 0]

    def test_m3_against_hand_built_factor(self):
        w21, w31, w32 = 0.3, 0.4, 1.0
        # straightforward reconstruction of the factor, then a dense product
        L = np.array([
            [1.0, 0.0, 0.0],
            [math.sin(w21), math.cos(w21), 0.0],
            [math.sin(w31) * math.sin(w32), math.sin(w31) * math.cos(w32), math.cos(w31)],
        ])
        expected = L @ L.T
        C = angles_to_corr(np.array([w21, w31, w32]))
        assert np.allclose(C, expected, atol=1e-15)
        assert C[1, 0] == pytest.approx(math.sin(0.3), abs=1e-15)
        assert C[2, 0] == pytest.approx(math.sin(0.4) * math.sin(1.0), abs=1e-15)
        assert C[2, 1] == pytest.approx(
            math.sin(0.3) * math.sin(0.4) * math.sin(1.0)
            + math.cos(0.3) * math.sin(0.4) * math.cos(1.0),
            abs=1e-15,
        )

    def test_wrong_angle_count(self):
        with pytest.raises(DomainMismatchError):
            angles_to_corr(np.zeros(4))

    def test_factor_rows_unit_norm(self):
        rng = np.random.default_rng(0)
        for M in (2, 3, 5, 11):
            L = cholesky_rows(interior_angles(M, rng))
            norms = np.linalg.norm(L, axis=1)
            assert np.abs(norms - 1.0).max() < 1e-12
            assert (np.diag(L) > 0).all()

    def test_single_row_builder_matches_full_factor(self):
        rng = np.random.default_rng(2)
        for M in range(2, 16):
            box = default_angle_box(M)
            for _ in range(10):
                a = rng.uniform(box.lower, box.upper)
                L = cholesky_rows(a)
                for r in range(1, M):
                    off = r * (r - 1) // 2
                    assert np.array_equal(factor_row(a[off:off + r]), L[r, :r + 1])

    def test_fuzzed_outputs_are_correlations(self):
        rng = np.random.default_rng(1)
        for M in range(2, 21):
            box = default_angle_box(M)
            for _ in range(25):
                C = angles_to_corr(rng.uniform(box.lower, box.upper))
                check_correlation(C)


class TestInverseMap:
    def test_identity_recovers_zero_first_angles(self):
        a = corr_to_angles(np.eye(3))
        assert a[0] == 0.0          # row-2 angle
        assert a[1] == 0.0          # row-3 first angle
        # unidentified tail angle lands mid-interval
        assert a[2] == pytest.approx((2 * math.pi - ANGLE_MARGIN) / 2)

    def test_two_by_two(self):
        C = np.array([[1.0, 0.5], [0.5, 1.0]])
        a = corr_to_angles(C)
        assert a[0] == pytest.approx(math.asin(0.5), abs=1e-12)

    def test_rejects_non_pd(self):
        C = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            corr_to_angles(C)

    def test_roundtrip_angles_first(self):
        rng = np.random.default_rng(2)
        a = interior_angles(5, rng)
        back = corr_to_angles(angles_to_corr(a))
        assert np.abs(a - back).max() < 1e-8

    @settings(max_examples=40, deadline=None)
    @example(M=5, seed=455)     # cond(C) = 8.5e9, angle error 2.9e-8
    @given(M=st.integers(2, 8), seed=st.integers(0, 10_000))
    def test_roundtrip_property(self, M, seed):
        rng = np.random.default_rng(seed)
        a = interior_angles(M, rng)
        C = angles_to_corr(a)
        # the recovered angles carry the conditioning of C: over every
        # (M, seed) this strategy draws the error stays below 115 eps cond(C)
        tol = max(1e-8, 1e3 * np.finfo(float).eps * np.linalg.cond(C))
        assert np.abs(corr_to_angles(C) - a).max() < tol
        C2 = angles_to_corr(corr_to_angles(C))
        assert np.abs(C2 - C).max() < 1e-8


class TestMinimizeOverCorr:
    def test_identity_target(self):
        # the minimizer sits on the angle-box edge; full budget needed to
        # follow the half-gap approach all the way in
        loss = lambda C: float(np.sum((C - np.eye(4)) ** 2))
        C, records = minimize_over_corr(loss, 4, config=OptimizerConfig(epsilon=0.0),
                                        n_starts=3, master_seed=0)
        assert len(records) == 3
        assert np.abs(C - np.eye(4)).max() < 1e-3

    def test_returns_min_record_matrix(self):
        loss = lambda C: float(np.sum((C - np.eye(3)) ** 2))
        C, records = minimize_over_corr(loss, 3, config=OptimizerConfig(max_iters=50),
                                        n_starts=4, master_seed=7)
        best = min(records, key=lambda r: r.f_best)
        assert loss(C) == pytest.approx(best.f_best, rel=1e-12)

    def test_gaussian_fit_matches_sample_correlation(self):
        from glasd.losses import loss_gaussian, sample_correlation, standardize_columns

        rng = np.random.default_rng(8)
        a = interior_angles(5, rng, margin=0.3)
        C_star = angles_to_corr(a)
        X = rng.standard_normal((5000, 5)) @ np.linalg.cholesky(C_star).T
        Xs = standardize_columns(X)
        S = sample_correlation(Xs)
        loss = lambda C: loss_gaussian(Xs, C)
        C_hat, _ = minimize_over_corr(loss, 5, config=OptimizerConfig(),
                                      n_starts=3, master_seed=1)
        assert np.abs(C_hat - S).max() < 0.05
