import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glasd.errors import DomainMismatchError, NotPositiveDefiniteError
from glasd.manifold import (
    ANGLE_MARGIN,
    MatrixObjective,
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


# one move: (coordinate pick, position in the box, accept?, shape of the move)
MOVES = st.tuples(st.integers(0, 10**6), st.floats(0.0, 1.0), st.booleans(),
                  st.sampled_from(["one", "same", "jump"]))


def _walk(box, rng, moves):
    """Points of a search that follows accept/reject, as (point, angle moved,
    accept?): one-angle moves (box bounds included), repeated moves of the
    same angle, and two-angle jumps, which are new starts (angle None)."""
    current = rng.uniform(box.lower, box.upper)
    yield current, None, True
    i = 0
    for pick, frac, accept, shape in moves:
        a = current.copy()
        if shape != "same":
            i = pick % a.size
        a[i] = box.lower[i] + frac * (box.upper[i] - box.lower[i])
        if shape == "jump":
            j = (i + 1 + pick // a.size) % a.size
            a[j] = rng.uniform(box.lower[j], box.upper[j])
            yield a, None, True
            current = a
            continue
        yield a, i, accept
        if accept:
            current = a


def _told(f, a, i, accept):
    """f's value at a, asked as the search driver asks: f(a) for a start,
    f.move(a, i) for a move, then f.accept() when the search takes it."""
    value = f(a) if i is None else f.move(a, i)
    if accept and i is not None:
        f.accept()
    return value


class TestMatrixObjective:
    @settings(deadline=None, max_examples=150)
    @given(M=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
           moves=st.lists(MOVES, min_size=1, max_size=40))
    def test_loss_sees_the_matrix_of_the_point(self, M, seed, moves):
        rng = np.random.default_rng(seed)
        box = default_angle_box(M)
        target = angles_to_corr(rng.uniform(box.lower, box.upper))
        seen = []

        def loss(C):
            seen.append(C)
            return float(np.sum((C - target) ** 2))

        f = MatrixObjective(loss, M)
        last = {}
        for a, i, accept in _walk(box, rng, moves):
            before = len(seen)
            value = _told(f, a, i, accept)
            if len(seen) == before:          # the cached base point itself
                assert value == last[a.tobytes()]
            else:
                C = seen[-1]
                assert np.array_equal(C, C.T)
                assert (np.diag(C) == 1.0).all()
                assert np.abs(C).max() <= 1.0
                assert np.abs(C - angles_to_corr(a)).max() <= 1e-15
                assert value == float(np.sum((C - target) ** 2))
            last[a.tobytes()] = value

    def test_loss_may_modify_its_argument(self):
        rng = np.random.default_rng(3)
        M = 6
        box = default_angle_box(M)
        target = angles_to_corr(rng.uniform(box.lower, box.upper))

        def clean(C):
            return float(np.sum((C - target) ** 2))

        def dirty(C):
            value = clean(C)
            C[:] = 0.5
            return value

        f, g = MatrixObjective(clean, M), MatrixObjective(dirty, M)
        moves = [(int(rng.integers(10**6)), float(rng.random()), bool(rng.random() < 0.5),
                  "one") for _ in range(200)]
        for a, i, accept in _walk(box, rng, moves):
            assert _told(g, a, i, accept) == _told(f, a, i, accept)

    def test_one_angle_moves_skip_the_full_rebuild(self, monkeypatch):
        import glasd.manifold

        calls = {"cholesky_rows": 0, "angles_to_corr": 0}
        for name in calls:
            def counted(a, _orig=getattr(glasd.manifold, name), _name=name):
                calls[_name] += 1
                return _orig(a)
            monkeypatch.setattr(glasd.manifold, name, counted)
        rng = np.random.default_rng(4)
        box = default_angle_box(6)
        f = MatrixObjective(lambda C: float(C.sum()), 6)
        a = rng.uniform(box.lower, box.upper)
        f(a)
        assert calls == {"cholesky_rows": 1, "angles_to_corr": 0}
        for i in (0, 7, 14, 7):
            a = a.copy()
            a[i] = rng.uniform(box.lower[i], box.upper[i])
            f.move(a, i)
            f.accept()                        # the next move starts here
        assert calls == {"cholesky_rows": 1, "angles_to_corr": 0}
        f(a)                                  # a plain call: always the full path
        assert calls == {"cholesky_rows": 2, "angles_to_corr": 0}

        calls.update(cholesky_rows=0, angles_to_corr=0)
        minimize_over_corr(lambda C: float(np.sum((C - np.eye(4)) ** 2)), 4,
                           config=OptimizerConfig(max_iters=300), n_starts=3, master_seed=5)
        # one full path per start, plus the returned matrix
        assert calls == {"cholesky_rows": 4, "angles_to_corr": 1}


    def test_null_move_is_not_evaluated(self, monkeypatch):
        # a step toward a bound the angle sits on leaves the point as it is,
        # as at the warm start corr_to_angles(I), whose rows >= 3 start at
        # their first angle's lower bound 0
        import glasd.manifold

        calls = []
        monkeypatch.setattr(glasd.manifold, "cholesky_rows",
                            lambda a: (calls.append("cholesky_rows"), cholesky_rows(a))[1])
        f = MatrixObjective(lambda C: (calls.append("loss"), float(np.sum(C * C)))[1], 4)
        a = corr_to_angles(np.eye(4))
        value = f(a)
        calls.clear()
        for i in (1, 3):
            assert a[i] == 0.0
            assert f.move(a.copy(), i) == value
        assert calls == []


class TestInverseMap:
    def test_identity_recovers_zero_first_angles(self):
        a = corr_to_angles(np.eye(3))
        assert a[0] == 0.0          # row-2 angle
        assert a[1] == 0.0          # row-3 first angle
        # unidentified tail angle lands mid-interval
        assert a[2] == pytest.approx((2 * math.pi - ANGLE_MARGIN) / 2)

    @pytest.mark.parametrize("M", range(2, 9))
    def test_identity_keeps_unidentified_angles_at_midpoints(self, M):
        # row m >= 3 of the identity's factor leaves its prefix degenerate
        # after the first angle (m >= 4) or at the last angle (m = 3)
        box = default_angle_box(M)
        expected = 0.5 * (box.lower + box.upper)
        expected[[(m - 1) * (m - 2) // 2 for m in range(2, M + 1)]] = 0.0
        assert np.array_equal(corr_to_angles(np.eye(M)), expected)

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

    def test_singular_loss_scores_the_penalty(self):
        # a loss that rejects part of the box as not positive definite; its
        # minimizer lies in that part, so the search keeps running into it.
        # A rejected point scores NaN: no start stays in the region or moves
        # into it, and a start drawn there is redrawn
        target = np.full((3, 3), 0.9)
        np.fill_diagonal(target, 1.0)
        raised = []

        def loss(C):
            if C[1, 0] > 0.5:
                raised.append(1)
                raise NotPositiveDefiniteError("rejected")
            return float(np.sum((C - target) ** 2))

        C, records = minimize_over_corr(loss, 3, config=OptimizerConfig(max_iters=400),
                                        n_starts=3, master_seed=2)
        assert raised
        assert all(math.isfinite(rec.f_best) and rec.f_best < 1e300 for rec in records)
        assert sum(rec.nonfinite for rec in records) == len(raised)
        for rec in records:
            assert angles_to_corr(rec.x_best)[1, 0] <= 0.5
        best = min(records, key=lambda r: r.f_best)
        assert C[1, 0] <= 0.5
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
