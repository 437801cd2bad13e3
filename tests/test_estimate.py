import math

import numpy as np
import pytest

import glasd.estimate
import glasd.losses
from glasd.errors import NotPositiveDefiniteError
from glasd.estimate import estimate_correlation
from glasd.losses import (
    LossSpec,
    iqr_threshold,
    loss_robust,
    mahalanobis_sq_all,
    resolved_spec,
    sample_correlation,
    standardize_columns,
)
from glasd.manifold import check_correlation
from glasd.optimizer import OptimizerConfig, derive_seeds
from glasd.simulate import StructureSpec, gen_structure, rmse, sample_data

FAST = OptimizerConfig(max_iters=800)


def make_clean_data(p=5, n=2000, seed=0):
    rng = np.random.default_rng(seed)
    C = gen_structure(StructureSpec("block-toeplitz", p=p), rng)
    X = sample_data(C, n, "gaussian", rng)
    return C, standardize_columns(X)


class TestEstimateCorrelation:
    def test_gaussian_close_to_sample_correlation(self):
        _, Xs = make_clean_data()
        fit = estimate_correlation(Xs, LossSpec("gaussian"), config=FAST,
                                   n_starts=2, master_seed=0)
        S = sample_correlation(Xs)
        assert np.abs(fit.corr - S).max() < 0.05
        check_correlation(fit.corr)
        assert fit.threshold is None

    def test_config_seed_is_the_master_seed(self):
        # an explicit master seed wins over config.seed, which wins over a
        # fresh seed, as in multi_start_minimize
        _, Xs = make_clean_data(n=200)
        cfg = OptimizerConfig(max_iters=50, seed=5)
        fits = [estimate_correlation(Xs, LossSpec("gaussian"), config=cfg, n_starts=2)
                for _ in range(2)]
        assert [f.seed for f in fits] == [5, 5]
        seeds = [[r.seed for r in fit.records] for fit in fits]
        assert seeds[0] == seeds[1] == derive_seeds(5, 2)
        assert np.array_equal(fits[0].corr, fits[1].corr)
        fit = estimate_correlation(Xs, LossSpec("gaussian"), config=cfg, n_starts=2,
                                   master_seed=6)
        assert fit.seed == 6 and [r.seed for r in fit.records] == derive_seeds(6, 2)

    def test_iqr_auto_cutoff_on_three_rows(self):
        # the reported cutoff takes the objective's quartile rule, which,
        # unlike iqr_threshold, needs no fourth value
        Xs = standardize_columns(np.random.default_rng(8).standard_normal((3, 2)))
        fit = estimate_correlation(Xs, LossSpec("huber", "iqr-auto"), config=FAST,
                                   n_starts=1, master_seed=0)
        assert math.isfinite(fit.threshold) and fit.threshold > 0

    def test_result_is_best_record(self):
        _, Xs = make_clean_data(n=400)
        fit = estimate_correlation(Xs, LossSpec("gaussian"), config=FAST,
                                   n_starts=3, master_seed=1)
        assert fit.f_best == min(r.f_best for r in fit.records)
        assert len(fit.records) == 3

    def test_robust_threshold_frozen_and_reported(self):
        _, Xs = make_clean_data(n=300, seed=2)
        fit = estimate_correlation(Xs, LossSpec("huber", "iqr-auto"), config=FAST,
                                   n_starts=2, master_seed=2)
        assert fit.threshold is not None and fit.threshold > 0

    def test_auto_threshold_is_the_cutoff_at_the_solution(self):
        _, Xs = make_clean_data(n=300, seed=4)
        spec = LossSpec("tukey", "iqr-auto")
        fit = estimate_correlation(Xs, spec, config=FAST, n_starts=2, master_seed=4)
        d2 = mahalanobis_sq_all(Xs, fit.corr)
        assert fit.threshold == pytest.approx(iqr_threshold(d2), rel=1e-10)
        assert fit.f_best == pytest.approx(loss_robust(Xs, fit.corr, spec), rel=1e-10)

    def test_pilot_built_once_and_frozen_threshold_reported(self, monkeypatch):
        _, Xs = make_clean_data(n=300, seed=5)
        spec = LossSpec("truncated", "iqr-pilot")
        expected = resolved_spec(Xs, spec).threshold
        calls = []
        build = glasd.losses.pilot_correlation

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)
        monkeypatch.setattr(glasd.losses, "pilot_correlation", counted)
        monkeypatch.setattr(glasd.estimate, "pilot_correlation", counted)
        fit = estimate_correlation(Xs, spec, config=OptimizerConfig(max_iters=50),
                                   n_starts=1, master_seed=5)
        assert len(calls) == 1
        assert fit.threshold == expected

    def test_singular_fit_raises(self):
        # t(3) rows, six of them shifted: under a frozen truncated cutoff the
        # search walks to a singular corner of the angle box
        X = sample_data(np.eye(5), 80, "t", np.random.default_rng(1))
        X[:6] += 10.0
        with pytest.raises(NotPositiveDefiniteError, match="truncated.*frozen cutoff"):
            estimate_correlation(standardize_columns(X), LossSpec("truncated", 6.5),
                                 config=OptimizerConfig(max_iters=1500),
                                 n_starts=3, master_seed=3)

    def test_deterministic(self):
        _, Xs = make_clean_data(n=200, seed=3)
        a = estimate_correlation(Xs, LossSpec("truncated", "iqr-auto"),
                                 config=FAST, n_starts=2, master_seed=9)
        b = estimate_correlation(Xs, LossSpec("truncated", "iqr-auto"),
                                 config=FAST, n_starts=2, master_seed=9)
        assert np.array_equal(a.corr, b.corr)
        assert a.f_best == b.f_best

    def test_huber_beats_gaussian_under_row_shift(self):
        # paired-run check: with one shifted row, the huber estimate stays
        # closer to the clean-data estimate than the gaussian estimate does.
        # The shift must leave column scales usable: a far larger shift
        # inflates the sds so much that the corrupted solution minimizes both
        # losses and the comparison degenerates.
        wins = 0
        cfg = OptimizerConfig(max_iters=1500)
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            C = gen_structure(StructureSpec("block-toeplitz", p=4), rng)
            X = sample_data(C, 200, "gaussian", rng)
            X_dirty = X.copy()
            X_dirty[3] += 10.0

            ref = estimate_correlation(standardize_columns(X), LossSpec("gaussian"),
                                       config=cfg, n_starts=2, master_seed=seed)
            Xd = standardize_columns(X_dirty)
            gauss = estimate_correlation(Xd, LossSpec("gaussian"),
                                         config=cfg, n_starts=2, master_seed=seed)
            huber = estimate_correlation(Xd, LossSpec("huber", "iqr-auto"),
                                         config=cfg, n_starts=2, master_seed=seed)
            wins += rmse(huber.corr, ref.corr) < rmse(gauss.corr, ref.corr)
        assert wins >= 8
