import numpy as np
import pytest

from glasd.errors import DomainMismatchError, NotPositiveDefiniteError
from glasd.losses import LossSpec
from glasd.manifold import check_correlation
from glasd.optimizer import OptimizerConfig
from glasd.simulate import (
    ContaminationSpec,
    ScenarioSpec,
    StructureSpec,
    contaminate,
    gen_structure,
    rmse,
    run_scenario,
    sample_data,
)

FAST_OPT = OptimizerConfig(max_iters=600)


class TestGenStructure:
    def test_block_toeplitz_small(self):
        rng = np.random.default_rng(0)
        C = gen_structure(StructureSpec("block-toeplitz", p=4), rng)
        # fractions (.25, .5, .25) of p=4 give blocks (1, 2, 1)
        middle = C[1:3, 1:3]
        assert np.allclose(middle, [[1.0, 0.3], [0.3, 1.0]])
        assert C[0, 1] == 0.0 and C[3, 0] == 0.0
        check_correlation(C)

    def test_block_toeplitz_decays(self):
        rng = np.random.default_rng(0)
        C = gen_structure(StructureSpec("block-toeplitz", p=20), rng)
        # first block: 5 variables with decay 0.6
        assert C[0, 1] == pytest.approx(0.6)
        assert C[0, 4] == pytest.approx(0.6**4)
        # second block: 10 variables with decay 0.3
        assert C[5, 6] == pytest.approx(0.3)
        # zero across blocks
        assert C[0, 5] == 0.0 and C[4, 19] == 0.0

    def test_block_toeplitz_p_too_small(self):
        with pytest.raises(ValueError):
            StructureSpec("block-toeplitz", p=3)

    def test_sparse_all_zero(self):
        rng = np.random.default_rng(1)
        C = gen_structure(StructureSpec("sparse-uniform", p=6, sparsity=1.0), rng)
        assert np.array_equal(C, np.eye(6))

    def test_sparse_pattern_and_range(self):
        rng = np.random.default_rng(2)
        spec = StructureSpec("sparse-uniform", p=20)
        C = gen_structure(spec, rng)
        check_correlation(C)
        iu, ju = np.triu_indices(20, k=1)
        vals = C[iu, ju]
        nonzero = vals[vals != 0]
        # 10% of the 190 unique pairs
        assert nonzero.size == 19
        # shrinkage only scales entries down, never up
        assert (np.abs(nonzero) <= 0.3 + 1e-12).all()

    def test_random_dense_valid_and_dense(self):
        rng = np.random.default_rng(3)
        C = gen_structure(StructureSpec("random-dense", p=8), rng)
        check_correlation(C)
        iu, ju = np.triu_indices(8, k=1)
        assert (C[iu, ju] != 0).all()

    def test_all_kinds_pass_invariants(self):
        rng = np.random.default_rng(4)
        for kind in ("random-dense", "sparse-uniform", "block-toeplitz"):
            for _ in range(5):
                check_correlation(gen_structure(StructureSpec(kind, p=12), rng))


class TestSampleData:
    def test_gaussian_moments(self):
        rng = np.random.default_rng(5)
        X = sample_data(np.eye(4), 100_000, "gaussian", rng)
        S = np.corrcoef(X.T)
        assert np.abs(S - np.eye(4)).max() < 0.02

    def test_gaussian_respects_correlation(self):
        rng = np.random.default_rng(6)
        C = np.array([[1.0, 0.7], [0.7, 1.0]])
        X = sample_data(C, 100_000, "gaussian", rng)
        assert np.corrcoef(X.T)[0, 1] == pytest.approx(0.7, abs=0.02)

    def test_t_heavy_tails(self):
        rng = np.random.default_rng(7)
        X = sample_data(np.eye(3), 100_000, "t", rng, df=3.0)
        for j in range(3):
            col = X[:, j]
            z = (col - col.mean()) / col.std()
            excess_kurtosis = np.mean(z**4) - 3.0
            assert excess_kurtosis > 1.0

    @pytest.mark.parametrize("bad", ["nan", "asymmetric"])
    def test_bad_matrix_fails_loudly(self, bad):
        C = np.eye(3)
        if bad == "nan":
            C[0, 1] = C[1, 0] = np.nan
        else:
            C[1, 0] = 0.5
        with pytest.raises(NotPositiveDefiniteError):
            sample_data(C, 10, "gaussian", np.random.default_rng(0))

    def test_unknown_distribution(self):
        with pytest.raises(ValueError, match="distribution must be"):
            sample_data(np.eye(2), 10, "cauchy", np.random.default_rng(0))

    def test_deterministic(self):
        a = sample_data(np.eye(2), 50, "t", np.random.default_rng(8), df=3.0)
        b = sample_data(np.eye(2), 50, "t", np.random.default_rng(8), df=3.0)
        assert np.array_equal(a, b)


class TestContaminate:
    def test_rows_counts(self):
        rng = np.random.default_rng(9)
        X = np.zeros((100, 20))
        Y = contaminate(X, ContaminationSpec("rows"), rng)
        changed_rows = np.flatnonzero((Y != X).any(axis=1))
        assert changed_rows.size == 10
        for r in changed_rows:
            hits = np.flatnonzero(Y[r] != X[r])
            assert 6 <= hits.size <= 14
            assert (Y[r, hits] == 10.0).all()

    def test_columns_counts(self):
        rng = np.random.default_rng(10)
        X = np.zeros((100, 20))
        Y = contaminate(X, ContaminationSpec("columns"), rng)
        changed_cols = np.flatnonzero((Y != X).any(axis=0))
        assert changed_cols.size == 2
        for c in changed_cols:
            hits = np.flatnonzero(Y[:, c] != X[:, c])
            assert 30 <= hits.size <= 70

    def test_random_counts(self):
        rng = np.random.default_rng(11)
        X = np.zeros((100, 20))
        Y = contaminate(X, ContaminationSpec("random"), rng)
        assert int((Y != X).sum()) == 100  # 5% of 2000
        assert (Y[Y != X] == 100.0).all()

    def test_zero_fraction_unchanged(self):
        rng = np.random.default_rng(12)
        X = np.arange(40.0).reshape(8, 5)
        Y = contaminate(X, ContaminationSpec("rows", fraction=0.0), rng)
        assert np.array_equal(X, Y)

    def test_none_kind(self):
        rng = np.random.default_rng(13)
        X = np.arange(40.0).reshape(8, 5)
        assert np.array_equal(contaminate(X, ContaminationSpec("none"), rng), X)

    def test_input_not_mutated(self):
        rng = np.random.default_rng(14)
        X = np.zeros((50, 10))
        snapshot = X.copy()
        contaminate(X, ContaminationSpec("random"), rng)
        assert np.array_equal(X, snapshot)


class TestRmse:
    def test_identical(self):
        assert rmse(np.eye(3), np.eye(3)) == 0.0

    def test_single_pair(self):
        A = np.array([[1.0, 0.5], [0.5, 1.0]])
        B = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert rmse(A, B) == pytest.approx(0.2, abs=1e-15)

    def test_constant_deviation(self):
        C = np.full((3, 3), 0.2)
        np.fill_diagonal(C, 1.0)
        assert rmse(np.eye(3), C) == pytest.approx(0.2, abs=1e-15)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(15)
        A = rng.uniform(-1, 1, (4, 4))
        B = rng.uniform(-1, 1, (4, 4))
        assert rmse(A, B) == rmse(B, A)

    def test_diagonal_ignored(self):
        A = np.eye(3)
        B = np.eye(3) * 5.0
        assert rmse(A, B) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DomainMismatchError):
            rmse(np.eye(3), np.eye(4))


class TestRunScenario:
    def small_spec(self, **kw):
        base = dict(
            structure=StructureSpec("block-toeplitz", p=6),
            n=60,
            contamination=ContaminationSpec("none"),
            losses=(LossSpec("gaussian"),),
            replicates=2,
            n_starts=2,
            master_seed=123,
            optimizer=FAST_OPT,
        )
        base.update(kw)
        return ScenarioSpec(**base)

    def test_deterministic(self):
        spec = self.small_spec(replicates=1, n_starts=1)
        a = run_scenario(spec)
        b = run_scenario(spec)
        assert [c.rmse for c in a.cells] == [c.rmse for c in b.cells]
        assert [c.f_best for c in a.cells] == [c.f_best for c in b.cells]
        assert a.data_seeds == b.data_seeds

    def test_cell_layout_and_aggregate(self):
        spec = self.small_spec(
            losses=(LossSpec("gaussian"), LossSpec("huber", "iqr-auto"))
        )
        res = run_scenario(spec)
        assert len(res.cells) == 4  # 2 replicates x 2 losses
        assert [c.loss for c in res.cells] == ["gaussian", "huber"] * 2
        agg = res.aggregate()
        assert set(agg) == {"gaussian", "huber"}
        g = np.array([c.rmse for c in res.cells if c.loss == "gaussian"])
        assert agg["gaussian"]["mean_rmse"] == pytest.approx(g.mean())
        assert agg["gaussian"]["se_rmse"] == pytest.approx(g.std(ddof=1) / np.sqrt(2))

    def test_threshold_recorded_for_robust_losses(self):
        spec = self.small_spec(losses=(LossSpec("truncated", "iqr-auto"),))
        res = run_scenario(spec)
        assert all(c.threshold is not None and c.threshold > 0 for c in res.cells)

    def test_benign_regime_magnitude(self):
        # clean dense truth at (p, n) = (20, 100): estimation error sits in
        # the usual benign-regime neighborhood (order 0.1, well below 0.3)
        spec = ScenarioSpec(
            structure=StructureSpec("random-dense", p=20),
            n=100,
            contamination=ContaminationSpec("none"),
            losses=(LossSpec("gaussian"),),
            replicates=2,
            n_starts=3,
            master_seed=5,
        )
        agg = run_scenario(spec).aggregate()
        assert 0.03 <= agg["gaussian"]["mean_rmse"] <= 0.3

    def test_rmse_decreases_with_n(self):
        # clean gaussian data: estimation error shrinks as n grows
        medians = []
        for n in (100, 500, 2000):
            vals = []
            for seed in range(5):
                spec = ScenarioSpec(
                    structure=StructureSpec("block-toeplitz", p=5),
                    n=n,
                    contamination=ContaminationSpec("none"),
                    losses=(LossSpec("gaussian"),),
                    replicates=1,
                    n_starts=2,
                    master_seed=seed,
                    optimizer=OptimizerConfig(max_iters=1500),
                )
                vals.append(run_scenario(spec).cells[0].rmse)
            medians.append(float(np.median(vals)))
        assert medians[0] > medians[1] > medians[2]


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            StructureSpec("diagonal", p=5)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            StructureSpec("block-toeplitz", p=8, block_fractions=(0.5, 0.6))

    def test_bad_decays(self):
        with pytest.raises(ValueError):
            StructureSpec("block-toeplitz", p=8, block_decays=(0.5, 1.2, 0.4))

    @pytest.mark.parametrize("kwargs, match", [
        ({"kind": "sparse-uniform", "sparsity": 1.5}, "sparsity"),
        ({"kind": "sparse-uniform", "value_range": (0.3, 0.1)}, "value_range"),
        ({"kind": "block-toeplitz", "block_decays": (0.5, 0.4)}, "one decay per block"),
    ], ids=["sparsity", "value-range", "decay-count"])
    def test_structure_numbers_checked(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            StructureSpec(p=8, **kwargs)

    def test_contamination_fraction_range(self):
        with pytest.raises(ValueError):
            ContaminationSpec("rows", fraction=1.5)

    def test_entry_fraction_range(self):
        with pytest.raises(ValueError, match="entry_fraction"):
            ContaminationSpec("rows", entry_fraction=(0.7, 0.3))

    def test_duplicate_losses_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(
                structure=StructureSpec("random-dense", p=4),
                n=30,
                losses=(LossSpec("gaussian"), LossSpec("gaussian")),
            )

    @pytest.mark.parametrize("n", [5, 8])
    def test_no_more_rows_than_columns_rejected(self, n):
        with pytest.raises(ValueError, match=f"n = {n} must exceed p = 8"):
            ScenarioSpec(StructureSpec("sparse-uniform", p=8), n=n)

    def test_bad_distribution(self):
        with pytest.raises(ValueError):
            ScenarioSpec(structure=StructureSpec("random-dense", p=4), n=30,
                         distribution="cauchy")
