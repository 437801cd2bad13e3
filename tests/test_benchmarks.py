import math

import numpy as np
import pytest

from glasd.benchmarks import (
    BENCHMARKS,
    BenchmarkSpec,
    benchmark_box_domain,
    corr_objective,
    eval_benchmark,
    vec_offdiag,
)
from glasd.errors import DomainMismatchError
from glasd.manifold import angles_to_corr, default_angle_box

# plain scalar-loop re-implementations used as an independent oracle


def ackley_ref(x):
    d = len(x)
    s1 = sum(v * v for v in x) / d
    s2 = sum(math.cos(2 * math.pi * v) for v in x) / d
    return -20 * math.exp(-0.2 * math.sqrt(s1)) - math.exp(s2) + 20 + math.e


def griewank_ref(x):
    s = sum(v * v for v in x) / 4000
    p = 1.0
    for i, v in enumerate(x, start=1):
        p *= math.cos(v / math.sqrt(i))
    return s - p + 1


def rastrigin_ref(x):
    return 10 * len(x) + sum(v * v - 10 * math.cos(2 * math.pi * v) for v in x)


def rosenbrock_ref(x):
    return sum(100 * (x[i + 1] - x[i] ** 2) ** 2 + (x[i] - 1) ** 2
               for i in range(len(x) - 1))


def sumsquares_ref(x):
    return sum(i * v * v for i, v in enumerate(x, start=1))


REFS = {
    "ackley": ackley_ref,
    "griewank": griewank_ref,
    "rastrigin": rastrigin_ref,
    "rosenbrock": rosenbrock_ref,
    "sumsquares": sumsquares_ref,
}


# the numpy-wrapper forms (np.mean, np.sum, np.prod): the functions must
# reproduce their bits exactly
NUMPY_FORMS = {
    "ackley": lambda x: (-20.0 * math.exp(-0.2 * math.sqrt(float(np.mean(x * x))))
                         - math.exp(float(np.mean(np.cos(2 * math.pi * x))))
                         + 20.0 + math.e),
    "griewank": lambda x: float(np.sum(x * x) / 4000.0
                                - np.prod(np.cos(x / np.sqrt(np.arange(1, x.size + 1))))
                                + 1.0),
    "rastrigin": lambda x: float(10.0 * x.size
                                 + np.sum(x * x - 10.0 * np.cos(2 * math.pi * x))),
    "rosenbrock": lambda x: float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                                         + (x[:-1] - 1.0) ** 2)),
    "sumsquares": lambda x: float(np.sum(np.arange(1, x.size + 1) * x * x)),
}


class TestFormulas:
    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_bit_identical_to_numpy_forms(self, name):
        rng = np.random.default_rng(11)
        func = BENCHMARKS[name][0]
        lo, hi = BENCHMARKS[name][1]
        for _ in range(500):
            x = rng.uniform(lo, hi, int(rng.integers(2, 200)))
            assert func(x) == NUMPY_FORMS[name](x)

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_agrees_with_reference(self, name):
        rng = np.random.default_rng(hash(name) % 2**32)
        func = BENCHMARKS[name][0]
        ref = REFS[name]
        for _ in range(100):
            d = int(rng.integers(1, 12))
            if name == "rosenbrock":
                d = max(d, 2)
            x = rng.uniform(-4, 4, d)
            assert func(x) == pytest.approx(ref(list(x)), abs=1e-12, rel=1e-12)

    def test_ackley_minimum(self):
        for d in (1, 2, 10):
            assert abs(BENCHMARKS["ackley"][0](np.zeros(d))) < 1e-12

    def test_known_minima(self):
        assert BENCHMARKS["griewank"][0](np.zeros(6)) == 0.0
        assert BENCHMARKS["rastrigin"][0](np.zeros(6)) == 0.0
        assert BENCHMARKS["rosenbrock"][0](np.ones(6)) == 0.0
        assert BENCHMARKS["sumsquares"][0](np.zeros(6)) == 0.0


class TestVecOffdiag:
    def test_identity(self):
        v = vec_offdiag(np.eye(3), 10.0)
        assert v.shape == (6,)
        assert (v == 0).all()

    def test_symmetric_duplicates(self):
        C = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert np.allclose(vec_offdiag(C, 100.0), [30.0, 30.0])

    def test_length(self):
        C = np.eye(5)
        assert vec_offdiag(C, 10.0).shape == (20,)

    def test_mask_is_cached_read_only(self):
        from glasd.benchmarks import _offdiag_mask

        assert _offdiag_mask(4) is _offdiag_mask(4)
        with pytest.raises(ValueError):
            _offdiag_mask(4)[0, 1] = False

    def test_row_major_order(self):
        C = np.array([[1.0, 0.1, 0.2], [0.1, 1.0, 0.3], [0.2, 0.3, 1.0]])
        v = vec_offdiag(C, 1.0)
        assert np.allclose(v, [0.1, 0.2, 0.1, 0.3, 0.2, 0.3])


class TestEvalBenchmark:
    def test_rastrigin_corr_at_identity(self):
        spec = BenchmarkSpec("rastrigin", "corr-manifold", dim=4)
        assert eval_benchmark(spec, np.eye(4)) == 0.0

    def test_rosenbrock_corr_at_identity(self):
        spec = BenchmarkSpec("rosenbrock", "corr-manifold", dim=5)
        # 19 coupled terms each contribute (0 - 1)^2
        assert eval_benchmark(spec, np.eye(5)) == pytest.approx(19.0, abs=1e-12)

    def test_rosenbrock_corr_minimum_is_valid_matrix(self):
        spec = BenchmarkSpec("rosenbrock", "corr-manifold", dim=5)
        C = np.full((5, 5), 1.0 / spec.scale)
        np.fill_diagonal(C, 1.0)
        assert np.linalg.eigvalsh(C).min() > 0
        assert eval_benchmark(spec, C) < 1e-12

    def test_box_variant(self):
        spec = BenchmarkSpec("sumsquares", "box", dim=3)
        assert eval_benchmark(spec, [1.0, 1.0, 1.0]) == pytest.approx(6.0, abs=0)

    def test_dimension_mismatch(self):
        spec = BenchmarkSpec("ackley", "box", dim=3)
        with pytest.raises(DomainMismatchError):
            eval_benchmark(spec, [1.0, 2.0])
        spec = BenchmarkSpec("ackley", "corr-manifold", dim=3)
        with pytest.raises(DomainMismatchError):
            eval_benchmark(spec, np.eye(4))

    def test_corr_variants_positive_away_from_identity(self):
        rng = np.random.default_rng(4)
        for name in ("ackley", "griewank", "rastrigin", "sumsquares"):
            spec = BenchmarkSpec(name, "corr-manifold", dim=4)
            assert eval_benchmark(spec, np.eye(4)) <= 1e-12
            box = default_angle_box(4)
            for _ in range(20):
                C = angles_to_corr(rng.uniform(box.lower + 0.2, box.upper - 0.2))
                assert eval_benchmark(spec, C) > 0


class TestSpecValidation:
    def test_scales_are_pinned(self):
        assert BenchmarkSpec("ackley", "corr-manifold", dim=5).scale == 10.0
        assert BenchmarkSpec("rastrigin", "corr-manifold", dim=5).scale == 10.0
        assert BenchmarkSpec("griewank", "corr-manifold", dim=5).scale == 100.0
        assert BenchmarkSpec("rosenbrock", "corr-manifold", dim=5).scale == 100.0
        with pytest.raises(TypeError):
            BenchmarkSpec("ackley", "corr-manifold", dim=5, scale=3.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            BenchmarkSpec("nope", "box", dim=3)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant 'sphere'"):
            BenchmarkSpec("ackley", "sphere", dim=3)

    def test_corr_objective_needs_the_manifold_variant(self):
        with pytest.raises(ValueError, match="not a corr-manifold benchmark"):
            corr_objective(BenchmarkSpec("ackley", "box", dim=3))

    def test_box_rosenbrock_needs_two_dimensions(self):
        # a sum over adjacent pairs: constant at dimension 1
        with pytest.raises(ValueError):
            BenchmarkSpec("rosenbrock", "box", dim=1)
        assert BenchmarkSpec("rosenbrock", "box", dim=2).dim == 2
        assert BenchmarkSpec("ackley", "box", dim=1).dim == 1

    def test_box_domains(self):
        dom = benchmark_box_domain("rastrigin", 4)
        assert np.allclose(dom.lower, -5.12) and np.allclose(dom.upper, 5.12)
        dom = benchmark_box_domain("rosenbrock", 2)
        assert np.allclose(dom.lower, -5.0) and np.allclose(dom.upper, 10.0)

    def test_corr_objective_matches_eval(self):
        spec = BenchmarkSpec("griewank", "corr-manifold", dim=4)
        obj = corr_objective(spec)
        rng = np.random.default_rng(2)
        box = default_angle_box(4)
        C = angles_to_corr(rng.uniform(box.lower, box.upper))
        assert obj(C) == eval_benchmark(spec, C)
