"""Acceptance suite: one test per release criterion, run in order.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
verbose report) and enforces its runtime budget.  Stochastic criteria pin a
master seed so the suite is deterministic; the optimizer itself is seeded
through the same mechanism users reach from the CLI.
"""

import math
import time

import numpy as np
import pytest

from conftest import assert_dirs_match
from glasd.benchmarks import BenchmarkSpec, corr_objective, sumsquares
from glasd.cli import main
from glasd.losses import (
    LossSpec,
    iqr_threshold,
    loss_gaussian,
    loss_robust,
    mahalanobis_sq_all,
    rho_huber,
    rho_tukey,
)
from glasd.manifold import (
    angles_to_corr,
    corr_to_angles,
    default_angle_box,
    minimize_over_corr,
)
from glasd.optimizer import BoxDomain, OptimizerConfig, asd_minimize, glasd_minimize
from glasd.simulate import (
    ContaminationSpec,
    ScenarioSpec,
    StructureSpec,
    run_scenario,
)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def test_criterion_01_bijection_round_trip():
    # Interior fuzz with a 0.15 margin: long sine-product chains lose angle
    # identifiability in double precision as rows approach the box faces, so
    # closer-to-edge vectors reproduce the matrix but not the angles.
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_angle, worst_entry = 0.0, 0.0
    for M in (2, 3, 5, 10, 20):
        box = default_angle_box(M)
        lo, hi = box.lower + 0.15, box.upper - 0.15
        for _ in range(1000):
            a = rng.uniform(lo, hi)
            C = angles_to_corr(a)
            back = corr_to_angles(C)
            worst_angle = max(worst_angle, float(np.abs(back - a).max()))
            C2 = angles_to_corr(back)
            worst_entry = max(worst_entry, float(np.abs(C2 - C).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_angle <= 1e-8 and worst_entry <= 1e-8 and elapsed < 30
    report(1, ok, f"round-trip errors angle {worst_angle:.2e}, entry {worst_entry:.2e}, "
                  f"{elapsed:.1f}s (< 30s)")


def test_criterion_02_manifold_validity():
    # Eigenvalue positivity is certified on fuzz with a 0.1 interior margin:
    # extreme box corners yield true eigenvalues below the ~1e-15 double
    # precision resolution of any eigensolver, where a sign is meaningless.
    # Full-box fuzz is still checked for exact symmetry, exact unit diagonal,
    # and the constructive positivity certificate (factor diagonal > 0).
    from glasd.manifold import cholesky_rows

    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    dims = list(range(2, 21))
    per_dim = 100_000 // len(dims) + 1
    total = 0
    min_eig_seen = np.inf
    for M in dims:
        box = default_angle_box(M)
        lo, hi = box.lower + 0.1, box.upper - 0.1
        mats = np.empty((per_dim, M, M))
        for i in range(per_dim):
            C = angles_to_corr(rng.uniform(lo, hi))
            assert np.array_equal(C, C.T)
            assert np.abs(np.diag(C) - 1.0).max() <= 1e-12
            assert np.abs(C).max() <= 1.0
            mats[i] = C
        eigs = np.linalg.eigvalsh(mats)[:, 0]
        min_eig_seen = min(min_eig_seen, float(eigs.min()))
        assert (eigs > 0).all(), f"non-positive eigenvalue at M={M}"
        total += per_dim
        # full-box samples: structural checks plus the exact-arithmetic
        # positive-definiteness certificate
        for _ in range(200):
            a = rng.uniform(box.lower, box.upper)
            C = angles_to_corr(a)
            assert np.array_equal(C, C.T)
            assert np.abs(np.diag(C) - 1.0).max() <= 1e-12
            assert (np.diag(cholesky_rows(a)) > 0).all()
    elapsed = time.perf_counter() - t0
    ok = total >= 100_000 and elapsed < 60
    report(2, ok, f"{total} matrices valid, min certified eigenvalue "
                  f"{min_eig_seen:.2e}, {elapsed:.1f}s (< 60s)")


def test_criterion_03_convex_sanity():
    t0 = time.perf_counter()
    dom = BoxDomain(np.full(10, -10.0), np.full(10, 10.0))
    hits = sum(
        glasd_minimize(sumsquares, dom, seed=seed).f_best <= 1e-6
        for seed in range(10)
    )
    elapsed = time.perf_counter() - t0
    ok = hits >= 9 and elapsed < 10
    report(3, ok, f"sumsquares n=10 reached 1e-6 in {hits}/10 seeds, "
                  f"{elapsed:.1f}s (< 10s)")


def test_criterion_04_benchmark_brackets():
    t0 = time.perf_counter()
    results = {}
    for name, bracket in (("ackley", 0.5), ("rastrigin", 30.0), ("rosenbrock", 1.0)):
        obj = corr_objective(BenchmarkSpec(name, "corr-manifold", dim=5))
        _, records = minimize_over_corr(obj, 5, config=OptimizerConfig(),
                                        n_starts=10, master_seed=11)
        results[name] = (min(r.f_best for r in records), bracket)
    elapsed = time.perf_counter() - t0
    ok = all(v <= b for v, b in results.values()) and elapsed < 300
    detail = ", ".join(f"{k} {v:.3g} (<= {b})" for k, (v, b) in results.items())
    report(4, ok, f"{detail}, {elapsed:.0f}s (< 300s)")


def test_criterion_05_loss_unit_values():
    checks = [
        (loss_gaussian(np.array([[3.0, 4.0]]), np.eye(2)), 12.5),
        (float(mahalanobis_sq_all(np.array([[1.0, 1.0]]),
                                  np.array([[1.0, 0.5], [0.5, 1.0]]))[0]), 4.0 / 3.0),
        (rho_huber(9.0, 4.0), 8.0),
        (rho_tukey(4.5, 3.0), 1.3125),
        (loss_robust(np.array([[3.0, 4.0]]), np.eye(2), LossSpec("truncated", 5.0)), 2.5),
        (iqr_threshold([1.0, 2.0, 3.0, 4.0]), 7.75),
    ]
    worst = max(abs(got - want) for got, want in checks)
    report(5, worst <= 1e-12, f"six worked loss values exact, worst |err| {worst:.2e}")


def _ordering_scenario(structure, distribution, contamination, losses):
    return ScenarioSpec(
        structure=structure,
        n=100,
        distribution=distribution,
        df=3.0,
        contamination=contamination,
        losses=losses,
        replicates=10,
        n_starts=10,
        master_seed=0,
    )


@pytest.mark.slow
def test_criterion_06_row_contamination_ordering():
    t0 = time.perf_counter()
    spec = _ordering_scenario(
        StructureSpec("sparse-uniform", p=20), "gaussian",
        ContaminationSpec("rows"),
        (LossSpec("gaussian"), LossSpec("huber", "iqr-auto")),
    )
    agg = run_scenario(spec).aggregate()
    g, h = agg["gaussian"], agg["huber"]
    gap = g["mean_rmse"] - h["mean_rmse"]
    pooled = math.hypot(g["se_rmse"], h["se_rmse"])
    elapsed = time.perf_counter() - t0
    ok = h["mean_rmse"] < g["mean_rmse"] and gap > pooled and elapsed < 1800
    report(6, ok, f"huber {h['mean_rmse']:.3f} < gaussian {g['mean_rmse']:.3f}, "
                  f"gap {gap:.3f} > pooled se {pooled:.3f}, {elapsed:.0f}s (< 1800s)")


@pytest.mark.slow
def test_criterion_07_heavy_tail_ordering():
    t0 = time.perf_counter()
    spec = _ordering_scenario(
        StructureSpec("block-toeplitz", p=20), "t",
        ContaminationSpec("none"),
        (LossSpec("gaussian"), LossSpec("truncated", "iqr-auto")),
    )
    agg = run_scenario(spec).aggregate()
    g, tr = agg["gaussian"], agg["truncated"]
    elapsed = time.perf_counter() - t0
    ok = tr["mean_rmse"] < g["mean_rmse"] and elapsed < 1800
    report(7, ok, f"truncated {tr['mean_rmse']:.3f} < gaussian {g['mean_rmse']:.3f}, "
                  f"{elapsed:.0f}s (< 1800s)")


def test_criterion_08_asd_geometric_decay():
    weights = np.linspace(1.0, 10.0, 5)  # condition number 10
    f = lambda x: float(np.sum(weights * np.asarray(x) ** 2))
    dom = BoxDomain(np.full(5, -2.0), np.full(5, 2.0))
    curves = []
    for seed in range(20):
        rec = asd_minimize(f, dom, seed=seed)
        fb = rec.trace[:, 2]
        drops = np.flatnonzero(np.diff(fb) < 0) + 1
        vals = fb[drops]
        curves.append(np.log(vals[vals > 1e-12]))
    k = min(len(c) for c in curves)
    median = np.median(np.array([c[:k] for c in curves]), axis=0)
    idx = np.arange(k)
    slope, intercept = np.polyfit(idx, median, 1)
    fitted = slope * idx + intercept
    r2 = 1.0 - np.sum((median - fitted) ** 2) / np.sum((median - median.mean()) ** 2)
    ok = slope < 0 and r2 >= 0.9
    report(8, ok, f"median log-decay fit over {k} accepted steps: "
                  f"slope {slope:.3f} < 0, R^2 {r2:.3f} >= 0.9")


def test_criterion_09_determinism(tmp_path):
    data = tmp_path / "d.csv"
    rng = np.random.default_rng(1)
    X = rng.standard_normal((80, 4))
    with open(data, "w") as fh:
        for row in X:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    scenario = tmp_path / "s.ini"
    scenario.write_text(
        "[scenario]\np = 4\nn = 50\nreplicates = 1\nn_starts = 2\n"
        "master_seed = 3\nlosses = gaussian, huber\n"
        "[structure]\nkind = block-toeplitz\n"
        "[contamination]\nkind = random\n"
        "[optimizer]\nmax_iters = 300\n"
    )
    commands = {
        "optimize": ["optimize", "--fn", "griewank", "--variant", "corr", "--M", "4",
                     "--starts", "2", "--seed", "5", "--max-iters", "400"],
        "estimate": ["estimate", str(data), "--loss", "tukey", "--threshold", "iqr",
                     "--starts", "2", "--seed", "6", "--max-iters", "400"],
        "simulate": ["simulate", str(scenario)],
        "outlier": ["outlier-report", str(data)],
    }
    for label, args in commands.items():
        a = tmp_path / f"{label}_a"
        b = tmp_path / f"{label}_b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert_dirs_match(a, b)
    report(9, True, "optimize/estimate/simulate/outlier-report reruns byte-identical "
                    "(wall-clock runtime fields excepted)")


def test_criterion_10_invariant_fuzz():
    rng = np.random.default_rng(99)
    objectives = [
        lambda x: float(np.sum(x**2)),
        lambda x: float(np.sum(np.abs(x - 0.5))),
        lambda x: float(np.cos(3 * x[0]) + np.sum(x**2)),
        lambda x: float(np.floor(2 * x[0]) + np.sum(np.abs(x))),
        lambda x: float(np.sum((x - 1) ** 2) * (1 + np.sin(x[0]))),
    ]
    violations = 0
    for case in range(100):
        n = int(rng.integers(1, 6))
        lo = rng.uniform(-4, 1, n)
        hi = lo + rng.uniform(0.5, 5, n)
        dom = BoxDomain(lo, hi)
        f = objectives[case % len(objectives)]
        seen = []
        wrapped = lambda x: (seen.append(x.copy()), f(x))[1]
        seed = int(rng.integers(0, 2**63))
        rec = glasd_minimize(wrapped, dom, config=OptimizerConfig(max_iters=300), seed=seed)
        pts = np.array(seen)
        feasible = (pts >= lo).all() and (pts <= hi).all()
        monotone = (np.diff(rec.trace[:, 2]) <= 0).all()
        agrees = rec.f_best == min(f(p) for p in pts)
        violations += not (feasible and monotone and agrees)
    report(10, violations == 0, f"100-case fuzz: {violations} violations of "
                                f"feasibility/monotonicity/best-value accounting")
