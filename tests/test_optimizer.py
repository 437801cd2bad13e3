import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glasd.errors import DomainMismatchError, ObjectiveEvaluationError
from glasd.estimate import estimate_correlation
from glasd.losses import LossSpec
from glasd.manifold import minimize_over_corr
from glasd.optimizer import (
    PROB_FLOOR,
    START_REDRAWS,
    STEP_MIN,
    TOTAL_MAX,
    TOTAL_MIN,
    BoxDomain,
    OptimizerConfig,
    Search,
    acceptance_prob,
    asd_minimize,
    derive_seeds,
    glasd_minimize,
    multi_start_minimize,
    random_search_minimize,
)
from glasd.optimizer import _DirectionWeights, _half_gap_step


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def probabilities(search):
    """Direction selection probabilities of a search's live weights."""
    w = search._weights.weights()
    return w / w.sum()


def started(domain, f, x0=None, config=None, seed=None):
    """A Search whose start point has been evaluated with f."""
    search = Search(domain, x0, config, seed)
    search.tell(f(search.ask()))
    return search


class TestBoxDomain:
    def test_basic(self):
        dom = BoxDomain([0.0, -1.0], [1.0, 2.0])
        assert dom.dim == 2
        assert dom.contains([0.5, 0.0])
        assert not dom.contains([1.5, 0.0])
        assert np.allclose(dom.widths, [1.0, 3.0])

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            BoxDomain([0.0], [0.0])
        with pytest.raises(ValueError):
            BoxDomain([0.0], [np.inf])
        with pytest.raises(DomainMismatchError):
            BoxDomain([0.0, 1.0], [1.0])


class TestOptimizerConfig:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["s_init", "s_inc", "s_dec", "p_inc", "p_dec",
                                      "c", "r", "epsilon"])
    def test_nonfinite_values_rejected(self, name, value):
        with pytest.raises(ValueError):
            OptimizerConfig(**{name: value})

    def test_radius_alone_sets_a_fixed_radius(self):
        for r in (0.0, -0.05):
            with pytest.raises(ValueError, match="r must be positive"):
                OptimizerConfig(r=r)
        assert OptimizerConfig(r=0.05).r == 0.05
        assert OptimizerConfig().r is None

    @pytest.mark.parametrize("value", [2.5, 3.0, math.inf, "3"])
    @pytest.mark.parametrize("name", ["m", "max_iters", "stagnation_window"])
    def test_counts_must_be_integers(self, name, value):
        # a float max_iters never ends the loop; a float window fails mid-run
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1$"):
            OptimizerConfig(**{name: value})

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_explore_enabled_must_be_a_bool(self, value):
        # "false" is truthy, and 0 would be recorded as 0 rather than false
        with pytest.raises(ValueError, match="^explore_enabled must be a bool$"):
            OptimizerConfig(explore_enabled=value)

    def test_numpy_bool_explore_enabled_accepted(self):
        cfg = OptimizerConfig(max_iters=300, epsilon=0.0, explore_enabled=np.False_)
        record = glasd_minimize(lambda x: float(x @ x), BoxDomain([-1.0] * 3, [1.0] * 3),
                                config=cfg, seed=1)
        assert record.iterations == 300 and record.explore == 0

    def test_numpy_integer_counts_accepted(self):
        cfg = OptimizerConfig(max_iters=np.int64(7), stagnation_window=np.int32(100),
                              epsilon=0.0)
        record = glasd_minimize(lambda x: float(x @ x), BoxDomain([-1.0], [1.0]),
                                x0=[0.5], config=cfg, seed=0)
        assert record.iterations == 7 and record.termination == "max-iterations"


class TestAcceptanceProb:
    def test_caps_at_one(self):
        # 5 / ln 2 > 1
        assert acceptance_prob(1, 5, 1.0) == 1.0

    def test_log_denominator(self):
        # ln(1 + t) = 2 at t = e^2 - 1
        t = math.e**2 - 1
        assert abs(acceptance_prob(t, 5, 0.01) - 0.025) < 1e-12

    def test_large_t(self):
        # frozen via direct high-precision evaluation of m*c/ln(1+t)
        q = acceptance_prob(10**6, 5, 0.001 * math.log(10))
        assert abs(q - 0.00083333327301468986) < 1e-12
        assert abs(q - 8.33e-4) < 1e-5

    def test_iterations_start_at_one(self):
        with pytest.raises(ValueError, match="t must be >= 1"):
            acceptance_prob(0, 5, 0.01)

    def test_nonincreasing_and_cap(self):
        m, c = 5, 0.01
        prev = 1.0
        for t in range(1, 2000, 7):
            q = acceptance_prob(t, m, c)
            assert q <= prev + 1e-15
            if m * c >= math.log(1 + t):
                assert q == 1.0
            prev = q


class TestHalfGapStep:
    def test_small_step_passes(self):
        assert _half_gap_step(0.5, 0.0, 1.0, +1, 0.1) == 0.1

    def test_half_gap(self):
        assert _half_gap_step(0.9, 0.0, 1.0, +1, 0.3) == pytest.approx(0.05, abs=1e-15)

    def test_zero_gap(self):
        assert _half_gap_step(0.0, 0.0, 1.0, -1, 0.3) == 0.0

    @given(
        x=st.floats(0.0, 1.0),
        sign=st.sampled_from([1, -1]),
        mag=st.floats(0.0, 10.0),
    )
    def test_feasible(self, x, sign, mag):
        assert 0.0 <= x + _half_gap_step(x, 0.0, 1.0, sign, mag) <= 1.0


class TestGlasd:
    def test_convex_quadratic(self):
        # stochastic example; fixed seed known to refine below 1e-6
        dom = BoxDomain(np.full(4, -5.0), np.full(4, 5.0))
        rec = glasd_minimize(sphere, dom, x0=np.ones(4), seed=4)
        assert rec.f_best <= 1e-6

    def test_staircase_matches_grid_oracle(self):
        # brute-force oracle over a 10^4-point grid
        f = lambda x: float(np.floor(4 * x[0]))
        grid = np.linspace(0.0, 1.0, 10_001)
        oracle = min(float(np.floor(4 * g)) for g in grid)
        dom = BoxDomain([0.0], [1.0])
        cfg = OptimizerConfig(epsilon=0.0)  # discontinuity: run the full budget
        rec = glasd_minimize(f, dom, x0=[0.9], config=cfg, seed=5)
        assert rec.f_best == oracle == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DomainMismatchError):
            glasd_minimize(sphere, BoxDomain([0.0], [1.0]), x0=[0.1, 0.2])

    def test_x0_outside_domain(self):
        with pytest.raises(ValueError):
            glasd_minimize(sphere, BoxDomain([0.0], [1.0]), x0=[2.0])

    @pytest.mark.parametrize("solve", [
        lambda f, dom: glasd_minimize(f, dom, seed=1),
        lambda f, dom: multi_start_minimize(f, dom, n_starts=2, master_seed=1),
        lambda f, dom: random_search_minimize(f, dom, 3, seed=1),
    ], ids=["glasd_minimize", "multi_start_minimize", "random_search_minimize"])
    def test_objective_failure_carries_point(self, solve):
        dom = BoxDomain([0.0], [1.0])
        with pytest.raises(ObjectiveEvaluationError) as err:
            solve(lambda x: 1 / 0, dom)
        assert dom.contains(err.value.point)
        assert isinstance(err.value.__cause__, ZeroDivisionError)

    def test_nonfinite_proposals_are_rejected(self):
        # NaN where x[1] > 2, -inf where x[2] < -4, and the finite part pulls
        # toward both regions: in neither mode may such a proposal be accepted
        # or become the best value; in greedy mode its direction's step and
        # weight decay as for any rejection
        def f(x):
            if x[1] > 2.0:
                return math.nan
            if x[2] < -4.0:
                return -math.inf
            return sphere(x - np.array([0.0, 4.0, -5.0]))

        dom = BoxDomain(np.full(3, -5.0), np.full(3, 5.0))
        seen = {True: 0, False: 0}
        for seed in range(20):
            search = started(dom, f, x0=[1.0, 1.9, -3.9], seed=seed)
            told = 0
            while not search.done:
                x_before, f_before, explore_before = search.x, search.f, search.explore
                s_before, p_before = list(search._s), probabilities(search)
                x = search.ask()
                value = f(x)
                search.tell(value)
                if not math.isfinite(value):
                    told += 1
                    explore = search.explore > explore_before
                    seen[explore] += 1
                    assert search.x is x_before and search.f == f_before
                    if not explore:
                        (i,) = (x != x_before).nonzero()[0]
                        j = 2 * i + int(x[i] < x_before[i])   # +e_i is 2i, -e_i is 2i + 1
                        assert search._s[j] < s_before[j] or search._s[j] == s_before[j] == STEP_MIN
                        assert probabilities(search)[j] < p_before[j]
                assert math.isfinite(search.f)
            rec = search.record()
            assert rec.nonfinite == told
            assert math.isfinite(rec.f_best) and np.isfinite(rec.trace[:, 2]).all()
            assert rec.f_best == f(rec.x_best)
        assert seen[True] > 0 and seen[False] > 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_start_raises(self, bad):
        with pytest.raises(ObjectiveEvaluationError) as err:
            glasd_minimize(lambda x: bad, BoxDomain([0.0], [1.0]), x0=[0.5],
                           seed=0)
        assert err.value.point is not None

    def test_determinism(self):
        dom = BoxDomain(np.full(3, -2.0), np.full(3, 2.0))
        a = glasd_minimize(sphere, dom, seed=77)
        b = glasd_minimize(sphere, dom, seed=77)
        assert np.array_equal(a.trace, b.trace)
        assert np.array_equal(a.x_best, b.x_best)
        assert a.f_best == b.f_best
        assert a.seed == b.seed == 77

    def test_trace_monotone_and_eval_count(self):
        dom = BoxDomain(np.full(3, -2.0), np.full(3, 2.0))
        rec = glasd_minimize(sphere, dom, seed=4)
        fb = rec.trace[:, 2]
        assert (np.diff(fb) <= 0).all()
        assert rec.evaluations == rec.iterations + 1
        assert rec.trace.shape[0] == rec.iterations + 1
        # cumulative evaluation column
        assert np.array_equal(rec.trace[:, 1], np.arange(1, rec.iterations + 2))

    def test_feasibility_and_interior(self):
        dom = BoxDomain(np.array([-1.0, 0.0]), np.array([1.0, 3.0]))
        seen = []
        wrapped = lambda x: (seen.append(x.copy()), sphere(x))[1]
        glasd_minimize(wrapped, dom, x0=[0.2, 1.0], seed=9)
        pts = np.array(seen)
        assert (pts >= dom.lower).all() and (pts <= dom.upper).all()
        # interior start stays strictly interior under the half-gap rule
        assert (pts > dom.lower).all() and (pts < dom.upper).all()

    def test_fixed_radius_bounds_exploration_moves(self):
        # a radius far below the box width: every exploration proposal moves
        # one coordinate by at most r from the current point and stays in the box
        r = 0.05
        dom = BoxDomain(np.full(3, -10.0), np.full(3, 10.0))
        cfg = OptimizerConfig(r=r, max_iters=2000, epsilon=0.0)
        search = started(dom, lambda x: sphere(x - 3.0), x0=[9.9, 0.0, -9.9], config=cfg,
                         seed=8)
        moves = []
        while not search.done:
            before, explore_before = search.x, search.explore
            proposal = search.ask()
            search.tell(sphere(proposal - 3.0))
            if search.explore > explore_before:
                moves.append((before, proposal))
        assert len(moves) > 300
        for before, proposal in moves:
            step = proposal - before
            assert np.count_nonzero(step) <= 1
            assert np.abs(step).max() <= r
            assert dom.contains(proposal)

    def test_probability_vector_invariant(self):
        sums, mins = [], []
        dom = BoxDomain(np.full(4, -3.0), np.full(4, 3.0))
        search = started(dom, sphere, seed=13)
        while not search.done:
            explore_before = search.explore
            search.tell(sphere(search.ask()))
            if search.explore == explore_before:
                p = probabilities(search)
                sums.append(p.sum())
                mins.append(p.min())
        assert max(abs(s - 1.0) for s in sums) < 1e-12
        assert min(mins) > 0.0

    def test_weight_total_stays_finite_under_endless_improvement(self):
        # every proposal improves, so the chosen direction's weight doubles at
        # almost every step; an unrenormalized total would overflow after
        # about a thousand accepts
        values = itertools.count()
        f = lambda x: -float(next(values))
        cfg = OptimizerConfig(max_iters=5000, epsilon=0.0, explore_enabled=False)
        search = started(BoxDomain([0.0], [1.0]), f, x0=[0.5], config=cfg, seed=3)
        probs = []
        while not search.done:
            search.tell(f(search.ask()))
            probs.append(probabilities(search))
        rec = search.record()
        assert rec.iterations == rec.greedy_accepts == 5000
        p = np.array(probs)
        assert np.isfinite(p).all() and (p > 0).all()
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12

    def test_exploration_frequency(self):
        # long run on a never-stagnating objective; fraction of explore moves
        # within 3 standard errors of 1/m
        dom = BoxDomain([-1.0], [1.0])
        rng = np.random.default_rng(1)
        noise = lambda x: float(rng.standard_normal())
        cfg = OptimizerConfig(m=5, max_iters=120_000, epsilon=0.0)
        rec = glasd_minimize(noise, dom, config=cfg, seed=2)
        n = rec.iterations
        assert n >= 100_000
        frac = rec.explore / n
        se = math.sqrt(0.2 * 0.8 / n)
        assert abs(frac - 0.2) <= 3 * se

    def test_x0_drawn_from_seed_when_omitted(self):
        dom = BoxDomain(np.full(2, -1.0), np.full(2, 1.0))
        a = glasd_minimize(sphere, dom, config=OptimizerConfig(max_iters=5), seed=5)
        b = glasd_minimize(sphere, dom, config=OptimizerConfig(max_iters=5), seed=5)
        assert np.array_equal(a.trace, b.trace)


# told values: any float, plus frequent repeats (ties) and nonfinite values
TOLD = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                 st.sampled_from([0.0, 1.0, -1.0, math.nan, math.inf, -math.inf]))


class TestSearch:
    @settings(deadline=None, max_examples=150)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), start=st.floats(-5.0, 5.0),
           values=st.lists(TOLD, min_size=1, max_size=150), explore_enabled=st.booleans(),
           fixed_r=st.booleans(), window=st.integers(1, 20), m=st.sampled_from([1, 5]),
           c=st.sampled_from([None, 10.0]))
    def test_invariants_under_arbitrary_values(self, n, seed, start, values, explore_enabled,
                                               fixed_r, window, m, c):
        # m = 1 explores at every iteration; c = 10 accepts every finite
        # non-improving exploration move for the first e^(10m) iterations
        dom = BoxDomain(np.full(n, -1.0), np.full(n, 2.0))
        cfg = OptimizerConfig(explore_enabled=explore_enabled, m=m, c=c,
                              r=0.3 if fixed_r else None, stagnation_window=window,
                              max_iters=len(values))
        search = Search(dom, config=cfg, seed=seed)
        search.tell(start)
        nonfinite, lowest = 0, start
        for value in values:
            if search.done:
                break
            x_before = search.x
            x = search.ask()
            assert dom.contains(x)
            assert set(np.flatnonzero(x != x_before)) <= {search.moved}
            assert search.tell(value) == (search.x is x)
            if math.isfinite(value):
                lowest = min(lowest, value)
            else:
                nonfinite += 1
            assert math.isfinite(search.f)
            assert search.f_best == lowest <= search.f
        assert search.done
        rec = search.record()
        assert rec.iterations == search.t <= len(values)
        assert (np.diff(rec.trace[:, 2]) <= 0).all()
        assert rec.explore_accepts <= rec.explore
        assert rec.greedy_accepts <= rec.iterations - rec.explore
        assert explore_enabled or rec.explore == 0
        assert rec.nonfinite == nonfinite
        assert rec.termination in ("max-iterations", "stagnation")

    def test_nonfinite_drawn_start_is_redrawn(self):
        # the first three values are NaN: the start is drawn four times, and
        # every draw is an evaluation
        calls = []

        def f(x):
            calls.append(x.copy())
            return math.nan if len(calls) <= 3 else sphere(x)

        dom = BoxDomain(np.full(2, -1.0), np.full(2, 1.0))
        rec = glasd_minimize(f, dom, config=OptimizerConfig(max_iters=30), seed=5)
        assert len({tuple(x) for x in calls[:4]}) == 4
        assert all(dom.contains(x) for x in calls[:4])
        assert rec.trace[0, 2] == sphere(calls[3])
        assert rec.nonfinite == 3
        assert rec.evaluations == len(calls) == rec.iterations + 4
        assert np.array_equal(rec.trace[:, 1], np.arange(4, rec.iterations + 5))

    def test_redraws_are_bounded(self):
        calls = []
        with pytest.raises(ObjectiveEvaluationError) as err:
            glasd_minimize(lambda x: (calls.append(1), math.inf)[1], BoxDomain([0.0], [1.0]),
                           seed=0)
        assert len(calls) == START_REDRAWS + 1
        assert err.value.point is not None

    def test_misuse_raises(self):
        search = started(BoxDomain([0.0], [1.0]), sphere, x0=[0.5],
                         config=OptimizerConfig(max_iters=1), seed=0)
        with pytest.raises(RuntimeError):
            search.tell(1.0)                 # no point asked
        search.tell(sphere(search.ask()))
        assert search.done
        with pytest.raises(RuntimeError):
            search.ask()


# one weight update: (direction pick, log2 of the factor the weight is scaled by)
UPDATES = st.tuples(st.integers(0, 10**6), st.floats(-12.0, 12.0))


class TestDirectionWeights:
    @settings(deadline=None, max_examples=200)
    # totals that leave [TOTAL_MIN, TOTAL_MAX] upward and downward
    @example(k=2, updates=[(0, 12.0)] * 4, u=0.5)
    @example(k=3, updates=[(0, -12.0), (1, -12.0), (2, -12.0)] * 3, u=0.9)
    @given(k=st.integers(2, 40), updates=st.lists(UPDATES, max_size=60),
           u=st.floats(0.0, 1.0, exclude_max=True))
    def test_sums_floor_and_draw(self, k, updates, u):
        w = _DirectionWeights(k)
        for pick, log2_factor in updates:
            j = pick % k
            others = np.arange(k) != j
            before = w.weights()
            scaled = w.weight(j) * 2.0 ** log2_factor
            floored = max(scaled, PROB_FLOOR * w.tree[1])
            w.put(j, scaled)
            after = w.weights()
            if np.array_equal(after[others], before[others]):
                assert after[j] == floored
            else:   # renormalized: every weight divided by the total, then floored
                before[j] = floored
                expected = np.maximum(before / before.sum(), PROB_FLOOR)
                assert np.allclose(after, expected, rtol=1e-12, atol=0)
            tree = w.tree
            for v in range(1, w.size):
                assert tree[v] == tree[2 * v] + tree[2 * v + 1]
            assert TOTAL_MIN <= tree[1] <= TOTAL_MAX
            assert (after > 0).all() and not any(tree[w.size + k:])
            cum = np.cumsum(after)
            target = u * after.sum()
            if np.abs(cum - target).min() > 1e-9 * cum[-1]:
                assert w.draw(u) == int(np.searchsorted(cum, target, side="right"))
            assert 0 <= w.draw(u) < k

    def test_draw_on_exact_boundaries(self):
        # equal weights 1/4 make every cumulative boundary exact; a target on
        # a boundary belongs to the direction above it, as with side="right"
        w = _DirectionWeights(4)
        assert [w.draw(u) for u in (0.0, 0.25, 0.5, 0.75)] == [0, 1, 2, 3]


class TestAsd:
    def test_1d_strongly_convex(self):
        rec = asd_minimize(lambda x: float((x[0] - 0.3) ** 2), BoxDomain([0.0], [1.0]),
                           x0=[0.9], seed=0)
        assert rec.f_best <= 1e-10

    def test_constant_objective_stagnates(self):
        n = 1
        rec = asd_minimize(lambda x: 1.0, BoxDomain([0.0], [1.0]), x0=[0.5],
                           seed=0)
        assert rec.f_best == 1.0
        assert rec.termination == "stagnation"
        assert rec.iterations == 4 * n  # window of consecutive rejections

    def test_strictly_decreasing_accepted_values(self):
        dom = BoxDomain(np.full(5, -4.0), np.full(5, 4.0))
        cfg = OptimizerConfig(explore_enabled=False)
        search = started(dom, sphere, config=cfg, seed=21)
        accepted = []
        while not search.done:
            accepts_before = search.greedy_accepts
            search.tell(sphere(search.ask()))
            if search.greedy_accepts > accepts_before:
                accepted.append(search.f)
        rec = search.record()
        assert rec.explore == rec.explore_accepts == 0
        assert rec.greedy_accepts == len(accepted) > 0
        assert (np.diff(np.array(accepted)) < 0).all()
        assert rec.f_best == accepted[-1]
        # the ask/tell loop is the run asd_minimize makes
        assert np.array_equal(asd_minimize(sphere, dom, seed=21).trace,
                              rec.trace)

    def test_geometric_decay_on_quadratic(self):
        # eigenvalues of the diagonal metric span [1, 10]; f* = 0 exactly
        weights = np.linspace(1.0, 10.0, 5)
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
        ss_res = np.sum((median - fitted) ** 2)
        ss_tot = np.sum((median - median.mean()) ** 2)
        r2 = 1.0 - ss_res / ss_tot
        assert slope < 0
        assert r2 >= 0.9


class TestFuzzInvariants:
    def test_monotone_and_feasible_matrix(self):
        # objectives x domains x seeds; zero violations allowed
        rng = np.random.default_rng(0)
        objectives = [
            sphere,
            lambda x: float(np.sum(np.abs(x))),
            lambda x: float(np.cos(3 * x[0]) + np.sum(x**2)),
            lambda x: float(np.floor(3 * x[0])),
        ]
        for case in range(25):
            n = int(rng.integers(1, 5))
            lo = rng.uniform(-5, 0, n)
            hi = lo + rng.uniform(0.5, 6, n)
            dom = BoxDomain(lo, hi)
            f = objectives[case % len(objectives)]
            seen = []
            wrapped = lambda x: (seen.append(x.copy()), f(x))[1]
            seed = int(rng.integers(0, 2**32))
            rec = glasd_minimize(wrapped, dom, config=OptimizerConfig(max_iters=400), seed=seed)
            pts = np.array(seen)
            assert (pts >= lo).all() and (pts <= hi).all()
            assert (np.diff(rec.trace[:, 2]) <= 0).all()
            assert rec.f_best == min(f(p) for p in pts)


class TestMultiStart:
    def test_derived_seeds_are_deterministic(self):
        assert derive_seeds(42, 5) == derive_seeds(42, 5)
        assert derive_seeds(42, 5) != derive_seeds(43, 5)

    def test_warm_start_used_once(self):
        dom = BoxDomain([0.0], [1.0])
        recs = multi_start_minimize(lambda x: float(x[0]), dom,
                                    config=OptimizerConfig(max_iters=3),
                                    n_starts=3, master_seed=1, x0_first=[0.25])
        assert recs[0].trace[0, 2] == 0.25

    def test_records_sorted_like_seeds(self):
        dom = BoxDomain([0.0], [1.0])
        recs = multi_start_minimize(lambda x: float(x[0]), dom,
                                    config=OptimizerConfig(max_iters=3),
                                    n_starts=4, master_seed=9)
        assert [r.seed for r in recs] == derive_seeds(9, 4)

    @pytest.mark.parametrize("n_starts", [0, -2])
    @pytest.mark.parametrize("entry", ["multi_start_minimize", "minimize_over_corr",
                                       "estimate_correlation"])
    def test_needs_a_start(self, entry, n_starts):
        cfg = OptimizerConfig(max_iters=3)
        run = {
            "multi_start_minimize": lambda: multi_start_minimize(
                sphere, BoxDomain([0.0], [1.0]), cfg, n_starts=n_starts, master_seed=1),
            "minimize_over_corr": lambda: minimize_over_corr(
                lambda C: float(C.sum()), 3, cfg, n_starts=n_starts, master_seed=1),
            "estimate_correlation": lambda: estimate_correlation(
                np.random.default_rng(0).standard_normal((20, 3)), LossSpec("gaussian"),
                cfg, n_starts=n_starts, master_seed=1),
        }[entry]
        with pytest.raises(ValueError, match="n_starts"):
            run()


class TestRandomSearch:
    def test_baseline_runs_and_is_deterministic(self):
        dom = BoxDomain(np.full(2, -1.0), np.full(2, 1.0))
        a = random_search_minimize(sphere, dom, 200, seed=6)
        b = random_search_minimize(sphere, dom, 200, seed=6)
        assert a.f_best == b.f_best
        assert a.evaluations == 201
        assert (np.diff(a.trace[:, 2]) <= 0).all()

    @pytest.mark.parametrize("max_iters", [0, -3, 2.5, 3.0, math.inf, "3", None])
    def test_budget_must_be_a_positive_integer(self, max_iters):
        # the rule OptimizerConfig applies to its counts
        calls = []
        with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
            random_search_minimize(lambda x: calls.append(1) or 0.0, BoxDomain([0.0], [1.0]),
                                   max_iters, seed=1)
        assert not calls

    def test_numpy_integer_budget_accepted(self):
        rec = random_search_minimize(sphere, BoxDomain([0.0], [1.0]), np.int64(3), seed=1)
        assert rec.evaluations == 4 and rec.iterations == 3

    def test_record_reads_like_the_solver_record(self):
        # the first draw is the start, row 0; row t is (t, t + 1, best so far)
        values = iter([2.0, math.nan, 3.0, 1.0, math.inf, -1.0])
        rec = random_search_minimize(lambda x: next(values), BoxDomain([0.0], [1.0]), 5,
                                     seed=1)
        assert rec.evaluations == rec.iterations + 1 == 6
        assert rec.trace.tolist() == [[0.0, 1.0, 2.0], [1.0, 2.0, 2.0], [2.0, 3.0, 2.0],
                                      [3.0, 4.0, 1.0], [4.0, 5.0, 1.0], [5.0, 6.0, -1.0]]
        assert rec.f_best == -1.0 and rec.nonfinite == 2
        assert rec.termination == "max-iterations" and rec.seed == 1

    def test_budget_is_the_solver_budget(self):
        # a start, then max_iters iterations, as GLASD spends when it runs to
        # max_iters (epsilon = 0) and redraws no start
        dom = BoxDomain(np.full(3, -1.0), np.full(3, 1.0))
        solver = glasd_minimize(sphere, dom, config=OptimizerConfig(max_iters=50, epsilon=0.0),
                                seed=1)
        baseline = random_search_minimize(sphere, dom, 50, seed=1)
        assert baseline.evaluations == solver.evaluations == 51
        assert baseline.iterations == solver.iterations == 50
        assert baseline.trace[:, :2].tolist() == solver.trace[:, :2].tolist()
