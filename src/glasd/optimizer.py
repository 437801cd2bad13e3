"""Adaptive stochastic descent over compact boxes.

Two modes of the same single-coordinate search loop:

* ``asd_minimize`` only ever accepts strictly improving steps and adapts a
  per-direction step size and selection probability after every greedy
  proposal.
* ``glasd_minimize`` additionally forces, with probability ``1/m`` per
  iteration, a random exploration step whose non-improving moves are accepted
  with a probability that decays like ``1/log(1 + t)``, which lets the search
  leave local minima.

All proposals move a single coordinate and are clipped to half the distance
to the facing bound, so every evaluated point is feasible by construction and
an interior start stays interior.

The 2n direction weights are kept unnormalized in a binary sum tree, so a
greedy draw (probability w_j / sum(w)) and the weight update after it each
cost O(log n).  An update floors the new weight at ``PROB_FLOOR`` times the
current total; when the total leaves ``[TOTAL_MIN, TOTAL_MAX]`` every weight
is divided by it and floored at ``PROB_FLOOR``, so no direction ever becomes
unselectable and the total can neither overflow nor underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainMismatchError, ObjectiveEvaluationError

STEP_MIN = 1e-12          # lower clamp for step sizes after repeated decay
PROB_FLOOR = 1e-12        # keeps every direction selectable forever
TOTAL_MIN = 2.0 ** -32    # direction weights are renormalized when their
TOTAL_MAX = 2.0 ** 32     # total leaves [TOTAL_MIN, TOTAL_MAX]


@dataclass(frozen=True)
class BoxDomain:
    """Compact hyperrectangle prod_i [lower[i], upper[i]]."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise DomainMismatchError("lower and upper must be 1-d and equally long")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        if not (lo < hi).all():
            raise ValueError("each lower bound must be strictly below its upper bound")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return x.shape == self.lower.shape and bool(
            (x >= self.lower).all() and (x <= self.upper).all()
        )

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper)


@dataclass(frozen=True)
class OptimizerConfig:
    """Tuning parameters.  ``None`` means "derive the default from the dimension".

    Derived defaults: ``c = 0.001*ln(n)``, ``max_iters = round(3000*ln(n))``
    and ``stagnation_window = 4n``, with ``ln(max(n, 2))`` replacing ``ln(n)``
    so one-dimensional problems keep a positive temperature and budget.  The
    2n direction weights always start equal.
    """

    s_init: float = 0.1
    s_inc: float = 2.0
    s_dec: float = 2.0
    p_inc: float = 2.0
    p_dec: float = 2.0
    m: int = 5
    c: float | None = None
    r_policy: str = "dynamic-to-bound"   # or "fixed"
    r: float | None = None               # radius when r_policy == "fixed"
    max_iters: int | None = None
    stagnation_window: int | None = None
    epsilon: float = 1e-20
    explore_enabled: bool = True
    seed: int | None = None

    def __post_init__(self):
        if self.s_init <= 0:
            raise ValueError("s_init must be positive")
        for name in ("s_inc", "s_dec", "p_inc", "p_dec"):
            if getattr(self, name) <= 1:
                raise ValueError(f"{name} must be > 1")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.c is not None and self.c <= 0:
            raise ValueError("c must be positive")
        if self.r_policy not in ("dynamic-to-bound", "fixed"):
            raise ValueError("r_policy must be 'dynamic-to-bound' or 'fixed'")
        if self.r_policy == "fixed" and (self.r is None or self.r <= 0):
            raise ValueError("fixed r_policy needs a positive r")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.stagnation_window is not None and self.stagnation_window < 1:
            raise ValueError("stagnation_window must be >= 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")

    def resolved(self, n: int) -> "OptimizerConfig":
        """Copy with every dimension-dependent default filled in for dimension n."""
        logn = math.log(max(n, 2))
        return replace(
            self,
            c=self.c if self.c is not None else 0.001 * logn,
            max_iters=self.max_iters if self.max_iters is not None else round(3000 * logn),
            stagnation_window=(self.stagnation_window
                               if self.stagnation_window is not None else 4 * n),
        )


class OptimizerState:
    """Live state handed to an iteration callback (read, do not mutate).

    ``s`` (step sizes) and ``p`` (direction probabilities) are arrays built
    from the live state when read, so read them during the callback.
    ``best_buffer`` holds the best value after each iteration so far.
    """

    __slots__ = ("x", "t", "f_current", "f_best", "x_best", "best_buffer",
                 "_steps", "_weights")

    def __init__(self, x, t, f_current, f_best, x_best, best_buffer, steps, weights):
        self.x, self.t = x, t
        self.f_current, self.f_best, self.x_best = f_current, f_best, x_best
        self.best_buffer = best_buffer
        self._steps, self._weights = steps, weights

    @property
    def s(self) -> np.ndarray:
        return np.array(self._steps)

    @property
    def p(self) -> np.ndarray:
        w = self._weights.weights()
        return w / w.sum()


class MoveInfo(NamedTuple):
    explore: bool
    accepted: bool
    coordinate: int
    direction: int | None   # index into the 2n direction set; None for explore moves


@dataclass(frozen=True)
class RunRecord:
    """Result of one optimization run.

    ``trace`` has one row per iteration (plus the initial point) with columns
    ``(iteration, evaluations, f_best)``; its last column is nonincreasing.
    """

    x_best: np.ndarray
    f_best: float
    evaluations: int
    iterations: int
    termination: str          # "max-iterations" or "stagnation"
    seed: int
    trace: np.ndarray


def acceptance_prob(t: float, m: int, c: float) -> float:
    """Probability of accepting a non-improving exploration move at iteration t."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return min(1.0, m * c / math.log(1.0 + t))


def _half_gap_step(xi: float, lo: float, hi: float, sign: int, magnitude: float) -> float:
    """Signed step along one coordinate: ``magnitude`` clipped to half the gap
    between ``xi`` and the bound it moves toward."""
    return min(magnitude, (hi - xi) / 2.0) if sign > 0 else -min(magnitude, (xi - lo) / 2.0)


class _DirectionWeights:
    """Unnormalized positive weights of k directions in a binary sum tree.

    ``tree[1]`` is the total, node ``v`` has children ``2v`` and ``2v + 1``,
    and leaf ``j`` sits at ``tree[size + j]``, with ``size`` the power of two
    at or above k and padding leaves held at 0.  Every inner node is
    recomputed from its two children, so no sum drifts.  All weights start
    at 1/k.
    """

    __slots__ = ("k", "size", "tree")

    def __init__(self, k: int):
        self.k = k
        self.size = 1 << (k - 1).bit_length()
        self.tree = [0.0] * (2 * self.size)
        self.tree[self.size:self.size + k] = [1.0 / k] * k
        self._rebuild()

    def _rebuild(self) -> None:
        tree = self.tree
        for v in range(self.size - 1, 0, -1):
            tree[v] = tree[2 * v] + tree[2 * v + 1]

    def draw(self, u: float) -> int:
        """Direction j whose cumulative-weight interval holds ``u * total``
        (``searchsorted(cumsum(w), u * total, side='right')``), for u in [0, 1)."""
        tree, size = self.tree, self.size
        target = u * tree[1]
        v = 1
        while v < size:
            v <<= 1
            if target >= tree[v]:
                target -= tree[v]
                v += 1
        return min(v - size, self.k - 1)

    def weight(self, j: int) -> float:
        return self.tree[self.size + j]

    def put(self, j: int, w: float) -> None:
        """Set weight j to ``max(w, PROB_FLOOR * total)`` and update its
        ancestors; renormalize when the total leaves [TOTAL_MIN, TOTAL_MAX]."""
        tree = self.tree
        v = self.size + j
        tree[v] = max(w, PROB_FLOOR * tree[1])
        v >>= 1
        while v:
            tree[v] = tree[2 * v] + tree[2 * v + 1]
            v >>= 1
        total = tree[1]
        if not TOTAL_MIN <= total <= TOTAL_MAX:
            lo, hi = self.size, self.size + self.k
            tree[lo:hi] = [max(leaf / total, PROB_FLOOR) for leaf in tree[lo:hi]]
            self._rebuild()

    def weights(self) -> np.ndarray:
        return np.array(self.tree[self.size:self.size + self.k])


def _fresh_seed() -> int:
    return int(np.random.SeedSequence().generate_state(1, dtype=np.uint64)[0])


def _resolve_seed(seed: int | None, config: OptimizerConfig | None) -> int:
    """The seed rule: an explicit ``seed``, else ``config.seed``, else a fresh one."""
    if seed is None and config is not None:
        seed = config.seed
    return seed if seed is not None else _fresh_seed()


def derive_seeds(master_seed: int, count: int) -> list[int]:
    """Deterministic child seeds for independent runs under one master seed."""
    state = np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def glasd_minimize(
    f: Callable[[np.ndarray], float],
    domain: BoxDomain,
    x0: Sequence[float] | np.ndarray | None = None,
    config: OptimizerConfig | None = None,
    callback: Callable[[OptimizerState, MoveInfo], None] | None = None,
) -> RunRecord:
    """Minimize ``f`` over ``domain`` by globally-explorative adaptive descent.

    Parameters
    ----------
    f : callable
        Objective mapping a feasible point to a float.  It is called exactly
        once per iteration, plus once for the initial point.  A nonfinite
        value (NaN or +-inf) at a proposal rejects that proposal; at the start
        point it raises ObjectiveEvaluationError.
    domain : BoxDomain
        Compact search box.
    x0 : array-like, optional
        Feasible start.  When omitted it is drawn uniformly from the box
        using the run seed.
    config : OptimizerConfig, optional
        Tuning parameters; dimension-dependent defaults are resolved here.
    callback : callable, optional
        Called after every iteration with ``(OptimizerState, MoveInfo)``.
        Intended for instrumentation; it adds per-iteration overhead.

    Returns
    -------
    RunRecord
        Best point and value, evaluation counts, termination reason, the seed
        actually used, and the per-iteration best-value trace.
    """
    n = domain.dim
    cfg = (config if config is not None else OptimizerConfig()).resolved(n)
    seed = _resolve_seed(None, cfg)
    rng = np.random.default_rng(seed)

    if x0 is None:
        x = domain.sample(rng)
    else:
        x = np.asarray(x0, dtype=float).copy()
        if x.shape != (n,):
            raise DomainMismatchError(
                f"x0 has dimension {x.shape}, domain has dimension {n}"
            )
        if not domain.contains(x):
            raise ValueError("x0 lies outside the domain")

    def feval(point: np.ndarray) -> float:
        try:
            return float(f(point))
        except Exception as exc:
            raise ObjectiveEvaluationError(
                f"objective evaluation failed at {point!r}", point=point
            ) from exc

    lower, upper = domain.lower.tolist(), domain.upper.tolist()
    dir_width = [w for w in domain.widths.tolist() for _ in (0, 1)]   # direction j -> width
    s = [min(cfg.s_init, w) for w in dir_width]
    weights = _DirectionWeights(2 * n)

    f_curr = feval(x)
    if not math.isfinite(f_curr):
        raise ObjectiveEvaluationError(
            f"objective is {f_curr} at the start point {x!r}", point=x)
    f_best = f_curr
    x_best = x.copy()
    best = [f_best]                 # best value after each iteration; row t of the trace
    explore_prob = 1.0 / cfg.m
    termination = "max-iterations"
    last_accepted = 0

    for t in range(1, cfg.max_iters + 1):
        explore = cfg.explore_enabled and rng.random() < explore_prob
        if not explore:
            # greedy mode: direction by adaptive weights, fixed magnitude s_j
            j = weights.draw(rng.random())
            i = j >> 1
            sign = 1 if (j & 1) == 0 else -1
        else:
            j = None
            i = int(rng.integers(n))
            sign = 1 if rng.random() < 0.5 else -1
        xi = x.item(i)
        if not explore:
            mag = s[j]
        elif cfg.r_policy == "dynamic-to-bound":
            mag = rng.uniform(0.0, (upper[i] - xi) if sign > 0 else (xi - lower[i]))
        else:
            mag = rng.uniform(0.0, cfg.r)
        x_new = x.copy()
        x_new[i] = min(max(xi + _half_gap_step(xi, lower[i], upper[i], sign, mag),
                           lower[i]), upper[i])

        f_new = feval(x_new)

        # a nonfinite value is a rejected proposal in either mode
        finite = math.isfinite(f_new)
        accepted = False
        if finite and f_new < f_curr:
            x, f_curr = x_new, f_new
            accepted = True
            if not explore:
                s[j] = min(s[j] * cfg.s_inc, dir_width[j])
                weights.put(j, weights.weight(j) * cfg.p_inc)
        elif explore:
            if finite and rng.random() < acceptance_prob(t, cfg.m, cfg.c):
                x, f_curr = x_new, f_new
                accepted = True
        else:
            s[j] = max(s[j] / cfg.s_dec, STEP_MIN)
            weights.put(j, weights.weight(j) / cfg.p_dec)

        if finite and f_new < f_best:
            f_best = f_new
            x_best = x_new.copy()
        if accepted:
            last_accepted = t
        best.append(f_best)

        if callback is not None:
            callback(
                OptimizerState(x, t, f_curr, f_best, x_best, best, s, weights),
                MoveInfo(explore=explore, accepted=accepted, coordinate=i, direction=j),
            )

        # Stall rule: the run is stuck once a full window passes with neither
        # an accepted proposal nor a best-value gain of at least epsilon.
        # epsilon = 0 therefore disables early stopping entirely.
        if (
            t - last_accepted >= cfg.stagnation_window
            and best[t - cfg.stagnation_window] - best[t] < cfg.epsilon
        ):
            termination = "stagnation"
            break

    # one evaluation per iteration plus the start: row t is (t, t + 1, best[t])
    iterations = len(best) - 1
    trace = np.empty((iterations + 1, 3))
    trace[:, 0] = np.arange(iterations + 1)
    trace[:, 1] = trace[:, 0] + 1
    trace[:, 2] = best
    return RunRecord(
        x_best=x_best,
        f_best=f_best,
        evaluations=iterations + 1,
        iterations=iterations,
        termination=termination,
        seed=seed,
        trace=trace,
    )


def asd_minimize(f, domain, x0=None, config=None, callback=None) -> RunRecord:
    """Exploration-free variant: every iteration is a greedy adaptive step."""
    cfg = config if config is not None else OptimizerConfig()
    return glasd_minimize(f, domain, x0=x0,
                          config=replace(cfg, explore_enabled=False),
                          callback=callback)


def multi_start_minimize(
    f, domain, config=None, n_starts: int = 10,
    master_seed: int | None = None, x0_first=None,
) -> list[RunRecord]:
    """Independent restarts with per-run seeds derived from one master seed:
    ``master_seed``, else ``config.seed``, else a fresh seed.

    The first run may be given an explicit start (warm start); all others
    start from a uniform draw under their own seed.
    """
    cfg = config if config is not None else OptimizerConfig()
    seeds = derive_seeds(_resolve_seed(master_seed, config), n_starts)
    records = []
    for k, run_seed in enumerate(seeds):
        x0 = x0_first if (k == 0 and x0_first is not None) else None
        records.append(
            glasd_minimize(f, domain, x0=x0, config=replace(cfg, seed=run_seed))
        )
    return records


def random_search_minimize(
    f, domain: BoxDomain, max_iters: int, seed: int | None = None,
) -> RunRecord:
    """Uniform random search baseline; same record format as the main solver."""
    seed = _resolve_seed(seed, None)
    rng = np.random.default_rng(seed)
    f_best = math.inf
    x_best = None
    trace_rows = []
    for t in range(1, max_iters + 1):
        x = domain.sample(rng)
        fx = float(f(x))
        if fx < f_best:
            f_best = fx
            x_best = x
        trace_rows.append((t, t, f_best))
    return RunRecord(
        x_best=x_best, f_best=f_best, evaluations=max_iters, iterations=max_iters,
        termination="max-iterations", seed=seed,
        trace=np.asarray(trace_rows, dtype=float),
    )
