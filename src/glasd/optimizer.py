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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainMismatchError, ObjectiveEvaluationError

STEP_MIN = 1e-12          # lower clamp for step sizes after repeated decay
PROB_FLOOR = 1e-12        # keeps every direction selectable forever


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

    Derived defaults: ``p_init = 1/(2n)``, ``c = 0.001*ln(n)``,
    ``max_iters = round(3000*ln(n))`` and ``stagnation_window = 4n``, with
    ``ln(max(n, 2))`` replacing ``ln(n)`` so one-dimensional problems keep a
    positive temperature and budget.
    """

    s_init: float = 0.1
    p_init: float | None = None
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

    def resolved(self, n: int) -> "ResolvedConfig":
        logn = math.log(max(n, 2))
        return ResolvedConfig(
            s_init=self.s_init,
            p_init=self.p_init if self.p_init is not None else 1.0 / (2 * n),
            s_inc=self.s_inc, s_dec=self.s_dec,
            p_inc=self.p_inc, p_dec=self.p_dec,
            m=self.m,
            c=self.c if self.c is not None else 0.001 * logn,
            r_policy=self.r_policy, r=self.r,
            max_iters=self.max_iters if self.max_iters is not None else round(3000 * logn),
            stagnation_window=(self.stagnation_window
                               if self.stagnation_window is not None else 4 * n),
            epsilon=self.epsilon,
            explore_enabled=self.explore_enabled,
        )


@dataclass(frozen=True)
class ResolvedConfig:
    """OptimizerConfig with every dimension-dependent default filled in."""

    s_init: float
    p_init: float
    s_inc: float
    s_dec: float
    p_inc: float
    p_dec: float
    m: int
    c: float
    r_policy: str
    r: float | None
    max_iters: int
    stagnation_window: int
    epsilon: float
    explore_enabled: bool


@dataclass
class OptimizerState:
    """Live state handed to an iteration callback (read, do not mutate)."""

    x: np.ndarray
    s: np.ndarray
    p: np.ndarray
    t: int
    f_current: float
    f_best: float
    x_best: np.ndarray
    best_buffer: list


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


def clip_step(x, domain: BoxDomain, i: int, sign: int, magnitude: float) -> np.ndarray:
    """Single-coordinate displacement, clipped to half the gap to the facing bound."""
    x = np.asarray(x, dtype=float)
    delta = np.zeros(domain.dim)
    if sign > 0:
        delta[i] = min(magnitude, (domain.upper[i] - x[i]) / 2.0)
    else:
        delta[i] = -min(magnitude, (x[i] - domain.lower[i]) / 2.0)
    return delta


def _fresh_seed() -> int:
    return int(np.random.SeedSequence().generate_state(1, dtype=np.uint64)[0])


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
    cfg_in = config if config is not None else OptimizerConfig()
    n = domain.dim
    cfg = cfg_in.resolved(n)
    seed = cfg_in.seed if cfg_in.seed is not None else _fresh_seed()
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

    lower, upper = domain.lower, domain.upper
    widths = domain.widths
    dir_coord = np.arange(2 * n) // 2          # direction j -> coordinate
    dir_width = widths[dir_coord]

    s = np.minimum(np.full(2 * n, cfg.s_init), dir_width)
    p = np.full(2 * n, cfg.p_init)
    p /= p.sum()

    f_curr = feval(x)
    if not math.isfinite(f_curr):
        raise ObjectiveEvaluationError(
            f"objective is {f_curr} at the start point {x!r}", point=x)
    evals = 1
    f_best = f_curr
    x_best = x.copy()
    buffer = [f_best]
    trace_rows = [(0, evals, f_best)]
    explore_prob = 1.0 / cfg.m
    termination = "max-iterations"
    iterations = 0
    last_accepted = 0

    for t in range(1, cfg.max_iters + 1):
        explore = cfg.explore_enabled and rng.random() < explore_prob
        if not explore:
            # greedy mode: direction by adaptive weights, fixed magnitude s_j
            cum = np.cumsum(p)
            j = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            j = min(j, 2 * n - 1)
            i = j >> 1
            sign = 1 if (j & 1) == 0 else -1
            mag = s[j]
        else:
            j = None
            i = int(rng.integers(n))
            sign = 1 if rng.random() < 0.5 else -1
            if cfg.r_policy == "dynamic-to-bound":
                r = (upper[i] - x[i]) if sign > 0 else (x[i] - lower[i])
            else:
                r = cfg.r
            mag = rng.uniform(0.0, r)

        gap_half = (upper[i] - x[i]) / 2.0 if sign > 0 else (x[i] - lower[i]) / 2.0
        x_new = x.copy()
        x_new[i] = min(max(x[i] + sign * min(mag, gap_half), lower[i]), upper[i])

        f_new = feval(x_new)
        evals += 1

        # a nonfinite value is a rejected proposal in either mode
        finite = math.isfinite(f_new)
        accepted = False
        if finite and f_new < f_curr:
            x, f_curr = x_new, f_new
            accepted = True
            if not explore:
                s[j] = min(s[j] * cfg.s_inc, dir_width[j])
                p[j] *= cfg.p_inc
                np.maximum(p, PROB_FLOOR, out=p)
                p /= p.sum()
        elif explore:
            if finite and rng.random() < acceptance_prob(t, cfg.m, cfg.c):
                x, f_curr = x_new, f_new
                accepted = True
        else:
            s[j] = max(s[j] / cfg.s_dec, STEP_MIN)
            p[j] /= cfg.p_dec
            np.maximum(p, PROB_FLOOR, out=p)
            p /= p.sum()

        if finite and f_new < f_best:
            f_best = f_new
            x_best = x_new.copy()
        if accepted:
            last_accepted = t

        buffer.append(f_best)
        trace_rows.append((t, evals, f_best))
        iterations = t

        if callback is not None:
            callback(
                OptimizerState(x=x, s=s, p=p, t=t, f_current=f_curr,
                               f_best=f_best, x_best=x_best, best_buffer=buffer),
                MoveInfo(explore=explore, accepted=accepted, coordinate=i, direction=j),
            )

        # Stall rule: the run is stuck once a full window passes with neither
        # an accepted proposal nor a best-value gain of at least epsilon.
        # epsilon = 0 therefore disables early stopping entirely.
        if (
            t - last_accepted >= cfg.stagnation_window
            and buffer[t - cfg.stagnation_window] - buffer[t] < cfg.epsilon
        ):
            termination = "stagnation"
            break

    return RunRecord(
        x_best=x_best,
        f_best=f_best,
        evaluations=evals,
        iterations=iterations,
        termination=termination,
        seed=seed,
        trace=np.asarray(trace_rows, dtype=float),
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
    """Independent restarts with per-run seeds derived from one master seed.

    The first run may be given an explicit start (warm start); all others
    start from a uniform draw under their own seed.
    """
    cfg = config if config is not None else OptimizerConfig()
    if master_seed is None:
        master_seed = cfg.seed if cfg.seed is not None else _fresh_seed()
    seeds = derive_seeds(master_seed, n_starts)
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
    if seed is None:
        seed = _fresh_seed()
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
