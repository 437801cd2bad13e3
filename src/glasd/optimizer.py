"""Adaptive stochastic descent over compact boxes.

Two modes of the same single-coordinate search loop:

* ``asd_minimize`` only ever accepts strictly improving steps and adapts a
  per-direction step size and selection probability after every greedy
  proposal.
* ``glasd_minimize`` additionally forces, with probability ``1/m`` per
  iteration, a random exploration step whose non-improving moves are accepted
  with a probability that decays like ``1/log(1 + t)``, which lets the search
  leave local minima.

The loop state lives in :class:`Search`, an ask/tell object that never calls
the objective itself; one driver loop runs it for ``glasd_minimize`` and
``multi_start_minimize``.  Each :class:`RunRecord` counts the run's moves.

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
from typing import Callable, Sequence

import numpy as np

from .errors import DomainMismatchError, ObjectiveEvaluationError

STEP_MIN = 1e-12          # lower clamp for step sizes after repeated decay
PROB_FLOOR = 1e-12        # keeps every direction selectable forever
TOTAL_MIN = 2.0 ** -32    # direction weights are renormalized when their
TOTAL_MAX = 2.0 ** 32     # total leaves [TOTAL_MIN, TOTAL_MAX]
START_REDRAWS = 10        # redraws of a box-drawn start whose value is nonfinite


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
    2n direction weights always start equal.  Every number must be finite,
    and ``max_iters`` and ``stagnation_window`` are integers.
    ``r`` is the exploration radius: ``None`` draws each exploration step up
    to the bound it faces, a positive ``r`` draws it up to ``r``.
    """

    s_init: float = 0.1
    s_inc: float = 2.0
    s_dec: float = 2.0
    p_inc: float = 2.0
    p_dec: float = 2.0
    m: int = 5
    c: float | None = None
    r: float | None = None               # fixed exploration radius, if set
    max_iters: int | None = None
    stagnation_window: int | None = None
    epsilon: float = 1e-20
    explore_enabled: bool = True
    seed: int | None = None

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not 0 < self.s_init < math.inf:
            raise ValueError("s_init must be positive and finite")
        for name in ("s_inc", "s_dec", "p_inc", "p_dec"):
            if not 1 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 1")
        if not self.m >= 1:
            raise ValueError("m must be >= 1")
        if self.c is not None and not 0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        if self.r is not None and not 0 < self.r < math.inf:
            raise ValueError("r must be positive and finite")
        # the loop compares and indexes with these counts, so a float would
        # never stop the run or fail mid-run
        for name in ("max_iters", "stagnation_window"):
            value = getattr(self, name)
            if value is not None and not (isinstance(value, (int, np.integer)) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be nonnegative and finite")

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


@dataclass(frozen=True)
class RunRecord:
    """Result of one optimization run.

    ``trace`` has one row per iteration (plus the initial point) with columns
    ``(iteration, evaluations, f_best)``; its last column is nonincreasing.
    The counters are deterministic: ``explore`` exploration proposals (the
    other ``iterations - explore`` were greedy), ``explore_accepts`` and
    ``greedy_accepts`` accepted moves of each kind, and ``nonfinite`` values
    (NaN or +-inf) returned by the objective, redrawn starts included.
    """

    x_best: np.ndarray
    f_best: float
    evaluations: int
    iterations: int
    termination: str          # "max-iterations" or "stagnation"
    seed: int
    trace: np.ndarray
    explore: int = 0
    explore_accepts: int = 0
    greedy_accepts: int = 0
    nonfinite: int = 0

    def counters(self) -> dict[str, int]:
        """The run's deterministic counts by name: iterations, evaluations and
        the move counters."""
        return {"iterations": self.iterations, "evaluations": self.evaluations,
                "explore": self.explore, "explore_accepts": self.explore_accepts,
                "greedy_accepts": self.greedy_accepts, "nonfinite": self.nonfinite}


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


class Search:
    """One GLASD run as an ask/tell loop: ``ask()`` returns the next point,
    ``tell(value)`` reports the objective there and applies the accept, adapt
    and stall rules, and ``record()`` returns the :class:`RunRecord` once
    ``done``.  Tell each point before the next ask, and do not modify it.

    The first ``ask()`` returns the start point, ``x0`` or a uniform draw
    under the run seed.  A nonfinite value there raises
    ObjectiveEvaluationError for ``x0``; a drawn start is redrawn from the
    run's RNG, at most ``START_REDRAWS`` times.  Later points are proposals
    one coordinate, ``moved``, away from ``x``; a nonfinite value rejects a
    proposal.  ``x``, ``f`` and ``moved`` (None until set), ``x_best``,
    ``f_best``, ``t``, ``termination`` and the record's counters are public.
    """

    def __init__(self, domain: BoxDomain,
                 x0: Sequence[float] | np.ndarray | None = None,
                 config: OptimizerConfig | None = None):
        n = domain.dim
        self.config = cfg = (config if config is not None else OptimizerConfig()).resolved(n)
        self.seed = _resolve_seed(None, cfg)
        self._rng = np.random.default_rng(self.seed)
        self._domain = domain
        self._x0_given = x0 is not None
        if x0 is None:
            self.x = domain.sample(self._rng)
        else:
            self.x = np.asarray(x0, dtype=float).copy()
            if self.x.shape != (n,):
                raise DomainMismatchError(
                    f"x0 has dimension {self.x.shape}, domain has dimension {n}")
            if not domain.contains(self.x):
                raise ValueError("x0 lies outside the domain")
        self.f = self.f_best = self.x_best = self.termination = self.moved = None
        self.t, self.done = 0, False
        self.explore = self.explore_accepts = self.greedy_accepts = self.nonfinite = 0
        self._lower, self._upper = domain.lower.tolist(), domain.upper.tolist()
        self._dir_width = [w for w in domain.widths.tolist() for _ in (0, 1)]   # direction j -> width
        self._s = [min(cfg.s_init, w) for w in self._dir_width]
        self._weights = _DirectionWeights(2 * n)
        self._explore_prob = 1.0 / cfg.m
        self._best = []              # best value after each iteration; row t of the trace
        self._last_accepted = self._redraws = 0
        self._proposal = None        # (point, direction j, or None for an exploration move)

    def ask(self) -> np.ndarray:
        """The next point to evaluate: the start point until it is told, then
        a proposal one coordinate away from ``x``."""
        if self.done:
            raise RuntimeError("the search is done")
        if self.f is None:
            return self.x
        rng, cfg, x = self._rng, self.config, self.x
        if cfg.explore_enabled and rng.random() < self._explore_prob:
            j, i = None, int(rng.integers(x.size))
            sign = 1 if rng.random() < 0.5 else -1
        else:   # greedy mode: direction by adaptive weights, fixed magnitude s_j
            j = self._weights.draw(rng.random())
            i, sign = j >> 1, 1 - 2 * (j & 1)
        xi, lo, hi = x.item(i), self._lower[i], self._upper[i]
        if j is not None:
            mag = self._s[j]
        elif cfg.r is None:
            mag = rng.uniform(0.0, (hi - xi) if sign > 0 else (xi - lo))
        else:
            mag = rng.uniform(0.0, cfg.r)
        x_new = x.copy()
        x_new[i] = min(max(xi + _half_gap_step(xi, lo, hi, sign, mag), lo), hi)
        self._proposal, self.moved = (x_new, j), i
        return x_new

    def tell(self, value: float) -> bool:
        """Report the value at the last ``ask()``'s point; True if it is now ``x``."""
        finite = math.isfinite(value)
        if not finite:
            self.nonfinite += 1
        if self.f is None:                       # the start point
            if finite:
                self.f = self.f_best = value
                self.x_best = self.x.copy()
                self._best.append(value)
            elif self._x0_given or self._redraws == START_REDRAWS:
                raise ObjectiveEvaluationError(
                    f"objective is {value} at the start point {self.x!r}", point=self.x)
            else:
                self._redraws += 1
                self.x = self._domain.sample(self._rng)
            return finite
        if self._proposal is None:
            raise RuntimeError("tell() needs a point from ask()")
        x_new, j = self._proposal
        self._proposal = None
        t = self.t = self.t + 1
        cfg = self.config
        if j is None:
            self.explore += 1
        # a nonfinite value is a rejected proposal in either mode
        if finite and value < self.f:
            self.x, self.f, self._last_accepted = x_new, value, t
            if j is None:
                self.explore_accepts += 1
            else:
                self.greedy_accepts += 1
                self._s[j] = min(self._s[j] * cfg.s_inc, self._dir_width[j])
                self._weights.put(j, self._weights.weight(j) * cfg.p_inc)
        elif j is None:
            if finite and self._rng.random() < acceptance_prob(t, cfg.m, cfg.c):
                self.x, self.f, self._last_accepted = x_new, value, t
                self.explore_accepts += 1
        else:
            self._s[j] = max(self._s[j] / cfg.s_dec, STEP_MIN)
            self._weights.put(j, self._weights.weight(j) / cfg.p_dec)

        if finite and value < self.f_best:
            self.f_best = value
            self.x_best = x_new.copy()
        best = self._best
        best.append(self.f_best)

        # Stall rule: the run is stuck once a full window passes with neither
        # an accepted proposal nor a best-value gain of at least epsilon.
        # epsilon = 0 therefore disables early stopping entirely.
        window = cfg.stagnation_window
        if t - self._last_accepted >= window and best[t - window] - best[t] < cfg.epsilon:
            self.done, self.termination = True, "stagnation"
        elif t == cfg.max_iters:
            self.done, self.termination = True, "max-iterations"
        return self._last_accepted == t

    def record(self) -> RunRecord:
        """The run so far as a :class:`RunRecord` (call once the start is told)."""
        # one evaluation per start draw and per iteration: row t is
        # (t, t + 1 + redraws, best[t])
        trace = np.empty((self.t + 1, 3))
        trace[:, 0] = np.arange(self.t + 1)
        trace[:, 1] = trace[:, 0] + (1 + self._redraws)
        trace[:, 2] = self._best
        return RunRecord(
            x_best=self.x_best, f_best=self.f_best, evaluations=self.t + 1 + self._redraws,
            iterations=self.t, termination=self.termination, seed=self.seed, trace=trace,
            explore=self.explore, explore_accepts=self.explore_accepts,
            greedy_accepts=self.greedy_accepts, nonfinite=self.nonfinite,
        )


def _drive(search: Search, f) -> RunRecord:
    """Run ``search`` to its end on ``f``, as :func:`glasd_minimize` describes."""
    move, accept = getattr(f, "move", None), getattr(f, "accept", None)
    while not search.done:
        x, i = search.ask(), search.moved
        try:
            value = float(f(x) if i is None or move is None else move(x, i))
        except Exception as exc:
            raise ObjectiveEvaluationError(f"objective evaluation failed at {x!r}",
                                           point=x) from exc
        if search.tell(value) and i is not None and accept is not None:
            accept()
    return search.record()


def glasd_minimize(
    f: Callable[[np.ndarray], float],
    domain: BoxDomain,
    x0: Sequence[float] | np.ndarray | None = None,
    config: OptimizerConfig | None = None,
) -> RunRecord:
    """Minimize ``f`` over ``domain`` by globally-explorative adaptive descent.

    Drives one :class:`Search` with ``f``, which maps a feasible point to a
    float and is called once per start point and once per iteration; an
    exception in ``f`` is raised as ObjectiveEvaluationError carrying the
    point.  An ``f`` with methods ``move(x, i)`` and ``accept()`` is called
    as ``move(x, i)`` for a proposal ``x``, the current point with coordinate
    ``i`` moved, and ``accept()`` follows each proposal the search accepts.
    ``x0`` is a feasible start, drawn from the box under the run seed when
    omitted.  ``config``'s dimension-dependent defaults are resolved for
    ``domain``.  Returns the run's :class:`RunRecord`.
    """
    return _drive(Search(domain, x0, config), f)


def asd_minimize(f, domain, x0=None, config=None) -> RunRecord:
    """Exploration-free variant: every iteration is a greedy adaptive step."""
    cfg = config if config is not None else OptimizerConfig()
    return glasd_minimize(f, domain, x0=x0, config=replace(cfg, explore_enabled=False))


def multi_start_minimize(
    f, domain, config=None, n_starts: int = 10,
    master_seed: int | None = None, x0_first=None,
) -> list[RunRecord]:
    """``n_starts`` independent restarts with per-run seeds derived from one
    master seed: ``master_seed``, else ``config.seed``, else a fresh seed.

    The first run may be given an explicit start (warm start); all others
    start from a uniform draw under their own seed, and runs as in
    :func:`glasd_minimize`.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    cfg = config if config is not None else OptimizerConfig()
    seeds = derive_seeds(_resolve_seed(master_seed, config), n_starts)
    return [_drive(Search(domain, x0_first if k == 0 else None, replace(cfg, seed=run_seed)), f)
            for k, run_seed in enumerate(seeds)]


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
