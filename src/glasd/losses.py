"""Gaussian and robust correlation-fit objectives on squared Mahalanobis distances.

Every objective has the same shape,

    (n/2) * logdet(C) + (1/2) * sum_i rho(d_i^2),

where ``d_i^2 = x_i^T C^{-1} x_i`` and ``rho`` is the identity (gaussian), the
Huber transition to a linear tail, a hard cap (truncated), or the biweight
plateau (tukey).  Distances are computed through the Cholesky factor of C
by forward substitution (:func:`_forward`), in numpy alone.

Thresholds for the robust kinds live on the d^2 scale.  Two automatic
policies exist:

* ``iqr-auto`` (default): the cutoff is Q3 + 3*IQR of the squared distances
  under the candidate matrix itself, recomputed at every evaluation.  The
  objective stays a deterministic function of (data, C); crucially, for
  data with more rows than columns it is bounded below, because the bulk of
  the sample always sits on the quadratic branch.  A frozen cutoff leaves
  the truncated and biweight objectives unbounded: once every distance
  saturates, log det alone drives the fit to a degenerate matrix.
* ``iqr-pilot``: the same rule evaluated once under a shrunk
  sample-correlation pilot and frozen for the whole optimization; kept for
  diagnostics and comparison.

Both policies, and the reported threshold, use one quartile rule
(:func:`iqr_threshold`).

The search evaluates the objective as a function of the angle vector through
:class:`AngleObjective`.  Each search proposal moves one angle, which changes
one row of the factor, so the whitened data ``L^{-1} X^T`` changes in that row
plus a rank-one term in the rows below it.  The objective also whitens the
identity; the cached whitened identity ``L^{-1}`` supplies the rank-one term's
tail vector as a column read.  A proposal costs one O(p(n + p)) pass: its
squared distances follow from the current point's squared column norms, the
new row and the rank-one term, and nothing cached changes.  Accepting it
applies the rank-one update in place and sums the column norms afresh.  A
full evaluation (factor build plus an n p^2 forward substitution) runs at a
start; a proposal the growth guard refuses is scored by that forward
substitution alone, and accepting it adopts the solve.  :func:`loss_robust`
is the single reference evaluation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDataError, DomainMismatchError, MalformedDataError
from .manifold import OneAngleObjective, _cholesky, _tidy_corr

LOSS_KINDS = ("gaussian", "huber", "truncated", "tukey")
THRESHOLD_POLICIES = ("iqr-auto", "iqr-pilot")
# Relative agreement of a one-angle proposal's value with a full evaluation.
ONE_ANGLE_RTOL = 1e-10
# Rounding error in a column of L^{-1} [X^T | I] kept up to date by rank-one
# updates scales with eps times the largest squared norm the column held since
# the last full solve; when that exceeds the current one by more than this
# factor, the objective solves afresh.  The factor 4 covers the few roundings
# of the one-pass update, so the limit is about 1.1e5.
GROWTH_LIMIT = ONE_ANGLE_RTOL / (4 * float(np.finfo(float).eps))
# Smallest eigenvalue :func:`shrink_to_pd` leaves a repaired matrix.
_SHRINK_FLOOR = 1e-3


@dataclass(frozen=True)
class DataMatrix:
    """n x p observation matrix with optional column labels."""

    values: np.ndarray
    column_names: list[str] | None = None

    def __post_init__(self):
        v = _values(self.values)
        object.__setattr__(self, "values", v)
        n, p = v.shape
        if n < 2 or p < 2:
            raise MalformedDataError("need at least 2 rows and 2 columns")
        if self.column_names is not None and len(self.column_names) != p:
            raise MalformedDataError("column_names length does not match data width")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def names(self) -> list[str]:
        if self.column_names is not None:
            return list(self.column_names)
        return [f"x{j + 1}" for j in range(self.p)]


@dataclass(frozen=True)
class LossSpec:
    """Loss family plus its threshold: a number on the d^2 scale or a policy.

    A numeric threshold must be positive and finite.  A gaussian spec checks
    a given threshold as any other kind does, then stores None: the gaussian
    loss has no threshold.
    """

    kind: str = "gaussian"
    threshold: float | str | None = None

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.threshold is None:
            if self.kind != "gaussian":
                raise ValueError(
                    f"{self.kind} loss requires a threshold number or policy "
                    f"{THRESHOLD_POLICIES}"
                )
        elif isinstance(self.threshold, str):
            if self.threshold not in THRESHOLD_POLICIES:
                raise ValueError(
                    f"threshold must be a positive number or one of {THRESHOLD_POLICIES}"
                )
        elif not 0 < self.threshold < math.inf:
            raise ValueError("fixed threshold must be positive and finite")
        if self.kind == "gaussian":
            object.__setattr__(self, "threshold", None)


def _values(X) -> np.ndarray:
    """The data array of X; MalformedDataError unless it is 2-D and finite."""
    if isinstance(X, DataMatrix):
        return X.values
    V = np.asarray(X, dtype=float)
    if V.ndim != 2:
        raise MalformedDataError("data must be two-dimensional")
    if not np.isfinite(V).all():
        raise MalformedDataError("data contains NaN or infinite entries")
    return V


def mahalanobis_sq_all(X, C) -> np.ndarray:
    """Squared Mahalanobis distance of every row of X under metric C."""
    return _sq_dist(_values(X), _cholesky(C))


def loss_gaussian(X, C) -> float:
    """Gaussian fit objective (negative log-likelihood up to a constant)."""
    return loss_robust(X, C, LossSpec("gaussian"))


def rho_huber(d2, delta: float):
    """Quadratic below delta, linear in d = sqrt(d2) above it; continuous at the knot."""
    d2 = np.asarray(d2, dtype=float)
    out = np.where(d2 <= delta, d2, 2.0 * math.sqrt(delta) * np.sqrt(d2) - delta)
    return float(out) if out.ndim == 0 else out


def rho_tukey(d2, tau: float):
    """Biweight: rises to the plateau tau^2/6 at d2 = tau^2 and stays there."""
    d2 = np.asarray(d2, dtype=float)
    tau2 = tau * tau
    out = (tau2 / 6.0) * _biweight(np.minimum(d2, tau2) / tau2)
    return float(out) if out.ndim == 0 else out


def _biweight(u):
    """1 - (1 - u)^3 for u in [0, 1], in a form without cancellation at small u."""
    return u * (3.0 + u * (u - 3.0))


def rho_truncated(d2, tau: float):
    """Hard cap at tau."""
    d2 = np.asarray(d2, dtype=float)
    out = np.minimum(d2, tau)
    return float(out) if out.ndim == 0 else out


def _quartiles(s: np.ndarray) -> tuple[float, float]:
    """Q1 and Q3 of the ascending array s.

    Quartiles interpolate linearly at (n-1)*q, the np.quantile default; a
    sort is cheaper than np.quantile at the sizes evaluated every iteration.
    """
    n = s.size
    vals = []
    for q in (0.25, 0.75):
        pos = (n - 1) * q
        k = int(pos)
        lo = s.item(k)
        vals.append(lo + (pos - k) * (s.item(min(k + 1, n - 1)) - lo))
    return vals[0], vals[1]


def _iqr_cutoff(s: np.ndarray) -> float:
    """Q3 + 3*IQR of the ascending array s, floored at 1e-12."""
    q1, q3 = _quartiles(s)
    return max(q3 + 3.0 * (q3 - q1), 1e-12)


def _rho_sum_auto(d2: np.ndarray, kind: str) -> float:
    """Sum of rho(d2) under the 'iqr-auto' cutoff of d2 itself.

    The cutoff needs d2 sorted, so the same sorted array is split at the
    knot: the head is summed on the inner branch, and only the tail takes
    the outer branch (huber's square root, truncated's cap, tukey's plateau).
    """
    s = np.sort(d2)
    thr = _iqr_cutoff(s)
    if kind == "tukey":
        tau2 = math.sqrt(thr) ** 2            # the plateau location rho_tukey uses
        u = s[:s.searchsorted(tau2)] / tau2
        # sum of _biweight(u), with the last product folded into one dot
        return (tau2 / 6.0) * (float(np.dot(u, 3.0 + u * (u - 3.0))) + (s.size - u.size))
    k = int(s.searchsorted(thr, side="right"))
    rho_sum = float(s[:k].sum())
    if kind == "truncated":
        return rho_sum + thr * (s.size - k)
    return rho_sum + 2.0 * math.sqrt(thr) * float(np.sqrt(s[k:]).sum()) - thr * (s.size - k)


def _loss_value(n: int, logdet: float, d2: np.ndarray, kind: str, thr) -> float:
    """Objective from log det C and the squared distances under C.

    ``thr == 'iqr-auto'`` resolves the cutoff from these very distances.
    """
    if kind == "gaussian":
        rho_sum = float(d2.sum())
    elif thr == "iqr-auto":
        rho_sum = _rho_sum_auto(d2, kind)
    elif kind == "huber":
        rho_sum = float(np.sum(rho_huber(d2, thr)))
    elif kind == "truncated":
        rho_sum = float(np.sum(rho_truncated(d2, thr)))
    else:
        rho_sum = float(np.sum(rho_tukey(d2, math.sqrt(thr))))
    return 0.5 * n * logdet + 0.5 * rho_sum


def _forward(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Y = L^{-1} B for lower-triangular L, by forward substitution.

    Row i is ``(B[i] - L[i, :i] @ Y[:i]) / L[i, i]``.
    """
    Y = np.empty(B.shape)
    for i in range(L.shape[0]):
        y = Y[i]
        np.dot(L[i, :i], Y[:i], out=y)
        np.subtract(B[i], y, out=y)
        y /= L[i, i]
    return Y


def _sq_dist(V: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distance of every row of V under the metric L L^T."""
    if V.shape[1] != L.shape[0]:
        raise DomainMismatchError(
            f"data has {V.shape[1]} columns but the matrix is {L.shape[0]} x {L.shape[0]}"
        )
    Y = _forward(L, V.T)
    return np.einsum("ij,ij->j", Y, Y)


def _loss_threshold(spec: LossSpec):
    """Threshold for the objective core; 'iqr-pilot' must be resolved first."""
    if spec.threshold == "iqr-pilot":
        raise ValueError(
            "threshold not resolved to a number (resolve 'iqr-pilot' with "
            "resolved_spec first)"
        )
    return spec.threshold


def loss_robust(X, C, spec: LossSpec) -> float:
    """Robust fit objective with rho chosen by spec.kind.

    A numeric threshold (d^2 scale; for tukey it is the plateau location
    tau^2) is used as given; 'iqr-auto' recomputes the cutoff from the
    distances under C itself.  'iqr-pilot' must be resolved to a number first
    with :func:`resolved_spec`.
    """
    return _loss_robust_from_factor(X, _cholesky(C), spec)


def _loss_robust_from_factor(X, L: np.ndarray, spec: LossSpec) -> float:
    """Same objective as loss_robust for C = L L^T, evaluated from the factor.

    ``L`` must be lower triangular with positive diagonal, as produced by the
    hyperspherical row construction; no factorization happens here.
    """
    thr = _loss_threshold(spec)
    V = _values(X)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return _loss_value(V.shape[0], logdet, _sq_dist(V, L), spec.kind, thr)


class AngleObjective(OneAngleObjective):
    """The loss of ``spec`` on data X as a function of the angle vector.

    ``f(angles)`` and ``f.move(angles, i)`` (:class:`~glasd.manifold.OneAngleObjective`)
    equal the reference ``loss_robust(X, angles_to_corr(angles), spec)`` up
    to rounding; ``spec`` must not hold an unresolved 'iqr-pilot'.  For the
    base point this objective caches, besides L, ``Y = L^{-1} [X^T | I_p]``
    (one row per variable; n data columns, then the p columns of
    ``W = L^{-1}``), the log diagonal of L and ``sq``, the column sums of
    ``Y**2``.  A point one angle away from the base, in factor row r, costs
    O(p(n + p)) in one pass that writes nothing:

    * row r alone is rebuilt from its angles (:func:`factor_row`);
    * row r of Y moves by ``delta = y_r - y'_r = (L'[r,:r+1] Y[:r+1] - b_r)
      / L'[r,r]``, with ``b_r`` row r of ``[X^T | I_p]``; rows above r keep
      their Y;
    * the rows below move by a rank-one term, ``Y[r+1:] + z delta^T``,
      where ``z = L[r+1:,r+1:]^{-1} L[r+1:,r] = -W[r+1:,r] L[r,r]`` is a
      column of the cached whitened identity.  So with ``u = [-1, z]``,
      ``Y'[r:] = Y[r:] + u delta^T``;
    * the moved point's distances are the column sums of ``Y'**2``,
      ``d'^2 = sq + delta * (2 u^T Y[r:] + (u.u) delta)``, and log det
      swaps one diagonal entry.

    Accepting the move applies the rank-one update to Y in place and sums
    ``sq`` afresh from Y, so the rounding of one proposal's ``d'^2`` is never
    carried into the next.  The loss and the 'iqr-auto' cutoff read only the
    n data columns of ``d^2``.  The full path is :func:`cholesky_rows` plus
    one forward substitution (:func:`_forward`).  Per column, data and
    identity alike, the objective also keeps the largest squared norm of the
    base points since the last full solve.  A proposal whose squared norm
    lies more than ``GROWTH_LIMIT`` below that (say after leaving a
    near-singular point) would carry the cancellation error of the large
    values, so it is scored by the full solve under its factor instead, and
    accepting it adopts that solve, ``Y`` and ``sq`` alike.
    """

    def __init__(self, X, spec: LossSpec):
        V = _values(X)
        n, p = V.shape
        super().__init__(p)
        self._n = n
        self._B = np.hstack([V.T, np.eye(p)])     # [X^T | I_p]
        self._kind = spec.kind
        self._thr = _loss_threshold(spec)
        self._Y = self._sq = None            # L^{-1} [X^T | I_p]; column sums of Y**2
        self._logdiag = np.empty(p)
        self._logsum = 0.0
        self._sq_floor = np.empty(n + p)     # largest base squared norm / GROWTH_LIMIT

    def _loss_at(self, logdet: float, sq: np.ndarray) -> float:
        return _loss_value(self._n, logdet, sq[:self._n], self._kind, self._thr)

    def _solve(self, L: np.ndarray):
        Y = _forward(L, self._B)
        return Y, np.einsum("ij,ij->j", Y, Y)

    def _adopt(self, L: np.ndarray, solved) -> None:
        self._Y, self._sq = solved
        np.log(np.diag(L), out=self._logdiag)
        self._logsum = float(np.sum(self._logdiag))
        np.divide(self._sq, GROWTH_LIMIT, out=self._sq_floor)

    def _rebase(self, L: np.ndarray) -> float:
        self._adopt(L, self._solve(L))
        return self._loss_at(2.0 * self._logsum, self._sq)

    def _move(self, r: int, row: np.ndarray):
        L, Y = self._L, self._Y
        delta = np.dot(row, Y[:r + 1])       # y_r - y'_r, as the docstring derives
        delta -= self._B[r]
        delta /= row[r]
        u = Y[r:, self._n + r] * -L[r, r]
        u[0] = -1.0                          # u = [-1, z]
        sq = u @ Y[r:]
        sq *= 2.0
        sq += float(u @ u) * delta
        sq *= delta
        sq += self._sq
        logdet = 2.0 * (self._logsum - self._logdiag[r] + math.log(row[r]))
        if (sq < self._sq_floor).any():
            Lr = L.copy()
            Lr[r, :r + 1] = row
            solved = self._solve(Lr)
            return self._loss_at(logdet, solved[1]), solved
        return self._loss_at(logdet, sq), (u, delta)

    def _accept(self, r: int, row: np.ndarray, payload) -> None:
        if payload[0].ndim == 2:             # a refused proposal's solve (Y', sq')
            self._adopt(self._L, payload)
            return
        u, delta = payload
        self._Y[r:] += u[:, None] * delta
        self._logdiag[r] = math.log(row[r])
        self._logsum = float(np.sum(self._logdiag))
        np.einsum("ij,ij->j", self._Y, self._Y, out=self._sq)
        np.maximum(self._sq_floor, self._sq / GROWTH_LIMIT, out=self._sq_floor)


def iqr_threshold(values) -> float:
    """Q3 + 3 * (Q3 - Q1), quartiles by linear interpolation.

    The same rule, and the same 1e-12 floor, as the 'iqr-auto' cutoff the
    objective recomputes at every evaluation.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 4:
        raise ValueError("need at least 4 values for quartiles")
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    return _iqr_cutoff(np.sort(v, axis=None))


def sample_correlation(X) -> np.ndarray:
    """Classical sample correlation matrix; errors on zero-variance columns."""
    Z = standardize_columns(X)
    return _tidy_corr((Z.T @ Z) / (Z.shape[0] - 1))


def standardize_columns(X) -> np.ndarray:
    """Column-wise (value - mean) / sd with sample sd; errors on constant columns."""
    V = _values(X)
    sd = V.std(axis=0, ddof=1)
    if np.any(sd == 0.0):
        bad = int(np.flatnonzero(sd == 0.0)[0])
        raise DegenerateDataError(f"column {bad} has zero variance")
    return (V - V.mean(axis=0)) / sd


def shrink_to_pd(S: np.ndarray) -> np.ndarray:
    """Identity shrinkage (S + lam*I)/(1 + lam) with minimal lam reaching a
    smallest eigenvalue of 1e-3.

    The shrunk minimum eigenvalue is (mu_min + lam)/(1 + lam), monotone in
    lam, so the minimal lam has the closed form (1e-3 - mu_min)/(1 - 1e-3).
    A shrunk matrix is tidied as every correlation matrix of the package is:
    stored exactly symmetric, with an exact unit diagonal and entries clipped
    to [-1, 1].  The clip changes an entry only when S has entries beyond
    [-1, 1]; a correlation matrix has none.
    """
    S = np.asarray(S, dtype=float)
    mu_min = float(np.linalg.eigvalsh(S).min())
    lam = max(0.0, (_SHRINK_FLOOR - mu_min) / (1.0 - _SHRINK_FLOOR))
    if lam == 0.0:
        return S.copy()
    return _tidy_corr((S + lam * np.eye(S.shape[0])) / (1.0 + lam))


def pilot_correlation(X) -> np.ndarray:
    """Sample correlation shrunk to a smallest eigenvalue of 1e-3
    (:func:`shrink_to_pd`), used to freeze thresholds and warm-start searches."""
    return shrink_to_pd(sample_correlation(X))


def resolved_spec(X, spec: LossSpec, pilot: np.ndarray | None = None) -> LossSpec:
    """Copy of spec with the frozen 'iqr-pilot' policy replaced by its number.

    The number is Q3 + 3*IQR (:func:`iqr_threshold`) of the squared
    Mahalanobis distances of X under the pilot correlation, on the d^2 scale
    for every loss kind (for tukey it is the plateau location tau^2).
    ``pilot`` is ``pilot_correlation(X)`` when a caller has built it already;
    by default it is built here.  Any other spec, the per-evaluation
    'iqr-auto' policy included, is returned as it is; 'iqr-auto' is resolved
    inside the loss at every evaluation.
    """
    if spec.threshold != "iqr-pilot":
        return spec
    if pilot is None:
        pilot = pilot_correlation(X)
    return replace(spec, threshold=iqr_threshold(mahalanobis_sq_all(X, pilot)))


def outlier_report(X) -> list[tuple[str, int]]:
    """Per-column count of entries outside the 1.5*IQR fences."""
    X = X if isinstance(X, DataMatrix) else DataMatrix(np.asarray(X, dtype=float))
    counts = []
    for j, name in enumerate(X.names()):
        col = X.values[:, j]
        q1, q3 = _quartiles(np.sort(col))
        iqr = q3 - q1
        lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        counts.append((name, int(np.sum((col < lo) | (col > hi)))))
    return counts


def read_data_csv(path) -> DataMatrix:
    """Load a comma-separated UTF-8 data file, auto-detecting a header row.

    A leading byte-order mark is dropped.  A first row with any cell that
    does not parse as a number is taken as the header.  Ragged rows,
    non-numeric body cells, and non-finite values are hard errors.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except UnicodeDecodeError as exc:
        raise MalformedDataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise MalformedDataError(f"{path}: empty file")

    def parse_row(cells, idx):
        out = []
        for cell in cells:
            try:
                val = float(cell)
            except ValueError:
                raise MalformedDataError(
                    f"{path}: non-numeric cell {cell!r} in row {idx + 1}"
                ) from None
            if not math.isfinite(val):
                raise MalformedDataError(f"{path}: non-finite value in row {idx + 1}")
            out.append(val)
        return out

    names = None
    start = 0
    try:
        parse_row(rows[0], 0)
    except MalformedDataError:
        names = [c.strip() for c in rows[0]]
        start = 1
    width = len(rows[0])
    data = []
    for idx in range(start, len(rows)):
        if len(rows[idx]) != width:
            raise MalformedDataError(
                f"{path}: row {idx + 1} has {len(rows[idx])} cells, expected {width}"
            )
        data.append(parse_row(rows[idx], idx))
    if not data:
        raise MalformedDataError(f"{path}: no data rows")
    return DataMatrix(np.asarray(data, dtype=float), column_names=names)
