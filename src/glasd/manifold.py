"""Angle-box parameterization of full-rank correlation matrices.

A correlation matrix ``C`` (symmetric, positive definite, unit diagonal) has a
unique Cholesky factor ``L`` with positive diagonal and unit-norm rows.  Each
row of ``L`` lives on a half sphere and is encoded by spherical angles:

* row 2 by one angle ``w in [-pi/2, pi/2]`` via ``(sin w, cos w)``,
* row ``m >= 3`` by ``m - 1`` angles ``(w_1, ..., w_{m-1})`` via

  ``L[m,m] = cos w_1``,
  ``L[m,m-k] = sin w_1 ... sin w_k * cos w_{k+1}``  (k = 1..m-2),
  ``L[m,1] = sin w_1 ... sin w_{m-1}``,

  with ``w_1 in [0, pi/2)`` (keeps the diagonal positive), middle angles in
  ``(0, pi)`` and the last angle in ``[0, 2pi)``.

Stacking the per-row angle blocks gives a vector of ``M(M-1)/2`` angles whose
compact box is a valid search domain for the box optimizer: every point of the
box maps to a valid correlation matrix, and every full-rank correlation matrix
maps back to a unique interior angle vector.  Row m's block starts at angle
``(m-1)(m-2)/2`` (:func:`_row_slice`); :func:`factor_row` builds row m from
it, and :func:`cholesky_rows` stacks those rows.  Every correlation matrix
the package derives is tidied by one rule (:func:`_tidy_corr`).

The search moves one angle per proposal, and one angle of row m changes
only row m of the factor.  :class:`OneAngleObjective`, the base of the
objectives over the angle vector, hears from the search which angle each
proposal moved and which proposals it accepted: it caches the factor of the
search's current point and rebuilds the moved row alone (:func:`factor_row`).
With it, :class:`MatrixObjective` evaluates a black-box matrix loss at
O(M^2) per one-angle move, by rewriting one row and column of the cached matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainMismatchError, NotPositiveDefiniteError
from .optimizer import BoxDomain, OptimizerConfig, RunRecord, multi_start_minimize

ANGLE_MARGIN = 1e-6        # closed-box margin keeping rows numerically full rank
DEGENERATE_NORM = 1e-12    # below this prefix norm remaining angles are unidentified


def angle_dim(M: int) -> int:
    """Number of angles parameterizing an M x M correlation matrix."""
    if M < 2:
        raise ValueError("matrix dimension must be >= 2")
    return M * (M - 1) // 2


def matrix_dim(n_angles: int) -> int:
    """Inverse of angle_dim; raises if the count is not triangular."""
    M = int(round((1 + math.sqrt(1 + 8 * n_angles)) / 2))
    if M < 2 or M * (M - 1) // 2 != n_angles:
        raise DomainMismatchError(f"{n_angles} is not M(M-1)/2 for any integer M >= 2")
    return M


def _row_slice(m: int) -> slice:
    """Block of the flat angle vector holding row m's angles (m >= 2)."""
    off = (m - 1) * (m - 2) // 2
    return slice(off, off + m - 1)


def default_angle_box(M: int) -> BoxDomain:
    """Compact per-angle bounds, in canonical (row 2, row 3, ...) order."""
    if M < 2:
        raise ValueError("matrix dimension must be >= 2")
    d = ANGLE_MARGIN
    lo = [-math.pi / 2 + d]
    hi = [math.pi / 2 - d]
    for m in range(3, M + 1):
        lo.append(0.0)
        hi.append(math.pi / 2 - d)
        lo.extend([d] * (m - 3))
        hi.extend([math.pi - d] * (m - 3))
        lo.append(0.0)
        hi.append(2 * math.pi - d)
    return BoxDomain(np.array(lo), np.array(hi))


def cholesky_rows(angles: np.ndarray) -> np.ndarray:
    """Lower-triangular factor with unit-norm rows: ``e_1``, then each row's :func:`factor_row`."""
    angles = np.asarray(angles, dtype=float)
    M = matrix_dim(angles.shape[0])
    L = np.zeros((M, M))
    L[0, 0] = 1.0
    for m in range(2, M + 1):
        L[m - 1, :m] = factor_row(angles[_row_slice(m)])
    return L


def factor_row(row_angles: np.ndarray) -> np.ndarray:
    """Row m of the factor, entries ``L[m, :m]``, from that row's ``m - 1`` angles.

    Costs O(m) and follows the module docstring's formula.  It is the one
    construction of a row: :func:`cholesky_rows` stacks these rows, so a row
    rebuilt alone after a one-angle move equals that row of the full factor.
    """
    w = np.asarray(row_angles, dtype=float)
    c = np.cos(w)
    full = np.sin(w).cumprod()
    row = np.empty(w.shape[0] + 1)
    row[-1] = c[0]
    row[-2:0:-1] = full[:-1] * c[1:]
    row[0] = full[-1]
    return row


def angles_to_corr(angles: np.ndarray) -> np.ndarray:
    """Map an angle vector to its correlation matrix C = L L^T.

    The output is stored exactly symmetric with an exact unit diagonal and all
    entries clipped into [-1, 1].
    """
    L = cholesky_rows(angles)
    return _tidy_corr(L @ L.T)


def _tidy_corr(C: np.ndarray) -> np.ndarray:
    """A fresh copy of C, symmetrized, with unit diagonal and entries clipped to [-1, 1]."""
    C = (C + C.T) * 0.5
    np.fill_diagonal(C, 1.0)
    np.clip(C, -1.0, 1.0, out=C)
    return C


def corr_to_angles(C: np.ndarray) -> np.ndarray:
    """Recover the unique angle vector of a full-rank correlation matrix.

    Inverts the row construction: the first angle of row m is
    ``arccos(L[m,m])``, subsequent ones divide out the norm of the
    still-unexplained row prefix, and the last angle is recovered with
    ``atan2`` so its full ``[0, 2pi)`` range keeps entry signs.  When a prefix
    norm falls below ``DEGENERATE_NORM`` the remaining angles of that row do
    not affect the matrix; they keep their interval midpoints (for the
    identity, every angle but the first of each row).  All results are
    clamped into the default angle box.  A matrix without a Cholesky factor
    raises NotPositiveDefiniteError.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise DomainMismatchError("correlation matrix must be square")
    M = C.shape[0]
    if M < 2:
        raise ValueError("matrix dimension must be >= 2")
    L = _cholesky(C)

    box = default_angle_box(M)
    angles = 0.5 * (box.lower + box.upper)
    for m in range(2, M + 1):
        row = L[m - 1, :m]
        w = angles[_row_slice(m)]         # a view: row m's angles, midpoints until set
        if m == 2:
            w[0] = math.atan2(row[0], row[1])
            continue
        # rho[k-1] is the norm of the entries row[:m-k+1] not yet explained
        # by angles w_1..w_{k-1}, k = 1..m-2; it never grows with k, so the
        # angles set are the first k, up to the first degenerate norm
        prefix = np.sqrt(np.cumsum(row * row))
        rho = prefix[m - 1:1:-1]
        k = int(np.count_nonzero(rho >= DEGENERATE_NORM))
        w[:k] = np.arccos(np.clip(row[m - 1:m - 1 - k:-1] / rho[:k], -1.0, 1.0))
        if k == m - 2 and prefix[1] >= DEGENERATE_NORM:
            last = math.atan2(row[0], row[1])
            w[m - 2] = last + 2 * math.pi if last < 0.0 else last
    return np.minimum(np.maximum(angles, box.lower), box.upper)


def _cholesky(C) -> np.ndarray:
    """Lower Cholesky factor of C; NotPositiveDefiniteError when C has none.

    A C that is not square raises DomainMismatchError.  A non-finite entry,
    or an asymmetry above 1e-12 max|C|, raises NotPositiveDefiniteError:
    ``np.linalg.cholesky`` would return NaN for the one and read only the
    lower triangle of the other.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise DomainMismatchError("matrix must be square")
    if not np.isfinite(C).all():
        raise NotPositiveDefiniteError("matrix has non-finite entries")
    if np.abs(C - C.T).max(initial=0.0) > 1e-12 * np.abs(C).max(initial=0.0):
        raise NotPositiveDefiniteError("matrix is not symmetric")
    try:
        return np.linalg.cholesky(C)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix is not positive definite") from exc


class OneAngleObjective:
    """Base of the objectives over the angle vector that exploit one-angle moves.

    The single-coordinate search proposes points one angle away from its
    current point, and one angle of factor row r changes only row r of L.
    The objective caches the factor ``L`` of a base point, the search's
    current point, and takes the calls of :func:`~glasd.optimizer.glasd_minimize`:

    * ``f(angles)`` evaluates any point by the full path,
      :func:`cholesky_rows` plus ``_rebase(L)``, and makes it the base;
    * ``move(angles, i)`` evaluates the current point with angle i, of
      factor row r, moved: row r alone is rebuilt, and ``_move(r, row)``
      returns ``(value, payload)`` and changes no cached state.  A move that
      leaves the angle as it is returns the base value;
    * ``accept()`` makes the point of the last move the base: row r of L
      is replaced, and ``_accept(r, row, payload)`` updates what the
      subclass caches.

    A subclass caches what it derives from ``L``.  The base is always the
    search's current point.
    """

    def __init__(self, M: int):
        self._dim = angle_dim(M)
        # angle -> (its factor row r, the block of row r's angles)
        self._rows = [(r, _row_slice(r + 1)) for r in range(1, M) for _ in range(r)]
        self._L = np.empty((M, M))
        self._angles, self._value = [], math.nan   # the base point and its value
        self._moved = None                # (angle i, its value, r, row r, value, payload)

    def __call__(self, angles) -> float:
        a = np.asarray(angles, dtype=float)
        if a.shape != (self._dim,):
            raise DomainMismatchError(
                f"expected {self._dim} angles for a {self._L.shape[0]} x "
                f"{self._L.shape[0]} matrix, got shape {a.shape}")
        self._L = L = cholesky_rows(a)
        self._value = self._rebase(L)
        self._angles = a.tolist()
        return self._value

    def move(self, angles: np.ndarray, i: int) -> float:
        """The value at ``angles``, the search's current point with angle i moved."""
        self._moved = None
        v = angles.item(i)
        if v == self._angles[i]:
            return self._value
        r, block = self._rows[i]
        row = factor_row(angles[block])
        value, payload = self._move(r, row)
        self._moved = (i, v, r, row, value, payload)
        return value

    def accept(self) -> None:
        """The search accepted the point of the last ``move``: make it the base."""
        if self._moved is not None:
            i, v, r, row, value, payload = self._moved
            self._L[r, :r + 1] = row
            self._accept(r, row, payload)
            self._angles[i], self._value, self._moved = v, value, None

    def _rebase(self, L: np.ndarray) -> float:
        raise NotImplementedError

    def _move(self, r: int, row: np.ndarray):
        raise NotImplementedError

    def _accept(self, r: int, row: np.ndarray, payload) -> None:
        raise NotImplementedError


class MatrixObjective(OneAngleObjective):
    """A black-box loss on M x M correlation matrices as a function of the angles.

    ``f(angles)``, and ``f.move(angles, i)``, is ``loss(C)`` for the
    correlation matrix of ``angles``; a loss that raises
    :class:`NotPositiveDefiniteError` scores NaN, which the search treats as
    a rejected point.  For the base point it caches L and C.  A move in
    factor row r changes only row r of L, hence only row and column r of
    C = L L^T, so it costs O(M^2): the row is rebuilt alone
    (:func:`factor_row`), ``c = L[:, :r+1] @ row`` is its new column of C,
    with ``c[r] = 1`` and every entry clipped to [-1, 1], and ``c`` is written
    into row r and column r of a fresh copy of C.  The full path derives C
    from the factor as :func:`angles_to_corr` does.

    Every matrix the loss receives is a fresh array it may keep or modify:
    exactly symmetric, with an exact unit diagonal and entries in [-1, 1].
    Each entry is one dot product of two factor rows, so it can differ from
    ``angles_to_corr(angles)`` in the last bit.
    """

    def __init__(self, loss, M: int):
        super().__init__(M)
        self._loss = loss
        self._C = None                    # C of the base point

    def _rebase(self, L: np.ndarray) -> float:
        self._C = _tidy_corr(L @ L.T)
        return self._evaluate(self._C.copy())

    def _move(self, r: int, row: np.ndarray):
        c = self._L[:, :r + 1] @ row
        c[r] = 1.0
        np.minimum(np.maximum(c, -1.0, out=c), 1.0, out=c)    # clip to [-1, 1]
        C = self._C.copy()
        C[r] = c
        C[:, r] = c
        return self._evaluate(C), c

    def _accept(self, r: int, row: np.ndarray, c: np.ndarray) -> None:
        self._C[r] = c
        self._C[:, r] = c

    def _evaluate(self, C: np.ndarray):
        try:
            return self._loss(C)
        except NotPositiveDefiniteError:
            return math.nan


def minimize_over_corr(
    loss,
    M: int,
    config: OptimizerConfig | None = None,
    n_starts: int = 10,
    master_seed: int | None = None,
) -> tuple[np.ndarray, list[RunRecord]]:
    """Multi-start minimization of a matrix objective over the angle box.

    ``loss`` takes a correlation matrix and returns a float.  ``n_starts``
    independent runs use seeds derived from ``master_seed``.  Returns the
    matrix of the run with the smallest best value, ``angles_to_corr`` of its
    best angles, together with all run records.

    The runs share one :class:`MatrixObjective`: a proposal that moves one
    angle rebuilds one factor row and one row and column of the matrix, at
    O(M^2), and the loss receives a fresh, exactly symmetric matrix with a
    unit diagonal.  Near the extreme corners of the angle box that matrix can
    be numerically rank deficient even though it is full rank in exact
    arithmetic.  A loss may reject such a matrix, or any other, with
    :class:`NotPositiveDefiniteError`; the point then scores NaN, and the
    search handles it as any nonfinite value (:class:`Search`).  A proposal
    there is rejected, so no run moves into the region, not even by an
    exploration move.  A start drawn there is redrawn from the run's RNG up
    to ``START_REDRAWS`` times, and each draw counts as an evaluation.
    """
    records = multi_start_minimize(
        MatrixObjective(loss, M),
        default_angle_box(M),
        config=config,
        n_starts=n_starts,
        master_seed=master_seed,
    )
    best = min(records, key=lambda r: r.f_best)
    return angles_to_corr(best.x_best), records


def check_correlation(C: np.ndarray) -> None:
    """Raise unless C is finite and symmetric with unit diagonal and a
    positive minimum eigenvalue."""
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise DomainMismatchError("correlation matrix must be square")
    if not np.isfinite(C).all():
        raise ValueError("matrix has non-finite entries")
    if not np.array_equal(C, C.T):
        raise ValueError("matrix is not stored symmetrically")
    if np.abs(np.diag(C) - 1.0).max() > 1e-12:
        raise ValueError("diagonal deviates from 1 by more than 1e-12")
    if np.abs(C).max() > 1.0:
        raise ValueError("entries outside [-1, 1]")
    if np.linalg.eigvalsh(C).min() <= 0.0:
        raise NotPositiveDefiniteError("minimum eigenvalue not positive")
