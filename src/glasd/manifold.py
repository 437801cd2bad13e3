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
maps back to a unique interior angle vector.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainMismatchError, NotPositiveDefiniteError
from .optimizer import BoxDomain, OptimizerConfig, RunRecord, multi_start_minimize

ANGLE_MARGIN = 1e-6        # closed-box margin keeping rows numerically full rank
DEGENERATE_NORM = 1e-12    # below this prefix norm remaining angles are unidentified
SINGULAR_PENALTY = 1e300   # stands in for a loss value at numerically singular points


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


@lru_cache(maxsize=64)
def _angle_layout(M: int):
    """Index maps turning the flat angle vector into the triangular factor.

    Angles of row m (m = 2..M) occupy positions 0..m-2 of padded-grid row
    m-2.  Entry k of that block lands in the factor at (m-1, m-1-k) with
    value (product of the first k sines) * cos(angle k); column 0 takes the
    full sine product.
    """
    pad_row, pad_col, tgt_row, tgt_col = [], [], [], []
    for m in range(2, M + 1):
        r = m - 2
        for k in range(m - 1):
            pad_row.append(r)
            pad_col.append(k)
            tgt_row.append(m - 1)
            tgt_col.append(m - 1 - k)
    idx = np.arange(M - 1)
    return (np.array(pad_row), np.array(pad_col),
            np.array(tgt_row), np.array(tgt_col), idx)


def cholesky_rows(angles: np.ndarray) -> np.ndarray:
    """Lower-triangular factor with unit-norm rows built from the angle vector."""
    angles = np.asarray(angles, dtype=float)
    M = matrix_dim(angles.shape[0])
    pad_row, pad_col, tgt_row, tgt_col, idx = _angle_layout(M)

    sines = np.ones((M - 1, M - 1))
    sines[pad_row, pad_col] = np.sin(angles)
    cosines = np.zeros((M - 1, M - 1))
    cosines[pad_row, pad_col] = np.cos(angles)

    full = np.cumprod(sines, axis=1)
    prefix = np.empty_like(full)           # prefix[r, k] = prod of first k sines
    prefix[:, 0] = 1.0
    prefix[:, 1:] = full[:, :-1]

    L = np.zeros((M, M))
    L[0, 0] = 1.0
    entries = prefix * cosines
    L[tgt_row, tgt_col] = entries[pad_row, pad_col]
    L[1:, 0] = full[idx, idx]              # full sine product of each row
    return L


def factor_row(row_angles: np.ndarray) -> np.ndarray:
    """Row m of the factor, entries ``L[m, :m]``, from that row's ``m - 1`` angles.

    Costs O(m).  It repeats the arithmetic of :func:`cholesky_rows` (same
    sines, same running products, same order), so the entries agree with the
    corresponding row of the full factor.
    """
    w = np.asarray(row_angles, dtype=float)
    c = np.cos(w)
    full = np.cumprod(np.sin(w))
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
    C = L @ L.T
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
    not affect the matrix; they are set to their interval midpoints.  All
    results are clamped into the default angle box.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise DomainMismatchError("correlation matrix must be square")
    M = C.shape[0]
    if M < 2:
        raise ValueError("matrix dimension must be >= 2")
    try:
        L = np.linalg.cholesky(C)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix is not positive definite") from exc

    box = default_angle_box(M)
    angles = np.empty(angle_dim(M))
    for m in range(2, M + 1):
        r = m - 1
        row = L[r, : m]
        w = np.empty(m - 1)
        if m == 2:
            w[0] = math.atan2(row[0], row[1])
        else:
            filled = False
            for k in range(1, m - 1):
                # norm of entries not yet explained by angles w_1..w_{k-1}
                rho = math.sqrt(float(np.dot(row[: m - k + 1], row[: m - k + 1])))
                if rho < DEGENERATE_NORM:
                    mid = 0.5 * (box.lower + box.upper)
                    w[k - 1:] = mid[_row_slice(m)][k - 1:]
                    filled = True
                    break
                w[k - 1] = math.acos(min(max(row[m - k] / rho, -1.0), 1.0))
            if not filled:
                rho = math.sqrt(float(row[0] ** 2 + row[1] ** 2))
                if rho < DEGENERATE_NORM:
                    mid = 0.5 * (box.lower + box.upper)
                    w[m - 2] = mid[_row_slice(m)][m - 2]
                else:
                    last = math.atan2(row[0], row[1])
                    if last < 0.0:
                        last += 2 * math.pi
                    w[m - 2] = last
        angles[_row_slice(m)] = w
    return np.minimum(np.maximum(angles, box.lower), box.upper)


def minimize_over_corr(
    loss,
    M: int,
    config: OptimizerConfig | None = None,
    n_starts: int = 10,
    master_seed: int | None = None,
    warm_start: np.ndarray | None = None,
) -> tuple[np.ndarray, list[RunRecord]]:
    """Multi-start minimization of a matrix objective over the angle box.

    ``loss`` takes a correlation matrix and returns a float.  ``n_starts``
    independent runs use seeds derived from ``master_seed``; the first run can
    be warm-started from an angle vector.  Returns the matrix of the run with
    the smallest best value together with all run records.

    Near the extreme corners of the angle box the reconstructed matrix can be
    numerically rank deficient even though it is full rank in exact
    arithmetic; a loss that rejects it with a not-positive-definite error is
    mapped to a huge finite value so the proposal is simply rejected.
    """
    def objective(ang):
        C = angles_to_corr(ang)
        try:
            return loss(C)
        except NotPositiveDefiniteError:
            return SINGULAR_PENALTY

    records = multi_start_minimize(
        objective,
        default_angle_box(M),
        config=config,
        n_starts=n_starts,
        master_seed=master_seed,
        x0_first=warm_start,
    )
    best = min(records, key=lambda r: r.f_best)
    return angles_to_corr(best.x_best), records


def check_correlation(C: np.ndarray, eig_floor: float = 0.0) -> None:
    """Raise unless C is symmetric with unit diagonal and min eigenvalue > floor."""
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise DomainMismatchError("correlation matrix must be square")
    if not np.array_equal(C, C.T):
        raise ValueError("matrix is not stored symmetrically")
    if np.abs(np.diag(C) - 1.0).max() > 1e-12:
        raise ValueError("diagonal deviates from 1 by more than 1e-12")
    if np.abs(C).max() > 1.0:
        raise ValueError("entries outside [-1, 1]")
    if np.linalg.eigvalsh(C).min() <= eig_floor:
        raise NotPositiveDefiniteError("minimum eigenvalue not above floor")
