"""Dense complex linear algebra used by the rest of the package.

Everything here operates on square numpy arrays (real or complex) and is a
pure function of its inputs; :func:`hermitian_part`, :func:`hermitian_defect`,
:func:`hermitize` and :func:`partial_trace` also take stacks of them, acting
on the last two axes.
Matrices are small (d <= 64), so all routines are plain O(d^3) dense
algorithms backed by LAPACK.
"""

from __future__ import annotations

from math import prod

import numpy as np

# A matrix counts as Hermitian when ||H - H^dag||_F <= HERMITIAN_RTOL * max(1, ||H||_F).
HERMITIAN_RTOL = 1e-10


def hermitian_part(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian part (m + m^dag) / 2 of a square matrix, or of each matrix of
    a stack (last two axes), and its relative Hermiticity defect
    ||m - m^dag||_F / max(1, ||m||_F), one per matrix.

    ``m`` counts as Hermitian when the defect is at most HERMITIAN_RTOL. The
    Hermitian part is bit-identical to :func:`hermitize`.
    """
    mh = m.conj().swapaxes(-1, -2)
    return (m + mh) / 2, _defect(m, mh)


def hermitian_defect(m: np.ndarray) -> np.ndarray:
    """The relative Hermiticity defect of :func:`hermitian_part` alone, for a
    caller that forms the Hermitian part only where the defect is not 0."""
    return _defect(m, m.conj().swapaxes(-1, -2))


def _defect(m: np.ndarray, mh: np.ndarray) -> np.ndarray:
    """||m - mh||_F / max(1, ||m||_F) over the last two axes, ``mh`` being m^dag."""
    diff_sq = _sum_abs2(m - mh)
    # exactly Hermitian matrices, the common case, have defect 0 whatever their norm
    if not diff_sq.any():
        return diff_sq
    return np.sqrt(diff_sq / np.maximum(1.0, _sum_abs2(m)))


def _sum_abs2(m: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm over the last two axes."""
    flat = m.reshape(m.shape[:-2] + (-1,))
    return np.vecdot(flat, flat).real


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m^dag) / 2, of each matrix of a stack (last two axes)."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


def partial_trace(m: np.ndarray, dims: list[int] | tuple[int, ...], keep: int) -> np.ndarray:
    """Reduce a matrix on a tensor-product space, or each matrix of a stack
    (last two axes), to the subsystem `keep`.

    `dims` lists the subsystem dimensions in tensor order; their product must
    equal the matrix dimension. The trace of the result equals the trace of
    the input.
    """
    m = np.asarray(m)
    dims = list(dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"invalid subsystem dimensions {dims}")
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("partial_trace expects a square matrix or a stack of them")
    if prod(dims) != m.shape[-1]:
        raise ValueError(
            f"subsystem dimensions {dims} do not factor a {m.shape[-1]}-dimensional matrix"
        )
    if not 0 <= keep < len(dims):
        raise ValueError(f"keep={keep} out of range for {len(dims)} subsystems")

    left, k, right = prod(dims[:keep]), dims[keep], prod(dims[keep + 1 :])
    blocks = m.reshape(m.shape[:-2] + (left, k, right, left, k, right))
    return np.einsum("...aibajb->...ij", blocks)


def hermitian_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition H = V diag(w) V^dag of a Hermitian matrix: numpy's
    ``(eigenvalues, eigenvectors)`` result, with w sorted ascending.

    Inputs within HERMITIAN_RTOL of Hermitian are symmetrized before the
    decomposition; anything farther is rejected.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("hermitian_eig expects a square matrix")
    h, defect = hermitian_part(h)
    if defect > HERMITIAN_RTOL:
        raise ValueError(f"matrix is not Hermitian (relative defect {defect:.3e})")
    return np.linalg.eigh(h)
