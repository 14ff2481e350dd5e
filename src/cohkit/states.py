"""Construction, validation, sampling, and serialization of quantum states.

A :class:`DensityMatrix` couples the matrix with an optional factorization of
its Hilbert space into subsystem dimensions, so multi-qubit marginals can be
taken without side information. Random sampling takes an explicit numpy
``Generator``; nothing in this module keeps hidden generator state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from math import prod
from pathlib import Path

import numpy as np

from . import linalg

TRACE_ATOL = 1e-10
# Smallest admissible eigenvalue: mixing/kron chains accumulate ~1e-13 of
# noise, so a -1e-9 floor leaves margin without masking real negativity.
EIG_FLOOR = -1e-9


@dataclass(frozen=True)
class DensityMatrix:
    """Validated Hermitian, PSD, unit-trace matrix.

    ``dims`` factors the space into subsystems (``()`` means unfactored); each
    entry must be an integer (``int`` or ``np.integer``, not ``bool``) of at
    least 1. Validation runs on construction, raises ``ValueError`` on any
    breach, and computes each intermediate once: the input becomes a
    contiguous complex array, finiteness is tested on it, one conjugate
    transpose gives both the Hermiticity defect and the Hermitian part
    (:func:`cohkit.linalg.hermitian_part`), and one ``eigvalsh`` of that
    Hermitian part gives ``eigenvalues``, the ascending spectrum that
    measures and the solver read instead of factorizing the state again.
    """

    mat: np.ndarray
    dims: tuple[int, ...] = field(default=())
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.ascontiguousarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", m)
        dims = tuple(self.dims)
        if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) for d in dims):
            raise ValueError(f"subsystem dimensions {dims} must be integers")
        object.__setattr__(self, "dims", tuple(map(int, dims)))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if not np.isfinite(m).all():
            raise ValueError("density matrix has non-finite entries")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"subsystem dimensions {self.dims} must all be at least 1")
        if self.dims and prod(self.dims) != m.shape[0]:
            raise ValueError(
                f"subsystem dimensions {self.dims} do not factor dimension {m.shape[0]}"
            )
        h, defect = linalg.hermitian_part(m)
        if defect > linalg.HERMITIAN_RTOL:
            raise ValueError(f"density matrix is not Hermitian (relative defect {defect:.3e})")
        tr = complex(m.trace())
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix trace {tr} is not 1")
        eigs = np.linalg.eigvalsh(h)
        object.__setattr__(self, "eigenvalues", eigs)
        min_eig = float(eigs[0])
        if min_eig < EIG_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def offdiagonal_abs_sum(self) -> float:
        """Sum of |rho_ij| over i != j, computed on first use and kept: the
        l1-norm of coherence, and for a pure state also its robustness."""
        return float(np.abs(self.mat).sum() - np.abs(self.mat.diagonal()).sum())

    def marginal(self, keep: int) -> "DensityMatrix":
        """Reduced state on subsystem ``keep`` (requires a factorization)."""
        if not self.dims:
            raise ValueError("state has no subsystem factorization")
        red = linalg.partial_trace(self.mat, self.dims, keep)
        return DensityMatrix(red, (self.dims[keep],))

    def to_json_dict(self) -> dict:
        """JSON-ready form: {dims, re, im} with row-major entry lists."""
        return {
            "dims": list(self.dims),
            "re": [float(x) for x in self.mat.real.ravel()],
            "im": [float(x) for x in self.mat.imag.ravel()],
        }

    @staticmethod
    def from_json_dict(obj: dict) -> "DensityMatrix":
        try:
            dims = tuple(obj["dims"])
            re = np.asarray(obj["re"], dtype=float)
            im = np.asarray(obj["im"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed density-matrix JSON: {exc}") from exc
        if re.shape != im.shape or re.ndim != 1:
            raise ValueError("re/im must be flat lists of equal length")
        d = round(len(re) ** 0.5)
        if d * d != len(re):
            raise ValueError(f"entry list of length {len(re)} is not a square matrix")
        return DensityMatrix((re + 1j * im).reshape(d, d), dims)


def save_density(rho: DensityMatrix, path: str | Path) -> None:
    Path(path).write_text(json.dumps(rho.to_json_dict()))


def load_density(path: str | Path) -> DensityMatrix:
    return DensityMatrix.from_json_dict(json.loads(Path(path).read_text()))


def projector(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a state vector."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def pure_density(psi: np.ndarray, dims: tuple[int, ...] = ()) -> DensityMatrix:
    """Density matrix of a (normalized) state vector."""
    return DensityMatrix(projector(psi), dims)


def maximally_coherent(d: int) -> np.ndarray:
    """Uniform-superposition state vector: every amplitude 1/sqrt(d)."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return np.full(d, 1.0 / np.sqrt(d), dtype=complex)


def maximally_entangled_two_qubit() -> np.ndarray:
    """(|00> + |11>)/sqrt(2) in computational basis order."""
    return np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def sigma_kmax(n: int) -> float:
    """Largest mixing parameter of the n-qubit sigma family, 1/(2^n - 1)."""
    if int(n) != n or n < 1:
        raise ValueError(f"qubit count must be a positive integer, got {n}")
    return 1.0 / (2**n - 1)


def check_sigma_params(n: int, k: float) -> None:
    """Raise ValueError unless 0 <= k <= sigma_kmax(n), up to 1e-12 of rounding."""
    kmax = sigma_kmax(n)
    if not -1e-12 <= k <= kmax + 1e-12:
        raise ValueError(f"mixing parameter k={k} outside [0, 1/(2^{n}-1)] = [0, {kmax}]")


def sigma_family(n: int, k: float) -> DensityMatrix:
    """n-qubit state (1+k) I/2^n - k |psi><psi| with |psi> maximally coherent.

    Valid for 0 <= k <= 1/(2^n - 1); the upper end is where the smallest
    eigenvalue (1+k)/2^n - k reaches zero. Diagonal entries are 1/2^n and
    every off-diagonal entry is -k/2^n.
    """
    check_sigma_params(n, k)
    d = 2**n
    mat = (1.0 + k) / d * np.eye(d, dtype=complex) - k * projector(maximally_coherent(d))
    return DensityMatrix(mat, (2,) * n)


def mix_with_pure(sigma: DensityMatrix, phi: np.ndarray, p: float) -> DensityMatrix:
    """Convex combination (1-p) sigma + p |phi><phi|."""
    phi = np.asarray(phi, dtype=complex)
    if phi.ndim != 1 or len(phi) != sigma.dim:
        raise ValueError(
            f"state vector of length {phi.shape} does not match dimension {sigma.dim}"
        )
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight p={p} outside [0, 1]")
    return DensityMatrix((1.0 - p) * sigma.mat + p * projector(phi), sigma.dims)


def haar_random_pure(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed state vector: normalized vector of iid complex normals."""
    if d < 1:
        raise ValueError("dimension must be positive")
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_density(d: int, rank: int, rng: np.random.Generator) -> DensityMatrix:
    """Random density matrix of the given rank: G G^dag / tr(G G^dag).

    G is a d x rank matrix of iid standard complex normals, so ``rank = d``
    samples the Hilbert-Schmidt induced measure and the result has exactly
    ``rank`` nonzero eigenvalues almost surely.
    """
    if not 1 <= rank <= d:
        raise ValueError(f"rank must satisfy 1 <= rank <= d, got rank={rank}, d={d}")
    g = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))) / np.sqrt(2)
    m = g @ g.conj().T
    m = linalg.hermitize(m / np.trace(m).real)
    return DensityMatrix(m)


def dephase(rho: DensityMatrix) -> DensityMatrix:
    """Zero all off-diagonal entries (projection onto the incoherent states)."""
    return DensityMatrix(np.diag(np.diag(rho.mat).real).astype(complex), rho.dims)
