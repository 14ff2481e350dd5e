"""Construction, validation, sampling, and serialization of quantum states.

A :class:`DensityMatrix` couples the matrix with an optional factorization of
its Hilbert space into subsystem dimensions, so multi-qubit marginals can be
taken without side information. Random sampling takes an explicit numpy
``Generator``; nothing in this module keeps hidden generator state.

Every state is built by :meth:`DensityMatrix.stack` on a stack of matrices;
``DensityMatrix(...)`` builds a single state as a stack of one. The stack is
checked with one ``eigvalsh`` for the whole stack, and what the coherence
measures read of each state is computed for the whole stack too: its
off-diagonal ``|rho_ij|`` sum and the entropies of its spectrum and of its
diagonal. The ``eigvalsh`` reads the stack itself where every matrix of it
is exactly Hermitian, and its Hermitian part only where one is not.
:func:`random_densities` draws a block of random states, as many per
generator as asked, into one array, as :func:`random_density` would draw
them one by one, and the block is normalized and hermitized in place,
validated and measured as one stack. A block of rank ``r < d`` is checked
with one ``eigvalsh`` of the r x r Grams ``G^dag G / tr`` instead of the
d x d states, whose nonzero spectrum it is, and its states' entropies are
taken from the Gram spectra. :func:`sigma_family` takes
a block too: given a sequence of mixing parameters, it builds one stack and
returns a list of states, each bit-identical to the state built alone; given
one, it returns one state, built as a block of one. :func:`mix_with_pure`
takes and returns a block only.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from math import prod
from pathlib import Path

import numpy as np

from . import linalg

TRACE_ATOL = 1e-10
# Smallest admissible eigenvalue: mixing/kron chains accumulate ~1e-13 of
# noise, so a -1e-9 floor leaves margin without masking real negativity.
EIG_FLOOR = -1e-9
# Eigenvalues (and diagonal entries) at or below this contribute nothing to entropies.
ENTROPY_EIG_FLOOR = 1e-12


def _raise_first(bad: np.ndarray, values: np.ndarray, message: str) -> None:
    """Raise ValueError(message formatted with the value of the first bad
    state), if any: ``bad`` holds one flag per state."""
    if bad.any():
        raise ValueError(message.format(values[bad][0]))


def _validated(mats, dims, eigs=None) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """The contiguous complex form of a stack of matrices (shape ``(n, d,
    d)``), the integer subsystem dimensions, and the ascending spectrum of
    each matrix: ``eigs`` where given, else the ``eigvalsh`` of each
    matrix's Hermitian part. Only :func:`random_densities` gives ``eigs``,
    the spectra it takes from its states' factors. The Hermiticity check
    takes the defect of every stack by one rule
    (:func:`cohkit.linalg.hermitian_defect`), on the matrices themselves. An
    exactly Hermitian matrix (defect 0) is its own Hermitian part, so the
    Hermitian part (:func:`cohkit.linalg.hermitize`) is formed only where
    ``eigvalsh`` reads it and some matrix of the stack is not exactly
    Hermitian; otherwise ``eigvalsh`` reads the stack itself.

    Raises ``ValueError`` on the first failed check, naming the value of the
    first failing matrix: integer dims, square, finite, dims at least 1 and
    factoring d, Hermitian within HERMITIAN_RTOL, unit trace within
    TRACE_ATOL, no eigenvalue below EIG_FLOOR.
    """
    m = np.ascontiguousarray(mats, dtype=complex)
    dims = tuple(dims)
    if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) for d in dims):
        raise ValueError(f"subsystem dimensions {dims} must be integers")
    dims = tuple(map(int, dims))
    if m.ndim != 3 or m.shape[-1] != m.shape[-2]:
        raise ValueError("density matrix must be square")
    if not np.isfinite(m).all():
        raise ValueError("density matrix has non-finite entries")
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions {dims} must all be at least 1")
    if dims and prod(dims) != m.shape[-1]:
        raise ValueError(f"subsystem dimensions {dims} do not factor dimension {m.shape[-1]}")
    defect = linalg.hermitian_defect(m)
    _raise_first(defect > linalg.HERMITIAN_RTOL, defect,
                 "density matrix is not Hermitian (relative defect {:.3e})")
    tr = m.trace(axis1=-2, axis2=-1)
    _raise_first(abs(tr - 1.0) > TRACE_ATOL, tr, "density matrix trace {} is not 1")
    if eigs is None:
        # an exactly Hermitian matrix is its own Hermitian part
        eigs = np.linalg.eigvalsh(linalg.hermitize(m) if defect.any() else m)
    # the least entry, wherever a given spectrum holds it
    min_eig = eigs.min(-1)
    _raise_first(min_eig < EIG_FLOOR, min_eig, "density matrix has negative eigenvalue {:.3e}")
    return m, dims, eigs


def _offdiagonal_abs_sum(m: np.ndarray) -> np.ndarray:
    """Sum of |m_ij| over i != j, over the last two axes."""
    return np.abs(m).sum(axis=(-2, -1)) - np.abs(m.diagonal(axis1=-2, axis2=-1)).sum(-1)


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """-sum_i p_i log2 p_i over the last axis, over the entries above ENTROPY_EIG_FLOOR.

    Each row's kept entries are moved, in order, to the end of the row and
    summed as that suffix (for an ascending spectrum they are one already),
    so a row's value is the sum of its kept entries alone, in their order,
    whatever the other rows of the stack hold. Where every entry is kept,
    each row is that suffix already and is summed in place.
    """
    keep = p > ENTROPY_EIG_FLOOR
    if keep.all():
        return -(p * np.log2(p)).sum(-1)
    kept = np.take_along_axis(p, np.argsort(keep, axis=-1, kind="stable"), axis=-1)
    count = keep.sum(-1)
    out = np.zeros(count.shape)
    for k in np.unique(count[count > 0]):
        w = kept[count == k, -k:]
        out[count == k] = -(w * np.log2(w)).sum(-1)
    return out


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated Hermitian, PSD, unit-trace matrix.

    ``dims`` factors the space into subsystems (``()`` means unfactored); each
    entry must be an integer (``int`` or ``np.integer``, not ``bool``) of at
    least 1, and ``dim`` is the dimension of the whole space. Construction
    builds the state as a stack of one by :meth:`stack`, which validates it,
    raises ``ValueError`` on any breach, and computes each intermediate once:
    the input becomes a contiguous complex array, finiteness is tested on it,
    one conjugate transpose gives the Hermiticity defect
    (:func:`cohkit.linalg.hermitian_defect`), and one ``eigvalsh`` gives
    ``eigenvalues``, the ascending spectrum that measures and the solver
    read instead of factorizing the state again. That ``eigvalsh`` reads
    the matrix itself where it is exactly Hermitian, as it then is its own
    Hermitian part, and its Hermitian part otherwise (one of the stack's
    matrices not exactly Hermitian gives the whole stack's Hermitian part,
    :func:`cohkit.linalg.hermitize`). A state that :func:`random_densities`
    draws at rank ``r < d`` takes ``eigenvalues`` from its r x r Gram
    instead: ``d - r`` zeros, then the Gram's ascending spectrum.
    ``offdiagonal_abs_sum`` is the sum of ``|rho_ij|`` over ``i != j``: the
    l1-norm of coherence, and for a pure state also its robustness.
    ``entropy_bits`` is the von Neumann entropy S(rho) in bits, from
    ``eigenvalues`` (for a drawn state of rank ``r < d``, from the Gram's
    part, which gives the same bits), and ``dephased_entropy_bits`` the
    entropy S(Diag(rho)) of the diagonal. States compare and hash by
    identity.
    """

    mat: np.ndarray
    dims: tuple[int, ...] = field(default=())
    dim: int = field(init=False, repr=False)
    eigenvalues: np.ndarray = field(init=False, repr=False)
    offdiagonal_abs_sum: float = field(init=False, repr=False)
    entropy_bits: float = field(init=False, repr=False)
    dephased_entropy_bits: float = field(init=False, repr=False)

    def __post_init__(self):
        (state,) = DensityMatrix.stack([self.mat], self.dims)
        # frozen: set the validated fields past the dataclass's __setattr__
        self.__dict__.update(state.__dict__)

    @classmethod
    def stack(cls, mats: np.ndarray, dims: tuple[int, ...] = ()) -> list["DensityMatrix"]:
        """One state per matrix of a stack of shape ``(n, d, d)``, all with
        subsystem dimensions ``dims``.

        The stack is validated in one pass, raising on the first failing
        matrix; each state's ``mat`` is a view into it.
        """
        return cls._built(*_validated(mats, dims))

    @classmethod
    def _built(cls, m: np.ndarray, dims: tuple[int, ...], eigs: np.ndarray,
               nonzero: np.ndarray | None = None) -> list["DensityMatrix"]:
        """One state per matrix of a validated stack ``m`` with spectra
        ``eigs``; the off-diagonal ``|rho_ij|`` sums and both entropies are
        computed for the whole stack. The entropy of each spectrum is taken
        from ``nonzero`` where given: the last entries of each row of
        ``eigs``, all the others exact zeros, which add nothing to it."""
        measured = zip(
            m,
            eigs,
            _offdiagonal_abs_sum(m).tolist(),
            _entropy_bits(eigs if nonzero is None else nonzero).tolist(),
            _entropy_bits(m.diagonal(axis1=-2, axis2=-1).real).tolist(),
        )
        states = []
        for mat, w, l1, s_rho, s_diag in measured:
            rho = object.__new__(cls)
            rho.__dict__.update(mat=mat, dims=dims, dim=m.shape[-1], eigenvalues=w,
                                offdiagonal_abs_sum=l1, entropy_bits=s_rho,
                                dephased_entropy_bits=s_diag)
            states.append(rho)
        return states

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


def sigma_family(n: int, k: float | Sequence[float]) -> DensityMatrix | list[DensityMatrix]:
    """n-qubit state (1+k) I/2^n - k |psi><psi| with |psi> maximally coherent.

    Valid for 0 <= k <= 1/(2^n - 1); the upper end is where the smallest
    eigenvalue (1+k)/2^n - k reaches zero. Diagonal entries are 1/2^n and
    every off-diagonal entry is -k/2^n.

    A sequence of k gives the block of their states, in order, built and
    validated as one stack by :meth:`DensityMatrix.stack`; a single k gives
    its state, as a block of one.
    """
    ks = np.atleast_1d(np.asarray(k, dtype=float))
    for each in ks.tolist():
        check_sigma_params(n, each)
    d = 2**n
    mats = (((1.0 + ks) / d)[:, None, None] * np.eye(d, dtype=complex)
            - ks[:, None, None] * projector(maximally_coherent(d)))
    states = DensityMatrix.stack(mats, (2,) * n)
    return states if np.ndim(k) else states[0]


def mix_with_pure(
    sigmas: Sequence[DensityMatrix], phi: np.ndarray, p: float
) -> list[DensityMatrix]:
    """Convex combination (1-p) sigma + p |phi><phi| of each state of a block.

    The states, all with the same dimension and subsystem dimensions, give
    the block of their mixtures, in order, built and validated as one stack
    by :meth:`DensityMatrix.stack`.
    """
    sigmas = list(sigmas)
    dim, dims = sigmas[0].dim, sigmas[0].dims
    phi = np.asarray(phi, dtype=complex)
    if phi.ndim != 1 or len(phi) != dim:
        raise ValueError(f"state vector of length {phi.shape} does not match dimension {dim}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight p={p} outside [0, 1]")
    if any(s.dims != dims for s in sigmas):
        raise ValueError("a block of states must share its subsystem dimensions")
    mats = np.stack([s.mat for s in sigmas])
    return DensityMatrix.stack((1.0 - p) * mats + p * projector(phi), dims)


def haar_random_pure(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed state vector: normalized vector of iid complex normals."""
    if d < 1:
        raise ValueError("dimension must be positive")
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_densities(
    d: int, rank: int, rngs: Sequence[np.random.Generator], count: int = 1
) -> list[DensityMatrix]:
    """``count`` random states of :func:`random_density` per generator, in
    order (a generator's states one after another), built as one stack by
    :meth:`DensityMatrix.stack`.

    Each generator draws the ``G`` of all its states with one
    ``standard_normal`` call, into its slice of one array allocated for the
    block, in the order :func:`random_density` draws them (real part, then
    imaginary part, state by state), so every state is bit-identical to the
    one that many calls would give. Each state ``G G^dag`` is then divided
    by its trace and replaced by its Hermitian part in place, by the ufuncs
    of ``linalg.hermitize(m / tr)`` and with its bits, so the block is
    exactly Hermitian.

    At ``rank < d`` each state's spectrum is ``d - rank`` zeros followed by
    the ascending ``eigvalsh`` of the Hermitian part of its Gram
    ``G^dag G / tr``, with the trace ``tr`` that normalizes the state; the
    d x d ``eigvalsh`` and the Hermitian part it would read are skipped,
    every check still runs on the state, and its entropy is taken from the
    Gram's spectrum, whose entries are the nonzero ones. At ``rank = d``
    the block is validated by :meth:`DensityMatrix.stack`, whose
    ``eigvalsh`` reads the exactly Hermitian block itself.
    """
    if not 1 <= rank <= d:
        raise ValueError(f"rank must satisfy 1 <= rank <= d, got rank={rank}, d={d}")
    g = np.empty((len(rngs), count, 2, d, rank))
    for rng, out in zip(rngs, g):
        rng.standard_normal(out=out)
    g = g.reshape(-1, 2, d, rank)
    g = (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2)
    gh = g.conj().swapaxes(-1, -2)
    m = g @ gh
    tr = np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
    # linalg.hermitize(m / tr), by the same ufuncs, in place
    m /= tr
    m += m.conj().swapaxes(-1, -2)
    m /= 2
    if rank == d:
        return DensityMatrix.stack(m)
    gram = np.linalg.eigvalsh(linalg.hermitize(gh @ g / tr))
    eigs = np.concatenate([np.zeros((len(m), d - rank)), gram], axis=-1)
    return DensityMatrix._built(*_validated(m, (), eigs), gram)


def random_density(d: int, rank: int, rng: np.random.Generator) -> DensityMatrix:
    """Random density matrix of the given rank: G G^dag / tr(G G^dag).

    G is a d x rank matrix of iid standard complex normals, so ``rank = d``
    samples the Hilbert-Schmidt induced measure and the result has exactly
    ``rank`` nonzero eigenvalues almost surely. It is a block of one of
    :func:`random_densities`, so at ``rank < d`` its spectrum comes from the
    r x r Gram ``G^dag G / tr``, with ``d - rank`` exact zeros below it.
    """
    return random_densities(d, rank, [rng])[0]


def dephase(rho: DensityMatrix) -> DensityMatrix:
    """Zero all off-diagonal entries (projection onto the incoherent states)."""
    return DensityMatrix(np.diag(np.diag(rho.mat).real).astype(complex), rho.dims)
