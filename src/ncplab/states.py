"""Normal states as per-block density matrices with total trace one.

A state evaluates elements as rho(a) = sum_k Tr(D_k a_k).  Classical
probability vectors are simply states on abelian shapes; there is no separate
type for them.

Spectral decomposition
----------------------
:func:`mk_state` decomposes each state once and caches the result on it as a
:class:`Spectrum`.  The densities of each block size n are stacked in block
order into one (K_n, n, n) array, symmetrized, and diagonalized by a single
``np.linalg.eigh`` call; each stack keeps its block numbers as the map back
to block order.  Validation, :func:`is_faithful`, :func:`support`,
:meth:`NormalState.block_eigenvalues` and the GNS construction all read this
cache, so a state on thousands of 1x1 blocks costs one eigensolver call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    ShapeError,
    _wrap,
    basis,
    multiply,
)

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10

#: Relative eigenvalue cutoff separating genuine rank deficiency from
#: floating-point noise: eigenvalues <= SUPPORT_RTOL * (max eigenvalue)
#: count as zero.
SUPPORT_RTOL = 1e-9


class StateValidationError(ValueError):
    """A density block is not finite, fails Hermiticity/positivity, or total
    trace is off."""

    def __init__(self, message: str, block: int | None = None):
        super().__init__(message)
        self.block = block


@dataclass(frozen=True)
class SizeStack:
    """The density blocks of one size n, stacked in block order.

    ``index`` holds their block numbers (ascending), ``eigvals`` the
    ascending eigenvalues of the symmetrized densities (K_n, n) and
    ``eigvecs`` the matching eigenvectors as columns (K_n, n, n).
    """

    n: int
    index: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of every density block, batched by block size.

    ``stacks`` holds one :class:`SizeStack` per block size, in ascending
    size; a stack's ``index`` maps its positions back to block numbers.
    """

    stacks: tuple[SizeStack, ...]
    min_eig: float
    max_eig: float


def _stack_blocks(blocks, index: np.ndarray) -> np.ndarray:
    """The listed blocks of a block-order sequence as one (len(index), n, n) array."""
    return np.array([blocks[k] for k in index.tolist()])


def _unstack(num_blocks: int, parts) -> list:
    """Block-order list from (index, stacked array) pairs covering every block."""
    out = [None] * num_blocks
    for index, arr in parts:
        for k, x in zip(index.tolist(), arr):
            out[k] = x
    return out


@dataclass(frozen=True)
class NormalState:
    """Per-block densities D_k, each Hermitian PSD, with sum_k Tr(D_k) = 1.

    Build with :func:`mk_state`, which also fills ``spectrum``.
    """

    shape: AlgebraShape
    densities: tuple[np.ndarray, ...]
    spectrum: Spectrum = field(repr=False, compare=False)

    def block_eigenvalues(self) -> list[np.ndarray]:
        """Ascending eigenvalues of each density block."""
        parts = [(s.index, s.eigvals) for s in self.spectrum.stacks]
        return _unstack(self.shape.num_blocks, parts)


def mk_state(shape: AlgebraShape, densities) -> NormalState:
    """Validated normal state.

    Raises :class:`StateValidationError` naming the first offending block (in
    block order) when a density is not finite or not Hermitian PSD, and when
    the total trace is not one.  A block that is neither Hermitian nor PSD is
    reported as not Hermitian.
    """
    if len(densities) != shape.num_blocks:
        raise ShapeError(
            f"expected {shape.num_blocks} density blocks, got {len(densities)}"
        )
    mats = []
    for k, (n, d) in enumerate(zip(shape.blocks, densities)):
        arr = np.asarray(d, dtype=complex)
        if arr.shape != (n, n):
            raise ShapeError(f"density block {k} must be {n}x{n}, got {arr.shape}")
        mats.append(arr)
    sizes = np.asarray(shape.blocks)
    raw = {}
    nonfinite = []
    for n in sorted(set(shape.blocks)):
        index = (sizes == n).nonzero()[0]
        d = _stack_blocks(mats, index)
        d.flags.writeable = False
        raw[n] = (index, d)
        if not np.isfinite(d).all():
            finite = np.isfinite(d).all(axis=(1, 2))
            nonfinite.append(int(index[finite.argmin()]))
    if nonfinite:
        k = min(nonfinite)
        raise StateValidationError(f"density block {k} is not finite", block=k)

    stacks, failures, total = [], [], 0.0
    for n, (index, d) in raw.items():
        d_h = d.conj().swapaxes(-1, -2)
        herm_dev = np.abs(d - d_h).max(axis=(1, 2))
        w, v = np.linalg.eigh((d + d_h) / 2.0)
        # comparisons written so that NaN fails them
        fail = ~(herm_dev <= HERMITIAN_TOL) | ~(w[:, 0] >= -PSD_TOL)
        if fail.any():
            j = int(fail.argmax())
            failures.append((int(index[j]), float(herm_dev[j]), float(w[j, 0])))
        total += float(d.trace(axis1=1, axis2=2).real.sum())
        stacks.append(SizeStack(n, index, w, v))
    if failures:
        k, herm_dev, min_eig = min(failures)
        if not herm_dev <= HERMITIAN_TOL:
            raise StateValidationError(
                f"density block {k} not Hermitian (deviation {herm_dev:.3e})", block=k
            )
        raise StateValidationError(
            f"density block {k} not positive semidefinite "
            f"(min eigenvalue {min_eig:.3e})",
            block=k,
        )
    if not abs(total - 1.0) <= TRACE_TOL:
        raise StateValidationError(f"total trace is {total!r}, expected 1")
    spectrum = Spectrum(
        tuple(stacks),
        min(float(s.eigvals[:, 0].min()) for s in stacks),
        max(float(s.eigvals[:, -1].max()) for s in stacks),
    )
    return NormalState(shape, tuple(_unstack(shape.num_blocks, raw.values())), spectrum)


def evaluate(rho: NormalState, a: AlgebraElement) -> complex:
    """rho(a) = sum_k Tr(D_k a_k)."""
    if rho.shape != a.shape:
        raise ShapeError(f"shape mismatch: {rho.shape} vs {a.shape}")
    return complex(
        sum(np.trace(d @ x) for d, x in zip(rho.densities, a.blocks))
    )


def support(rho: NormalState, tol: float = SUPPORT_RTOL) -> AlgebraElement:
    """Spectral projection onto eigenvalues above tol * (max eigenvalue)."""
    cutoff = tol * rho.spectrum.max_eig
    parts = []
    for s in rho.spectrum.stacks:
        keep = s.eigvecs * (s.eigvals > cutoff)[:, None, :]
        parts.append((s.index, keep @ keep.conj().swapaxes(-1, -2)))
    return _wrap(rho.shape, _unstack(rho.shape.num_blocks, parts))


def is_faithful(rho: NormalState, tol: float = SUPPORT_RTOL) -> bool:
    """True iff every density block has full rank at the support cutoff."""
    return rho.spectrum.min_eig > tol * rho.spectrum.max_eig


def _is_tracial_scalar_blocks(rho: NormalState, tol: float) -> bool:
    for n, d in zip(rho.shape.blocks, rho.densities):
        mean = np.trace(d) / n
        if np.max(np.abs(d - mean * np.eye(n))) > tol:
            return False
    return True


def _is_tracial_commutator_sweep(rho: NormalState, tol: float) -> bool:
    es = basis(rho.shape)
    for i, a in enumerate(es):
        for b in es[i + 1:]:
            dev = abs(evaluate(rho, multiply(a, b)) - evaluate(rho, multiply(b, a)))
            if dev > tol:
                return False
    return True


def is_tracial(rho: NormalState, tol: float = 1e-9, method: str = "commutator") -> bool:
    """rho(ab) == rho(ba) for all a, b.

    ``method="commutator"`` sweeps all basis pairs; ``method="scalar"`` uses
    the equivalent criterion that every density block is a scalar multiple of
    the identity.  Both are implemented so they can be cross-checked.
    """
    if method == "commutator":
        return _is_tracial_commutator_sweep(rho, tol)
    if method == "scalar":
        return _is_tracial_scalar_blocks(rho, tol)
    raise ValueError(f"unknown method {method!r}")


def random_state(shape: AlgebraShape, faithful: bool = False, seed: int = 0) -> NormalState:
    """Deterministic Wishart-type random state.

    With ``faithful=True`` the state is mixed toward the normalized identity
    until its smallest eigenvalue is at least 1e-3.
    """
    rng = np.random.default_rng(seed)
    mats = []
    for n in shape.blocks:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append(g @ g.conj().T)
    total = sum(np.trace(m).real for m in mats)
    state = mk_state(shape, [m / total for m in mats])
    floor = 1e-3
    min_eig = state.spectrum.min_eig
    if not faithful or min_eig >= floor:
        return state
    N = shape.total_dim
    # mixing weight t gives min eigenvalue >= (1-t)*min_eig + t/N
    t = (floor - min_eig) / (1.0 / N - min_eig)
    mats = [
        (1.0 - t) * m + t * np.eye(n) / N
        for m, n in zip(state.densities, shape.blocks)
    ]
    return mk_state(shape, mats)


def random_tracial_state(shape: AlgebraShape, seed: int = 0) -> NormalState:
    """Random block-scalar (hence tracial) faithful state."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(shape.num_blocks))
    weights = 0.9 * weights + 0.1 / shape.num_blocks  # keep all blocks charged
    mats = [
        w / n * np.eye(n, dtype=complex) for w, n in zip(weights, shape.blocks)
    ]
    return mk_state(shape, mats)
