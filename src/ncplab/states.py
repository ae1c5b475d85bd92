"""Normal states as a density coordinate vector with total trace one.

A state holds its densities D_k the way an element holds its blocks: as one
read-only complex vector in the package's coordinate order (block-major,
row-major inside each block), with ``densities`` as read-only per-block
views of it.  A state evaluates elements as rho(a) = sum_k Tr(D_k a_k).
Classical probability vectors are simply states on abelian shapes, whose
density vector is the probability vector; there is no separate type for
them.  States never change after construction, so they are safe to share
across threads.

Spectral decomposition
----------------------
Validation decomposes each state once and caches the result on it as a
:class:`Spectrum`.  The densities of each block size n are gathered from the
vector in block order into one (K_n, n, n) array by the shape's per-size
positions, symmetrized, and diagonalized by a single ``np.linalg.eigh``
call; each stack keeps its block numbers and positions as the map back to
the vector.  Validation, :func:`support`,
:meth:`NormalState.block_eigenvalues` and the GNS construction all read this
cache, so a state on thousands of 1x1 blocks costs one eigensolver call.
Validation also applies the support rule (:func:`_in_support`) once and
stores the verdict of :func:`is_faithful`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    InputError,
    ShapeError,
    _checked_vec,
    _from_vec,
    _frozen,
    identity,
)

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10

#: Relative eigenvalue cutoff separating genuine rank deficiency from
#: floating-point noise: an eigenvalue of a density block counts as zero
#: when it is <= SUPPORT_RTOL times that block's own largest eigenvalue
#: (:func:`_in_support`).
SUPPORT_RTOL = 1e-9


class StateValidationError(InputError):
    """A density block is not finite, fails Hermiticity/positivity, or total
    trace is off."""

    def __init__(self, message: str, block: int | None = None):
        super().__init__(message)
        self.block = block


@dataclass(frozen=True)
class SizeStack:
    """The density blocks of one size n, stacked in block order.

    ``index`` holds their block numbers (ascending) and ``pos`` the
    coordinates of their entries (K_n, n, n), both from the shape's
    ``size_positions``; ``eigvals`` the ascending eigenvalues of the
    symmetrized densities (K_n, n) and ``eigvecs`` the matching eigenvectors
    as columns (K_n, n, n).
    """

    n: int
    index: np.ndarray
    pos: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of every density block, batched by block size.

    ``stacks`` holds one :class:`SizeStack` per block size, in ascending
    size; a stack's ``index`` maps its positions back to block numbers.
    ``faithful`` is True when the support rule keeps every eigenvalue.
    """

    stacks: tuple[SizeStack, ...]
    faithful: bool


@dataclass(frozen=True, eq=False)
class NormalState:
    """Densities D_k, each Hermitian PSD with sum_k Tr(D_k) = 1, held as their
    read-only coordinate vector ``vec``; equal when shapes and vectors are.

    Build with :func:`mk_state`, which also fills ``spectrum``.
    """

    shape: AlgebraShape
    vec: np.ndarray
    spectrum: Spectrum = field(repr=False)

    def __eq__(self, other) -> bool:
        same = isinstance(other, NormalState) and self.shape == other.shape
        return same and np.array_equal(self.vec, other.vec)

    @cached_property
    def densities(self) -> tuple[np.ndarray, ...]:
        """Read-only per-block density views of ``vec``."""
        return self.shape.split(self.vec)

    def block_eigenvalues(self) -> list[np.ndarray]:
        """Ascending eigenvalues of each density block."""
        sizes = np.asarray(self.shape.blocks)
        ends = np.cumsum(sizes)
        out = np.empty(self.shape.total_dim)
        for s in self.spectrum.stacks:
            out[(ends - sizes)[s.index][:, None] + np.arange(s.n)] = s.eigvals
        return np.split(out, ends[:-1])


def mk_state(shape: AlgebraShape, densities) -> NormalState:
    """Validated normal state from per-block density matrices.

    Raises :class:`StateValidationError` naming the first offending block (in
    block order) when a density is not finite or not Hermitian PSD, and when
    the total trace is not one.  A block that is neither Hermitian nor PSD is
    reported as not Hermitian.
    """
    return _state_from_vec(shape, _checked_vec(shape, densities, "density block"))


def _state_from_vec(shape: AlgebraShape, vec) -> NormalState:
    """The validation of :func:`mk_state` on a density coordinate vector of
    length ``shape.element_dim``, which the state takes over."""
    vec = _frozen(np.ascontiguousarray(vec, dtype=complex))
    finite = np.isfinite(vec)
    if not finite.all():
        k = int(np.searchsorted(shape.block_offsets(), finite.argmin(), side="right")) - 1
        raise StateValidationError(f"density block {k} is not finite", block=k)

    stacks, failures, total = [], [], 0.0
    for n, index, pos in shape.size_positions:
        d = vec[pos]
        d_h = d.conj().swapaxes(-1, -2)
        herm_dev = np.abs(d - d_h).max(axis=(1, 2))
        w, v = np.linalg.eigh((d + d_h) / 2.0)
        # comparisons written so that NaN fails them
        fail = ~(herm_dev <= HERMITIAN_TOL) | ~(w[:, 0] >= -PSD_TOL)
        if fail.any():
            j = int(fail.argmax())
            failures.append((int(index[j]), float(herm_dev[j]), float(w[j, 0])))
        total += float(d.trace(axis1=1, axis2=2).real.sum())
        stacks.append(SizeStack(n, index, pos, w, v))
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
    faithful = all(_in_support(s.eigvals).all() for s in stacks)
    return NormalState(shape, vec, Spectrum(tuple(stacks), faithful))


def evaluate(rho: NormalState, a: AlgebraElement) -> complex:
    """rho(a) = sum_k Tr(D_k a_k)."""
    if rho.shape != a.shape:
        raise ShapeError(f"shape mismatch: {rho.shape} vs {a.shape}")
    return complex(rho.vec[rho.shape.transpose_perm] @ a.vec)


def _in_support(eigvals: np.ndarray, tol: float = SUPPORT_RTOL) -> np.ndarray:
    """The package's one support rule, on the eigenvalues (K, n) of K blocks:
    True where one is above ``tol`` times its own block's largest.  No other
    block enters, so a 1x1 block keeps all but an exact zero and a congruent
    refinement changes nothing."""
    return eigvals > tol * eigvals.max(axis=1, keepdims=True)


def support(rho: NormalState) -> AlgebraElement:
    """Spectral projection onto the eigenvalues kept by :func:`_in_support`."""
    out = np.zeros(rho.shape.element_dim, dtype=complex)
    for s in rho.spectrum.stacks:
        keep = s.eigvecs * _in_support(s.eigvals)[:, None, :]
        out[s.pos] = keep @ keep.conj().swapaxes(-1, -2)
    return _from_vec(rho.shape, out)


def is_faithful(rho: NormalState) -> bool:
    """True iff the support rule keeps every eigenvalue (decided at validation)."""
    return rho.spectrum.faithful


def random_state(shape: AlgebraShape, faithful: bool = False, seed: int = 0) -> NormalState:
    """Deterministic Wishart-type random state.

    With ``faithful=True`` the state is mixed toward the normalized identity
    until its smallest eigenvalue is at least min(1e-3, 1/(2N)), N the
    enveloping dimension: the eigenvalues of a state average 1/N, so no state
    on more than 1,000 dimensions reaches 1e-3.
    """
    rng = np.random.default_rng(seed)
    mats = []
    for n in shape.blocks:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append(g @ g.conj().T)
    total = sum(np.trace(m).real for m in mats)
    state = mk_state(shape, [m / total for m in mats])
    N = shape.total_dim
    floor = min(1e-3, 0.5 / N)
    min_eig = min(float(s.eigvals[:, 0].min()) for s in state.spectrum.stacks)
    if not faithful or min_eig >= floor:
        return state
    # mixing weight t gives min eigenvalue >= (1-t)*min_eig + t/N
    t = (floor - min_eig) / (1.0 / N - min_eig)
    return _state_from_vec(shape, (1.0 - t) * state.vec + t * identity(shape).vec / N)


def random_tracial_state(shape: AlgebraShape, seed: int = 0) -> NormalState:
    """Random block-scalar (hence tracial) faithful state."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(shape.num_blocks))
    weights = 0.9 * weights + 0.1 / shape.num_blocks  # keep all blocks charged
    mats = [
        w / n * np.eye(n, dtype=complex) for w, n in zip(weights, shape.blocks)
    ]
    return mk_state(shape, mats)
