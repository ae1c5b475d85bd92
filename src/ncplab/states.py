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
Validation decomposes each state once and keeps the result on it as its
rank groups (:class:`RankGroup`).  The densities of each block size n are
gathered from the vector in block order into one (K_n, n, n) array by the
shape's per-size positions, symmetrized, and diagonalized by a single
``np.linalg.eigh`` call; the eigenpairs are turned to descending order and
split by the rank the support rule (:func:`_in_support`) keeps in each
block (:func:`_split`).  A group keeps its block numbers and positions as
the map back to the vector, and phase-fixes its eigenvectors once, on first
read.  :func:`is_faithful`, :func:`support`,
:meth:`NormalState.block_eigenvalues` and every GNS space read the groups,
so a state on thousands of 1x1 blocks costs one eigensolver call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    InputError,
    ShapeError,
    _check_count,
    _checked_vec,
    _from_vec,
    _frozen,
    _phase_fix,
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


@dataclass(frozen=True, eq=False)
class RankGroup:
    """Blocks of one size n whose densities keep the same rank r.

    ``index`` holds the block numbers (ascending) and ``pos`` the
    coordinates of their entries (m, n, n), both from the shape's
    ``size_positions``; ``d`` (m, n) the eigenvalues of the symmetrized
    densities, descending, the first ``rank`` of each kept, and ``v``
    (m, n, n) the matching eigenvectors as columns.  ``u`` is ``v``
    phase-fixed, so each column's first nonzero component is real positive.
    """

    n: int
    rank: int
    index: np.ndarray
    pos: np.ndarray
    d: np.ndarray
    v: np.ndarray

    @cached_property
    def u(self) -> np.ndarray:
        """``v`` phase-fixed, on first read, once per group."""
        return _phase_fix(self.v)


def _split(g: RankGroup, tol: float) -> tuple[RankGroup, ...]:
    """The blocks of ``g`` grouped by the rank that :func:`_in_support`
    keeps at ``tol``, ranks ascending: ``(g,)`` itself when every block
    keeps ``g.rank``, and no gather when every block keeps one rank."""
    # d descends, so kept ones lead; methods, not numpy's wrappers, which
    # cost more than the work on a few blocks
    ranks = _in_support(g.d, tol).sum(axis=1)
    if (ranks == g.rank).all():
        return (g,)
    present = np.bincount(ranks).nonzero()[0].tolist()  # the ranks present, ascending
    if len(present) == 1:
        return (replace(g, rank=present[0]),)
    out = []
    for r in present:
        sel = (ranks == r).nonzero()[0]
        out.append(RankGroup(g.n, r, *(a.take(sel, axis=0) for a in (g.index, g.pos, g.d, g.v))))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class NormalState:
    """Densities D_k, each Hermitian PSD with sum_k Tr(D_k) = 1, held as their
    read-only coordinate vector ``vec``; equal when shapes and vectors are.

    Build with :func:`mk_state`, which also fills ``groups``, the spectrum
    (:class:`RankGroup` by ascending size, then rank), and ``faithful``, True
    when every group has full rank.
    """

    shape: AlgebraShape
    vec: np.ndarray
    groups: tuple[RankGroup, ...] = field(repr=False)
    faithful: bool = field(repr=False)

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
        for g in self.groups:
            out[(ends - sizes)[g.index][:, None] + np.arange(g.n)] = g.d[:, ::-1]
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

    groups, failures, total = [], [], 0.0
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
        groups += _split(RankGroup(n, n, index, pos, w[:, ::-1], v[:, :, ::-1]), SUPPORT_RTOL)
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
    return NormalState(shape, vec, tuple(groups), all(g.rank == g.n for g in groups))


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
    for g in rho.groups:
        keep = g.v[:, :, : g.rank]
        out[g.pos] = keep @ keep.conj().swapaxes(-1, -2)
    return _from_vec(rho.shape, out)


def is_faithful(rho: NormalState) -> bool:
    """True iff the support rule keeps every eigenvalue (decided at validation)."""
    return rho.faithful


def random_state(shape: AlgebraShape, faithful: bool = False, seed: int = 0) -> NormalState:
    """Deterministic Wishart-type random state.

    With ``faithful=True`` the state is mixed toward the normalized identity
    until its smallest eigenvalue is at least min(1e-3, 1/(2N)), N the
    enveloping dimension: the eigenvalues of a state average 1/N, so no state
    on more than 1,000 dimensions reaches 1e-3.  ``seed`` must be an
    integer >= 0 (else :class:`InputError`).
    """
    rng = np.random.default_rng(_check_count("seed", seed))
    mats = []
    for n in shape.blocks:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append(g @ g.conj().T)
    total = sum(np.trace(m).real for m in mats)
    state = mk_state(shape, [m / total for m in mats])
    N = shape.total_dim
    floor = min(1e-3, 0.5 / N)
    min_eig = min(float(g.d[:, -1].min()) for g in state.groups)
    if not faithful or min_eig >= floor:
        return state
    # mixing weight t gives min eigenvalue >= (1-t)*min_eig + t/N
    t = (floor - min_eig) / (1.0 / N - min_eig)
    return _state_from_vec(shape, (1.0 - t) * state.vec + t * identity(shape).vec / N)


def random_tracial_state(shape: AlgebraShape, seed: int = 0) -> NormalState:
    """Random block-scalar (hence tracial) faithful state.  ``seed`` is an
    integer >= 0 (else :class:`InputError`) or a numpy ``SeedSequence``."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = _check_count("seed", seed)
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(shape.num_blocks))
    weights = 0.9 * weights + 0.1 / shape.num_blocks  # keep all blocks charged
    mats = [
        w / n * np.eye(n, dtype=complex) for w, n in zip(weights, shape.blocks)
    ]
    return mk_state(shape, mats)
