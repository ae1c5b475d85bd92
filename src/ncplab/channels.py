"""Unital completely positive maps between block-diagonal algebras, and
state-preserving morphisms built from them.

Conventions
-----------
A :class:`CpuMap` ``phi`` goes from its ``source_shape`` algebra B to its
``target_shape`` algebra A in the Heisenberg direction (it acts on
observables).  Its predual pushes states the other way: a state rho on A is
sent to ``sigma = rho o phi`` on B.

A :class:`NcpMorphism` from the object (A, rho) to the object (B, sigma) is
carried by a CPU map phi: B -> A satisfying rho o phi = sigma.  Morphisms are
verified at construction by :func:`mk_morphism`; the dataclass itself performs
no checks.

Complete positivity is decided through the Choi matrix of the map extended to
the enveloping full matrix algebra by the block-diagonal conditional
expectation E (a pinching).  E is CPU, so phi is CP iff phi o E is CP.  The
Choi matrix is normalized by the source dimension:
``C = (1/N_B) sum_ij e_ij (x) (phi o E)(e_ij)``.  Its entry [(i,a), (j,b)]
vanishes unless i and j lie in one source block k and a and b in one target
block l (Choi 1975), so C is a permutation of the direct sum of K_B*K_A
blocks of size n_k*m_l, and the sizes add up to N_B*N_A.  The test therefore
never forms C: :func:`choi` gathers the blocks from the action, batched by
(n_k, m_l).  A map built from Kraus operators carries one factor per block,
V with V V^dag / N_B the block (Choi 1975), and is certified by the small
residual of the blocks against it (Weyl's inequality), with no
factorization.  Any other map, or one whose residual does not certify it,
gets one batched Cholesky factorization of each class's Hermitian part,
shifted by the tolerance; a class that fails is decomposed, and the test
names the block pair (k, l) holding the smallest eigenvalue, with its
eigenvector.  A Markov map between abelian algebras, whose action is
stored as CSR, has only 1 x 1 blocks, read off the stored entries.

:func:`from_kraus` returns a private :class:`_KrausMap`, which only it
builds: its action is built from its family there, so the two agree by
construction, and the matrix verdicts may read the family in place of the
n^2 x n^2 action (the monotonicity criterion, the Gram behind a
contraction's operator norm) where that is faster.  A :class:`CpuMap`
handed a family by hand keeps the dense route: nothing ties that family to
its action, which the CP test's factor residual checks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    InputError,
    ShapeError,
    _BOOL_TYPES,
    _check_count,
    _check_tol,
    _from_vec,
    _frozen,
    _pd_with_shift,
    _phase_fix,
    _wrap,
    abelian_shape,
    embed_full,
    identity,
    hs_norm,
)
from .states import NormalState, StateValidationError, _state_from_vec

if TYPE_CHECKING:
    from scipy.sparse import csr_array

CP_TOL = 1e-9
UNITAL_TOL = 1e-10
PRESERVATION_TOL = 1e-9


class ChannelValidationError(InputError):
    """Channel data is not finite, or fails unitality, positivity, or
    dimensions."""


class MorphismValidationError(InputError):
    """A candidate morphism fails CP, unitality, or state preservation."""


@dataclass(frozen=True)
class CpuMap:
    """Linear map between algebras in element coordinates.

    ``linear_action`` has shape (target element_dim, source element_dim) and
    satisfies phi(b).vec = linear_action @ b.vec.  ``kraus`` is kept
    when the map was built from Kraus operators.

    The action is a dense complex array, except for Markov maps between
    abelian algebras (:func:`markov_from_stochastic`, congruent embeddings,
    their left inverses, the affine automorphisms of
    :func:`ncplab.models.gaussian_group_model` and composites of Markov
    maps), whose action is the transpose of their real stochastic matrix
    stored as a read-only ``scipy.sparse`` CSR float64 array of its nonzero
    entries: the package's own Markov maps hold about s + 2 entries per
    column, where a dense m x n array would hold m.  Every product with a
    CSR action goes through :func:`_matmul`, so a real action is never cast
    to complex, and the CP test reads a CSR action's entries directly.
    """

    source_shape: AlgebraShape
    target_shape: AlgebraShape
    linear_action: np.ndarray | csr_array
    kraus: tuple[np.ndarray, ...] | None = None

    @cached_property
    def _transposed_action(self):
        """The transpose of the action, for the predual, formed once per map:
        a CSR action's transpose is a CSC array over the same three arrays,
        and building that object costs more than a small product with it."""
        return self.linear_action.T


@dataclass(frozen=True)
class CongruentEmbedding(CpuMap):
    """Markov map with a Markov left inverse, refining n points into m cells.

    ``partition[i]`` is the source-simplex index refined into output cell i;
    ``weights[i]`` is the mass fraction given to cell i within its fiber.
    Both are read off the action, which stores one entry per column:
    ``weights[i]`` in row ``partition[i]`` of column i.
    """

    @property
    def partition(self) -> np.ndarray:
        a = self.linear_action
        part = np.empty(a.shape[1], dtype=a.indices.dtype)
        part[a.indices] = np.repeat(np.arange(a.shape[0], dtype=part.dtype), np.diff(a.indptr))
        return part

    @property
    def weights(self) -> np.ndarray:
        a = self.linear_action
        w = np.empty(a.shape[1])
        w[a.indices] = a.data
        return w


@dataclass(frozen=True)
class _KrausMap(CpuMap):
    """CPU map whose action :func:`from_kraus` built from ``kraus``.

    The two agree by construction, so the matrix verdicts may read the
    family in place of the action, for the carrier's images in the density
    eigenbases (:func:`ncplab.gns._images`), and the map is CP, so the
    Kadison-Schwarz inequality bounds the norm of its GNS contraction
    (:func:`ncplab.gns._kadison_schwarz`).  Only
    :func:`from_kraus` builds one; constructing it directly is unsupported,
    since nothing else ties the family to the action.  A plain
    :class:`CpuMap` that carries a family keeps the dense route.
    """


@dataclass(frozen=True)
class NcpMorphism:
    """Verified arrow (A, rho) -> (B, sigma); build with :func:`mk_morphism`."""

    source: tuple[AlgebraShape, NormalState]
    target: tuple[AlgebraShape, NormalState]
    cpu: CpuMap


def _matmul(a, x):
    """a @ x, with a real ``a`` applied to complex ``x`` as two real products:
    numpy's mixed-dtype ``@``, and scipy.sparse's, would cast all of ``a`` to
    a complex copy on every call.  Either operand may be a dense array or a
    CSR action; the product of two CSR actions is CSR."""
    if a.dtype.kind == "c" or x.dtype.kind != "c":
        return a @ x
    return a @ x.real + 1j * (a @ x.imag)


def _frozen_action(a):
    """``a`` made read-only: a dense array, or the three arrays of a CSR one."""
    if isinstance(a, np.ndarray):
        return _frozen(a)
    for arr in (a.data, a.indices, a.indptr):
        arr.flags.writeable = False
    return a


def apply(phi: CpuMap, b: AlgebraElement) -> AlgebraElement:
    """Evaluate phi on an element of its source algebra.

    A dense action is read only in the columns of b's nonzero coordinates,
    gathered and multiplied by those coordinates in one ``np.dot``: a matrix
    unit costs one column, O(target element_dim), and the zero element gives
    exact zeros.
    A dense element pays one gather of the whole action on top of the
    product.  A CSR action is multiplied as stored, without a copy."""
    if b.shape != phi.source_shape:
        raise ShapeError(f"element shape {b.shape} != map source {phi.source_shape}")
    a = phi.linear_action
    if isinstance(a, np.ndarray):
        nz = (b.vec != 0).nonzero()[0]
        return _from_vec(phi.target_shape, np.dot(a.take(nz, axis=1), b.vec.take(nz)))
    return _from_vec(phi.target_shape, _matmul(a, b.vec))


def from_linear(src: AlgebraShape, dst: AlgebraShape, matrix) -> CpuMap:
    """Wrap a finite raw coordinate matrix; no CP/unitality validation."""
    mat = np.asarray(matrix, dtype=complex)
    expected = (dst.element_dim, src.element_dim)
    if mat.shape != expected:
        raise ShapeError(f"linear action must be {expected}, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise ChannelValidationError("linear action is not finite")
    return CpuMap(src, dst, _frozen(mat.copy()))


def from_kraus(src: AlgebraShape, dst: AlgebraShape, kraus_list) -> _KrausMap:
    """CPU map phi(b) = sum_k K_k^dag b K_k, compressed onto dst blocks.

    Each K_k is an N_B x N_A matrix between the enveloping algebras of source
    and target; unitality requires sum_k K_k^dag K_k = 1 within 1e-10.  When
    the raw output of the Kraus action is not block-diagonal for ``dst`` it is
    pinched onto the blocks, which keeps the map CPU.  For a source matrix
    unit e_ij and a target position (a, b) of the enveloping algebras,
    phi(e_ij)_ab = sum_k conj(K_k[i, a]) K_k[j, b], which is N_B times entry
    [(i,a), (j,b)] of the Choi matrix: the action is built as the products
    V V^dag of the factors of :func:`_kraus_factors`, a slab of each Choi
    class at a time, scattered through :func:`_choi_layout`.  The result is
    a :class:`_KrausMap`, whose verdicts may read the family.
    """
    NB, NA = src.total_dim, dst.total_dim
    ks = []
    for i, k in enumerate(kraus_list):
        try:
            arr = np.asarray(k, dtype=complex)
        except (TypeError, ValueError) as exc:  # entries that are not numbers, or ragged rows
            raise ChannelValidationError(f"Kraus operator {i} is not a matrix of numbers ({exc})") from exc
        if arr.shape != (NB, NA):
            raise ShapeError(
                f"Kraus operator {i} must be {NB}x{NA}, got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ChannelValidationError(f"Kraus operator {i} is not finite")
        ks.append(arr)
    if not ks:
        raise ChannelValidationError("empty Kraus list")
    total = sum(k.conj().T @ k for k in ks)
    dev = float(np.linalg.norm(total - np.eye(NA)))
    if not dev <= UNITAL_TOL:
        raise ChannelValidationError(
            f"Kraus family is not unital: ||sum K^dag K - 1|| = {dev:.3e}"
        )
    # every action entry lands in exactly one Choi block, so all are written
    action = np.empty((dst.element_dim, src.element_dim), dtype=complex)
    flat = action.reshape(-1)
    for (_, at), v in zip(_choi_layout(src, dst), _kraus_factors(src, dst, ks)):
        for rows, product in _factor_products(v):
            flat[at[:, rows]] = product
    return _KrausMap(src, dst, _frozen(action), tuple(_frozen(k.copy()) for k in ks))


def identity_map(shape: AlgebraShape) -> CpuMap:
    NB = shape.total_dim
    return from_kraus(shape, shape, [np.eye(NB, dtype=complex)])


def conjugation_map(shape: AlgebraShape, block_unitaries) -> CpuMap:
    """Automorphism b -> U^dag b U with one unitary per block."""
    mats = [np.asarray(u, dtype=complex) for u in block_unitaries]
    if len(mats) != shape.num_blocks:
        raise ShapeError("one unitary per block required")
    for u, n in zip(mats, shape.blocks):
        if u.shape != (n, n):
            raise ShapeError(f"unitary must be {n}x{n}, got {u.shape}")
    return from_kraus(shape, shape, [embed_full(_wrap(shape, mats))])


def transpose_map(shape: AlgebraShape) -> CpuMap:
    """Blockwise transpose.  Positive and unital but not CP for blocks >= 2."""
    return from_linear(shape, shape, np.eye(shape.element_dim)[shape.transpose_perm])


def _unit_images(phi: CpuMap):
    """phi(e_q) for each source matrix unit e_q, in coordinate order (the
    order of :func:`ncplab.algebra.basis`): one :func:`apply` per unit, and
    only one unit alive at a time, a fresh complex vector wrapped as it is."""
    src = phi.source_shape
    for q in range(src.element_dim):
        unit = np.zeros(src.element_dim, dtype=complex)
        unit[q] = 1.0
        yield apply(phi, AlgebraElement(src, _frozen(unit)))


class ChoiClass(NamedTuple):
    """The Choi blocks of one size class: every pair of a source block of
    size n and a target block of size m.

    ``pairs`` holds the block numbers (k, l) of each pair, source-major, and
    ``blocks`` the (K_n*K_m, n*m, n*m) stack of their Choi blocks, rows and
    columns ordered (i, a) with i in source block k and a in target block l.
    """

    pairs: np.ndarray
    blocks: np.ndarray


@lru_cache(maxsize=16)
def _choi_layout(src: AlgebraShape, dst: AlgebraShape):
    """Where the Choi blocks of a map src -> dst sit in its flattened
    (dst.element_dim, src.element_dim) action: the block pairs and the stack
    positions of each size class.  Every action entry lands in exactly one
    block, and its partner under the Choi adjoint in the same block.

    Cached by shape value, because every verdict read from JSON builds its
    shapes afresh, and the index maps cached on an :class:`AlgebraShape`
    would be rebuilt for each.
    """
    width = src.element_dim
    classes = []
    for n, ks, pos_k in src.size_positions:
        for m, ls, pos_l in dst.size_positions:
            pairs = np.empty((ks.size, ls.size, 2), dtype=int)
            pairs[..., 0], pairs[..., 1] = ks[:, None], ls
            # axes (k, l, i, a, j, b) of entry [(i,a), (j,b)] of block (k, l)
            at = pos_l[None, :, None, :, None, :] * width + pos_k[:, None, :, None, :, None]
            classes.append((_frozen(pairs.reshape(-1, 2)), _frozen(at.reshape(-1, n * m, n * m))))
    return tuple(classes)


def choi(phi: CpuMap) -> tuple[ChoiClass, ...]:
    """Nonzero diagonal blocks of the normalized Choi matrix of the pinched
    extension of phi, one :class:`ChoiClass` per (source size, target size).

    The dense matrix is (1/N_B) sum_ij e_ij (x) M(phi(E(e_ij))), where E
    pinches the full source matrix algebra onto the source blocks and M embeds
    target elements block-diagonally.  Its entry [(i,a), (j,b)] vanishes
    unless i and j share a source block k and a and b share a target block l,
    so it is a permutation of the direct sum of the K_B*K_A blocks (k, l) of
    size n_k*m_l returned here.  These sizes add up to N_B*N_A, so the blocks
    cover every row and column, their spectra together are the spectrum of
    the dense matrix, and phi is CP iff every block is PSD.  Entry
    [(i,a), (j,b)] of block (k, l) is ``action[pos_l[a, b], pos_k[i, j]] / N_B``
    with the positions of :attr:`AlgebraShape.size_positions`.
    """
    src, dst = phi.source_shape, phi.target_shape
    # column q holds phi(e_q), filled in the one pass over the source's matrix units
    images = np.empty((dst.element_dim, src.element_dim), dtype=complex)
    for q, image in enumerate(_unit_images(phi)):
        images[:, q] = image.vec
    images /= src.total_dim
    flat = images.ravel()
    return tuple(ChoiClass(pairs, flat[at]) for pairs, at in _choi_layout(src, dst))


def _kraus_factors(src: AlgebraShape, dst: AlgebraShape, kraus) -> list[np.ndarray]:
    """The Choi factors of a Kraus family of N_B x N_A operators, one
    (K_n*K_m, n*m, kappa) stack per class of :func:`_choi_layout`:
    V[p, (i, a), k] = conj(K_k[i, a]), with i in the source block and a in
    the target block of pair p, rows in :class:`ChoiClass`'s (i, a) order,
    so that Choi block p is V_p V_p^dag / N_B.  Every Kraus entry lands in
    exactly one row, gathered at :func:`_factor_positions`."""
    entries = np.reshape(kraus, (len(kraus), -1)).T  # (N_B*N_A, kappa)
    factors = []
    for at in _factor_positions(src, dst):
        v = entries[at]
        factors.append(np.conjugate(v, out=v))
    return factors


@lru_cache(maxsize=16)
def _factor_positions(src: AlgebraShape, dst: AlgebraShape) -> tuple[np.ndarray, ...]:
    """Per class of :func:`_choi_layout`, the (K_n*K_m, n*m) positions of
    the rows (i, a) of its factors in a flattened N_B x N_A Kraus operator,
    read off the diagonal of the class's action positions: entry
    [(i,a), (i,a)] sits in the action's row of target coordinate (a, a) and
    column of source coordinate (i, i).  Cached like the layout."""
    width, NA = src.element_dim, dst.total_dim
    (rows_b, _), (rows_a, _) = src.full_positions, dst.full_positions
    out = []
    for _, at in _choi_layout(src, dst):
        diag = np.diagonal(at, axis1=1, axis2=2)
        out.append(_frozen(rows_b[diag % width] * NA + rows_a[diag // width]))
    return tuple(out)


def _factor_products(v: np.ndarray):
    """V V^dag for a stack of factors V, a slab of rows of every product at
    a time (about ``_SLAB`` entries): yields each slab's rows and a fresh
    array of its entries, so that no full-size product is formed."""
    vh = v.conj().swapaxes(-1, -2)
    step = max(1, _SLAB // (v.shape[0] * v.shape[1]))
    for i in range(0, v.shape[1], step):
        yield slice(i, i + step), v[:, i : i + step] @ vh


class ChoiVerdict(NamedTuple):
    """The CP test of a map.  ``min_eig`` is the smallest eigenvalue of the
    Hermitian part of the Choi matrix and ``pair`` the block pair (k, l)
    holding it, both None when the verdict was certified without the
    spectrum; ``vector``, for a failed verdict with the spectrum, is a unit
    eigenvector of that block at ``min_eig``, rows ordered (i, a) as in
    :class:`ChoiClass`, its first entry above 1e-12 real positive ([1] for
    the 1 x 1 blocks of a Markov map)."""

    cp: bool
    min_eig: float | None
    pair: tuple[int, int] | None
    vector: np.ndarray | None


def _choi_verdict(phi: CpuMap, tol: float, spectrum: bool = True) -> ChoiVerdict:
    """The CP test from one :func:`choi` call, tolerance scaled by the Choi
    trace: phi is CP when the Choi matrix is Hermitian within tol * scale
    and its smallest eigenvalue is at least -tol * scale.

    The blocks hold every entry of the Choi matrix, so its Hermiticity
    deviation and its (real) trace are read off them.  Without ``spectrum``,
    a map that carries ``kraus`` is first tried by :func:`_kraus_certifies`,
    which compares the blocks read off the action with the Kraus factors and
    certifies the whole map without a Hermitian part or a factorization.
    Otherwise the Hermitian part of each size class, shifted by tol * scale,
    is factorized by one batched Cholesky call, which certifies the class;
    only a class that fails gets a batched ``eigvalsh``.  Such a verdict
    differs from the spectral one only within rounding of the threshold.
    With ``spectrum``, or when the Hermiticity check fails, every class gets
    one; with ``spectrum``, a failed verdict also gets one ``eigh`` of its
    witness block.  Of several pairs holding the minimum, the smallest
    (k, l) is named.  A CSR action is tested by :func:`_markov_choi_test`,
    on its entries.
    """
    if not isinstance(phi.linear_action, np.ndarray):
        return _markov_choi_test(phi, tol)
    classes = list(choi(phi))
    trace = sum(float(np.trace(blocks, axis1=1, axis2=2).real.sum()) for _, blocks in classes)
    bound = tol * max(1.0, abs(trace))
    if not spectrum and _kraus_certifies(phi, classes, bound):
        return ChoiVerdict(True, None, None, None)
    # each class's blocks are replaced by their Hermitian part once its gap
    # is read, so no block outlives it into the factorization
    gaps = []
    for c, (pairs, blocks) in enumerate(classes):
        gaps.append(_hermiticity_gap(blocks))
        # (B^dag + B) / 2, which is (B + B^dag) / 2 bit for bit, in one buffer
        # laid out like B, so that no ufunc below needs a buffer of its own
        herm = blocks.swapaxes(-1, -2).copy()
        np.conj(herm, out=herm)
        herm += blocks
        herm /= 2.0
        classes[c] = pairs, herm
        del blocks
    gap = max(gaps)
    # a Hermiticity gap fails the verdict, which still names the spectral minimum
    every = spectrum or not gap <= bound
    best = None  # (min eigenvalue, k, l, Hermitian block) over the decomposed classes
    for pairs, herm in classes:
        if every or not _pd_with_shift(herm, bound):
            mins = np.linalg.eigvalsh(herm)[:, 0]
            j = np.lexsort((pairs[:, 1], pairs[:, 0], mins))[0]
            low = (float(mins[j]), int(pairs[j, 0]), int(pairs[j, 1]))
            if best is None or low < best[:3]:
                best = (*low, herm[j])
    if best is None:
        return ChoiVerdict(gap <= bound, None, None, None)
    min_eig, k, l, block = best
    cp = gap <= bound and min_eig >= -bound
    vector = _phase_fix(np.linalg.eigh(block)[1][None, :, :1])[0, :, 0] if spectrum and not cp else None
    return ChoiVerdict(cp, min_eig, (k, l), vector)


def _kraus_certifies(phi: CpuMap, classes: list[ChoiClass], bound: float) -> bool:
    """Whether phi's Kraus family certifies its Choi ``classes``, read off
    the action, as Hermitian within ``bound`` with spectrum >= -bound.

    With the factors V of :func:`_kraus_factors`, each block is
    B = V V^dag / N_B + D, and V V^dag is positive semidefinite, so
    max |B - B^dag| <= 2 ||D||_F and, by Weyl's inequality,
    lambda_min((B + B^dag) / 2) >= -||D||_F.  The residual D is computed a
    slab of rows of every block at a time, leaving the blocks as they are;
    the computed one differs from D by at most gamma ||V||_F^2 / N_B, with
    gamma = (kappa + 3) eps / (1 - (kappa + 3) eps), which covers the
    complex rounding of V V^dag (Higham 2002, sec. 3.6: sqrt(2) gamma_{kappa+2}
    in units of eps / 2) and of its scaling.  Every class must then have
    2 ||D||_F + 2 gamma ||V||_F^2 / N_B <= bound.  The cost is that of
    building the action from the family, O(kappa sum (nm)^2).  A map
    without a family, or whose family is not N_B x N_A, is not certified;
    nor is one whose family does not match its action.
    """
    src, dst, kraus = phi.source_shape, phi.target_shape, phi.kraus
    NB = src.total_dim
    if not kraus or any(np.shape(k) != (NB, dst.total_dim) for k in kraus):
        return False
    u = (len(kraus) + 3) * np.finfo(float).eps
    gamma = u / (1.0 - u)
    for (_, blocks), v in zip(classes, _kraus_factors(src, dst, kraus)):
        square = 0.0
        for rows, d in _factor_products(v):
            d /= NB
            np.subtract(blocks[:, rows], d, out=d)
            square += float(np.vdot(d, d).real)
        if not 2.0 * math.sqrt(square) + 2.0 * gamma * float(np.vdot(v, v).real) / NB <= bound:
            return False
    return True


def _hermiticity_gap(blocks: np.ndarray) -> float:
    """max |B - B^dag| over a stack of blocks, read a slab of rows of every
    block at a time (about ``_SLAB`` entries), so that no full-size
    difference is formed."""
    k, n = blocks.shape[0], blocks.shape[-1]
    step = max(1, _SLAB // (k * n))
    return float(np.max([
        np.abs(blocks[:, i : i + step] - blocks[:, :, i : i + step].conj().swapaxes(-1, -2)).max()
        for i in range(0, n, step)
    ]))


def _markov_choi_test(phi: CpuMap, tol: float) -> ChoiVerdict:
    """:func:`_choi_verdict` of a map with a CSR action, between abelian
    algebras.  There every Choi block is 1 x 1: the entry action[l, k] / N_B
    of source point k and target point l, real, so Hermitian.  The spectrum
    is these entries, an entry that is not stored counting as 0, and the
    witness is the smallest (k, l) holding the minimum, as in the dense test.
    """
    a = phi.linear_action
    rows, cols = a.shape
    vals = a.data / phi.source_shape.total_dim
    unstored = vals.size < rows * cols
    low = min(float(vals.min(initial=np.inf)), 0.0 if unstored else np.inf)
    witnesses = []
    at = np.flatnonzero(vals == low)
    if at.size:
        ks, ls = a.indices[at], np.searchsorted(a.indptr, at, side="right") - 1
        first = np.lexsort((ls, ks))[0]
        witnesses.append((int(ks[first]), int(ls[first])))
    if unstored and low == 0.0:
        # the first column with an unstored entry, and its first unstored row
        k = int(np.flatnonzero(np.bincount(a.indices, minlength=cols) < rows)[0])
        ls = np.searchsorted(a.indptr, np.flatnonzero(a.indices == k), side="right") - 1
        gaps = np.flatnonzero(ls != np.arange(ls.size))
        witnesses.append((k, int(gaps[0]) if gaps.size else ls.size))
    scale = max(1.0, abs(float(vals.sum())))
    return ChoiVerdict(low >= -tol * scale, low, min(witnesses), np.ones(1))


def min_choi_eig(phi: CpuMap) -> float:
    return _choi_verdict(phi, CP_TOL).min_eig


def is_cp(phi: CpuMap, tol: float = CP_TOL) -> bool:
    """Complete positivity via the Choi test, tolerance scaled by Choi trace;
    certified by the Kraus factors or by Cholesky factors where it holds
    (:func:`_choi_verdict`)."""
    _check_tol(tol)
    return _choi_verdict(phi, tol, spectrum=False).cp


def _unital_deviation(phi: CpuMap) -> float:
    return hs_norm(apply(phi, identity(phi.source_shape)) - identity(phi.target_shape))


def is_unital(phi: CpuMap, tol: float = UNITAL_TOL) -> bool:
    _check_tol(tol)
    return _unital_deviation(phi) <= tol


def _predual_vec(phi: CpuMap, vec: np.ndarray) -> np.ndarray:
    """The Schroedinger-picture action on a coordinate vector of density-like
    data (no state validation, so it pushes derivative data as well): the
    transpose of the action, conjugated by the blockwise transposes of
    target and source."""
    return _matmul(phi._transposed_action, vec[phi.target_shape.transpose_perm])[
        phi.source_shape.transpose_perm
    ]


def predual(phi: CpuMap, rho: NormalState) -> NormalState:
    """Push a state on the target algebra back through phi.

    The result is validated as a normal state; a validation failure signals
    that the input map is not CPU.
    """
    if rho.shape != phi.target_shape:
        raise ShapeError(
            f"state shape {rho.shape} != map target {phi.target_shape}"
        )
    try:
        return _state_from_vec(phi.source_shape, _predual_vec(phi, rho.vec))
    except StateValidationError as exc:
        raise ChannelValidationError(
            f"predual output is not a valid state ({exc}); "
            "the input map is likely not CPU"
        ) from exc


def _check_carrier(phi: CpuMap, shape_b: AlgebraShape, shape_a: AlgebraShape) -> None:
    """The shape check of a morphism (A, rho) -> (B, sigma): its carrier
    must map B -> A (else :class:`ShapeError`)."""
    if phi.source_shape != shape_b or phi.target_shape != shape_a:
        raise ShapeError(
            f"carrier must map {shape_b} -> {shape_a}, got "
            f"{phi.source_shape} -> {phi.target_shape}"
        )


def mk_morphism(
    source_obj: tuple[AlgebraShape, NormalState],
    target_obj: tuple[AlgebraShape, NormalState],
    phi: CpuMap,
    tol: float = PRESERVATION_TOL,
) -> NcpMorphism:
    """Verified morphism (A, rho) -> (B, sigma) carried by phi: B -> A.

    Checks unitality, complete positivity, and rho o phi = sigma in one pass
    over the matrix units of B, a slab of unit images at a time, per block
    of B within ``tol`` times sigma's largest eigenvalue there (the support
    rule's scale); errors name the first block.  ``tol`` must be finite and
    >= 0.
    """
    _check_tol(tol)
    shape_a, rho = source_obj
    shape_b, sigma = target_obj
    _check_carrier(phi, shape_b, shape_a)
    dev = _unital_deviation(phi)
    if not dev <= UNITAL_TOL:
        raise MorphismValidationError(f"carrier map is not unital (deviation {dev:.3e})")
    cp, min_eig, pair, _ = _choi_verdict(phi, CP_TOL, spectrum=False)
    if not cp:
        raise MorphismValidationError(
            f"carrier map is not completely positive (min Choi eigenvalue {min_eig:.3e} "
            f"in the block of source block {pair[0]} and target block {pair[1]})"
        )
    for state, shape in ((rho, shape_a), (sigma, shape_b)):
        if state.shape != shape:
            raise ShapeError(f"shape mismatch: {state.shape} vs {shape}")
    # rho(a) is the dot product of a's coordinates with rho's transposed ones,
    # so sigma(b) of matrix unit q is entry q of sigma's; the unit images
    # fill the columns of one slab, and each slab takes one product
    rho_t, sigma_t = rho.vec[shape_a.transpose_perm], sigma.vec[shape_b.transpose_perm]
    rows, cols = shape_a.element_dim, shape_b.element_dim
    step = max(1, _SLAB // rows)
    slab = np.empty((rows, min(step, cols)), dtype=complex, order="F")
    dev = np.empty(cols)
    images = _unit_images(phi)
    for q0 in range(0, cols, step):
        width = min(step, cols - q0)
        for j in range(width):
            slab[:, j] = next(images).vec
        dev[q0 : q0 + width] = np.abs(rho_t @ slab[:, :width] - sigma_t[q0 : q0 + width])
    dev = np.maximum.reduceat(dev, shape_b.block_offsets()[:-1])
    scale = np.empty(shape_b.num_blocks)
    for g in sigma.groups:
        scale[g.index] = g.d[:, 0]
    k = int(np.argmax(~(dev <= tol * scale)))
    if not dev[k] <= tol * scale[k]:
        raise MorphismValidationError(
            f"state preservation fails in block {k}: max |rho(phi(b)) - sigma(b)| = {dev[k]:.3e} "
            f"> {tol:.1e} times sigma's largest eigenvalue there, {scale[k]:.3e}"
        )
    return NcpMorphism((shape_a, rho), (shape_b, sigma), phi)


def identity_morphism(obj: tuple[AlgebraShape, NormalState]) -> NcpMorphism:
    return mk_morphism(obj, obj, identity_map(obj[0]))


def compose(phi2: NcpMorphism, phi1: NcpMorphism) -> NcpMorphism:
    """Composite of (B,sigma)->(C,gamma) after (A,rho)->(B,sigma).

    Carrier maps compose contravariantly: the result is carried by
    phi1.cpu o phi2.cpu : C -> A.
    """
    shape_b1, sigma1 = phi1.target
    shape_b2, sigma2 = phi2.source
    if shape_b1 != shape_b2 or not np.array_equal(sigma1.vec, sigma2.vec):
        raise ShapeError("middle objects of the composition do not match")
    action = _matmul(phi1.cpu.linear_action, phi2.cpu.linear_action)
    if not isinstance(action, np.ndarray):
        action.sort_indices()
    cpu = CpuMap(phi2.cpu.source_shape, phi1.cpu.target_shape, _frozen_action(action))
    return NcpMorphism(phi1.source, phi2.target, cpu)


def markov_from_stochastic(S) -> CpuMap:
    """Heisenberg map phi(f)_j = sum_i S_ij f_i between abelian algebras.

    ``S`` is a real m x n column-stochastic matrix; the predual acts on
    probability vectors as p -> S p (so states on n points map to states on
    m points).  The ``linear_action`` is S transposed, as a read-only CSR
    float64 array of the nonzero entries of S, converted once (a slab of
    columns at a time) and validated by :func:`_markov_from_owned`.  It
    shares no memory with S.
    """
    try:
        S = np.asarray(S)
    except ValueError as exc:  # ragged nesting
        raise ChannelValidationError(f"stochastic matrix is not a rectangular array ({exc})") from exc
    if S.dtype.kind not in "biufc":
        raise ChannelValidationError(f"stochastic matrix entries must be real numbers, got {S.dtype}")
    if S.dtype.kind == "c" and np.any(S.imag):
        raise ChannelValidationError("stochastic matrix has entries that are not real")
    S = S.real.astype(float, copy=False)
    if S.ndim != 2 or S.size == 0:
        raise ShapeError("stochastic matrix must be two-dimensional and nonempty")
    return _markov_from_owned(*_csr_of_transpose(S), S.shape[0])


# entries of a dense array read per slab: a stochastic matrix converted to
# CSR, Choi blocks and their factor products, and unit images
_SLAB = 1 << 14


def _csr_of_transpose(S: np.ndarray):
    """(data, indices, indptr) of the nonzero entries of S.T in CSR order.

    The columns of S are read a slab at a time, once to count and once to
    fill, so that the only temporaries besides the output are a slab's.
    """
    m, n = S.shape
    step = max(1, _SLAB // m)
    slabs = range(0, n, step)
    counts = np.concatenate([np.count_nonzero(S[:, j:j + step], axis=0) for j in slabs])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    idx = _index_dtype(m, int(indptr[-1]))
    data, indices = np.empty(int(indptr[-1])), np.empty(int(indptr[-1]), dtype=idx)
    for j in slabs:
        at, rows = np.nonzero(S[:, j:j + step].T)
        out = slice(indptr[j], indptr[min(j + step, n)])
        indices[out], data[out] = rows, S[rows, at + j]
    return data, indices, indptr.astype(idx, copy=False)


_INT32_MAX = int(np.iinfo(np.int32).max)


def _index_dtype(*sizes: int) -> type:
    """The CSR index dtype that scipy.sparse keeps without a copy."""
    return np.int32 if max(sizes) <= _INT32_MAX else np.int64


def _markov_from_owned(data: np.ndarray, indices, indptr, width: int) -> CpuMap:
    """The Markov map whose action is the CSR array (data, indices, indptr)
    of shape (indptr.size - 1, width), on arrays that the caller hands over:
    the entries are validated as in :func:`markov_from_stochastic`, then
    frozen and stored, without a copy where the index arrays already have
    the dtype of :func:`_index_dtype`.  Every Markov map the package builds
    passes here, and only here is scipy.sparse imported, so
    ``import ncplab`` does not load it.

    The minimum counts 0 when some entry is not stored, and the columns of
    the stochastic matrix are the rows of the action, summed by one
    ``reduceat`` over the rows that store entries."""
    from scipy.sparse import csr_array

    rows = indptr.size - 1
    low = float(data.min(initial=np.inf))
    if data.size < rows * width:
        low = min(low, 0.0)
    sums = np.zeros(rows)
    full = np.flatnonzero(np.diff(indptr))
    if full.size:
        sums[full] = np.add.reduceat(data, indptr[full])
    col_dev = float(np.max(np.abs(sums - 1.0)))
    # a NaN or infinite entry leaves the minimum or a column sum non-finite
    if not np.isfinite(low + col_dev):
        raise ChannelValidationError("stochastic matrix is not finite")
    if not low >= -1e-12:
        raise ChannelValidationError(f"stochastic matrix has negative entry {low:.3e}")
    if not col_dev <= 1e-10:
        raise ChannelValidationError(
            f"columns must sum to one (worst deviation {col_dev:.3e})"
        )
    idx = _index_dtype(rows, width, data.size)
    action = csr_array(
        (data, indices.astype(idx, copy=False), indptr.astype(idx, copy=False)),
        shape=(rows, width),
    )
    return CpuMap(abelian_shape(width), abelian_shape(rows), _frozen_action(action))


def congruent_embedding(partition, weights) -> CongruentEmbedding:
    """Refinement Markov map q_i = w_i * p_{partition(i)} with a Markov left inverse.

    ``partition`` maps each of the m output cells onto one of the n source
    cells (surjectively), as a flat nonempty sequence of integers;
    ``weights`` are strictly positive and sum to one within each fiber.  The
    action stores one entry per column, built straight from the indices.
    """
    try:
        part, w = np.asarray(partition), np.asarray(weights, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ChannelValidationError(f"partition and weights must be flat sequences ({exc})") from exc
    if part.ndim != 1 or part.size == 0:
        raise ChannelValidationError("partition must be a nonempty flat sequence of cell indices")
    if part.dtype.kind not in "iu":
        raise ChannelValidationError(f"partition indices must be integers, got {part.dtype} entries")
    m = part.size
    if w.shape != (m,):
        raise ChannelValidationError("partition and weights must have equal length")
    if not np.isfinite(w).all():
        raise ChannelValidationError("weights are not finite")
    if not np.min(w) > 0.0:
        raise ChannelValidationError("weights must be strictly positive")
    n = int(part.max()) + 1
    # a surjection onto 0..n-1 has n <= m, which bounds the fiber counts
    if part.min() < 0 or n > m:
        raise ChannelValidationError("partition must be surjective onto 0..n-1")
    part = part.astype(np.int64, copy=False)
    counts = np.bincount(part, minlength=n)
    if not counts.all():
        raise ChannelValidationError("partition must be surjective onto 0..n-1")
    fiber_dev = float(np.max(np.abs(np.bincount(part, weights=w, minlength=n) - 1.0)))
    if not fiber_dev <= 1e-10:
        raise ChannelValidationError(
            f"weights must sum to one within each fiber (deviation {fiber_dev:.3e})"
        )
    # row j of the action holds the cells of fiber j, in cell order
    order = np.argsort(part, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    base = _markov_from_owned(w[order], order, indptr, m)
    return CongruentEmbedding(base.source_shape, base.target_shape, base.linear_action)


def left_inverse(embedding: CongruentEmbedding) -> CpuMap:
    """Fiber-summing Markov map undoing a congruent embedding on states: one
    entry 1 per row, in the column of the cell's source point."""
    if not isinstance(embedding, CongruentEmbedding):
        raise ChannelValidationError(f"left_inverse needs a congruent embedding, got {type(embedding).__name__}")
    part = embedding.partition
    m = part.size
    return _markov_from_owned(
        np.ones(m), part, np.arange(m + 1), embedding.linear_action.shape[0]
    )


def random_cpu_map(
    src: AlgebraShape,
    dst: AlgebraShape,
    seed: int = 0,
    n_kraus: int | None = None,
    mix_trace: float = 0.0,
) -> CpuMap:
    """Seeded random CPU map built from a normalized Gaussian Kraus family.

    ``mix_trace`` blends in the full trace map, which bounds the predual
    output away from the boundary (useful to keep pushed states faithful).
    ``seed`` must be an integer >= 0, ``n_kraus`` one >= N_A / N_B (sum
    K^dag K, of rank at most n_kraus N_B, is inverted) and ``mix_trace`` a
    real number in [0, 1], else :class:`ChannelValidationError` names the
    argument.
    """
    try:
        seed = _check_count("seed", seed)
        if n_kraus is not None:
            n_kraus = _check_count("n_kraus", n_kraus)
    except InputError as exc:
        raise ChannelValidationError(str(exc)) from None
    if n_kraus == 0:
        raise ChannelValidationError("n_kraus must be an integer >= 1, got 0")
    NB, NA = src.total_dim, dst.total_dim
    if n_kraus is not None and n_kraus * NB < NA:
        raise ChannelValidationError(f"n_kraus must be at least ceil(N_A / N_B) = {-(-NA // NB)}, got {n_kraus}")
    if not (
        type(mix_trace) not in _BOOL_TYPES and isinstance(mix_trace, numbers.Real) and 0.0 <= mix_trace <= 1.0
    ):
        raise ChannelValidationError(f"mix_trace must be a real number in [0, 1], got {mix_trace!r}")
    rng = np.random.default_rng(seed)
    if n_kraus is None:
        # sum K^dag K must reach full rank NA, each term has rank <= NB
        n_kraus = max(2, -(-NA // NB) + 1)
    raw = [
        rng.standard_normal((NB, NA)) + 1j * rng.standard_normal((NB, NA))
        for _ in range(n_kraus)
    ]
    total = sum(k.conj().T @ k for k in raw)
    w, v = np.linalg.eigh(total)
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    ks = [k @ inv_sqrt for k in raw]
    if mix_trace > 0.0:
        lam = float(mix_trace)
        # the trace map: one Kraus operator per matrix unit of M_{NB x NA}
        units = np.sqrt(lam / NB) * np.eye(NB * NA, dtype=complex)
        ks = [np.sqrt(1.0 - lam) * k for k in ks] + list(units.reshape(NB * NA, NB, NA))
    return from_kraus(src, dst, ks)
