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
never forms C: :func:`choi` gathers the blocks, batched by (n_k, m_l), and
one batched Cholesky factorization of each class's Hermitian part, shifted
by the tolerance, certifies it; a class that fails is decomposed, and the
test names the block pair (k, l) holding the smallest eigenvalue, with its
eigenvector.  A Markov map between abelian algebras, whose action is
stored as CSR, has only 1 x 1 blocks, read off the stored entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    InputError,
    ShapeError,
    _from_vec,
    _frozen,
    _pd_with_shift,
    _phase_fix,
    _wrap,
    abelian_shape,
    basis,
    embed_full,
    identity,
    hs_norm,
)
from .states import NormalState, StateValidationError, _state_from_vec, evaluate

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
    column, where a dense m x n array would hold m.  Every product with an
    action goes through :func:`_matmul`, so a real action is never cast to
    complex, and the CP test reads a CSR action's entries directly.
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
    """Evaluate phi on an element of its source algebra."""
    if b.shape != phi.source_shape:
        raise ShapeError(f"element shape {b.shape} != map source {phi.source_shape}")
    return _from_vec(phi.target_shape, _matmul(phi.linear_action, b.vec))


def from_linear(src: AlgebraShape, dst: AlgebraShape, matrix) -> CpuMap:
    """Wrap a finite raw coordinate matrix; no CP/unitality validation."""
    mat = np.asarray(matrix, dtype=complex)
    expected = (dst.element_dim, src.element_dim)
    if mat.shape != expected:
        raise ShapeError(f"linear action must be {expected}, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise ChannelValidationError("linear action is not finite")
    return CpuMap(src, dst, _frozen(mat.copy()))


def from_kraus(src: AlgebraShape, dst: AlgebraShape, kraus_list) -> CpuMap:
    """CPU map phi(b) = sum_k K_k^dag b K_k, compressed onto dst blocks.

    Each K_k is an N_B x N_A matrix between the enveloping algebras of source
    and target; unitality requires sum_k K_k^dag K_k = 1 within 1e-10.  When
    the raw output of the Kraus action is not block-diagonal for ``dst`` it is
    pinched onto the blocks, which keeps the map CPU.  The action is read off
    entrywise: for a source matrix unit e_ij and a target position (a, b) of
    the enveloping algebras, phi(e_ij)_ab = sum_k conj(K_k[i, a]) K_k[j, b].
    """
    NB, NA = src.total_dim, dst.total_dim
    ks = []
    for i, k in enumerate(kraus_list):
        arr = np.asarray(k, dtype=complex)
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
    (si, sj), (da, db) = src.full_positions, dst.full_positions
    action = sum(k[si][:, da].conj() * k[sj][:, db] for k in ks).T
    return CpuMap(src, dst, _frozen(action), tuple(_frozen(k.copy()) for k in ks))


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
    width = src.element_dim
    # column q holds the coordinates of phi applied to source matrix unit q
    images = np.empty((dst.element_dim, width), dtype=complex)
    for q in range(width):
        unit = np.zeros(width, dtype=complex)
        unit[q] = 1.0
        images[:, q] = apply(phi, _from_vec(src, unit)).vec
    flat = images.ravel() / src.total_dim
    return tuple(ChoiClass(pairs, flat[at]) for pairs, at in _choi_layout(src, dst))


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
    the Hermitian part of each size class, shifted by tol * scale, is
    factorized by one batched Cholesky call, which certifies the class; only
    a class that fails gets a batched ``eigvalsh``.  Such a verdict differs
    from the spectral one only within rounding of the threshold.  With
    ``spectrum``, or when the Hermiticity check fails, every class gets one;
    with ``spectrum``, a failed verdict also gets one ``eigh`` of its
    witness block.  Of several pairs holding the minimum, the smallest
    (k, l) is named.  A CSR action is tested by :func:`_markov_choi_test`,
    on its entries.
    """
    if not isinstance(phi.linear_action, np.ndarray):
        return _markov_choi_test(phi, tol)
    classes = choi(phi)
    gap = max(float(np.abs(c.blocks - c.blocks.conj().swapaxes(-1, -2)).max()) for c in classes)
    trace = sum(float(np.trace(c.blocks, axis1=1, axis2=2).real.sum()) for c in classes)
    bound = tol * max(1.0, abs(trace))
    # a Hermiticity gap fails the verdict, which still names the spectral minimum
    every = spectrum or not gap <= bound
    best = None  # (min eigenvalue, k, l, Hermitian block) over the decomposed classes
    for cls in classes:
        herm = (cls.blocks + cls.blocks.conj().swapaxes(-1, -2)) / 2.0
        if every or not _pd_with_shift(herm, bound):
            mins = np.linalg.eigvalsh(herm)[:, 0]
            j = np.lexsort((cls.pairs[:, 1], cls.pairs[:, 0], mins))[0]
            low = (float(mins[j]), int(cls.pairs[j, 0]), int(cls.pairs[j, 1]))
            if best is None or low < best[:3]:
                best = (*low, herm[j])
    if best is None:
        return ChoiVerdict(gap <= bound, None, None, None)
    min_eig, k, l, block = best
    cp = gap <= bound and min_eig >= -bound
    vector = _phase_fix(np.linalg.eigh(block)[1][None, :, :1])[0, :, 0] if spectrum and not cp else None
    return ChoiVerdict(cp, min_eig, (k, l), vector)


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
    certified by Cholesky factors where it holds (:func:`_choi_verdict`)."""
    return _choi_verdict(phi, tol, spectrum=False).cp


def _unital_deviation(phi: CpuMap) -> float:
    return hs_norm(apply(phi, identity(phi.source_shape)) - identity(phi.target_shape))


def is_unital(phi: CpuMap, tol: float = UNITAL_TOL) -> bool:
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


def mk_morphism(
    source_obj: tuple[AlgebraShape, NormalState],
    target_obj: tuple[AlgebraShape, NormalState],
    phi: CpuMap,
    tol: float = PRESERVATION_TOL,
) -> NcpMorphism:
    """Verified morphism (A, rho) -> (B, sigma) carried by phi: B -> A.

    Checks unitality, complete positivity, and state preservation
    rho o phi = sigma on the full source basis; the error message carries the
    worst deviation.
    """
    shape_a, rho = source_obj
    shape_b, sigma = target_obj
    if phi.source_shape != shape_b or phi.target_shape != shape_a:
        raise ShapeError(
            f"carrier must map {shape_b} -> {shape_a}, got "
            f"{phi.source_shape} -> {phi.target_shape}"
        )
    dev = _unital_deviation(phi)
    if not dev <= UNITAL_TOL:
        raise MorphismValidationError(f"carrier map is not unital (deviation {dev:.3e})")
    cp, min_eig, pair, _ = _choi_verdict(phi, CP_TOL, spectrum=False)
    if not cp:
        raise MorphismValidationError(
            f"carrier map is not completely positive (min Choi eigenvalue {min_eig:.3e} "
            f"in the block of source block {pair[0]} and target block {pair[1]})"
        )
    worst = 0.0
    for b in basis(shape_b):
        dev = abs(evaluate(rho, apply(phi, b)) - evaluate(sigma, b))
        worst = max(worst, dev)
    if worst > tol:
        raise MorphismValidationError(
            f"state preservation fails: max |rho(phi(b)) - sigma(b)| = {worst:.3e} "
            f"> {tol:.1e}"
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


# entries of a dense stochastic matrix read per slab while converting it to CSR
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
    """
    rng = np.random.default_rng(seed)
    NB, NA = src.total_dim, dst.total_dim
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
