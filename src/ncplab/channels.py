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
their spectra together are the spectrum of C.  A failed test names the
block pair (k, l) that holds the smallest eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    InputError,
    ShapeError,
    _from_vec,
    _frozen,
    _wrap,
    basis,
    embed_full,
    identity,
    hs_norm,
    mk_shape,
)
from .states import NormalState, StateValidationError, _state_from_vec, evaluate

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
    satisfies coords(phi(b)) = linear_action @ coords(b).  ``kraus`` is kept
    when the map was built from Kraus operators.
    """

    source_shape: AlgebraShape
    target_shape: AlgebraShape
    linear_action: np.ndarray
    kraus: tuple[np.ndarray, ...] | None = None


@dataclass(frozen=True)
class CongruentEmbedding(CpuMap):
    """Markov map with a Markov left inverse, in partition/weight form.

    ``partition[i]`` is the source-simplex index refined into output cell i;
    ``weights[i]`` is the mass fraction given to cell i within its fiber.
    """

    partition: tuple[int, ...] = ()
    weights: tuple[float, ...] = ()


@dataclass(frozen=True)
class NcpMorphism:
    """Verified arrow (A, rho) -> (B, sigma); build with :func:`mk_morphism`."""

    source: tuple[AlgebraShape, NormalState]
    target: tuple[AlgebraShape, NormalState]
    cpu: CpuMap


def apply(phi: CpuMap, b: AlgebraElement) -> AlgebraElement:
    """Evaluate phi on an element of its source algebra."""
    if b.shape != phi.source_shape:
        raise ShapeError(f"element shape {b.shape} != map source {phi.source_shape}")
    return _from_vec(phi.target_shape, phi.linear_action @ b.vec)


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


def _choi_test(phi: CpuMap, tol: float) -> tuple[bool, float, tuple[int, int]]:
    """(CP verdict, min eigenvalue of the Hermitian part of the Choi matrix,
    the block pair (k, l) holding it) from one :func:`choi` call and one
    batched eigensolve per size class; tolerance scaled by the Choi trace.

    The blocks hold every entry of the Choi matrix, so its Hermiticity
    deviation is read off them, and its (real) trace off their eigenvalues.
    Of several pairs holding the minimum, the smallest (k, l) is named.
    """
    gaps, traces, pairs, mins = [], [], [], []
    for cls in choi(phi):
        adj = cls.blocks.conj().swapaxes(-1, -2)
        eigs = np.linalg.eigvalsh((cls.blocks + adj) / 2.0)
        gaps.append(np.abs(cls.blocks - adj).max())
        traces.append(eigs.sum())
        pairs.append(cls.pairs)
        mins.append(eigs[:, 0])
    pairs, mins = np.concatenate(pairs), np.concatenate(mins)
    at = np.lexsort((pairs[:, 1], pairs[:, 0], mins))[0]
    min_eig = float(mins[at])
    herm_dev, scale = float(max(gaps)), max(1.0, abs(float(sum(traces))))
    cp = herm_dev <= tol * scale and min_eig >= -tol * scale
    return cp, min_eig, (int(pairs[at, 0]), int(pairs[at, 1]))


def min_choi_eig(phi: CpuMap) -> float:
    return _choi_test(phi, CP_TOL)[1]


def is_cp(phi: CpuMap, tol: float = CP_TOL) -> bool:
    """Complete positivity via the Choi test, tolerance scaled by Choi trace."""
    return _choi_test(phi, tol)[0]


def _unital_deviation(phi: CpuMap) -> float:
    return hs_norm(apply(phi, identity(phi.source_shape)) - identity(phi.target_shape))


def is_unital(phi: CpuMap, tol: float = UNITAL_TOL) -> bool:
    return _unital_deviation(phi) <= tol


def predual_apply(phi: CpuMap, density_blocks) -> list[np.ndarray]:
    """Schroedinger-picture linear action on density-like block data.

    Solves sum_k Tr(out_k b_k) = sum_k Tr(in_k phi(b)_k) for all b; no state
    validation is performed, so this can push derivative data as well.
    """
    vec = np.concatenate(density_blocks, axis=None, dtype=complex)
    return list(phi.source_shape.split(_predual_vec(phi, vec)))


def _predual_vec(phi: CpuMap, vec: np.ndarray) -> np.ndarray:
    """:func:`predual_apply` on coordinate vectors: the transpose of the
    action, conjugated by the blockwise transposes of target and source."""
    return (phi.linear_action.T @ vec[phi.target_shape.transpose_perm])[
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
    cp, min_eig, (k, l) = _choi_test(phi, CP_TOL)
    if not cp:
        raise MorphismValidationError(
            f"carrier map is not completely positive (min Choi eigenvalue {min_eig:.3e} "
            f"in the block of source block {k} and target block {l})"
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
    action = _frozen(phi1.cpu.linear_action @ phi2.cpu.linear_action)
    cpu = CpuMap(phi2.cpu.source_shape, phi1.cpu.target_shape, action)
    return NcpMorphism(phi1.source, phi2.target, cpu)


def markov_from_stochastic(S) -> CpuMap:
    """Heisenberg map phi(f)_j = sum_i S_ij f_i between abelian algebras.

    ``S`` is an m x n column-stochastic matrix; the predual acts on
    probability vectors as p -> S p (so states on n points map to states on
    m points).
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.size == 0:
        raise ShapeError("stochastic matrix must be two-dimensional and nonempty")
    m, n = S.shape
    low = float(np.min(S))
    col_dev = float(np.max(np.abs(S.sum(axis=0) - 1.0)))
    # a NaN or infinite entry leaves the minimum or a column sum non-finite
    if not np.isfinite(low + col_dev):
        raise ChannelValidationError("stochastic matrix is not finite")
    if not low >= -1e-12:
        raise ChannelValidationError(f"stochastic matrix has negative entry {low:.3e}")
    if not col_dev <= 1e-10:
        raise ChannelValidationError(
            f"columns must sum to one (worst deviation {col_dev:.3e})"
        )
    return CpuMap(mk_shape([1] * m), mk_shape([1] * n), _frozen(np.asarray(S.T, dtype=complex)))


def congruent_embedding(partition, weights) -> CongruentEmbedding:
    """Refinement Markov map q_i = w_i * p_{partition(i)} with a Markov left inverse.

    ``partition`` maps each of the m output cells onto one of the n source
    cells (surjectively); ``weights`` are strictly positive and sum to one
    within each fiber.
    """
    part = tuple(int(i) for i in partition)
    w = np.asarray(weights, dtype=float)
    m = len(part)
    if w.shape != (m,):
        raise ChannelValidationError("partition and weights must have equal length")
    if not np.isfinite(w).all():
        raise ChannelValidationError("weights are not finite")
    if not np.min(w) > 0.0:
        raise ChannelValidationError("weights must be strictly positive")
    n = max(part) + 1
    if set(part) != set(range(n)):
        raise ChannelValidationError("partition must be surjective onto 0..n-1")
    S = np.zeros((m, n))
    S[np.arange(m), part] = w
    fiber_dev = float(np.max(np.abs(S.sum(axis=0) - 1.0)))
    if not fiber_dev <= 1e-10:
        raise ChannelValidationError(
            f"weights must sum to one within each fiber (deviation {fiber_dev:.3e})"
        )
    base = markov_from_stochastic(S)
    return CongruentEmbedding(
        base.source_shape, base.target_shape, base.linear_action, None, part, tuple(w.tolist())
    )


def left_inverse(embedding: CongruentEmbedding) -> CpuMap:
    """Fiber-summing Markov map undoing a congruent embedding on states."""
    part = embedding.partition
    L = np.zeros((max(part) + 1, len(part)))
    L[part, np.arange(len(part))] = 1.0
    return markov_from_stochastic(L)


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
