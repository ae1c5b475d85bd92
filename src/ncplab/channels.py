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
expectation E (a pinching).  E is CPU, so phi is CP iff phi o E is CP, and one
positive-semidefiniteness test covers direct sums without multi-block
bookkeeping.  The Choi matrix is normalized by the source dimension:
``C = (1/N_B) sum_ij e_ij (x) (phi o E)(e_ij)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    ShapeError,
    _wrap,
    basis,
    compress_full,
    coords,
    element_from_coords,
    embed_full,
    identity,
    hs_norm,
    mk_shape,
)
from .states import NormalState, StateValidationError, evaluate, mk_state

CP_TOL = 1e-9
UNITAL_TOL = 1e-10
PRESERVATION_TOL = 1e-9


class ChannelValidationError(ValueError):
    """Channel data is not finite, or fails unitality, positivity, or
    dimensions."""


class MorphismValidationError(ValueError):
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
    return element_from_coords(phi.target_shape, phi.linear_action @ coords(b))


def from_linear(src: AlgebraShape, dst: AlgebraShape, matrix) -> CpuMap:
    """Wrap a finite raw coordinate matrix; no CP/unitality validation."""
    mat = np.asarray(matrix, dtype=complex)
    expected = (dst.element_dim, src.element_dim)
    if mat.shape != expected:
        raise ShapeError(f"linear action must be {expected}, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise ChannelValidationError("linear action is not finite")
    mat = mat.copy()
    mat.flags.writeable = False
    return CpuMap(src, dst, mat)


def from_kraus(src: AlgebraShape, dst: AlgebraShape, kraus_list) -> CpuMap:
    """CPU map phi(b) = sum_i K_i^dag b K_i, compressed onto dst blocks.

    Each K_i is an N_B x N_A matrix between the enveloping algebras of source
    and target; unitality requires sum_i K_i^dag K_i = 1 within 1e-10.  When
    the raw output of the Kraus action is not block-diagonal for ``dst`` it is
    pinched onto the blocks, which keeps the map CPU.
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
    cols = []
    for e in basis(src):
        full = embed_full(e)
        out = sum(k.conj().T @ full @ k for k in ks)
        cols.append(coords(compress_full(dst, out)))
    action = np.column_stack(cols)
    action.flags.writeable = False
    frozen = []
    for k in ks:
        k = k.copy()
        k.flags.writeable = False
        frozen.append(k)
    return CpuMap(src, dst, action, tuple(frozen))


def identity_map(shape: AlgebraShape) -> CpuMap:
    NB = shape.total_dim
    return from_kraus(shape, shape, [np.eye(NB, dtype=complex)])


def conjugation_map(shape: AlgebraShape, block_unitaries) -> CpuMap:
    """Automorphism b -> U^dag b U with one unitary per block."""
    mats = [np.asarray(u, dtype=complex) for u in block_unitaries]
    if len(mats) != shape.num_blocks:
        raise ShapeError("one unitary per block required")
    full = np.zeros((shape.total_dim, shape.total_dim), dtype=complex)
    pos = 0
    for u, n in zip(mats, shape.blocks):
        if u.shape != (n, n):
            raise ShapeError(f"unitary must be {n}x{n}, got {u.shape}")
        full[pos: pos + n, pos: pos + n] = u
        pos += n
    return from_kraus(shape, shape, [full])


def transpose_map(shape: AlgebraShape) -> CpuMap:
    """Blockwise transpose.  Positive and unital but not CP for blocks >= 2."""
    dim = shape.element_dim
    action = np.zeros((dim, dim), dtype=complex)
    offs = shape.block_offsets()
    for k, n in enumerate(shape.blocks):
        for i in range(n):
            for j in range(n):
                action[offs[k] + j * n + i, offs[k] + i * n + j] = 1.0
    return from_linear(shape, shape, action)


def choi(phi: CpuMap) -> np.ndarray:
    """Normalized Choi matrix of the pinched extension of phi.

    Returns (1/N_B) sum_ij e_ij (x) M(phi(E(e_ij))) where E pinches the full
    source matrix algebra onto the source blocks and M embeds target elements
    block-diagonally.  phi is CP iff this matrix is PSD.
    """
    NB, NA = phi.source_shape.total_dim, phi.target_shape.total_dim
    C = np.zeros((NB * NA, NB * NA), dtype=complex)
    offs = [0]
    for n in phi.source_shape.blocks:
        offs.append(offs[-1] + n)
    for k, n in enumerate(phi.source_shape.blocks):
        for a in range(n):
            for b in range(n):
                i, j = offs[k] + a, offs[k] + b
                e = [np.zeros((m, m), dtype=complex) for m in phi.source_shape.blocks]
                e[k][a, b] = 1.0
                out = embed_full(apply(phi, _wrap(phi.source_shape, e)))
                C[i * NA: (i + 1) * NA, j * NA: (j + 1) * NA] = out
    return C / NB


def min_choi_eig(phi: CpuMap) -> float:
    c = choi(phi)
    return float(np.linalg.eigvalsh((c + c.conj().T) / 2.0)[0])


def is_cp(phi: CpuMap, tol: float = CP_TOL) -> bool:
    """Complete positivity via the Choi test, tolerance scaled by Choi trace."""
    c = choi(phi)
    herm_dev = float(np.max(np.abs(c - c.conj().T)))
    scale = max(1.0, abs(float(np.trace(c).real)))
    if herm_dev > tol * scale:
        return False
    min_eig = float(np.linalg.eigvalsh((c + c.conj().T) / 2.0)[0])
    return min_eig >= -tol * scale


def is_unital(phi: CpuMap, tol: float = UNITAL_TOL) -> bool:
    dev = hs_norm(apply(phi, identity(phi.source_shape)) - identity(phi.target_shape))
    return dev <= tol


def predual_apply(phi: CpuMap, density_blocks) -> list[np.ndarray]:
    """Schroedinger-picture linear action on density-like block data.

    Solves sum_k Tr(out_k b_k) = sum_k Tr(in_k phi(b)_k) for all b; no state
    validation is performed, so this can push derivative data as well.
    """
    vec_in = np.concatenate(
        [m.T.ravel() for m in density_blocks]
    )  # coords of blockwise transpose
    vec_out = phi.linear_action.T @ vec_in
    out_t = element_from_coords(phi.source_shape, vec_out)
    return [m.T for m in out_t.blocks]


def predual(phi: CpuMap, rho: NormalState) -> NormalState:
    """Push a state on the target algebra back through phi.

    The result is validated as a normal state; a validation failure signals
    that the input map is not CPU.
    """
    if rho.shape != phi.target_shape:
        raise ShapeError(
            f"state shape {rho.shape} != map target {phi.target_shape}"
        )
    mats = predual_apply(phi, rho.densities)
    try:
        return mk_state(phi.source_shape, mats)
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
    if not is_unital(phi):
        dev = hs_norm(apply(phi, identity(shape_b)) - identity(shape_a))
        raise MorphismValidationError(f"carrier map is not unital (deviation {dev:.3e})")
    if not is_cp(phi):
        raise MorphismValidationError(
            f"carrier map is not completely positive "
            f"(min Choi eigenvalue {min_choi_eig(phi):.3e})"
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
    if shape_b1 != shape_b2 or not all(
        np.array_equal(x, y) for x, y in zip(sigma1.densities, sigma2.densities)
    ):
        raise ShapeError("middle objects of the composition do not match")
    action = phi1.cpu.linear_action @ phi2.cpu.linear_action
    action.flags.writeable = False
    cpu = CpuMap(phi2.cpu.source_shape, phi1.cpu.target_shape, action)
    return NcpMorphism(phi1.source, phi2.target, cpu)


def markov_from_stochastic(S) -> CpuMap:
    """Heisenberg map phi(f)_j = sum_i S_ij f_i between abelian algebras.

    ``S`` is an m x n column-stochastic matrix; the predual acts on
    probability vectors as p -> S p (so states on n points map to states on
    m points).
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2:
        raise ShapeError("stochastic matrix must be two-dimensional")
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
    src = mk_shape([1] * m)
    dst = mk_shape([1] * n)
    return CpuMap(src, dst, np.asarray(S.T, dtype=complex))


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
    for i, j in enumerate(part):
        S[i, j] = w[i]
    fiber_dev = float(np.max(np.abs(S.sum(axis=0) - 1.0)))
    if not fiber_dev <= 1e-10:
        raise ChannelValidationError(
            f"weights must sum to one within each fiber (deviation {fiber_dev:.3e})"
        )
    base = markov_from_stochastic(S)
    return CongruentEmbedding(
        base.source_shape,
        base.target_shape,
        base.linear_action,
        None,
        part,
        tuple(float(x) for x in w),
    )


def left_inverse(embedding: CongruentEmbedding) -> CpuMap:
    """Fiber-summing Markov map undoing a congruent embedding on states."""
    m = len(embedding.partition)
    n = max(embedding.partition) + 1
    L = np.zeros((n, m))
    for i, j in enumerate(embedding.partition):
        L[j, i] = 1.0
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
        ks = [np.sqrt(1.0 - lam) * k for k in ks]
        for i in range(NB):
            for j in range(NA):
                t = np.zeros((NB, NA), dtype=complex)
                t[i, j] = np.sqrt(lam / NB)
                ks.append(t)
    return from_kraus(src, dst, ks)
