"""Finite-dimensional W*-algebras stored as direct sums of full complex matrix blocks.

Every algebra here is canonically block-diagonal: an element is one complex
n_k x n_k matrix per block.  Elements are immutable after construction and all
operations return new values, so they are safe to share across threads.

The coordinate convention used throughout the package: an element is
vectorized block-major, entries row-major inside each block.  This order
matches :func:`basis`, so coordinates of an element are literally its matrix
entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class ShapeError(ValueError):
    """Invalid block-dimension list, or an operation on mismatched shapes."""


@dataclass(frozen=True)
class AlgebraShape:
    """Block dimensions (n_1, ..., n_K) of a direct sum of matrix algebras."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(int(n) for n in self.blocks)
        if len(blocks) == 0:
            raise ShapeError("shape needs at least one block")
        if any(n < 1 for n in blocks):
            raise ShapeError(f"block dimensions must be >= 1, got {blocks}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def element_dim(self) -> int:
        """Complex dimension of the algebra: sum of n_k**2."""
        return sum(n * n for n in self.blocks)

    @property
    def total_dim(self) -> int:
        """Size of the enveloping full matrix algebra: sum of n_k."""
        return sum(self.blocks)

    @property
    def is_abelian(self) -> bool:
        return all(n == 1 for n in self.blocks)

    def block_offsets(self) -> list[int]:
        """Start index of each block in the coordinate vector (plus end)."""
        offs = [0]
        for n in self.blocks:
            offs.append(offs[-1] + n * n)
        return offs

    def __repr__(self) -> str:  # compact, e.g. AlgebraShape[2,3]
        return f"AlgebraShape{list(self.blocks)}"


def mk_shape(dims: Sequence[int]) -> AlgebraShape:
    """Validated shape from a list of positive block dimensions."""
    return AlgebraShape(tuple(dims))


@dataclass(frozen=True)
class AlgebraElement:
    """One complex matrix per block of ``shape``.  Immutable."""

    shape: AlgebraShape
    blocks: tuple[np.ndarray, ...]

    # --- sugar; the module-level functions are the primary API ---
    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return add(self, other)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return add(self, scale(-1.0, other))

    def __neg__(self) -> "AlgebraElement":
        return scale(-1.0, self)

    def __mul__(self, c) -> "AlgebraElement":
        return scale(c, self)

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return multiply(self, other)

    @property
    def H(self) -> "AlgebraElement":
        return adjoint(self)


def _wrap(shape: AlgebraShape, blocks) -> AlgebraElement:
    """Internal constructor: freezes arrays without re-validating sizes."""
    frozen = []
    for b in blocks:
        arr = np.ascontiguousarray(b, dtype=complex)
        arr.flags.writeable = False
        frozen.append(arr)
    return AlgebraElement(shape, tuple(frozen))


def mk_element(shape: AlgebraShape, blocks: Sequence) -> AlgebraElement:
    """Validated element from per-block matrices."""
    if len(blocks) != shape.num_blocks:
        raise ShapeError(
            f"expected {shape.num_blocks} blocks, got {len(blocks)}"
        )
    mats = []
    for k, (n, b) in enumerate(zip(shape.blocks, blocks)):
        arr = np.asarray(b, dtype=complex)
        if arr.shape != (n, n):
            raise ShapeError(f"block {k} must be {n}x{n}, got {arr.shape}")
        mats.append(arr)
    return _wrap(shape, mats)


def identity(shape: AlgebraShape) -> AlgebraElement:
    """Unit of the algebra: per-block identity matrices."""
    return _wrap(shape, [np.eye(n, dtype=complex) for n in shape.blocks])


def zero(shape: AlgebraShape) -> AlgebraElement:
    return _wrap(shape, [np.zeros((n, n), dtype=complex) for n in shape.blocks])


def _check_same_shape(a: AlgebraElement, b: AlgebraElement) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Blockwise matrix product a*b."""
    _check_same_shape(a, b)
    return _wrap(a.shape, [x @ y for x, y in zip(a.blocks, b.blocks)])


def adjoint(a: AlgebraElement) -> AlgebraElement:
    """Blockwise conjugate transpose; an exact involution."""
    return _wrap(a.shape, [x.conj().T for x in a.blocks])


def add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    _check_same_shape(a, b)
    return _wrap(a.shape, [x + y for x, y in zip(a.blocks, b.blocks)])


def scale(c, a: AlgebraElement) -> AlgebraElement:
    return _wrap(a.shape, [complex(c) * x for x in a.blocks])


def trace_functional(a: AlgebraElement) -> complex:
    """Un-normalized trace, summed over blocks."""
    return complex(sum(np.trace(x) for x in a.blocks))


def hs_norm(a: AlgebraElement) -> float:
    """Hilbert-Schmidt norm sqrt(sum_k Tr(a_k^dag a_k))."""
    return float(np.sqrt(sum(np.sum(np.abs(x) ** 2) for x in a.blocks)))


def is_positive(a: AlgebraElement, tol: float = 1e-10) -> bool:
    """True iff every block is Hermitian within tol with min eigenvalue >= -tol."""
    for x in a.blocks:
        if np.max(np.abs(x - x.conj().T)) > tol:
            return False
        h = (x + x.conj().T) / 2.0
        if np.linalg.eigvalsh(h)[0] < -tol:
            return False
    return True


def basis(shape: AlgebraShape) -> list[AlgebraElement]:
    """Matrix-unit basis, block-major then row-major: e_(k,i,j) has a single 1.

    The order is fixed so that Gram matrices and quotient coordinates are
    reproducible bit-for-bit across runs.
    """
    out = []
    for k, n in enumerate(shape.blocks):
        for i in range(n):
            for j in range(n):
                mats = [np.zeros((m, m), dtype=complex) for m in shape.blocks]
                mats[k][i, j] = 1.0
                out.append(_wrap(shape, mats))
    return out


def hermitian_matrix_basis(n: int) -> list[np.ndarray]:
    """Real basis of the Hermitian n x n matrices, HS-orthonormal.

    Order: diagonal units E_aa, then for each a<b the symmetric and
    antisymmetric combinations (E_ab + E_ba)/sqrt(2), i(E_ba - E_ab)/sqrt(2).
    """
    out = []
    for a in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[a, a] = 1.0
        out.append(m)
    s = 1.0 / np.sqrt(2.0)
    for a in range(n):
        for b in range(a + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[a, b] = s
            m[b, a] = s
            out.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[a, b] = -1j * s
            m[b, a] = 1j * s
            out.append(m)
    return out


def hermitian_basis(shape: AlgebraShape) -> list[AlgebraElement]:
    """Real basis of self-adjoint elements, block-major."""
    out = []
    for k, n in enumerate(shape.blocks):
        for m in hermitian_matrix_basis(n):
            mats = [np.zeros((p, p), dtype=complex) for p in shape.blocks]
            mats[k] = m
            out.append(_wrap(shape, mats))
    return out


def coords(a: AlgebraElement) -> np.ndarray:
    """Vectorize an element: blocks concatenated, entries row-major."""
    return np.concatenate([x.ravel() for x in a.blocks])


def element_from_coords(shape: AlgebraShape, vec: np.ndarray) -> AlgebraElement:
    """Inverse of :func:`coords`."""
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (shape.element_dim,):
        raise ShapeError(
            f"coordinate vector must have length {shape.element_dim}, got {vec.shape}"
        )
    offs = shape.block_offsets()
    mats = [
        vec[offs[k]: offs[k + 1]].reshape(n, n)
        for k, n in enumerate(shape.blocks)
    ]
    return _wrap(shape, mats)


def full_positions(shape: AlgebraShape) -> tuple[np.ndarray, np.ndarray]:
    """Row and column, inside the enveloping M_N, of each coordinate."""
    n = np.asarray(shape.blocks)
    size = n * n
    local = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    start, per = np.repeat(np.cumsum(n) - n, size), np.repeat(n, size)
    return start + local // per, start + local % per


def embed_full(a: AlgebraElement) -> np.ndarray:
    """Element as a block-diagonal matrix inside the enveloping M_N."""
    N = a.shape.total_dim
    out = np.zeros((N, N), dtype=complex)
    pos = 0
    for x, n in zip(a.blocks, a.shape.blocks):
        out[pos: pos + n, pos: pos + n] = x
        pos += n
    return out
