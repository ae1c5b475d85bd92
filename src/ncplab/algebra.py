"""Finite-dimensional W*-algebras stored as direct sums of full complex matrix blocks.

Every algebra here is canonically block-diagonal.  An element is stored as
one read-only complex vector, its coordinates: block-major, entries
row-major inside each block.  This order matches :func:`basis`, so the
coordinates of an element are literally its matrix entries, and it is the
order every layer of the package (channels, GNS quotients, covariance
kernels, pullbacks) and the wire format use.  ``blocks`` are read-only
per-block matrix views of that vector, for callers that want matrices.

:class:`AlgebraShape` computes once and caches the index maps that move
between the vector and its blocks: block offsets, the per-size gather
positions, the blockwise-transpose permutation and the positions inside the
enveloping full matrix algebra.  Elements never change after construction,
and all operations return new values, so they are safe to share across
threads: a cached map or view computed twice by two threads is the same
value.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _phase_fix(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column of each matrix in a (K, n, n) stack of unit
    eigenvectors so its first component above 1e-12 is real positive."""
    first = np.argmax(np.abs(vectors) > 1e-12, axis=1)[:, None, :]
    anchor = np.take_along_axis(vectors, first, axis=1)
    return vectors * (anchor.conj() / np.abs(anchor))


def _pd_with_shift(a: np.ndarray, shift: float) -> bool:
    """Whether a + shift * I is positive definite, for a Hermitian matrix or
    (..., n, n) stack: one ``np.linalg.cholesky`` call, which decides it at
    a fraction of the cost of the spectrum (Higham 2002, ch. 10) and reads
    only the lower triangle.  The diagonal of ``a`` is shifted in place for
    the call and restored exactly, so no shifted copy is made."""
    i = np.arange(a.shape[-1])
    diag = a[..., i, i]
    a[..., i, i] += shift
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    finally:
        a[..., i, i] = diag
    return True


# bool is an int subclass, so operator.index would accept True as 1
_BOOL_TYPES = frozenset((bool, np.bool_))


class InputError(ValueError):
    """Root of every error that a caller's input can cause (shapes, states, maps,
    kinds, model parameters, payloads, flags): exit code 2 on the command line."""


class ShapeError(InputError):
    """Invalid block-dimension list, or an operation on mismatched shapes."""


@dataclass(frozen=True)
class AlgebraShape:
    """Block dimensions (n_1, ..., n_K) of a direct sum of matrix algebras.

    The sizes (``element_dim``, ``total_dim``, ``is_abelian``) and the index
    maps between coordinates and blocks are computed on first use and cached,
    the maps as read-only integer arrays.
    """

    blocks: tuple[int, ...]

    def __post_init__(self):
        # each check is one pass in C: abelian models build shapes of
        # thousands of blocks, many times per verdict
        blocks = tuple(self.blocks)
        try:
            if not _BOOL_TYPES.isdisjoint(map(type, blocks)):
                raise TypeError("booleans are not block sizes")
            if set(map(type, blocks)) != {int}:  # keeps a tuple of ints as given
                blocks = tuple(map(operator.index, blocks))
        except TypeError as exc:
            raise ShapeError(f"block dimensions must be integers, got {list(blocks)}") from exc
        if len(blocks) == 0:
            raise ShapeError("shape needs at least one block")
        if min(blocks) < 1:
            raise ShapeError(f"block dimensions must be >= 1, got {blocks}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @cached_property
    def element_dim(self) -> int:
        """Complex dimension of the algebra: sum of n_k**2."""
        return sum(n * n for n in self.blocks)

    @cached_property
    def total_dim(self) -> int:
        """Size of the enveloping full matrix algebra: sum of n_k."""
        return sum(self.blocks)

    @cached_property
    def is_abelian(self) -> bool:
        return all(n == 1 for n in self.blocks)

    def block_offsets(self) -> np.ndarray:
        """Start index of each block in the coordinate vector (plus end)."""
        return self._offsets

    @cached_property
    def _offsets(self) -> np.ndarray:
        return _frozen(np.concatenate([[0], np.cumsum(np.asarray(self.blocks) ** 2)]))

    @cached_property
    def size_positions(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        """Per block size n, ascending: the block numbers of that size (K_n,)
        and the coordinates of their entries (K_n, n, n), so that
        ``vec[pos]`` stacks those blocks of a coordinate vector."""
        sizes = np.asarray(self.blocks)
        out = []
        for n in np.unique(sizes).tolist():
            index = np.flatnonzero(sizes == n)
            pos = self._offsets[index][:, None, None] + np.arange(n * n).reshape(n, n)
            out.append((n, _frozen(index), _frozen(pos)))
        return tuple(out)

    @cached_property
    def transpose_perm(self) -> np.ndarray:
        """``vec[transpose_perm]`` are the coordinates of the blockwise transpose."""
        out = np.empty(self.element_dim, dtype=int)
        for _, _, pos in self.size_positions:
            out[pos] = pos.swapaxes(1, 2)
        return _frozen(out)

    @cached_property
    def full_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column, inside the enveloping M_N, of each coordinate."""
        n = np.asarray(self.blocks)
        size = n * n
        local = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        start, per = np.repeat(np.cumsum(n) - n, size), np.repeat(n, size)
        return _frozen(start + local // per), _frozen(start + local % per)

    def split(self, vec: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-block n_k x n_k views of a coordinate vector."""
        offs = self._offsets.tolist()
        return tuple(vec[offs[k]: offs[k + 1]].reshape(n, n) for k, n in enumerate(self.blocks))

    def __repr__(self) -> str:  # compact, e.g. AlgebraShape[2,3]
        return f"AlgebraShape{list(self.blocks)}"


def mk_shape(dims: Sequence[int]) -> AlgebraShape:
    """Validated shape from a list of positive block dimensions."""
    return AlgebraShape(tuple(dims))


def abelian_shape(k: int) -> AlgebraShape:
    """The shape of k one-by-one blocks, held as the one tuple ``(1,) * k``."""
    return AlgebraShape((1,) * k)


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """An element of ``shape`` held as its read-only coordinate vector ``vec``
    (blocks in order, entries row-major).  Immutable; equal when shapes and
    coordinates are."""

    shape: AlgebraShape
    vec: np.ndarray

    def __eq__(self, other) -> bool:
        same = isinstance(other, AlgebraElement) and self.shape == other.shape
        return same and np.array_equal(self.vec, other.vec)

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """Read-only per-block matrix views of ``vec``."""
        return self.shape.split(self.vec)

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


def _from_vec(shape: AlgebraShape, vec) -> AlgebraElement:
    """Internal constructor: takes over a coordinate vector of the right
    length (copied only to make it complex and contiguous) and freezes it."""
    return AlgebraElement(shape, _frozen(np.ascontiguousarray(vec, dtype=complex)))


def _wrap(shape: AlgebraShape, blocks) -> AlgebraElement:
    """Internal constructor from per-block matrices, without re-validating sizes."""
    return _from_vec(shape, np.concatenate(blocks, axis=None, dtype=complex))


def _checked_vec(shape: AlgebraShape, blocks: Sequence, what: str) -> np.ndarray:
    """Coordinate vector of per-block matrices, each checked against ``shape``;
    errors name the offending ``what`` (say "block")."""
    if len(blocks) != shape.num_blocks:
        raise ShapeError(f"expected {shape.num_blocks} {what}s, got {len(blocks)}")
    mats = []
    for k, (n, b) in enumerate(zip(shape.blocks, blocks)):
        mats.append(np.asarray(b, dtype=complex))
        if mats[-1].shape != (n, n):
            raise ShapeError(f"{what} {k} must be {n}x{n}, got {mats[-1].shape}")
    return np.concatenate(mats, axis=None)


def mk_element(shape: AlgebraShape, blocks: Sequence) -> AlgebraElement:
    """Validated element from per-block matrices."""
    return _from_vec(shape, _checked_vec(shape, blocks, "block"))


def identity(shape: AlgebraShape) -> AlgebraElement:
    """Unit of the algebra: per-block identity matrices."""
    rows, cols = shape.full_positions
    return _from_vec(shape, rows == cols)


def _check_same_shape(a: AlgebraElement, b: AlgebraElement) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Blockwise matrix product a*b."""
    _check_same_shape(a, b)
    return _wrap(a.shape, [x @ y for x, y in zip(a.blocks, b.blocks)])


def adjoint(a: AlgebraElement) -> AlgebraElement:
    """Blockwise conjugate transpose; an exact involution."""
    return _from_vec(a.shape, a.vec[a.shape.transpose_perm].conj())


def add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    _check_same_shape(a, b)
    return _from_vec(a.shape, a.vec + b.vec)


def scale(c, a: AlgebraElement) -> AlgebraElement:
    return _from_vec(a.shape, complex(c) * a.vec)


def hs_norm(a: AlgebraElement) -> float:
    """Hilbert-Schmidt norm sqrt(sum_k Tr(a_k^dag a_k))."""
    return float(np.sqrt(np.sum(np.abs(a.vec) ** 2)))


def basis(shape: AlgebraShape) -> list[AlgebraElement]:
    """Matrix-unit basis, block-major then row-major: e_(k,i,j) has a single 1.

    The order is fixed so that Gram matrices and quotient coordinates are
    reproducible bit-for-bit across runs.
    """
    return [_from_vec(shape, e) for e in np.eye(shape.element_dim, dtype=complex)]


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


def embed_full(a: AlgebraElement) -> np.ndarray:
    """Element as a block-diagonal matrix inside the enveloping M_N."""
    N = a.shape.total_dim
    out = np.zeros((N, N), dtype=complex)
    out[a.shape.full_positions] = a.vec
    return out
