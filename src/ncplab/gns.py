"""GNS spaces for (algebra, state) pairs and the contractions induced by
state-preserving CPU maps.

Construction
------------
For a state rho with density blocks D_k, the pre-inner product
<x|y> = rho(x^dag y) has, in the matrix-unit coordinates of this package, the
exact block form ``G = (+)_k I_{n_k} (x) conj(D_k)``.  Its null space is the
Gelfand ideal, so the quotient is obtained from the eigendecomposition of each
D_k by dropping eigenvalues below a relative cutoff.  That decomposition is
the one cached on the state (:class:`~ncplab.states.Spectrum`), so building a
space decomposes nothing: the cutoff and the phase fix act on the per-size
stacks, which are then split by kept rank into rectangular groups that
:func:`embed` and the covariance block forms process one batched product at a
time.  Coordinates are rescaled to be orthonormal, ordered by descending Gram
eigenvalue (ties broken by block and position), and eigenvector phases are
fixed so the first nonzero component is real positive.  The coordinate order
does not depend on how blocks are grouped, and the result is reproducible run
to run.

A morphism (A, rho) -> (B, sigma) induces the linear contraction
H_sigma -> H_rho, [b] -> [phi(b)], realized here as a matrix in orthonormal
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    ShapeError,
    _wrap,
    adjoint,
    multiply,
)
from .channels import NcpMorphism, apply, compose, identity_morphism
from .states import NormalState, SUPPORT_RTOL, _stack_blocks, evaluate

WELL_DEFINED_TOL = 1e-8


class GnsQuotientError(RuntimeError):
    """An induced map does not respect the numerically identified quotient.

    Usually a sign that a density eigenvalue straddles the support cutoff;
    re-run with a tighter tolerance.
    """


def _phase_fix(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column of each matrix in a (K, n, n) stack of unit
    eigenvectors so its first component above 1e-12 is real positive."""
    first = np.argmax(np.abs(vectors) > 1e-12, axis=1)[:, None, :]
    anchor = np.take_along_axis(vectors, first, axis=1)
    return vectors * (anchor.conj() / np.abs(anchor))


@dataclass(frozen=True)
class _RankGroup:
    """Blocks of one size n whose densities keep the same rank r.

    ``index`` holds the block numbers; ``eigs`` (m, r) and ``null_eigs``
    (m, n - r) the kept and dropped eigenvalues, descending; ``vecs``
    (m, n, r) and ``null_vecs`` (m, n, n - r) the matching phase-fixed
    eigenvectors.
    """

    n: int
    rank: int
    index: np.ndarray
    eigs: np.ndarray
    null_eigs: np.ndarray
    vecs: np.ndarray
    null_vecs: np.ndarray


class GnsSpace:
    """Orthonormalized quotient of an algebra by the Gelfand ideal of a state.

    Attributes
    ----------
    shape, state : the underlying object.
    dim : dimension of the quotient, sum_k n_k * rank(D_k).
    cyclic : coordinates of the class of the unit element; unit norm.
    """

    def __init__(self, shape: AlgebraShape, state: NormalState, tol: float = SUPPORT_RTOL):
        if shape != state.shape:
            raise ShapeError(f"shape {shape} does not match state shape {state.shape}")
        self.shape = shape
        self.state = state
        self.tol = tol

        cutoff = tol * state.spectrum.max_eig
        self._groups: list[_RankGroup] = []
        for s in state.spectrum.stacks:
            w = s.eigvals[:, ::-1]
            v = _phase_fix(s.eigvecs[:, :, ::-1])
            ranks = np.sum(w > cutoff, axis=1)  # w descends, so kept ones lead
            for r in np.unique(ranks).tolist():
                sel = np.flatnonzero(ranks == r)
                self._groups.append(
                    _RankGroup(
                        s.n,
                        r,
                        s.index[sel],
                        np.ascontiguousarray(w[sel, :r]),
                        np.ascontiguousarray(w[sel, r:]),
                        np.ascontiguousarray(v[sel, :, :r]),
                        np.ascontiguousarray(v[sel, :, r:]),
                    )
                )
        # block k is self._groups[g].index[j] for (g, j) = self._where[k]
        self._where: list[tuple[int, int]] = [None] * shape.num_blocks
        for g, grp in enumerate(self._groups):
            for j, k in enumerate(grp.index.tolist()):
                self._where[k] = (g, j)
        #: per-kind block forms of each group, filled by covariance.block_form
        self._forms: dict = {}

        # Raw layout: group by group, entries (block j, row i, kept rank r)
        # with r fastest.  Global coordinate order: descending eigenvalue,
        # then block, row, eigenvalue rank; ``_perm[q]`` is the raw position
        # of coordinate q.
        eigs, blocks_idx, rows_idx, ranks_idx = [], [], [], []
        for grp in self._groups:
            j, i, r = np.indices((grp.index.size, grp.n, grp.rank)).reshape(3, -1)
            eigs.append(grp.eigs[j, r])
            blocks_idx.append(grp.index[j])
            rows_idx.append(i)
            ranks_idx.append(r)
        eigs = np.concatenate(eigs)
        order_keys = (
            np.concatenate(ranks_idx),
            np.concatenate(rows_idx),
            np.concatenate(blocks_idx),
            -eigs,
        )
        self._perm = np.lexsort(order_keys)
        self.dim = int(eigs.size)
        self._sorted_eigs = eigs[self._perm]
        # [1] in closed form: embed's (1 @ v) * sqrt(w) without building the unit
        self.cyclic = np.concatenate(
            [(g.vecs * np.sqrt(g.eigs)[:, None, :]).ravel() for g in self._groups]
        )[self._perm]

    @property
    def base(self) -> tuple[AlgebraShape, NormalState]:
        return (self.shape, self.state)

    @property
    def gram_eigenvalues(self) -> np.ndarray:
        """Kept Gram eigenvalues in coordinate order (descending)."""
        return self._sorted_eigs.copy()

    @cached_property
    def iso_matrix(self) -> np.ndarray:
        """dim x element_dim matrix sending element coordinates to GNS coordinates."""
        offs = np.asarray(self.shape.block_offsets()[:-1])
        raw = np.zeros((self.dim, self.shape.element_dim), dtype=complex)
        start = 0
        for grp in self._groups:
            m, n, r = grp.index.size, grp.n, grp.rank
            # raw row (j, i, q) holds sqrt(w_q) * v[:, q] at row i of block j
            rows = start + np.arange(m * n * r).reshape(m, n, r, 1)
            cols = (
                offs[grp.index][:, None, None, None]
                + n * np.arange(n)[None, :, None, None]
                + np.arange(n)[None, None, None, :]
            )
            vals = np.sqrt(grp.eigs)[:, None, :] * grp.vecs
            raw[rows, cols] = vals.transpose(0, 2, 1)[:, None, :, :]
            start += m * n * r
        return raw[self._perm]

    @cached_property
    def rep_elements(self) -> list[AlgebraElement]:
        """Elements whose classes are the orthonormal coordinate basis."""
        raw = []
        for grp in self._groups:
            rows = grp.vecs.conj() / np.sqrt(grp.eigs)[:, None, :]
            for j, k in enumerate(grp.index.tolist()):
                for i in range(grp.n):
                    for r in range(grp.rank):
                        mats = [np.zeros((m, m), dtype=complex) for m in self.shape.blocks]
                        mats[k][i, :] = rows[j, :, r]
                        raw.append(_wrap(self.shape, mats))
        return [raw[p] for p in self._perm]

    def null_elements(self) -> list[AlgebraElement]:
        """Basis of the numerically identified Gelfand ideal (unit HS norm)."""
        out = []
        for k, n in enumerate(self.shape.blocks):
            g, j = self._where[k]
            nulls = self._groups[g].null_vecs[j]
            for r in range(nulls.shape[1]):
                for i in range(n):
                    mats = [np.zeros((m, m), dtype=complex) for m in self.shape.blocks]
                    mats[k][i, :] = nulls[:, r].conj()
                    out.append(_wrap(self.shape, mats))
        return out


def build_gns(shape: AlgebraShape, state: NormalState, tol: float = SUPPORT_RTOL) -> GnsSpace:
    """GNS space of (shape, state) with relative quotient cutoff ``tol``."""
    return GnsSpace(shape, state, tol)


def embed(space: GnsSpace, a: AlgebraElement) -> np.ndarray:
    """Coordinates of the class [a] in the orthonormal GNS basis."""
    if a.shape != space.shape:
        raise ShapeError(f"element shape {a.shape} != space shape {space.shape}")
    raw = [
        ((_stack_blocks(a.blocks, g.index) @ g.vecs) * np.sqrt(g.eigs)[:, None, :]).ravel()
        for g in space._groups
    ]
    return np.concatenate(raw)[space._perm]


def inner(space: GnsSpace, a: AlgebraElement, b: AlgebraElement) -> complex:
    """The pre-inner product <a|b> = rho(a^dag b)."""
    return evaluate(space.state, multiply(adjoint(a), b))


class GnsContraction:
    """Induced linear map H_sigma -> H_rho in orthonormal coordinates."""

    def __init__(self, source_space: GnsSpace, target_space: GnsSpace, matrix: np.ndarray):
        self.source_space = source_space
        self.target_space = target_space
        self.matrix = matrix

    @property
    def operator_norm(self) -> float:
        if self.matrix.size == 0:
            return 0.0
        return float(np.linalg.svd(self.matrix, compute_uv=False)[0])


def induced_contraction(
    morphism: NcpMorphism,
    space_sigma: GnsSpace,
    space_rho: GnsSpace,
    tol: float = WELL_DEFINED_TOL,
) -> GnsContraction:
    """The map [b] -> [phi(b)] for a verified morphism (A, rho) -> (B, sigma).

    ``space_sigma`` belongs to the morphism target (B, sigma) and is the
    domain of the contraction; ``space_rho`` belongs to the source (A, rho).
    Well-definedness on the quotient is checked: basis elements of the
    sigma-null space must land in the rho-null space within ``tol``.
    """
    shape_a, rho = morphism.source
    shape_b, sigma = morphism.target
    if space_sigma.shape != shape_b or space_rho.shape != shape_a:
        raise ShapeError("GNS spaces do not match the morphism objects")
    if not all(
        np.array_equal(x, y)
        for x, y in zip(space_sigma.state.densities, sigma.densities)
    ) or not all(
        np.array_equal(x, y)
        for x, y in zip(space_rho.state.densities, rho.densities)
    ):
        raise ShapeError("GNS spaces were built for different states")
    for x in space_sigma.null_elements():
        leak = float(np.linalg.norm(embed(space_rho, apply(morphism.cpu, x))))
        if leak > tol:
            raise GnsQuotientError(
                f"null element maps outside the target null space (norm {leak:.3e}); "
                "re-run with a tighter support tolerance"
            )
    cols = [
        embed(space_rho, apply(morphism.cpu, rep))
        for rep in space_sigma.rep_elements
    ]
    matrix = (
        np.column_stack(cols)
        if cols
        else np.zeros((space_rho.dim, 0), dtype=complex)
    )
    return GnsContraction(space_sigma, space_rho, matrix)


def check_functor_laws(chains, tol: float = 1e-9) -> dict:
    """Verify identity and contravariant composition on morphism chains.

    ``chains`` is an iterable of lists of composable morphisms
    [F1: o1 -> o2, F2: o2 -> o3, ...].  For every adjacent pair and for each
    full chain the induced map of the composite is compared against the
    product of the induced maps in reversed order; identities are checked at
    every object.  Returns a report dict with the worst deviations.
    """
    max_id_dev = 0.0
    max_comp_dev = 0.0
    n_chains = 0
    for chain in chains:
        n_chains += 1
        objs = [chain[0].source] + [m.target for m in chain]
        spaces = [build_gns(o[0], o[1]) for o in objs]
        for obj, sp in zip(objs, spaces):
            ident = induced_contraction(identity_morphism(obj), sp, sp)
            max_id_dev = max(
                max_id_dev,
                float(np.max(np.abs(ident.matrix - np.eye(sp.dim)))) if sp.dim else 0.0,
            )
        mats = [
            induced_contraction(m, spaces[i + 1], spaces[i]).matrix
            for i, m in enumerate(chain)
        ]
        # adjacent pairs
        for i in range(len(chain) - 1):
            comp = compose(chain[i + 1], chain[i])
            direct = induced_contraction(comp, spaces[i + 2], spaces[i]).matrix
            max_comp_dev = max(
                max_comp_dev, float(np.max(np.abs(direct - mats[i] @ mats[i + 1])))
            )
        # full chain
        if len(chain) > 1:
            total = chain[0]
            for m in chain[1:]:
                total = compose(m, total)
            direct = induced_contraction(total, spaces[-1], spaces[0]).matrix
            prod = mats[0]
            for m in mats[1:]:
                prod = prod @ m
            max_comp_dev = max(max_comp_dev, float(np.max(np.abs(direct - prod))))
    return {
        "n_chains": n_chains,
        "max_identity_deviation": max_id_dev,
        "max_composition_deviation": max_comp_dev,
        "tol": tol,
        "passed": max_id_dev <= tol and max_comp_dev <= tol,
    }
