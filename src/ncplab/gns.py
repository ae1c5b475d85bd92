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

The coordinate matrices are rebuilt from the groups by one index scatter on
each access, never cached: the embedding E (``iso_matrix``), representatives
R = E^dag / w (``rep_matrix``, w the Gram eigenvalues) and a unit-HS-norm
basis N of the Gelfand ideal (``null_matrix``).  A morphism (A, rho) ->
(B, sigma) carried by phi: B -> A, with coordinate matrix L, induces the
contraction H_sigma -> H_rho, [b] -> [phi(b)]: the matrix E_rho L R_sigma,
well defined when the columns of E_rho L N_sigma vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, AlgebraShape, InputError, ShapeError, adjoint, multiply
from .channels import NcpMorphism, _matmul, compose, identity_morphism
from .channels import apply  # noqa: F401  (perfbench's binding test reads ncplab.gns.apply)
from .states import NormalState, SUPPORT_RTOL, evaluate

WELL_DEFINED_TOL = 1e-8


class GnsQuotientError(InputError):
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

    ``index`` holds the block numbers and ``pos`` the coordinates of their
    entries (m, n, n); ``eigs`` (m, r) and ``null_eigs``
    (m, n - r) the kept and dropped eigenvalues, descending; ``vecs``
    (m, n, r) and ``null_vecs`` (m, n, n - r) the matching phase-fixed
    eigenvectors.
    """

    n: int
    rank: int
    index: np.ndarray
    pos: np.ndarray
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
                        s.pos[sel],
                        np.ascontiguousarray(w[sel, :r]),
                        np.ascontiguousarray(w[sel, r:]),
                        np.ascontiguousarray(v[sel, :, :r]),
                        np.ascontiguousarray(v[sel, :, r:]),
                    )
                )
        # block k is self._groups[g].index[j] for (g, j) = self._where[k]
        where = np.empty((shape.num_blocks, 2), dtype=int)
        for g, grp in enumerate(self._groups):
            where[grp.index, 0] = g
            where[grp.index, 1] = np.arange(grp.index.size)
        self._where = where.tolist()  # Python ints: block_form reads one per block
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

    def _scatter(self, values) -> np.ndarray:
        """Rows, group by group, for each (block j, row i, column q) of the
        (m, n, c) array ``values(group)``: its column q at row i of block j,
        zero elsewhere, in element coordinates."""
        vals = [values(g) for g in self._groups]
        out = np.zeros((sum(v.size for v in vals), self.shape.element_dim), dtype=complex)
        start = 0
        for grp, v in zip(self._groups, vals):
            m, n, c = v.shape
            rows = start + np.arange(m * n * c).reshape(m, n, c, 1)
            out[rows, grp.pos[:, :, None, :]] = v.transpose(0, 2, 1)[:, None, :, :]
            start += m * n * c
        return out

    @property
    def iso_matrix(self) -> np.ndarray:
        """dim x element_dim matrix sending element coordinates to GNS coordinates."""
        return self._scatter(lambda g: np.sqrt(g.eigs)[:, None, :] * g.vecs)[self._perm]

    @property
    def rep_matrix(self) -> np.ndarray:
        """element_dim x dim: column q holds the coordinates of an element
        whose class is the q-th orthonormal basis vector."""
        return self._scatter(lambda g: g.vecs.conj() / np.sqrt(g.eigs)[:, None, :])[self._perm].T

    @property
    def null_matrix(self) -> np.ndarray:
        """element_dim x (element_dim - dim): coordinates of a basis of the
        numerically identified Gelfand ideal, one unit-HS-norm column each."""
        return self._scatter(lambda g: g.null_vecs.conj()).T


def build_gns(shape: AlgebraShape, state: NormalState, tol: float = SUPPORT_RTOL) -> GnsSpace:
    """GNS space of (shape, state) with relative quotient cutoff ``tol``."""
    return GnsSpace(shape, state, tol)


def embed(space: GnsSpace, a: AlgebraElement) -> np.ndarray:
    """Coordinates of the class [a] in the orthonormal GNS basis."""
    if a.shape != space.shape:
        raise ShapeError(f"element shape {a.shape} != space shape {space.shape}")
    raw = [((a.vec[g.pos] @ g.vecs) * np.sqrt(g.eigs)[:, None, :]).ravel() for g in space._groups]
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
    if not np.array_equal(space_sigma.state.vec, sigma.vec) or not np.array_equal(
        space_rho.state.vec, rho.vec
    ):
        raise ShapeError("GNS spaces were built for different states")
    iso = space_rho.iso_matrix
    action = morphism.cpu.linear_action
    leak = np.linalg.norm(iso @ _matmul(action, space_sigma.null_matrix), axis=0)
    worst = float(leak.max(initial=0.0))
    if not worst <= tol:
        raise GnsQuotientError(
            f"null element maps outside the target null space (largest norm {worst:.3e}); "
            "re-run with a tighter support tolerance"
        )
    matrix = iso @ _matmul(action, space_sigma.rep_matrix)
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
