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

Nothing dense is built between two algebras.  A morphism (A, rho) ->
(B, sigma) carried by phi: B -> A, with coordinate matrix L, induces the
contraction H_sigma -> H_rho, [b] -> [phi(b)]: the matrix E_rho L R_sigma,
where the embedding E multiplies row i of each block by U sqrt(w) (what
:func:`embed` does to one element; U the kept eigenvectors, w their
eigenvalues) and the representatives R = E^dag / w by conj(U) / sqrt(w).
Both are blockwise transforms of the rows of L gathered by each group's
positions, O(n^5) per M_n block.  The map is well defined when E_rho L
N_sigma vanishes, N_sigma the unit-HS-norm basis of the Gelfand ideal
(conj of a dropped eigenvector in one row of a block), transformed alike.
A unital state-preserving map sends [1] to [1], and so does its adjoint,
so the cyclic vector is a top singular vector of a contraction of norm 1:
its operator norm is certified by one Cholesky factorization
(:func:`_top_gram_eig`), with no eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .algebra import AlgebraElement, AlgebraShape, InputError, ShapeError, _pd_with_shift, _phase_fix
from .channels import NcpMorphism, compose, identity_morphism
from .channels import apply  # noqa: F401  (perfbench's binding test reads ncplab.gns.apply)
from .states import NormalState, SUPPORT_RTOL

WELL_DEFINED_TOL = 1e-8


class GnsQuotientError(InputError):
    """An induced map does not respect the numerically identified quotient.

    Usually a sign that a density eigenvalue straddles the support cutoff;
    re-run with a tighter tolerance.
    """


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
                parts = (w[sel, :r], w[sel, r:], v[sel, :, :r], v[sel, :, r:])
                self._groups.append(
                    _RankGroup(s.n, r, s.index[sel], s.pos[sel], *map(np.ascontiguousarray, parts))
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
        keys = []  # (rank, row, block, eigenvalue) of each raw entry, group by group
        for grp in self._groups:
            j, i, r = np.indices((grp.index.size, grp.n, grp.rank)).reshape(3, -1)
            keys.append((r, i, grp.index[j], grp.eigs[j, r]))
        *order_keys, eigs = map(np.concatenate, zip(*keys))
        self._perm = np.lexsort((*order_keys, -eigs))
        self.dim = int(eigs.size)
        self._sorted_eigs = eigs[self._perm]
        # [1] in closed form: embed's (1 @ v) * sqrt(w) without building the unit
        self.cyclic = np.concatenate([_iso(g).ravel() for g in self._groups])[self._perm]

    @property
    def base(self) -> tuple[AlgebraShape, NormalState]:
        return (self.shape, self.state)

    @property
    def gram_eigenvalues(self) -> np.ndarray:
        """Kept Gram eigenvalues in coordinate order (descending)."""
        return self._sorted_eigs.copy()


def build_gns(shape: AlgebraShape, state: NormalState, tol: float = SUPPORT_RTOL) -> GnsSpace:
    """GNS space of (shape, state) with relative quotient cutoff ``tol``."""
    return GnsSpace(shape, state, tol)


def _iso(g: _RankGroup) -> np.ndarray:
    return g.vecs * np.sqrt(g.eigs)[:, None, :]


def _rep(g: _RankGroup) -> np.ndarray:
    return g.vecs.conj() / np.sqrt(g.eigs)[:, None, :]


def _transform(space: GnsSpace, x: np.ndarray, mats) -> np.ndarray:
    """Rows (block j, row i, column q), group by group, of
    sum_c x[pos[j, i, c]] * mats(g)[j, c, q] for the element-coordinate rows
    of ``x`` (element_dim, s), in raw order: E x for ``_iso``, R^T x for ``_rep``."""
    out = []
    for g in space._groups:
        t = mats(g).swapaxes(1, 2)[:, None] @ x[g.pos]  # (m, n, c, s)
        out.append(t.reshape(t.shape[0] * t.shape[1] * t.shape[2], x.shape[1]))
    return np.concatenate(out)


def _top_gram_eig(h: np.ndarray, x: np.ndarray, vector: bool = False):
    """(largest eigenvalue, a vector attaining it) of a Gram matrix
    h = m^dag m, the squared operator norm of m, given a candidate top
    eigenvector x.

    The Rayleigh quotient r = x^dag h x / x^dag x is at most the top.  When
    r (1 + delta) - h, delta = 8 n eps, has a Cholesky factor, the top is at
    most r (1 + delta): r is returned, with x.  Otherwise one Hermitian
    eigensolve decides; its top eigenvector comes with it when ``vector`` is
    set (the vector is None otherwise).  ``h`` is negated in place for the
    test and restored exactly.
    """
    n = h.shape[0]
    if n == 0:
        return 0.0, x
    r = float(np.vdot(x, h @ x).real / np.vdot(x, x).real) if x.shape == (n,) else 0.0
    np.negative(h, out=h)
    certified = r > 0.0 and _pd_with_shift(h, r * (1.0 + 8 * n * np.finfo(float).eps))
    np.negative(h, out=h)
    if certified:
        return r, x
    if not vector:
        return max(float(np.linalg.eigvalsh(h)[-1]), 0.0), None
    vals, vecs = np.linalg.eigh(h)
    return max(float(vals[-1]), 0.0), vecs[:, -1]


def embed(space: GnsSpace, a: AlgebraElement) -> np.ndarray:
    """Coordinates of the class [a] in the orthonormal GNS basis."""
    if a.shape != space.shape:
        raise ShapeError(f"element shape {a.shape} != space shape {space.shape}")
    raw = [((a.vec[g.pos] @ g.vecs) * np.sqrt(g.eigs)[:, None, :]).ravel() for g in space._groups]
    return np.concatenate(raw)[space._perm]


class GnsContraction:
    """Induced linear map H_sigma -> H_rho in orthonormal coordinates."""

    def __init__(self, source_space: GnsSpace, target_space: GnsSpace, matrix: np.ndarray):
        self.source_space = source_space
        self.target_space = target_space
        self.matrix = matrix

    @property
    def operator_norm(self) -> float:
        """Largest singular value of ``matrix``.  A contraction induced by a
        morphism maps the class of the unit to the class of the unit, and so
        does its adjoint, so ``source_space.cyclic`` is a top singular vector
        when the norm is 1; one Cholesky factorization certifies that, and
        any other matrix falls back to the spectrum (:func:`_top_gram_eig`)."""
        m = self.matrix
        return float(np.sqrt(_top_gram_eig(m.conj().T @ m, self.source_space.cyclic)[0]))


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
    action = morphism.cpu.linear_action
    lt = (action if isinstance(action, np.ndarray) else action.toarray()).T
    # E_rho L X as E_rho (X^T L^T)^T: sigma's transform of the columns of L, then rho's of the rows
    null = _transform(space_sigma, lt, lambda g: g.null_vecs.conj())  # N_sigma^T L^T
    leak = np.linalg.norm(_transform(space_rho, null.T, _iso), axis=0)
    worst = float(leak.max(initial=0.0))
    if not worst <= tol:
        raise GnsQuotientError(
            f"null element maps outside the target null space (largest norm {worst:.3e}); "
            "re-run with a tighter support tolerance"
        )
    raw = _transform(space_rho, _transform(space_sigma, lt, _rep).T, _iso)
    matrix = raw[space_rho._perm][:, space_sigma._perm]
    return GnsContraction(space_sigma, space_rho, matrix)


def check_functor_laws(chains, tol: float = 1e-9) -> dict:
    """Verify identity and contravariant composition on morphism chains.

    ``chains`` is an iterable of lists of composable morphisms
    [F1: o1 -> o2, F2: o2 -> o3, ...].  For every adjacent pair and for each
    full chain the induced map of the composite is compared against the
    product of the induced maps in reversed order; identities are checked at
    every object.  Returns a report dict with the worst deviations.
    """
    max_id_dev = max_comp_dev = 0.0
    n_chains = 0
    for chain in chains:
        n_chains += 1
        objs = [chain[0].source] + [m.target for m in chain]
        spaces = [build_gns(o[0], o[1]) for o in objs]
        for obj, sp in zip(objs, spaces):
            ident = induced_contraction(identity_morphism(obj), sp, sp).matrix
            max_id_dev = max(max_id_dev, float(np.max(np.abs(ident - np.eye(sp.dim)))))
        mats = [induced_contraction(m, b, a).matrix for m, b, a in zip(chain, spaces[1:], spaces)]
        spans = [(i, i + 2) for i in range(len(chain) - 1)]  # adjacent pairs
        spans += [(0, len(chain))] if len(chain) > 1 else []  # the full chain
        for i, k in spans:
            comp = reduce(lambda total, m: compose(m, total), chain[i:k])
            direct = induced_contraction(comp, spaces[k], spaces[i]).matrix
            prod = reduce(np.matmul, mats[i:k])
            max_comp_dev = max(max_comp_dev, float(np.max(np.abs(direct - prod))))
    return {
        "n_chains": n_chains,
        "max_identity_deviation": max_id_dev,
        "max_composition_deviation": max_comp_dev,
        "tol": tol,
        "passed": max_id_dev <= tol and max_comp_dev <= tol,
    }
