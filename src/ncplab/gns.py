"""GNS spaces for (algebra, state) pairs and the contractions induced by
state-preserving CPU maps.

Construction
------------
For a state rho with density blocks D_k, the pre-inner product
<x|y> = rho(x^dag y) has, in the matrix-unit coordinates of this package, the
exact block form ``G = (+)_k I_{n_k} (x) conj(D_k)``.  Its null space is the
Gelfand ideal, so the quotient is obtained from the eigendecomposition of each
D_k by dropping the eigenvalues at or below ``tol`` times their block's
largest (:func:`~ncplab.states._in_support`).  That decomposition is
the one cached on the state (:class:`~ncplab.states.Spectrum`), so building a
space decomposes nothing: the cutoff and the phase fix act on the per-size
stacks, which are then split by kept rank into rectangular groups that
:func:`embed` and the covariance kernels process one batched product at a
time.  Coordinates are rescaled to be orthonormal, ordered by descending Gram
eigenvalue (ties broken by block and position), and eigenvector phases are
fixed so the first nonzero component is real positive.  The coordinate order
does not depend on how blocks are grouped, and the result is reproducible run
to run.

A space is built in two parts.  The rank groups, ``dim`` and the map from
blocks to groups are built with it, because every verdict reads them.  The
coordinate layout is placed by :class:`GnsSpace` alone, once, on first read:
the place of each entry (block, row, eigenvector) of each group, the GNS
coordinate of a kept one and a place after the ``dim`` coordinates for a
dropped one, with the class of the unit and the sorted Gram eigenvalues.
Every producer of coordinates writes its values straight into those places.
A metric pullback reads only the groups and their forms, so it never places
a layout.

Nothing dense is built between two algebras.  A morphism (A, rho) ->
(B, sigma) carried by phi: B -> A, with coordinate matrix L, induces the
contraction H_sigma -> H_rho, [b] -> [phi(b)]: the matrix E_rho L R_sigma,
where the embedding E multiplies row i of each block by U sqrt(w) (what
:func:`embed` does to one element; U the kept eigenvectors, w their
eigenvalues) and the representatives R = E^dag / w by conj(U) / sqrt(w).
The map is well defined when E_rho L N_sigma vanishes, N_sigma the
unit-HS-norm basis of the Gelfand ideal (conj of a dropped eigenvector in one
row of a block).  Both come from two blockwise transforms of L, O(n^5) per
M_n block: sigma's over [R_sigma N_sigma] at once, whose first dim_sigma
places are the representatives and the rest the null basis, then rho's E.
A unital state-preserving map sends [1] to [1], and so does its adjoint,
so the cyclic vector is a top singular vector of a contraction of norm 1:
its operator norm is certified by one Cholesky factorization
(:func:`_top_gram_eig`), with no eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraElement, AlgebraShape, InputError, ShapeError, _pd_with_shift, _phase_fix
from .channels import NcpMorphism, compose, identity_morphism
from .channels import apply  # noqa: F401  (perfbench's binding test reads ncplab.gns.apply)
from .states import NormalState, SUPPORT_RTOL, _in_support

WELL_DEFINED_TOL = 1e-8


class GnsQuotientError(InputError):
    """A sigma-null element maps outside the rho-null space; the message
    names the worst one (block, row, dropped eigenvector) and its norm.  A
    CPU carrier with rho o phi = sigma cannot do this (Kadison-Schwarz), so
    the carrier does not preserve the states."""


@dataclass(frozen=True)
class _RankGroup:
    """Blocks of one size n whose densities keep the same rank r.

    ``index`` holds the block numbers and ``pos`` the coordinates of their
    entries (m, n, n); ``d`` (m, n) the eigenvalues, descending, and ``u``
    (m, n, n) the matching phase-fixed eigenvectors, the first ``rank`` of
    each kept.
    """

    n: int
    rank: int
    index: np.ndarray
    pos: np.ndarray
    d: np.ndarray
    u: np.ndarray


class _Layout(NamedTuple):
    """Where a space's coordinates go.  ``at[g]`` (m, n, n) is the place of
    entry (block j, row i, eigenvector c) of rank group g: its GNS coordinate
    when c is kept, else a place after the ``dim`` coordinates, the dropped
    entries numbered group by group.  ``cyclic`` is the class of the unit and
    ``eigs`` the kept Gram eigenvalues, both in coordinate order."""

    at: tuple[np.ndarray, ...]
    cyclic: np.ndarray
    eigs: np.ndarray


class GnsSpace:
    """Orthonormalized quotient of an algebra by the Gelfand ideal of a state.

    Building one keeps what every verdict reads: the rank groups and the map
    from blocks to them.  The coordinate layout (:class:`_Layout`) is placed
    by the space itself, once, on first read, so a metric pullback, which
    reads only the groups and their forms, never places it.

    Attributes
    ----------
    shape, state : the underlying object.
    dim : dimension of the quotient, sum_k n_k * rank(D_k).
    cyclic : coordinates of the class of the unit element; unit norm.
    """

    def __init__(self, shape: AlgebraShape, state: NormalState, tol: float = SUPPORT_RTOL):
        if shape != state.shape:
            raise ShapeError(f"shape {shape} does not match state shape {state.shape}")
        # a relative cutoff >= 1 drops every eigenvalue, the unit's class (norm 1) included
        if not 0.0 <= tol < 1.0:
            raise InputError(f"support tolerance must be in [0, 1), got {tol}")
        self.shape = shape
        self.state = state
        self._groups: list[_RankGroup] = []
        # block k is self._groups[g].index[j] for g, j = _group_of[k], _slot_of[k]
        group_of = np.empty(shape.num_blocks, dtype=int)
        slot_of = np.empty(shape.num_blocks, dtype=int)
        self.dim = 0
        for s in state.spectrum.stacks:
            w = s.eigvals[:, ::-1]
            v = _phase_fix(s.eigvecs[:, :, ::-1])
            ranks = np.sum(_in_support(w, tol), axis=1)  # w descends, so kept ones lead
            for r in np.flatnonzero(np.bincount(ranks)).tolist():  # the ranks present, ascending
                sel = np.flatnonzero(ranks == r)
                index = s.index[sel]
                group_of[index], slot_of[index] = len(self._groups), np.arange(sel.size)
                self._groups.append(_RankGroup(s.n, r, index, s.pos[sel], w[sel], v[sel]))
                self.dim += sel.size * s.n * r
        # Python ints: block_form reads one pair per block
        self._group_of, self._slot_of = group_of.tolist(), slot_of.tolist()
        #: per-kind block forms of each group, filled by covariance.block_form
        self._forms: dict = {}

    @cached_property
    def _layout(self) -> _Layout:
        """Coordinate order: descending eigenvalue, then block, row, eigenvalue
        rank.  One lexsort orders the kept entries, listed group by group
        with (block j, row i, kept c) c fastest; its inverse places them."""
        keys = []  # (rank, row, block, eigenvalue) of each kept entry
        for g in self._groups:
            j, i, c = np.indices((g.index.size, g.n, g.rank)).reshape(3, -1)
            keys.append((c, i, g.index[j], g.d[j, c]))
        *order_keys, eigs = map(np.concatenate, zip(*keys))
        order = np.lexsort((*order_keys, -eigs))
        place = np.empty_like(order)
        place[order] = np.arange(self.dim)
        ats = []
        # [1] in closed form: embed's (1 @ v) * sqrt(w) without building the unit
        cyclic = np.empty(self.dim, dtype=complex)
        kept, dropped = 0, self.dim
        for g in self._groups:
            m, n, r = g.index.size, g.n, g.rank
            at = np.empty((m, n, n), dtype=place.dtype)
            at[:, :, :r] = place[kept : kept + m * n * r].reshape(m, n, r)
            at[:, :, r:] = np.arange(dropped, dropped + m * n * (n - r)).reshape(m, n, n - r)
            kept, dropped = kept + m * n * r, dropped + m * n * (n - r)
            ats.append(at)
            cyclic[at[:, :, :r]] = _iso(g)
        return _Layout(tuple(ats), cyclic, eigs[order])

    @property
    def cyclic(self) -> np.ndarray:
        return self._layout.cyclic

    @property
    def gram_eigenvalues(self) -> np.ndarray:
        """Kept Gram eigenvalues in coordinate order (descending)."""
        return self._layout.eigs.copy()


def build_gns(shape: AlgebraShape, state: NormalState, tol: float = SUPPORT_RTOL) -> GnsSpace:
    """GNS space of (shape, state) with quotient cutoff ``tol`` relative to
    each block's largest eigenvalue, 0 <= tol < 1 (else :class:`InputError`)."""
    return GnsSpace(shape, state, tol)


def _iso(g: _RankGroup) -> np.ndarray:
    return g.u[:, :, : g.rank] * np.sqrt(g.d[:, None, : g.rank])


def _rep(g: _RankGroup) -> np.ndarray:
    return g.u[:, :, : g.rank].conj() / np.sqrt(g.d[:, None, : g.rank])


def _rep_null(g: _RankGroup) -> np.ndarray:
    """``_rep`` followed by the conjugated dropped eigenvectors, unscaled."""
    return np.concatenate([_rep(g), g.u[:, :, g.rank :].conj()], axis=2)


def _transform(space: GnsSpace, x: np.ndarray, mats) -> np.ndarray:
    """Rows sum_c x[pos[j, i, c]] * mats(g)[j, c, q], for the element-coordinate
    rows of ``x`` (element_dim, s), each written at ``at[j, i, q]``: E x for
    ``_iso`` and R^T x for ``_rep`` (dim rows), [R N]^T x for ``_rep_null``
    (element_dim rows, the null basis after the dim coordinates)."""
    # the products first: the output, allocated after them, then sits above
    # them on the heap, and freeing them does not trim it (no page faults)
    done = []
    for g, at in zip(space._groups, space._layout.at):
        k = mats(g)
        done.append((at[:, :, : k.shape[2]], k.swapaxes(1, 2)[:, None] @ x[g.pos]))
    out = np.empty((sum(at.size for at, _ in done), x.shape[1]), dtype=complex)
    for at, t in done:
        out[at] = t
    return out


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
    out = np.empty(space.dim, dtype=complex)
    for g, at in zip(space._groups, space._layout.at):
        r = g.rank
        out[at[:, :, :r]] = (a.vec[g.pos] @ g.u[:, :, :r]) * np.sqrt(g.d[:, None, :r])
    return out


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
) -> GnsContraction:
    """The map [b] -> [phi(b)] for a verified morphism (A, rho) -> (B, sigma).

    ``space_sigma`` belongs to the morphism target (B, sigma) and is the
    domain of the contraction; ``space_rho`` belongs to the source (A, rho).
    Well-definedness on the quotient is checked: basis elements of the
    sigma-null space must land in the rho-null space within ``WELL_DEFINED_TOL``.
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
    # E_rho L [R N] as E_rho ([R N]^T L^T)^T: sigma's transform of the columns
    # of L, then rho's of the rows; the columns after dim_sigma are the null basis'
    full = _transform(space_rho, _transform(space_sigma, lt, _rep_null).T, _iso)
    leaks = np.linalg.norm(full[:, space_sigma.dim :], axis=0)
    worst = float(leaks.max(initial=0.0))
    if not worst <= WELL_DEFINED_TOL:
        place = space_sigma.dim + int(np.argmax(leaks))
        groups = zip(space_sigma._groups, space_sigma._layout.at)
        g, at = next((g, at) for g, at in groups if place in at)
        j, i, c = np.argwhere(at == place)[0]
        raise GnsQuotientError(
            f"the sigma-null element of block {g.index[j]}, row {i}, dropped eigenvector {c} (eigenvalue "
            f"{g.d[j, c]:.3e}) maps outside the rho-null space with norm {worst:.3e} > {WELL_DEFINED_TOL:.0e}; "
            "a carrier that preserves the states cannot do this, so check rho o phi = sigma"
        )
    return GnsContraction(space_sigma, space_rho, np.ascontiguousarray(full[:, : space_sigma.dim]))


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
