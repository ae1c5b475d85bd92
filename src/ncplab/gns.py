"""GNS spaces for (algebra, state) pairs and the contractions induced by
state-preserving CPU maps.

Construction
------------
For a state rho with density blocks D_k, the pre-inner product
<x|y> = rho(x^dag y) has, in the matrix-unit coordinates of this package, the
exact block form ``G = (+)_k I_{n_k} (x) conj(D_k)``.  Its null space is the
Gelfand ideal, so the quotient is obtained from the eigendecomposition of each
D_k by dropping the eigenvalues at or below ``tol`` times their block's
largest (:func:`~ncplab.states._in_support`).  That decomposition is the
state's own: its rank groups (:class:`~ncplab.states.RankGroup`), split by
kept rank and phase-fixed once per state, are rectangular groups that
:func:`embed` and the covariance kernels process one batched product at a
time.  A space at the default cutoff holds them themselves, so building it
decomposes, reverses and phase-fixes nothing; at another cutoff each group
is split again by the rank kept there (:func:`~ncplab.states._split`).
Coordinates are rescaled to be orthonormal, ordered by descending Gram
eigenvalue (ties broken by block and position), and eigenvector phases are
fixed so the first nonzero component is real positive.  The coordinate order
does not depend on how blocks are grouped, and the result is reproducible run
to run.

A space is built in two parts.  The map from blocks to rank groups and
``dim`` are built with it, because every verdict reads them.  The
coordinate layout is placed by :class:`GnsSpace` alone, once, on first read:
the place of each entry (block, row, eigenvector) of each group, the GNS
coordinate of a kept one and a place after the ``dim`` coordinates for a
dropped one.  The class of the unit and the sorted Gram eigenvalues are
formed from the layout only when they are read.  Every producer of
coordinates writes its values straight into those places.  A metric
pullback reads only the groups and their covariance kernels, so it never
places a layout.

Nothing dense is built between two algebras.  A morphism (A, rho) ->
(B, sigma) carried by phi: B -> A, with coordinate matrix L, induces the
contraction H_sigma -> H_rho, [b] -> [phi(b)]: the matrix E_rho L R_sigma,
where the embedding E multiplies row i of each block by U sqrt(w) (what
:func:`embed` does to one element; U the kept eigenvectors, w their
eigenvalues) and the representatives R = E^dag / w by conj(U) / sqrt(w).
The map is well defined when E_rho L N_sigma vanishes, N_sigma the
unit-HS-norm basis of the Gelfand ideal (conj of a dropped eigenvector in one
row of a block).  That check runs when the contraction is built, as the GNS
kind's criterion does first, on sigma's null basis alone: one blockwise
product of L's columns in the blocks with dropped eigenvectors by those
eigenvectors, then rho's transform E; a faithful sigma has no null basis,
so nothing is formed.  The contraction itself is placed on the first read
of :attr:`GnsContraction.matrix`, by two blockwise transforms of L, O(n^5)
per M_n block: sigma's R, then rho's E.  Its operator norm places neither
it nor a coordinate layout: with U each density eigenbasis, the carrier's
images U_rho^dag phi(U_sigma e_bp U_sigma^dag) U_rho (:func:`_images`, off
L or, for a carrier built from Kraus operators, off the family in the
density eigenbases, :func:`_kraus_blocks`), scaled by sqrt(d_q) / sqrt(d_p),
are the contraction in the GNS kind's whitened coordinates, up to unitaries
that its Gram does not see.  The operator norm reads them, and so does
the GNS kind's monotonicity verdict but on faithful block-scalar states;
every other criterion scales and folds the images.  The unit's class is a
top singular vector of a contraction of norm 1, and its Rayleigh quotient
r is the squared norm within a margin of 8 d eps where a certificate says
so.  A carrier built from Kraus operators is CP, so the Kadison-Schwarz
inequality bounds the squared norm by two residuals as computed,
|phi(1) - 1| and rho o phi - sigma on sigma's support with sigma's own
rounding added (:func:`_kadison_schwarz`), and nothing is factorized.
For any other carrier, or where that bound is above r (1 + 8 d eps), as
on a sigma too ill-conditioned for its rounding to fit the margin, one
Cholesky factorization of the images' Gram, formed from real products,
decides (:func:`_gram`, :func:`_top_gram_eig`).
The images read the Kraus family where a cost rule measured against the
action says it is faster (:func:`_kraus_criterion_pays`).
"""

from __future__ import annotations

from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraElement, AlgebraShape, InputError, ShapeError, _check_tol, _pd_with_shift
from .channels import CpuMap, NcpMorphism, _KrausMap, _predual_vec, _unital_deviation, compose, identity_morphism
from .channels import apply  # noqa: F401  (perfbench's binding test reads ncplab.gns.apply)
from .states import SUPPORT_RTOL, NormalState, RankGroup, _split

WELL_DEFINED_TOL = 1e-8


class GnsQuotientError(InputError):
    """A sigma-null element maps outside the rho-null space; the message
    names the worst one (block, row, dropped eigenvector) and its norm.  A
    CPU carrier with rho o phi = sigma cannot do this (Kadison-Schwarz), so
    the carrier does not preserve the states."""


class _Layout(NamedTuple):
    """Where a space's coordinates go.  ``at[g]`` (m, n, n) is the place of
    entry (block j, row i, eigenvector c) of rank group g: its GNS coordinate
    when c is kept, else a place after the ``dim`` coordinates, the dropped
    entries numbered group by group.  ``eigs`` are the kept Gram eigenvalues
    listed group by group and ``order`` the coordinate order of that list,
    so that ``eigs[order]`` are the eigenvalues in coordinate order."""

    at: tuple[np.ndarray, ...]
    eigs: np.ndarray
    order: np.ndarray


class GnsSpace:
    """Orthonormalized quotient of an algebra by the Gelfand ideal of a state.

    Building one keeps what every verdict reads: the state's rank groups
    (split again at a cutoff other than the default) and the map from
    blocks to them.  The coordinate layout (:class:`_Layout`) is placed
    by the space itself, once, on first read, so a metric pullback, which
    reads only the groups and their covariance kernels, never places it.

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
        _check_tol(tol, below=1.0, says="support tolerance must be in [0, 1)")
        self.shape = shape
        self.state = state
        # the state's own groups at its cutoff, else each split by the rank kept at tol
        self._groups = state.groups if tol == SUPPORT_RTOL else tuple(h for g in state.groups for h in _split(g, tol))
        # block k is self._groups[g].index[j] for g, j = _group_of[k], _slot_of[k]
        group_of = np.empty(shape.num_blocks, dtype=int)
        slot_of = np.empty(shape.num_blocks, dtype=int)
        for t, g in enumerate(self._groups):
            group_of[g.index], slot_of[g.index] = t, np.arange(g.index.size)
        self.dim = sum(g.index.size * g.n * g.rank for g in self._groups)
        # Python ints: block_form reads one pair per block
        self._group_of, self._slot_of = group_of.tolist(), slot_of.tolist()
        #: per-kind covariance kernels of each group, filled by covariance.block_form
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
        kept, dropped = 0, self.dim
        for g in self._groups:
            m, n, r = g.index.size, g.n, g.rank
            at = np.empty((m, n, n), dtype=place.dtype)
            at[:, :, :r] = place[kept : kept + m * n * r].reshape(m, n, r)
            at[:, :, r:] = np.arange(dropped, dropped + m * n * (n - r)).reshape(m, n, n - r)
            kept, dropped = kept + m * n * r, dropped + m * n * (n - r)
            ats.append(at)
        return _Layout(tuple(ats), eigs, order)

    @cached_property
    def cyclic(self) -> np.ndarray:
        """The class of the unit in coordinates, placed on first read:
        :func:`embed`'s (1 @ v) * sqrt(w) without building the unit."""
        out = np.empty(self.dim, dtype=complex)
        for g, at in zip(self._groups, self._layout.at):
            out[at[:, :, : g.rank]] = _iso(g)
        return out

    @property
    def gram_eigenvalues(self) -> np.ndarray:
        """Kept Gram eigenvalues in coordinate order (descending)."""
        return self._layout.eigs[self._layout.order]


def build_gns(shape: AlgebraShape, state: NormalState, tol: float = SUPPORT_RTOL) -> GnsSpace:
    """GNS space of (shape, state) with quotient cutoff ``tol`` relative to
    each block's largest eigenvalue, 0 <= tol < 1 (else :class:`InputError`)."""
    return GnsSpace(shape, state, tol)


def _iso(g: RankGroup) -> np.ndarray:
    return g.u[:, :, : g.rank] * np.sqrt(g.d[:, None, : g.rank])


def _rep(g: RankGroup) -> np.ndarray:
    return g.u[:, :, : g.rank].conj() / np.sqrt(g.d[:, None, : g.rank])


def _transform(space: GnsSpace, x: np.ndarray, mats) -> np.ndarray:
    """Rows sum_c x[pos[j, i, c]] * mats(g)[j, c, q], for the element-coordinate
    rows of ``x`` (element_dim, s), each written at ``at[j, i, q]``: E x for
    ``_iso`` and R^T x for ``_rep``, dim rows."""
    ks = [mats(g) for g in space._groups]  # (blocks, n, c): one output row per entry
    sizes = [k.size for k in ks]
    # the largest group's product before the output, every other one after
    # it, each written and freed at once: the output and the largest product
    # are alive together, and beside the output at most one gather and one
    # product otherwise
    largest = sizes.index(max(sizes))
    out = None
    for t in [largest] + [t for t in range(len(ks)) if t != largest]:
        prod = ks[t].swapaxes(1, 2)[:, None] @ x[space._groups[t].pos]
        if out is None:
            out = np.empty((sum(sizes), x.shape[1]), dtype=complex)
        out[space._layout.at[t][:, :, : ks[t].shape[2]]] = prod
        del prod
    return out


def _gram(m: np.ndarray) -> np.ndarray:
    """m^dag m of an (r, n) matrix m = a + ib, from real products: the real
    part is s^T s for the stacked copy s = [a; b], one symmetric rank-k
    update (numpy's ``dsyrk``), and the imaginary part a^T b - (a^T b)^T,
    both read off the contiguous halves of s.  That is 2 n^2 r real
    multiply-adds, half of a complex product's, and the result is exactly
    Hermitian.  s is freed before the result is allocated, and the real
    part before the imaginary one is written, so the peak above m is
    32 r n + 16 n^2 bytes for r >= n, that of ``m.conj().T @ m`` (the
    conjugate copy and the product), and 16 r n + 32 n^2 for r < n."""
    r = m.shape[0]
    s = np.empty((2 * r, m.shape[1]))
    s[:r], s[r:] = m.real, m.imag
    re, ab = s.T @ s, s[:r].T @ s[r:]
    del s
    h = np.empty(re.shape, dtype=complex)
    h.real = re
    del re
    np.subtract(ab, ab.T, out=h.imag)
    return h


def _top_gram_eig(h: np.ndarray, x: np.ndarray, vector: bool = False, margin: float | None = None):
    """(largest eigenvalue, a vector attaining it) of a Gram matrix
    h = m^dag m (:func:`_gram`), the squared operator norm of m, given a
    candidate top eigenvector x.

    The Rayleigh quotient r = x^dag h x / x^dag x is at most the top.  When
    r (1 + delta) - h, delta = ``margin`` (8 n eps by default), has a
    Cholesky factor, the top is at most r (1 + delta): r is returned, with
    x.  Otherwise one Hermitian eigensolve decides; its top eigenvector
    comes with it when ``vector`` is set (the vector is None otherwise).
    ``h`` (complex Hermitian, or real symmetric) is negated in place for the
    test and restored exactly.  The quotient reads all of h and the
    factorization its lower triangle, the same matrix because :func:`_gram`
    makes h exactly Hermitian.
    """
    n = h.shape[0]
    r = float(np.vdot(x, h @ x).real / np.vdot(x, x).real) if x.shape == (n,) else 0.0
    if margin is None:
        margin = 8 * n * np.finfo(float).eps
    np.negative(h, out=h)
    certified = r > 0.0 and _pd_with_shift(h, r * (1.0 + margin))
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
    """Induced linear map H_sigma -> H_rho in orthonormal coordinates;
    ``carrier`` is the CPU map that induced it, if any.

    A ``matrix`` given here must be (target_space.dim, source_space.dim)
    (else :class:`ShapeError`) and finite (else :class:`InputError`).  A
    contraction built by :func:`induced_contraction` is given none: its
    matrix is placed from the carrier on first read and kept."""

    def __init__(
        self, source_space: GnsSpace, target_space: GnsSpace, matrix: np.ndarray, carrier: CpuMap | None = None
    ):
        matrix = np.asarray(matrix)
        if matrix.dtype.kind not in "biufc":
            raise InputError(f"contraction matrix has entries that are not finite numbers (dtype {matrix.dtype})")
        if matrix.shape != (target_space.dim, source_space.dim):
            raise ShapeError(
                f"contraction matrix has shape {matrix.shape}, expected "
                f"(target dim, source dim) = ({target_space.dim}, {source_space.dim})"
            )
        if not np.all(np.isfinite(matrix)):
            raise InputError("contraction matrix has entries that are not finite")
        self.source_space = source_space
        self.target_space = target_space
        self.matrix = matrix
        self.carrier = carrier
        self._given = True

    @classmethod
    def _induced(cls, source_space: GnsSpace, target_space: GnsSpace, carrier: CpuMap) -> GnsContraction:
        """The contraction of ``carrier``, its matrix not yet placed."""
        out = cls.__new__(cls)
        out.source_space, out.target_space, out.carrier, out._given = source_space, target_space, carrier, False
        return out

    @cached_property
    def matrix(self) -> np.ndarray:
        """E_rho L R_sigma, placed from the carrier's action L on first read:
        E_rho (R_sigma^T L^T)^T, sigma's transform of the columns of L, then
        rho's of the rows (:func:`_transform`).  Shadowed by the matrix given
        to the constructor, if any."""
        return _transform(self.target_space, _transform(self.source_space, _action_t(self.carrier), _rep).T, _iso)

    @property
    def operator_norm(self) -> float:
        """Largest singular value of ``matrix``.  A contraction induced by a
        morphism maps the class of the unit to the class of the unit, and so
        does its adjoint, so the unit's class is a top singular vector when
        the norm is 1.  An induced contraction reads the carrier's images
        (:meth:`_certified`), the matrix up to unitaries, so neither
        ``matrix`` nor a layout is placed, and where the Kadison-Schwarz
        bound does not certify them, one Cholesky factorization of their
        :func:`_gram`, or the spectrum, decides (:func:`_top_gram_eig`), as
        for a given matrix at its ``cyclic``."""
        if self._given:
            return float(np.sqrt(_top_gram_eig(_gram(self.matrix), self.source_space.cyclic)[0]))
        m, unit, r = self._certified()
        if r is None:
            h, m = _gram(m), None
            r = _top_gram_eig(h, unit)[0]
        return float(np.sqrt(r))

    def _certified(self) -> tuple[np.ndarray, np.ndarray, float | None]:
        """(m, u, r) of an induced contraction: its carrier's images m
        (:func:`_images`), its whitened unit u (:func:`_whitened_unit`), and
        the squared norm r = |m u|^2 / |u|^2 where :func:`_kadison_schwarz`
        is at most r (1 + 8 d eps), d = u.size, :func:`_top_gram_eig`'s
        margin, else None.  Both GNS verdicts read it."""
        m = _images(self.carrier, self.source_space, self.target_space, contraction=True)
        unit = _whitened_unit(self.source_space)
        mu = m @ unit
        r = float(np.vdot(mu, mu).real / np.vdot(unit, unit).real)
        return m, unit, (r if _kadison_schwarz(self) <= r * (1.0 + 8 * unit.size * np.finfo(float).eps) else None)


def _action_t(phi: CpuMap, cols: np.ndarray | None = None) -> np.ndarray:
    """L^T, the carrier's action transposed, dense; with ``cols``, only the
    rows of L^T at those element coordinates of the carrier's source, so a
    sparse action densifies no other."""
    action = phi.linear_action if cols is None else phi.linear_action[:, cols]
    return (action if isinstance(action, np.ndarray) else action.toarray()).T


def _whitened_unit(space: GnsSpace) -> np.ndarray:
    """The class of the unit in rank-group order (block j, eigenvector b,
    kept p), p fastest, after U^dag: sqrt(d_p) at b = p.  Every kind's
    whitening (``covariance._whiten``) keeps it, since f(1) = 1."""
    return np.concatenate(
        [(np.eye(g.n, g.rank) * np.sqrt(g.d[:, None, : g.rank])).ravel() for g in space._groups]
    )


def _kraus_blocks(phi: _KrausMap, space_sigma: GnsSpace, space_rho: GnsSpace) -> list:
    """The Kraus family of ``phi`` between the density eigenbases, per pair
    of rank groups: for sigma's group g and rho's group h, a (kappa, m_g,
    n_g, m_h, n_h) view a with a[k, j, :, i] = U_j^dag K_k[j, i] U_i, K_k[j, i]
    the part of K_k between block j of g (rows) and block i of h (columns)
    and U the phase-fixed eigenvectors of each group.  One list per g, one
    view per h: each U_i turns its group's columns once, with the columns
    then laid out group by group, and each U_j^dag its group's rows once, so
    a view is a slice."""
    kraus = np.stack(phi.kraus)
    kappa, nb = kraus.shape[:2]
    # [k, x, i, a] -> [k, i, x, a] @ U_i -> [k, x, (i, a)]
    turned = _stacked(
        [
            (kraus.take(_enveloping_rows(space_rho.shape, h), axis=2).swapaxes(1, 2) @ h.u)
            .swapaxes(1, 2)
            .reshape(kappa, nb, -1)
            for h in space_rho._groups
        ],
        axis=2,
    )
    spans = _spans(h.index.size * h.n for h in space_rho._groups)
    out = []
    for g in space_sigma._groups:
        ag = g.u.conj().swapaxes(1, 2) @ turned.take(_enveloping_rows(space_sigma.shape, g), axis=1)
        out.append(
            [
                ag[..., c0:c1].reshape(kappa, g.index.size, g.n, h.index.size, h.n)
                for h, (c0, c1) in zip(space_rho._groups, spans)
            ]
        )
    return out


def _enveloping_rows(shape: AlgebraShape, g: RankGroup) -> np.ndarray:
    """(m, n): the rows of the enveloping M_N that each block of g spans."""
    return shape._starts[g.index][:, None] + np.arange(g.n)


def _images(phi: CpuMap, space_sigma: GnsSpace, space_rho: GnsSpace, contraction: bool = False) -> np.ndarray:
    """The carrier in the density eigenbases: the images U_rho^dag
    phi(U_sigma e_bp U_sigma^dag) U_rho, U each phase-fixed eigenbasis, at
    rho's (i, a, q) in rows and sigma's (j, b, p) in columns, q and p kept,
    each in rank-group order (:func:`_whitened_unit`).  Off the action, a
    right and a left product by U per rank group of each space; off the
    Kraus family (:func:`_kraus_images`) where that is faster
    (:func:`_kraus_criterion_pays`).  With ``contraction``, the images
    times sqrt(d_q) / sqrt(d_p), the GNS kind's whitening folded into the
    right products (:func:`_rep`, :func:`_iso`), and off the action with no
    left product for rho's groups, whose row a is then the block's own: a
    unitary of each block's rows, which a Gram does not see.  A Petz kind's
    criterion scales the plain images once by its kernels instead, which
    keeps its real-route gate's remainder at one rounding of each weight."""
    if isinstance(phi, _KrausMap) and _kraus_criterion_pays(phi, space_sigma, space_rho):
        return _kraus_images(phi, space_sigma, space_rho, contraction)
    lt = _action_t(phi)
    cols = []
    for g in space_sigma._groups:
        m, n, r = g.index.size, g.n, g.rank
        right = _rep(g) if contraction else g.u[:, :, :r].conj()
        t = right.swapaxes(1, 2)[:, None] @ lt[g.pos]  # phi(e_i u_c^dag) at [j, i, c]
        cols.append((g.u.swapaxes(1, 2) @ t.reshape(m, n, r * lt.shape[1])).reshape(-1, lt.shape[1]))
    del lt, t
    x, out = _stacked(cols).T, []
    del cols
    s = x.shape[1]
    for h in space_rho._groups:
        m, n, r = h.index.size, h.n, h.rank
        t = x[h.pos]
        if h is space_rho._groups[-1]:
            del x  # the last gather holds all that is still read
        t = (_iso(h) if contraction else h.u[:, :, :r]).swapaxes(1, 2)[:, None] @ t  # [j, i, q] of (X U)
        if not contraction:
            t = h.u.conj().swapaxes(1, 2) @ t.reshape(m, n, r * s)
        out.append(t.reshape(-1, s))
    del t
    return _stacked(out)


def _image_work(space_sigma: GnsSpace, space_rho: GnsSpace, contraction: bool = False) -> int:
    """Complex multiply-adds of :func:`_images` off the action: n^2 r per
    column, block of a rank group and product, two products over rho's
    element coordinates for sigma's groups and two over sigma's GNS
    coordinates for rho's, or one with ``contraction``."""
    sigma = sum(g.index.size * g.n**2 * g.rank for g in space_sigma._groups)
    rho = sum(h.index.size * h.n**2 * h.rank for h in space_rho._groups)
    return 2 * space_rho.shape.element_dim * sigma + (1 if contraction else 2) * space_sigma.dim * rho


#: Entries of M per pair of rank groups (one of sigma's, one of rho's) at or
#: below which the action is read, not the Kraus family (:func:`_kraus_images`,
#: whose slice and product per pair cost some microseconds each).  Measured
#: with one tail for both (BENCH_28.json ``route_rules``, one BLAS thread,
#: minimum of 60 calls, six processes, family time over action time): 1.04-1.22
#: at n = 6 and 1.19-1.52 on [6, 2]; 0.93-1.11 at n = 7 (2,401 entries, two
#: to four operators), a tie; 0.85-1.00 on the real route and 0.81-1.00 on
#: the complex one at n = 8 (4,096 entries), and 0.68-0.92 at n = 9.  On
#: [4, 4, 4] (2,304) and [2, 3] -> [2, 1] the family loses (BENCH_27.json).
_CRITERION_ENTRIES_PER_PAIR = 2401


def _kraus_criterion_pays(phi: _KrausMap, space_sigma: GnsSpace, space_rho: GnsSpace) -> bool:
    """Whether :func:`_kraus_images` is faster than the images off the
    action: it takes fewer multiply-adds, kappa per entry against
    :func:`_image_work`, and M has more than
    :data:`_CRITERION_ENTRIES_PER_PAIR` entries per pair of rank groups."""
    entries = space_sigma.dim * space_rho.dim
    return (
        len(phi.kraus) * entries < _image_work(space_sigma, space_rho)
        and entries > _CRITERION_ENTRIES_PER_PAIR * len(space_sigma._groups) * len(space_rho._groups)
    )


def _kraus_images(phi: _KrausMap, space_sigma: GnsSpace, space_rho: GnsSpace, contraction: bool) -> np.ndarray:
    """:func:`_images` from the Kraus family of ``phi``: with A_k = U_sigma^dag
    K_k U_rho per pair of blocks (:func:`_kraus_blocks`), U_rho^dag
    phi(U_sigma e_bp U_sigma^dag) U_rho = sum_k A_k^dag e_bp A_k, so the image
    of sigma's (b, p) at rho's (a, q) is sum_k conj(A_k[b, a]) A_k[p, q],
    times sqrt(d_q) / sqrt(d_p) with ``contraction``, one product of inner
    size kappa per entry block and pair of rank groups (:func:`_kraus_grid`)."""
    gs, hs = space_sigma._groups, space_rho._groups
    cols = _spans(g.index.size * g.n * g.rank for g in gs)
    rows = _spans(h.index.size * h.n * h.rank for h in hs)
    out = np.empty((space_rho.dim, space_sigma.dim), dtype=complex)
    for g, pairs, (c0, c1) in zip(gs, _kraus_blocks(phi, space_sigma, space_rho), cols):
        for h, a, (r0, r1) in zip(hs, pairs, rows):
            right = a[:, :, : g.rank, :, : h.rank]
            if contraction:
                right = right * (np.sqrt(h.d[:, : h.rank]) / np.sqrt(g.d[:, : g.rank, None, None]))  # [j, p, i, q]
            _kraus_grid(out[r0:r1, c0:c1], a, right)
    return out


def _kraus_grid(out, left, right) -> None:
    """out[(i, a, q), (j, b, p)] = sum_k conj(left[k, j, b, i, a])
    right[k, j, p, i, q], for left (kappa, m_j, n_j, m_i, n_i) and right
    (kappa, m_j, p, m_i, q): one product of inner size kappa per
    (i, a, q, j), written in place, so no grid is formed beside ``out``.
    The factors are copied in the product's order first, so each product
    reads unit-stride runs (8-16% faster at n = 16-24 than the strided views)."""
    kappa, mj, nj, mi, ni = left.shape
    p, q = right.shape[2], right.shape[4]
    # [i, a, 1, j, b, k] @ [i, 1, q, j, k, p] -> [i, a, q, j, b, p]
    np.matmul(
        np.conj(left.transpose(3, 4, 1, 2, 0), order="C")[:, :, None],
        np.ascontiguousarray(right.transpose(3, 4, 1, 0, 2))[:, None],
        out=out.reshape(mi, ni, q, mj, nj, p, copy=False),
    )


def _kadison_schwarz(c: GnsContraction) -> float:
    """A bound B on the squared norm of the contraction ``c`` from two
    residuals of its carrier, where :func:`~ncplab.channels.from_kraus`
    built it (CP by construction); +inf for any other carrier.

    Each class of sigma has a representative x = x P, P sigma's support.
    With Delta = rho o phi - sigma, Kadison-Schwarz (phi(x)^dag phi(x) <=
    |phi(1)| phi(x^dag x)) gives |C[x]|^2 <= |phi(1)| (sigma + Delta)(P x^dag
    x P), and on each block k of sigma P Delta P <= |V_k^dag Delta_k V_k| /
    lambda_k D_k, V_k the kept eigenvectors and lambda_k the least kept
    eigenvalue.  With Hilbert-Schmidt norms above operator norms,

        B = (1 + |phi(1) - 1|_HS) (1 + max_k (|V_k^dag Delta_k V_k|_F + eps |D_k|_F) / lambda_k),

    for every sigma, faithful or not: Delta is measured, not assumed, and
    sigma's own rounding eps |D_k|_F is added, so a block whose condition
    lets it cross the margin makes B decline.  The rounding of forming the
    residuals is not budgeted: B holds for them as computed, as a
    factorization certifies the Gram as computed."""
    phi, space_sigma = c.carrier, c.source_space
    if not isinstance(phi, _KrausMap):
        return np.inf
    delta = _predual_vec(phi, c.target_space.state.vec) - space_sigma.state.vec
    eps, leak = np.finfo(float).eps, 0.0
    for g in space_sigma._groups:
        if g.rank:  # a block that keeps nothing has no representative
            v = g.v[..., : g.rank]
            kept = np.linalg.norm(v.conj().swapaxes(1, 2) @ delta[g.pos] @ v, axis=(1, 2))
            leak = max(leak, float(np.max((kept + eps * np.linalg.norm(g.d, axis=1)) / g.d[:, g.rank - 1])))
    return (1.0 + _unital_deviation(phi)) * (1.0 + leak)


def _spans(sizes) -> list[tuple[int, int]]:
    """(start, end) of consecutive runs of the given sizes."""
    out, start = [], 0
    for size in sizes:
        out.append((start, start + size))
        start += size
    return out


def _stacked(parts: list, axis: int = 0) -> np.ndarray:
    """The parts joined along ``axis``, without a copy of a single part."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def induced_contraction(
    morphism: NcpMorphism,
    space_sigma: GnsSpace,
    space_rho: GnsSpace,
) -> GnsContraction:
    """The map [b] -> [phi(b)] for a verified morphism (A, rho) -> (B, sigma).

    ``space_sigma`` belongs to the morphism target (B, sigma) and is the
    domain of the contraction; ``space_rho`` belongs to the source (A, rho).
    Well-definedness on the quotient is checked here, on sigma's null basis
    alone: its elements must land in the rho-null space within
    ``WELL_DEFINED_TOL`` (else :class:`GnsQuotientError`).  The contraction's
    matrix is placed on its first read (:attr:`GnsContraction.matrix`), so an
    operator norm read off the Kraus family never forms it.
    """
    shape_a, rho = morphism.source
    shape_b, sigma = morphism.target
    if space_sigma.shape != shape_b or space_rho.shape != shape_a:
        raise ShapeError("GNS spaces do not match the morphism objects")
    if not np.array_equal(space_sigma.state.vec, sigma.vec) or not np.array_equal(
        space_rho.state.vec, rho.vec
    ):
        raise ShapeError("GNS spaces were built for different states")
    nulls = [g for g in space_sigma._groups if g.rank < g.n]
    if nulls:  # a faithful sigma has no null basis
        # E_rho L N_sigma as E_rho (N_sigma^T L^T)^T: the rows of L^T in the
        # null groups' blocks turned by the dropped eigenvectors, each null
        # element's at [j, i, c] in the order of _check_null_images, then
        # rho's transform of the rows
        lt = _action_t(morphism.cpu, np.concatenate([g.pos.ravel() for g in nulls]))
        null = [
            (g.u[:, :, g.rank :].conj().swapaxes(1, 2)[:, None] @ lt[r0:r1].reshape(*g.pos.shape, -1)).reshape(
                -1, lt.shape[1]
            )
            for g, (r0, r1) in zip(nulls, _spans(g.pos.size for g in nulls))
        ]
        del lt
        _check_null_images(space_sigma, _transform(space_rho, _stacked(null).T, _iso))
    return GnsContraction._induced(space_sigma, space_rho, morphism.cpu)


#: Relative gap below which two null images count as equally bad
#: (:func:`_check_null_images`): far above the rounding of their norms, far
#: below the three digits a message prints.
_TIE_RTOL = 1e-12


def _check_null_images(space_sigma: GnsSpace, images: np.ndarray) -> None:
    """The well-definedness test of a contraction out of ``space_sigma``.

    Column t of ``images`` is the image under rho's embedding of sigma's
    null basis element t: the conjugate of a dropped eigenvector in one row
    of a block, numbered group by group as (block j, row i, dropped
    eigenvector c), c fastest.  The worst column
    above ``WELL_DEFINED_TOL`` raises :class:`GnsQuotientError`, naming that
    element and its norm.  Of columns tied with the worst within
    ``_TIE_RTOL`` (a unitary carrier gives every row of a block the same
    norm), the first is named, so rounding does not pick it."""
    if not images.shape[1]:  # a faithful sigma has no null basis
        return
    leaks = np.linalg.norm(images, axis=0)
    worst = float(leaks.max(initial=0.0))
    if worst <= WELL_DEFINED_TOL:
        return
    place = int(np.argmax(leaks >= worst * (1.0 - _TIE_RTOL)))
    for g in space_sigma._groups:
        count = g.index.size * g.n * (g.n - g.rank)
        if place < count:
            break
        place -= count
    j, i, c = np.unravel_index(place, (g.index.size, g.n, g.n - g.rank))
    c += g.rank
    raise GnsQuotientError(
        f"the sigma-null element of block {g.index[j]}, row {i}, dropped eigenvector {c} (eigenvalue "
        f"{g.d[j, c]:.3e}) maps outside the rho-null space with norm {worst:.3e} > {WELL_DEFINED_TOL:.0e}; "
        "a carrier that preserves the states cannot do this, so check rho o phi = sigma"
    )


def check_functor_laws(chains, tol: float = 1e-9) -> dict:
    """Verify identity and contravariant composition on morphism chains.

    ``chains`` is an iterable of lists of composable morphisms
    [F1: o1 -> o2, F2: o2 -> o3, ...].  For every adjacent pair and for each
    full chain the induced map of the composite is compared against the
    product of the induced maps in reversed order; identities are checked at
    every object.  Returns a report dict with the worst deviations.
    ``tol`` must be finite and >= 0 (else :class:`InputError`).
    """
    _check_tol(tol)
    max_id_dev = max_comp_dev = 0.0
    n_chains = 0
    for chain in chains:
        if not isinstance(chain, (list, tuple)) or not chain or not all(isinstance(m, NcpMorphism) for m in chain):
            raise InputError("each chain must be a nonempty list of morphisms")
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
