"""Covariance products on GNS coordinates, one per covariance kind.

A kind is an operator monotone function f with f(1) = 1
(:class:`OperatorMonotoneFunction`), and nothing more.  The GNS product
rho(x^dag y) is the kind of the constant f == 1 (:data:`ONE`); any other
function is a Petz kind (:func:`petz_kind` returns it as it is), which needs
a faithful state.

One kernel
----------
Every product is one Hadamard kernel on the state's cached spectrum: for
density eigenvalues d_a of a block, with eigenvectors U and x' = U^dag x U,

    <x, y> = sum_ab W_ab conj(x'_ab) y'_ab,   W_ab = d_b * f(d_a / d_b).

With the standard catalog this yields the familiar inverse kernels:
f(t) = (1+t)/2 gives the anticommutator (SLD) pairing, (t-1)/log t the
Kubo-Mori one, and so on.  In GNS coordinates, coordinate
(i, q) of a block (row i, kept eigenvalue d_q) pairs only with (i', q) of the
same block, through the n x n matrix I + U diag(f(d / d_q) - 1) U^dag; so
f == 1 gives exactly the identity, and a block-scalar density exactly zero
deviation from it.  Equivalently the pairing is |z|^2 for the whitened
z_aq = sqrt(W_aq) x'_aq = sqrt(f(d_a / d_q)) (U^dag y)_aq of a block's
coordinates y.  So the monotonicity criterion needs no covariance Gram: it
is the top of H = M^dag M, M = Z_rho C Z_sigma^-1, which maps sigma's
whitened unit at (b, p) to rho's whitened image of U_sigma e_bp U_sigma^dag
/ sqrt(W_bp), and since f(1) = 1 the whitened class of the unit, sqrt(d_q)
at each (q, q), is an eigenvector of H with eigenvalue 1, which one
Cholesky factorization certifies as the top when the verdict passes.  For
the GNS kind Z is unitary, and but for block-scalar states H is the
contraction's Gram (:func:`~ncplab.gns._contraction_gram`), off the carrier's
images in the density eigenbases (:func:`~ncplab.gns._images`) or its Kraus
family.  Every other criterion scales those images by sqrt(W^rho) and
1/sqrt(W^sigma), and folds them into the Hermitian basis e_aa,
(e_aq+e_qa)/sqrt(2), i (e_aq-e_qa)/sqrt(2) of each grid.  Where the kernel is
symmetric, W_aq = W_qa, as for every kind of the catalog (f(t) = t f(1/t),
Petz 1996) and every kind on a block-scalar state, the GNS kind included, and
the carrier commutes with x -> x^dag, the folded M is real: one real Gram and
one real factorization certify it.  A remainder gate decides that on the
folded matrix itself, and where rounding leaves too large an imaginary part
the same matrix is certified on the complex route.  Only the samples, and a
failed verdict's witness, pass through the whitening.  The Riesz solve reads
the symmetrized kernel W^s = (W + W^T)/2, the only part of W the real part of
the pairing sees on Hermitian elements, on every eigenvalue of a block,
dropped ones included (the ratio is 1 where d_b <= 0).

All products are normalized: f(1) = 1, so the unit pairs with itself to one.
An overall factor c > 0 would multiply every Gram and every pulled-back
metric by c and change no verdict, so a kind carries none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .algebra import InputError, _check_count, _check_tol, _frozen, _phase_fix
from .channels import NcpMorphism
from .gns import (
    GnsSpace,
    _contraction_images,
    _gram,
    _images,
    _kraus_gram,
    _spans,
    _stacked,
    _top_gram_eig,
    _whitened_unit,
    build_gns,
    induced_contraction,
)
from .states import NormalState, is_faithful, random_tracial_state


class UnsupportedKindError(InputError):
    """A covariance kind was requested at a state it is not defined for."""


@dataclass(frozen=True, eq=False)
class OperatorMonotoneFunction:
    """Positive function on (0, inf), operator monotone, with f(1) = 1: a
    covariance kind.  The constant f == 1 (:data:`ONE`) is the GNS kind, any
    other function its Petz kind.

    Instances compare and hash by identity, which keeps kinds cheap as cache
    keys.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t):
        scalar = np.isscalar(t)
        out = self.fn(np.asarray(t, dtype=float))
        return float(out) if scalar else out

    @property
    def is_gns(self) -> bool:
        return self is ONE

    @property
    def label(self) -> str:
        return "gns" if self.is_gns else f"petz:{self.name}"


def _sld_fn(t):
    return (1.0 + t) / 2.0


def _kmb_fn(t):
    u = t - 1.0
    out = np.empty_like(t)
    small = np.abs(u) < 1e-6
    out[small] = 1.0 + u[small] / 2.0 - u[small] ** 2 / 12.0
    out[~small] = u[~small] / np.log(t[~small])
    return out


def _wy_fn(t):
    return ((1.0 + np.sqrt(t)) / 2.0) ** 2


def _rld_fn(t):
    return 2.0 * t / (1.0 + t)


SLD = OperatorMonotoneFunction("sld", _sld_fn)
KMB = OperatorMonotoneFunction("kmb", _kmb_fn)
WY = OperatorMonotoneFunction("wy", _wy_fn)
RLD = OperatorMonotoneFunction("rld", _rld_fn)


def omf_catalog() -> list[OperatorMonotoneFunction]:
    """The built-in operator monotone functions: sld, kmb, wy, rld."""
    return [SLD, KMB, WY, RLD]


#: Most sample coordinates (samples times sigma's GNS dimension) that
#: :func:`monotonicity_check` draws: 2**24 complex coordinates are 256 MiB per
#: array.  Checked before anything is drawn, so a sample count far beyond
#: memory is an input error, not a failed allocation.
MAX_SAMPLE_ENTRIES = 2**24


#: Most states that :func:`tracial_collapse_check` draws, the CLI's
#: ``--samples`` limit: ``SeedSequence.spawn`` holds a child per state, so a
#: count far beyond memory is refused before any is spawned.
MAX_TRACIAL_STATES = 10**6


#: The constant function f == 1: the GNS kind.  It is not part of
#: :func:`omf_catalog`.
ONE = OperatorMonotoneFunction("gns", np.ones_like)


def petz_kind(omf: OperatorMonotoneFunction) -> OperatorMonotoneFunction:
    return omf


def kind_catalog() -> list[OperatorMonotoneFunction]:
    """GNS plus the Petz kinds of the built-in catalog."""
    return [ONE, *omf_catalog()]


def kind_from_name(name: str) -> OperatorMonotoneFunction:
    for kind in kind_catalog():
        if isinstance(name, str) and kind.name == name.lower():
            return kind
    raise UnsupportedKindError(f"unknown covariance kind {name!r}")


@dataclass(frozen=True)
class CovarianceGram:
    """Hermitian positive matrix of a covariance product in GNS coordinates."""

    space: GnsSpace
    gram: np.ndarray


def _require_faithful(kind: OperatorMonotoneFunction, state: NormalState) -> None:
    if not kind.is_gns and not is_faithful(state):
        raise UnsupportedKindError(
            f"kind {kind.label} needs a faithful state; "
            "a density block is rank deficient"
        )


def _kernel(kind: OperatorMonotoneFunction, group) -> np.ndarray:
    """F_ab = f(d_a / d_b) (m, n, n) on one rank group's full spectrum ``d``,
    with the ratio set to 1 where d_b <= 0."""
    d = group.d
    if group.rank == group.n:  # every d_b is kept, so above 0
        return kind(d[:, :, None] / d[:, None, :])
    ratio = np.divide(
        d[:, :, None], d[:, None, :], out=np.ones(group.u.shape), where=d[:, None, :] > 0.0
    )
    return kind(ratio)


def _ratios(kind: OperatorMonotoneFunction, space: GnsSpace) -> list:
    """:func:`_kernel` of every rank group of the space, computed once per
    kind and kept on the space."""
    out = space._ratios.get(kind)
    if out is None:
        out = space._ratios[kind] = [_kernel(kind, g) for g in space._groups]
    return out


def _group_kernel(kind: OperatorMonotoneFunction, group) -> np.ndarray:
    """W^s = (W + W^T)/2, W_ab = d_b f(d_a / d_b), of every block in one rank group: (m, n, n)."""
    w = group.d[:, None, :] * _kernel(kind, group)
    return (w + w.swapaxes(1, 2)) / 2.0


def block_form(kind: OperatorMonotoneFunction, space: GnsSpace, k: int) -> np.ndarray:
    """Covariance pairing of block k in its density eigenbasis: the real
    symmetric (n_k x n_k) kernel W^s with Re <x, y> = Re sum_ab W^s_ab
    conj(x'_ab) y'_ab for Hermitian x, y, x' = U^dag x_k U, summed over blocks
    (U and the descending eigenvalue order of the block's rank group).

    The first call for a kind computes the kernels of all blocks of the
    space, one batched product per rank group, and caches them on the space;
    every call returns a read-only view of that cache.
    """
    _require_faithful(kind, space.state)
    kernels = space._forms.get(kind)
    if kernels is None:
        kernels = [_group_kernel(kind, g) for g in space._groups]
        for w in kernels:
            w.flags.writeable = False
        space._forms[kind] = kernels
    return kernels[space._group_of[k]][space._slot_of[k]]


def covariance_gram(kind: OperatorMonotoneFunction, space: GnsSpace) -> CovarianceGram:
    """The covariance product in orthonormal GNS coordinates.

    Built block by block from ``I + U diag(f(d / d_q) - 1) U^dag`` (see the
    module docstring), one batched product per rank group and one scatter.
    """
    _require_faithful(kind, space.state)
    gram = np.zeros((space.dim, space.dim), dtype=complex)
    for g, at in zip(space._groups, space._layout.at):
        u, f, at = g.u, _kernel(kind, g), at[:, :, : g.rank].swapaxes(1, 2)  # [j, q, i]
        dev = (f[:, :, : g.rank] - 1.0).swapaxes(1, 2)  # (m, r, n): kept q, all a
        blk = (u[:, None] * dev[:, :, None, :]) @ u.conj().swapaxes(-1, -2)[:, None]
        blk = (blk + blk.conj().swapaxes(-1, -2)) / 2.0 + np.eye(g.n)
        gram[at[..., :, None], at[..., None, :]] = blk
    return CovarianceGram(space, gram)


def _whiten(kind: OperatorMonotoneFunction, space: GnsSpace, x: np.ndarray, inverse=False):
    """Z x for the whitening Z of the kind's pairing, <y, y> = |Z y|^2, on
    coordinate rows x (dim, s): column q of a block's coordinate matrix y
    goes to w_q * (U^dag y_q), w_qa = sqrt(f(d_a / d_q)), and the rows of
    Z x are in rank-group order, (block j, row a, kept q) with q fastest,
    the order of :func:`_criterion`.  With ``inverse``, Z^-1 from that order
    back to coordinates."""
    out = np.empty(x.shape, dtype=complex)
    start = 0
    for g, at, f in zip(space._groups, space._layout.at, _ratios(kind, space)):
        m, n, r = g.index.size, g.n, g.rank
        at = at[:, :, :r].swapaxes(1, 2)  # [j, q, i]
        w = np.sqrt(f[:, :, :r]).swapaxes(1, 2)[..., None]  # (m, r, n, 1)
        rows = slice(start, start + at.size)
        start += at.size
        if inverse:
            z = x[rows].reshape(m, n, r, x.shape[1]).swapaxes(1, 2)  # [j, q, a]
            out[at] = (g.u[:, None] / w.swapaxes(-1, -2)) @ z
        else:
            z = (w * g.u.conj().swapaxes(1, 2)[:, None]) @ x[at]  # [j, q, a]
            out[rows] = z.swapaxes(1, 2).reshape(at.size, x.shape[1])
    return out


@lru_cache(maxsize=None)
def _fold_scale(n: int) -> np.ndarray:
    """(n, n), read-only: 1 on the diagonal and 1/sqrt(2) off it, the weight
    of each grid entry in the Hermitian basis vectors through it."""
    out = np.full((n, n), math.sqrt(0.5))
    np.fill_diagonal(out, 1.0)
    return _frozen(out)


def _fold(grid: np.ndarray, phase: complex, inverse: bool = False) -> None:
    """The Hermitian basis of the (b, p) axes of an (m, n, n, s) grid, in
    place, the entries already weighted by :func:`_fold_scale`: for b < p,
    entry (b, p) becomes x_bp + x_pb and entry (p, b) phase * (x_bp - x_pb);
    the diagonal stays.  With phase 1j the grid's rows are columns of M and
    come out as the columns of M P, P the basis e_bb, (e_bp + e_pb)/sqrt(2),
    i (e_bp - e_pb)/sqrt(2) at (b, p) and (p, b); with -1j they are rows of
    M and come out as those of P^dag M.  With ``inverse``, the map back,
    whose result is then weighted.  One pair of runs of the long last axis
    per row b, so no entry is gathered."""
    for b in range(grid.shape[1] - 1):
        u, l = grid[:, b, b + 1 :], grid[:, b + 1 :, b]
        if inverse:
            d = l * np.conj(phase)
            np.subtract(u, d, out=l)
            u += d
        else:
            d = u - l
            u += l
            np.multiply(d, phase, out=l)


def _hermitian_rows(space: GnsSpace, x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """P^dag x in place, or P x with ``inverse``, for complex rows x (dim, s)
    in rank-group order (:func:`_whiten`) of a space whose rank groups are
    all full rank: the coordinates of whitened classes in the Hermitian
    basis of :func:`_fold`, and back."""
    start = 0
    for g in space._groups:
        grid = x[start : start + g.pos.size].reshape(g.index.size, g.n, g.n, -1)
        start += g.pos.size
        weight = _fold_scale(g.n)[..., None]
        if not inverse:
            grid *= weight
        _fold(grid, -1j, inverse)
        if inverse:
            grid *= weight
    return x


def _criterion(kind: OperatorMonotoneFunction, phi, space_sigma: GnsSpace, space_rho: GnsSpace) -> np.ndarray:
    """The criterion folded into the Hermitian bases of the grids,
    P_rho^dag M P_sigma with M = Z_rho C Z_sigma^-1 in rank-group order: the
    carrier's images (:func:`~ncplab.gns._images`) scaled by sqrt(W^rho_aq)
    / sqrt(W^sigma_bp), W_aq = d_q f(d_a / d_q) (:func:`_ratios`), and each
    grid folded (:func:`_fold`).  Still complex: real when both kernels are
    symmetric and the carrier commutes with x -> x^dag.  Both states are
    faithful (a Petz kind's, or block-scalar ones), so every grid is
    square."""
    m = _images(phi, space_sigma, space_rho)
    gs, hs = space_sigma._groups, space_rho._groups
    # 1 / sqrt(W) of sigma's groups and sqrt(W) of rho's, times the folds'
    # weights, each in rank-group order
    kernels = [[g.d[:, None] * f for g, f in zip(s._groups, _ratios(kind, s))] for s in (space_sigma, space_rho)]
    sigma_scale = _stacked([(_fold_scale(g.n) / np.sqrt(w)).ravel() for g, w in zip(gs, kernels[0])])
    rho_scale = _stacked([(_fold_scale(h.n) * np.sqrt(w)).ravel() for h, w in zip(hs, kernels[1])])
    m *= rho_scale[:, None]
    for h, (r0, r1) in zip(hs, _spans(h.pos.size for h in hs)):
        _fold(m[r0:r1].reshape(h.index.size, h.n, h.n, -1), -1j)
    # sigma's columns copied into rows, so its fold too runs along contiguous rows
    y = np.empty(m.shape[::-1], dtype=complex)
    np.copyto(y, m.T)
    del m
    y *= sigma_scale[:, None]
    for g, (c0, c1) in zip(gs, _spans(g.pos.size for g in gs)):
        _fold(y[c0:c1].reshape(g.index.size, g.n, g.n, -1), 1j)
    return y.T


_EPS = float(np.finfo(float).eps)


def _real_criterion(y: np.ndarray, space_sigma: GnsSpace, space_rho: GnsSpace, unit: np.ndarray) -> np.ndarray:
    """The gate of the real route: the real part R of the folded criterion
    y = P_rho^dag M P_sigma (:func:`_criterion`), or y itself where it
    declines.

    Where both kernels are symmetric, M maps whitened Hermitian classes to
    whitened Hermitian classes when the carrier commutes with x -> x^dag, as
    a CPU map does, so y = R + iE with E only rounding; elsewhere E is not
    small, and the gate declines.  With delta = 8 d eps (d sigma's GNS
    dimension) and r the Rayleigh quotient of R^T R at ``unit``, R is
    returned only when |E|_F + 3 eps |y|_F (the rounding of the two folds)
    is at most sqrt(r) (sqrt(1 + delta) - sqrt(1 + delta / 2)): then a
    Cholesky certificate that |R|^2 <= r (1 + delta / 2) puts the top of
    M^dag M in [r, r (1 + delta)], the complex route's guarantee, whatever
    the kernels."""
    real = y.real.copy(order="K")
    rem = math.sqrt(np.einsum("ij,ij->", y.imag, y.imag))
    # each fold rounds a folded entry by at most 1.5 eps relative beyond
    # the complex route's scaling (the weight 1/sqrt(2) and the sum); 1 x 1
    # blocks fold nothing
    folds = any(g.n > 1 for g in space_sigma._groups + space_rho._groups)
    rounding = 3 * _EPS * math.sqrt(np.einsum("ij,ij->", real, real) + rem * rem) if folds else 0.0
    ru = real @ unit
    r = float(ru @ ru / (unit @ unit))
    delta = 8 * space_sigma.dim * _EPS
    slack = math.sqrt(r) * (delta / 2.0) / (math.sqrt(1.0 + delta) + math.sqrt(1.0 + delta / 2.0))
    return real if rem + rounding <= slack else y


def monotonicity_check(
    kind: OperatorMonotoneFunction,
    morphism: NcpMorphism,
    n_samples: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> dict:
    """Verify that the induced GNS map contracts the covariance pairing.

    With Z the kind's whitening (:func:`_whiten`) and C the contraction, the
    pushed pairing is |Z_rho C xi|^2 and the domain's |Z_sigma xi|^2, so the
    exact criterion (it decides: samples can miss thin violating cones) is the
    top eigenvalue of the Gram H = M^dag M, M = Z_rho C Z_sigma^-1, with no
    covariance Gram built.  For the GNS kind Z is unitary, and unless both
    states are faithful and block-scalar H is the contraction's Gram
    (:func:`~ncplab.gns._contraction_gram`, which its operator norm reads too),
    formed after :func:`~ncplab.gns.induced_contraction` has checked sigma's
    null basis.  Every other criterion (a Petz kind's, or the GNS kind's on
    those states) is formed once (:func:`_criterion`), folded into the Hermitian
    bases of the two grids, and the gate (:func:`_real_criterion`) reads it as a
    real matrix R where the imaginary remainder is rounding (every catalog
    kind): H = R^T R is real, and one real Cholesky factorization certifies it.
    Otherwise H is formed from real products (:func:`~ncplab.gns._gram`) and
    factorized as a complex matrix.  The samples are taken through M (the
    unitary fold, :func:`_hermitian_rows`, where M is folded) before H is
    formed, or as a quadratic form of the Kraus family's H; a failed verdict's
    ``witness`` is the top eigenvector in sigma's orthonormal GNS coordinates
    (unit norm, phase fixed as theirs) and its ratio.

    ``tol`` must be finite and >= 0, and ``n_samples`` and ``seed``
    integers >= 0 (else :class:`InputError`)."""
    _check_tol(tol)
    n_samples = _check_count("n_samples", n_samples)
    seed = _check_count("seed", seed)
    shape_a, rho = morphism.source
    shape_b, sigma = morphism.target
    _require_faithful(kind, rho)
    _require_faithful(kind, sigma)
    space_sigma = build_gns(shape_b, sigma)
    if n_samples * space_sigma.dim > MAX_SAMPLE_ENTRIES:
        raise InputError(
            f"{n_samples} samples in sigma's {space_sigma.dim} GNS dimensions exceed "
            f"the limit of {MAX_SAMPLE_ENTRIES} sample coordinates"
        )
    space_rho = build_gns(shape_a, rho)
    # the whitened class of the unit, sqrt(d_q) at (j, q, q) of each group:
    # the map and its adjoint fix the unit's class, and so does each Gram
    # (f(1) = 1), so M^dag M fixes this vector; it lies on the grids'
    # diagonals, which the Hermitian basis keeps
    unit = _whitened_unit(space_sigma)
    # the GNS kernel W_aq = d_q is symmetric to the real route's delta where
    # every density block is full rank and scalar (every abelian state):
    # there it is folded, as a Petz kind's is, and takes the faster real route
    delta, groups = 8 * space_sigma.dim * _EPS, space_sigma._groups + space_rho._groups
    folded = not kind.is_gns or all(g.rank == g.n and np.all(g.d[:, -1] >= g.d[:, 0] * (1 - delta)) for g in groups)
    h = None
    if folded:
        m = _real_criterion(_criterion(kind, morphism.cpu, space_sigma, space_rho), space_sigma, space_rho, unit)
    else:
        induced_contraction(morphism, space_sigma, space_rho)  # sigma's null basis checked
        m = _contraction_images(morphism.cpu, space_sigma, space_rho)
        if m is None:  # the Kraus family's Gram, with no matrix beside it
            h = _kraus_gram(morphism.cpu, space_sigma, space_rho)
    real = m is not None and m.dtype == float

    # the same numbers, in the same order, as drawing the real and then the
    # imaginary part of one sample at a time
    draws = np.random.default_rng(seed).standard_normal((n_samples, 2, space_sigma.dim))
    xi = (draws[:, 0] + 1j * draws[:, 1]).T  # d x n_samples
    del draws
    eta = _whiten(kind, space_sigma, xi)
    rhs, norms = (np.sum(np.abs(v) ** 2, axis=0) for v in (eta, xi))
    del xi
    if folded:
        # |M eta| = |y P_sigma^dag eta| for the folded y = P_rho^dag M P_sigma
        eta = _hermitian_rows(space_sigma, eta)
    if real:
        eta = np.concatenate([eta.real, eta.imag], axis=1)  # the parts stacked: one real product
    # through the criterion's matrix where there is one, which then gives the Gram
    lhs = np.sum(np.abs(m @ eta) ** 2, axis=0) if h is None else np.einsum("ij,ij->j", eta.conj(), h @ eta).real
    del eta
    if h is None:
        h, m = (m.T @ m if real else _gram(m)), None
    if real:
        lhs = lhs[:n_samples] + lhs[n_samples:]
    exact, top = _top_gram_eig(h, unit, vector=True, margin=4 * space_sigma.dim * _EPS if real else None)
    report = {
        "kind": kind.label,
        "n_samples": n_samples,
        "worst_ratio": float(np.max(lhs / rhs, initial=0.0)),
        "exact_max_eig": exact,
        "sample_violations": int(np.count_nonzero(lhs > rhs + tol * norms)),
        "tol": tol,
        "passed": exact <= 1.0 + tol,
    }
    if not report["passed"]:
        if folded:
            top = _hermitian_rows(space_sigma, top.astype(complex)[:, None], inverse=True)[:, 0]
        vec = _whiten(kind, space_sigma, top[:, None], inverse=True)
        vec = _phase_fix(vec[None] / np.linalg.norm(vec))[0, :, 0]
        report["witness"] = {"vector": vec, "ratio": exact}
    return report


def tracial_collapse_check(
    shapes, n_states: int = 100, seed: int = 0, tol: float = 1e-9
) -> dict:
    """On tracial states every catalog Petz product collapses onto the GNS one.

    Draws random block-scalar states on the given shapes and reports the
    largest deviation of any Petz Gram from the identity.  ``n_states`` and
    ``seed`` must be integers >= 0 and ``tol`` finite and >= 0, and more than
    ``MAX_TRACIAL_STATES`` states is an :class:`InputError` too.
    """
    _check_tol(tol)
    n_states = _check_count("n_states", n_states)
    seed = _check_count("seed", seed)
    if n_states > MAX_TRACIAL_STATES:
        raise InputError(f"{n_states} states exceed the limit of {MAX_TRACIAL_STATES} tracial states")
    shapes = list(shapes)
    if not shapes:
        raise InputError("tracial_collapse_check needs at least one shape")
    per_shape: dict[str, float] = {}
    max_dev = 0.0
    for idx, ss in enumerate(np.random.SeedSequence(seed).spawn(n_states)):
        shape = shapes[idx % len(shapes)]
        space = build_gns(shape, random_tracial_state(shape, seed=ss))
        dev = max(
            float(np.max(np.abs(covariance_gram(petz_kind(f), space).gram - np.eye(space.dim))))
            for f in omf_catalog()
        )
        label = repr(list(shape.blocks))
        per_shape[label] = max(per_shape.get(label, 0.0), dev)
        max_dev = max(max_dev, dev)
    return {
        "shapes": [list(s.blocks) for s in shapes],
        "n_states": n_states,
        "max_deviation": max_dev,
        "per_shape": per_shape,
        "tol": tol,
        "passed": max_dev <= tol,
    }
