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
coordinates y.  So the monotonicity criterion needs no Gram and no
contraction: its matrix M = Z_rho C Z_sigma^-1 maps sigma's whitened unit
at (b, p) to rho's whitened image of U_sigma e_bp U_sigma^dag / sqrt(W_bp),
which one right and one left product per rank group read off the action;
only the samples, and a failed verdict's witness, pass through the
whitening.  Since f(1) = 1 the whitened class of the unit, sqrt(d_q) at
each (q, q), is an eigenvector of M^dag M with eigenvalue 1, which one
Cholesky factorization certifies as the top when the verdict passes.  The
Riesz solve reads the symmetrized kernel
W^s = (W + W^T)/2, the only part of W the real part of the pairing sees on
Hermitian elements, on every eigenvalue of a block, dropped ones included
(the ratio is 1 where d_b <= 0).

All products are normalized: f(1) = 1, so the unit pairs with itself to one.
An overall factor c > 0 would multiply every Gram and every pulled-back
metric by c and change no verdict, so a kind carries none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import InputError, _phase_fix
from .channels import NcpMorphism
from .gns import GnsSpace, _check_null_images, _gram, _top_gram_eig, build_gns
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
        if kind.name == name.lower():
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
    ratio = np.divide(
        d[:, :, None], d[:, None, :], out=np.ones(group.u.shape), where=d[:, None, :] > 0.0
    )
    return kind(ratio)


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
    for g, at in zip(space._groups, space._layout.at):
        m, n, r = g.index.size, g.n, g.rank
        at = at[:, :, :r].swapaxes(1, 2)  # [j, q, i]
        w = np.sqrt(_kernel(kind, g)[:, :, :r]).swapaxes(1, 2)[..., None]  # (m, r, n, 1)
        rows = slice(start, start + at.size)
        start += at.size
        if inverse:
            z = x[rows].reshape(m, n, r, x.shape[1]).swapaxes(1, 2)  # [j, q, a]
            out[at] = (g.u[:, None] / w.swapaxes(-1, -2)) @ z
        else:
            z = (w * g.u.conj().swapaxes(1, 2)[:, None]) @ x[at]  # [j, q, a]
            out[rows] = z.swapaxes(1, 2).reshape(at.size, x.shape[1])
    return out


def _sandwich(g, x: np.ndarray, right: np.ndarray, left: np.ndarray, scale: np.ndarray):
    """Rows sum_ic left[j, i, a] x[pos[j, i, c]] right[j, c, q] * scale[j, a, q]
    of one rank group, (m * n * q, s) for element-coordinate rows x (dim, s),
    and the right products alone (m * n * c', s) of the c' columns of
    ``right`` past the q of ``scale``, which ``left`` and ``scale`` skip
    (None when there are none)."""
    t = right.swapaxes(1, 2)[:, None] @ x[g.pos]
    m, n, _, s = t.shape
    q = scale.shape[2]
    out = (left.swapaxes(1, 2) @ t[:, :, :q].reshape(m, n, q * s)).reshape(m, n, q, s)
    out *= scale[..., None]
    return out.reshape(-1, s), t[:, :, q:].reshape(-1, s) if q < t.shape[2] else None


def _stacked(rows: list) -> np.ndarray:
    """The rows stacked, without a copy of a single block's."""
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


def _kept_kernel(kind: OperatorMonotoneFunction, group) -> np.ndarray:
    """W_aq = d_q f(d_a / d_q) (m, n, r) of one rank group, on its kept q."""
    return group.d[:, None, : group.rank] * _kernel(kind, group)[:, :, : group.rank]


def _criterion(kind: OperatorMonotoneFunction, morphism: NcpMorphism, space_sigma, space_rho):
    """M = Z_rho C Z_sigma^-1 of the criterion, straight from the action L,
    rows and columns in rank-group order (:func:`_whiten`).

    The entry of rho's (a, q) and sigma's (b, p) is sqrt(W^rho_aq)
    (U_rho^dag phi(U_sigma e_bp U_sigma^dag) U_rho)_aq / sqrt(W^sigma_bp)
    (:func:`_kept_kernel`, U each density eigenbasis): one transform of the
    action per space, a right and a left batched product per rank group
    (:func:`_sandwich`).  Sigma's right product also carries its null
    basis; rho's transform of those columns is checked
    (:func:`~ncplab.gns._check_null_images`) and dropped."""
    action = morphism.cpu.linear_action
    lt = (action if isinstance(action, np.ndarray) else action.toarray()).T
    kept, null = [], []
    for g in space_sigma._groups:
        rows, t = _sandwich(g, lt, g.u.conj(), g.u, 1.0 / np.sqrt(_kept_kernel(kind, g)))
        kept.append(rows)
        if t is not None:
            null.append(t)
    del lt
    x = _stacked(kept + null).T
    del kept, null
    rows = [
        _sandwich(g, x, g.u[:, :, : g.rank], g.u.conj(), np.sqrt(_kept_kernel(kind, g)))[0]
        for g in space_rho._groups
    ]
    del x
    m = _stacked(rows)
    del rows
    _check_null_images(space_sigma, m[:, space_sigma.dim :])
    return m[:, : space_sigma.dim]


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
    exact criterion (it decides: samples can miss thin violating cones) is
    the top eigenvalue of M^dag M, M = Z_rho C Z_sigma^-1, with no
    covariance Gram built; M^dag M is formed once, from real products
    (:func:`~ncplab.gns._gram`).  M is read off the action in the density
    eigenbases (:func:`_criterion`), without C, so only the samples and the
    witness are whitened.  A failed verdict carries ``witness``: the top eigenvector
    in sigma's orthonormal GNS coordinates (unit norm, phase fixed as
    theirs) and its ratio."""
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
    m = _criterion(kind, morphism, space_sigma, space_rho)

    # the same numbers, in the same order, as drawing the real and then the
    # imaginary part of one sample at a time
    draws = np.random.default_rng(seed).standard_normal((n_samples, 2, space_sigma.dim))
    xi = (draws[:, 0] + 1j * draws[:, 1]).T  # d x n_samples
    eta = _whiten(kind, space_sigma, xi)
    lhs, rhs, norms = (np.sum(np.abs(v) ** 2, axis=0) for v in (m @ eta, eta, xi))
    del draws, xi, eta
    h = _gram(m)
    del m  # only the Gram is alive while it is factorized
    # the whitened class of the unit, sqrt(d_q) at (j, q, q) of each group:
    # the map and its adjoint fix the unit's class, and so does each Gram
    # (f(1) = 1), so M^dag M fixes this vector
    unit = np.concatenate(
        [(np.eye(g.n, g.rank) * np.sqrt(g.d[:, None, : g.rank])).ravel() for g in space_sigma._groups]
    )
    exact, top = _top_gram_eig(h, unit, vector=True)
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
        vec = _whiten(kind, space_sigma, top[:, None], inverse=True)
        vec = _phase_fix(vec[None] / np.linalg.norm(vec))[0, :, 0]
        report["witness"] = {"vector": vec, "ratio": exact}
    return report


def tracial_collapse_check(
    shapes, n_states: int = 100, seed: int = 0, tol: float = 1e-9
) -> dict:
    """On tracial states every catalog Petz product collapses onto the GNS one.

    Draws random block-scalar states on the given shapes and reports the
    largest deviation of any Petz Gram from the identity.  More than
    ``MAX_TRACIAL_STATES`` states is an :class:`InputError`.
    """
    if n_states > MAX_TRACIAL_STATES:
        raise InputError(f"{n_states} states exceed the limit of {MAX_TRACIAL_STATES} tracial states")
    shapes = list(shapes)
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
