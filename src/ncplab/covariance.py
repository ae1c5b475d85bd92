"""Covariance products on GNS coordinates: the GNS product itself and a
catalog of alternatives built from operator monotone functions.

One kernel
----------
Every product is one Hadamard kernel on the state's cached spectrum: for
density eigenvalues d_a of a block, with eigenvectors U and x' = U^dag x U,

    <x, y> = sum_ab W_ab conj(x'_ab) y'_ab,   W_ab = d_b * f(d_a / d_b),

where f is a normalized operator monotone function.  The GNS product
rho(x^dag y) is the member f == 1 (:data:`ONE`); a kind other than f == 1
needs a faithful state.  With the standard catalog this yields the familiar
inverse kernels: f(t) = (1+t)/2 gives the anticommutator (SLD) pairing,
(t-1)/log t the Kubo-Mori one, and so on.  In GNS coordinates, coordinate
(i, q) of a block (row i, kept eigenvalue d_q) pairs only with (i', q) of the
same block, through the n x n matrix I + U diag(f(d / d_q) - 1) U^dag; so
f == 1 gives exactly the identity, and a block-scalar density exactly zero
deviation from it.  Equivalently the pairing is |z|^2 for the whitened
z_aq = sqrt(scale f(d_a / d_q)) (U^dag y)_aq of a block's coordinates y,
which solves the monotonicity criterion without any Gram, and since
f(1) = 1 the whitened class of the unit is an eigenvector of the criterion
with eigenvalue 1, which one Cholesky factorization certifies as the top
when the verdict passes.  The raw forms of
the Riesz solve use all eigenvalues, with no support cutoff (the ratio is 1
where d_b <= 0): a relative cutoff is not refinement invariant, and applying
1e-9 in the abelian pullback moved the congruence deviation of
``gaussian:384`` from 6e-15 to 5.1e-7 over 300 random refinements, against a
tolerance of 1e-9.

All products are normalized (f(1) = 1, so the pairing of the unit with itself
is one); the residual freedom of an overall factor is exposed as the ``scale``
field of :class:`CovarianceKind`, default 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import InputError, _phase_fix
from .channels import NcpMorphism
from .gns import GnsSpace, _top_gram_eig, build_gns, induced_contraction
from .states import NormalState, is_faithful, random_tracial_state


class UnsupportedKindError(InputError):
    """A covariance kind was requested at a state it is not defined for."""


@dataclass(frozen=True, eq=False)
class OperatorMonotoneFunction:
    """Positive function on (0, inf), operator monotone, with f(1) = 1.

    ``symmetric`` flags the balance condition f(t) = t * f(1/t).  Instances
    compare and hash by identity, which keeps kinds cheap as cache keys.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    normalized: bool = True
    symmetric: bool = True

    def __call__(self, t):
        scalar = np.isscalar(t)
        out = self.fn(np.asarray(t, dtype=float))
        return float(out) if scalar else out


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


#: The constant function f == 1, whose kind is the GNS product.  It is not
#: part of :func:`omf_catalog`.
ONE = OperatorMonotoneFunction("gns", np.ones_like, symmetric=False)


@dataclass(frozen=True)
class CovarianceKind:
    """The product of one operator monotone function, times ``scale``;
    f == 1 (:data:`ONE`) is the GNS product."""

    omf: OperatorMonotoneFunction = ONE
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.scale < np.inf:
            raise UnsupportedKindError(f"covariance scale must be finite and > 0, got {self.scale}")

    @property
    def is_gns(self) -> bool:
        return self.omf is ONE

    @property
    def label(self) -> str:
        return "gns" if self.is_gns else f"petz:{self.omf.name}"


def gns_kind(scale: float = 1.0) -> CovarianceKind:
    return CovarianceKind(ONE, scale)


def petz_kind(omf: OperatorMonotoneFunction, scale: float = 1.0) -> CovarianceKind:
    return CovarianceKind(omf, scale)


def kind_catalog(scale: float = 1.0) -> list[CovarianceKind]:
    """GNS plus the Petz kinds of the built-in catalog."""
    return [CovarianceKind(f, scale) for f in (ONE, *omf_catalog())]


def kind_from_name(name: str, scale: float = 1.0) -> CovarianceKind:
    for kind in kind_catalog(scale):
        if kind.omf.name == name.lower():
            return kind
    raise UnsupportedKindError(f"unknown covariance kind {name!r}")


@dataclass(frozen=True)
class CovarianceGram:
    """Hermitian positive matrix of a covariance product in GNS coordinates."""

    space: GnsSpace
    gram: np.ndarray


def _require_faithful(kind: CovarianceKind, state: NormalState) -> None:
    if not kind.is_gns and not is_faithful(state):
        raise UnsupportedKindError(
            f"kind {kind.label} needs a faithful state; "
            "a density block is rank deficient"
        )


def _kernel(kind: CovarianceKind, group) -> np.ndarray:
    """F_ab = f(d_a / d_b) (m, n, n) on one rank group's full spectrum ``d``,
    with the ratio set to 1 where d_b <= 0."""
    d = group.d
    ratio = np.divide(
        d[:, :, None], d[:, None, :], out=np.ones(group.u.shape), where=d[:, None, :] > 0.0
    )
    return kind.omf(ratio)


def _group_forms(kind: CovarianceKind, group) -> np.ndarray:
    """Raw forms of every block in one rank group, stacked: (m, n^2, n^2)."""
    d, u, f = group.d, group.u, _kernel(kind, group)
    m, n = d.shape
    weights = (d[:, None, :] * f).reshape(m, n * n, 1)
    # rows (a, b) of the eigenbasis change: conj(U[i, a]) * U[j, b]
    to_eig = np.einsum("kia,kjb->kabij", u.conj(), u).reshape(m, n * n, n * n)
    b = to_eig.conj().swapaxes(-1, -2) @ (weights * to_eig)
    return kind.scale * (b + b.conj().swapaxes(-1, -2)) / 2.0


def block_form(kind: CovarianceKind, space: GnsSpace, k: int) -> np.ndarray:
    """Covariance pairing on raw coordinates of block k: a Hermitian
    (n_k^2 x n_k^2) matrix B with <x, y> = vec(x_k)^dag B vec(y_k) summed
    over blocks.

    The first call for a kind computes the forms of all blocks of the space,
    one batched product per rank group, and caches them on the space; every
    call returns a read-only view of that cache.
    """
    _require_faithful(kind, space.state)
    forms = space._forms.get(kind)
    if forms is None:
        forms = [_group_forms(kind, g) for g in space._groups]
        for f in forms:
            f.flags.writeable = False
        space._forms[kind] = forms
    g, j = space._where[k]
    return forms[g][j]


def covariance_gram(kind: CovarianceKind, space: GnsSpace) -> CovarianceGram:
    """The covariance product in orthonormal GNS coordinates.

    Built block by block from ``I + U diag(f(d / d_q) - 1) U^dag`` (see the
    module docstring), one batched product per rank group and one scatter.
    """
    _require_faithful(kind, space.state)
    gram = np.zeros((space.dim, space.dim), dtype=complex)
    for g in space._groups:
        u, f, at = g.u, _kernel(kind, g), g.at[:, :, : g.rank].swapaxes(1, 2)  # [j, q, i]
        dev = (f[:, :, : g.rank] - 1.0).swapaxes(1, 2)  # (m, r, n): kept q, all a
        blk = (u[:, None] * dev[:, :, None, :]) @ u.conj().swapaxes(-1, -2)[:, None]
        blk = (blk + blk.conj().swapaxes(-1, -2)) / 2.0 + np.eye(g.n)
        gram[at[..., :, None], at[..., None, :]] = kind.scale * blk
    return CovarianceGram(space, gram)


def _whiten(kind: CovarianceKind, space: GnsSpace, x: np.ndarray, power=1, adjoint=False):
    """Z^power, or its adjoint, on the coordinate rows of x (dim, s), for the
    whitening Z of the kind's pairing, <y, y> = |Z y|^2: column q of a block's
    coordinate matrix y goes to w_q * (U^dag y_q), w_qa = sqrt(scale f(d_a / d_q))."""
    out = np.empty(x.shape, dtype=complex)
    for g in space._groups:
        u, f, at = g.u, _kernel(kind, g), g.at[:, :, : g.rank].swapaxes(1, 2)  # [j, q, i]
        w = np.sqrt(kind.scale * f[:, :, : g.rank]).swapaxes(1, 2)[..., None]  # (m, r, n, 1)
        z = w**power * u.conj().swapaxes(1, 2)[:, None]
        out[at] = (z.conj().swapaxes(-1, -2) if adjoint else z) @ x[at]
    return out


def monotonicity_check(
    kind: CovarianceKind,
    morphism: NcpMorphism,
    n_samples: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> dict:
    """Verify that the induced GNS map contracts the covariance pairing.

    With Z the kind's whitening (:func:`_whiten`), the pushed pairing is
    |Z_rho C xi|^2 and the domain's |Z_sigma xi|^2, so the exact criterion
    (it decides: samples can miss thin violating cones) is the top eigenvalue
    of M^dag M, M = Z_rho C Z_sigma^-1, with no Gram built.  A failed verdict
    carries ``witness``: the top eigenvector in sigma's orthonormal GNS
    coordinates (unit norm, phase fixed as theirs) and its ratio."""
    shape_a, rho = morphism.source
    shape_b, sigma = morphism.target
    _require_faithful(kind, rho)
    _require_faithful(kind, sigma)
    space_rho = build_gns(shape_a, rho)
    space_sigma = build_gns(shape_b, sigma)
    c = induced_contraction(morphism, space_sigma, space_rho).matrix
    m_adj = _whiten(kind, space_sigma, _whiten(kind, space_rho, c).conj().T, power=-1)
    del c
    m = m_adj.conj().T

    # the same numbers, in the same order, as drawing the real and then the
    # imaginary part of one sample at a time
    draws = np.random.default_rng(seed).standard_normal((n_samples, 2, space_sigma.dim))
    xi = (draws[:, 0] + 1j * draws[:, 1]).T  # d x n_samples
    eta = _whiten(kind, space_sigma, xi)
    lhs, rhs, norms = (np.sum(np.abs(v) ** 2, axis=0) for v in (m @ eta, eta, xi))
    h = m_adj @ m
    del m_adj, m  # only the Gram is alive while it is factorized
    # the whitened class of the unit: the map and its adjoint fix the unit's
    # class, and so does each Gram (f(1) = 1), so M^dag M fixes this vector
    unit = _whiten(kind, space_sigma, space_sigma.cyclic[:, None])[:, 0]
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
        vec = _whiten(kind, space_sigma, top[:, None], power=-1, adjoint=True)
        vec = _phase_fix(vec[None] / np.linalg.norm(vec))[0, :, 0]
        report["witness"] = {"vector": vec, "ratio": exact}
    return report


def tracial_collapse_check(
    shapes, n_states: int = 100, seed: int = 0, tol: float = 1e-9
) -> dict:
    """On tracial states every catalog Petz product collapses onto the GNS one.

    Draws random block-scalar states on the given shapes and reports the
    largest deviation of any Petz Gram from the identity.
    """
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
