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
z_aq = sqrt(f(d_a / d_q)) (U^dag y)_aq of a block's coordinates y,
which solves the monotonicity criterion without any Gram, and since
f(1) = 1 the whitened class of the unit is an eigenvector of the criterion
with eigenvalue 1, which one Cholesky factorization certifies as the top
when the verdict passes.  The raw forms of
the Riesz solve use every eigenvalue of a block, dropped ones included (the
ratio is 1 where d_b <= 0).

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
from .gns import GnsSpace, _top_gram_eig, build_gns, induced_contraction
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


def _group_forms(kind: OperatorMonotoneFunction, group) -> np.ndarray:
    """Raw forms of every block in one rank group, stacked: (m, n^2, n^2)."""
    d, u, f = group.d, group.u, _kernel(kind, group)
    m, n = d.shape
    weights = (d[:, None, :] * f).reshape(m, n * n, 1)
    # rows (a, b) of the eigenbasis change: conj(U[i, a]) * U[j, b]
    to_eig = np.einsum("kia,kjb->kabij", u.conj(), u).reshape(m, n * n, n * n)
    b = to_eig.conj().swapaxes(-1, -2) @ (weights * to_eig)
    return (b + b.conj().swapaxes(-1, -2)) / 2.0


def block_form(kind: OperatorMonotoneFunction, space: GnsSpace, k: int) -> np.ndarray:
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
    return forms[space._group_of[k]][space._slot_of[k]]


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


def _whiten(kind: OperatorMonotoneFunction, space: GnsSpace, x: np.ndarray, power=1, adjoint=False):
    """Z^power, or its adjoint, on the coordinate rows of x (dim, s), for the
    whitening Z of the kind's pairing, <y, y> = |Z y|^2: column q of a block's
    coordinate matrix y goes to w_q * (U^dag y_q), w_qa = sqrt(f(d_a / d_q))."""
    out = np.empty(x.shape, dtype=complex)
    for g, at in zip(space._groups, space._layout.at):
        u, f, at = g.u, _kernel(kind, g), at[:, :, : g.rank].swapaxes(1, 2)  # [j, q, i]
        w = np.sqrt(f[:, :, : g.rank]).swapaxes(1, 2)[..., None]  # (m, r, n, 1)
        z = w**power * u.conj().swapaxes(1, 2)[:, None]
        out[at] = (z.conj().swapaxes(-1, -2) if adjoint else z) @ x[at]
    return out


def monotonicity_check(
    kind: OperatorMonotoneFunction,
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
