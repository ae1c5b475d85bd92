"""Covariance products on GNS coordinates: the GNS product itself and a
catalog of alternatives built from operator monotone functions.

Kernel convention
-----------------
For a faithful state with density eigenvalues d_i (per block, in the density
eigenbasis) the product acts entrywise on matrix coordinates with weight

    w_ij = d_j * f(d_i / d_j),

where f is a normalized operator monotone function.  The convention is
anchored so that f == 1 reproduces the GNS product exactly, since
rho(x^dag y) = sum_ij d_j conj(x_ij) y_ij in that basis.  With the standard
catalog this yields the familiar inverse kernels: f(t) = (1+t)/2 gives the
anticommutator (symmetric-logarithmic-derivative) pairing, (t-1)/log t the
Kubo-Mori one, and so on.

All products are normalized (f(1) = 1, so the pairing of the unit with itself
is one); the residual freedom of an overall factor is exposed as the ``scale``
field of :class:`CovarianceKind`, default 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .algebra import AlgebraElement, ShapeError, adjoint, multiply
from .channels import NcpMorphism
from .gns import GnsSpace, build_gns, induced_contraction
from .states import NormalState, evaluate, is_faithful, random_tracial_state


class UnsupportedKindError(ValueError):
    """A covariance kind was requested at a state it is not defined for."""


@dataclass(frozen=True)
class OperatorMonotoneFunction:
    """Positive function on (0, inf), operator monotone, with f(1) = 1.

    ``symmetric`` flags the balance condition f(t) = t * f(1/t).
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


def matrix_apply(f: OperatorMonotoneFunction, a: np.ndarray) -> np.ndarray:
    """Spectral calculus f(A) for a Hermitian matrix with positive spectrum."""
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    return v @ np.diag(f(w)) @ v.conj().T


@dataclass(frozen=True)
class CovarianceKind:
    """Either the GNS product (tag "gns") or a Petz product (tag "petz")."""

    tag: str
    omf: OperatorMonotoneFunction | None = None
    scale: float = 1.0

    @property
    def label(self) -> str:
        return self.tag if self.omf is None else f"{self.tag}:{self.omf.name}"


def gns_kind(scale: float = 1.0) -> CovarianceKind:
    return CovarianceKind("gns", None, scale)


def petz_kind(omf: OperatorMonotoneFunction, scale: float = 1.0) -> CovarianceKind:
    return CovarianceKind("petz", omf, scale)


def kind_catalog(scale: float = 1.0) -> list[CovarianceKind]:
    """GNS plus the Petz kinds of the built-in catalog."""
    return [gns_kind(scale)] + [petz_kind(f, scale) for f in omf_catalog()]


def kind_from_name(name: str, scale: float = 1.0) -> CovarianceKind:
    name = name.lower()
    if name == "gns":
        return gns_kind(scale)
    for f in omf_catalog():
        if f.name == name:
            return petz_kind(f, scale)
    raise UnsupportedKindError(f"unknown covariance kind {name!r}")


@dataclass(frozen=True)
class CovarianceGram:
    """Hermitian positive matrix of a covariance product in GNS coordinates."""

    space: GnsSpace
    gram: np.ndarray


def _require_petz_ok(kind: CovarianceKind, state: NormalState) -> None:
    if kind.tag == "petz" and not is_faithful(state):
        raise UnsupportedKindError(
            f"kind {kind.label} needs a faithful state; "
            "a density block is rank deficient"
        )


def _group_forms(kind: CovarianceKind, group) -> np.ndarray:
    """Block forms of every block in one rank group of a GNS space, stacked:
    (m, n^2, n^2)."""
    m, n = group.index.size, group.n
    if kind.tag == "gns":
        # I (x) conj(D); the symmetrized density makes it exactly Hermitian
        b = np.einsum("ij,kab->kiajb", np.eye(n), group.density.conj())
        return kind.scale * b.reshape(m, n * n, n * n)
    if kind.tag != "petz":
        raise UnsupportedKindError(f"unknown kind tag {kind.tag!r}")
    w, v = group.eigs, group.vecs
    r = group.rank
    ratios = w[:, :, None] * (1.0 / w)[:, None, :]
    weights = (w[:, None, :] * kind.omf(ratios)).reshape(m, r * r, 1)
    # rows (a, b) of the eigenbasis change: conj(v[i, a]) * v[j, b]
    to_eig = np.einsum("kia,kjb->kabij", v.conj(), v).reshape(m, r * r, n * n)
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
    _require_petz_ok(kind, space.state)
    forms = space._forms.get(kind)
    if forms is None:
        forms = [_group_forms(kind, g) for g in space._groups]
        for f in forms:
            f.flags.writeable = False
        space._forms[kind] = forms
    g, j = space._where[k]
    return forms[g][j]


def covariance_gram(kind: CovarianceKind, space: GnsSpace) -> CovarianceGram:
    """The covariance product pushed to orthonormal GNS coordinates.

    The GNS kind returns exactly the (scaled) identity; Petz kinds assemble
    the kernel through the quotient isometry.
    """
    if kind.tag == "gns":
        return CovarianceGram(space, kind.scale * np.eye(space.dim))
    _require_petz_ok(kind, space.state)
    reps = space.rep_elements
    gram = np.zeros((space.dim, space.dim), dtype=complex)
    blocks_b = [block_form(kind, space, k) for k in range(space.shape.num_blocks)]
    rep_vecs = [[x.ravel() for x in r.blocks] for r in reps]
    for k, b in enumerate(blocks_b):
        vecs = np.column_stack([rv[k] for rv in rep_vecs])
        gram += vecs.conj().T @ b @ vecs
    gram = (gram + gram.conj().T) / 2.0
    return CovarianceGram(space, gram)


def covariance_eval(
    kind: CovarianceKind, space: GnsSpace, x: AlgebraElement, y: AlgebraElement
) -> complex:
    """Sesquilinear covariance pairing of two algebra elements at the state."""
    if x.shape != space.shape or y.shape != space.shape:
        raise ShapeError("elements do not live on the space's algebra")
    if kind.tag == "gns":
        return kind.scale * evaluate(space.state, multiply(adjoint(x), y))
    _require_petz_ok(kind, space.state)
    total = 0.0 + 0.0j
    for k in range(space.shape.num_blocks):
        b = block_form(kind, space, k)
        total += complex(x.blocks[k].ravel().conj() @ b @ y.blocks[k].ravel())
    return total


def monotonicity_check(
    kind: CovarianceKind,
    morphism: NcpMorphism,
    n_samples: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> dict:
    """Verify that the induced GNS map contracts the covariance pairing.

    Samples random vectors in the domain space and also solves the exact
    generalized eigenvalue problem; the exact criterion decides the verdict
    because sampling can miss thin violating cones.
    """
    shape_a, rho = morphism.source
    shape_b, sigma = morphism.target
    if kind.tag == "petz":
        _require_petz_ok(kind, rho)
        _require_petz_ok(kind, sigma)
    space_rho = build_gns(shape_a, rho)
    space_sigma = build_gns(shape_b, sigma)
    contraction = induced_contraction(morphism, space_sigma, space_rho)
    g_rho = covariance_gram(kind, space_rho).gram
    g_sigma = covariance_gram(kind, space_sigma).gram
    c = contraction.matrix
    pushed = c.conj().T @ g_rho @ c
    pushed = (pushed + pushed.conj().T) / 2.0
    exact = float(scipy.linalg.eigh(pushed, g_sigma, eigvals_only=True)[-1])

    rng = np.random.default_rng(seed)
    d = space_sigma.dim
    worst_sample = 0.0
    n_violations = 0
    for _ in range(n_samples):
        xi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        lhs = float((xi.conj() @ pushed @ xi).real)
        rhs = float((xi.conj() @ g_sigma @ xi).real)
        worst_sample = max(worst_sample, lhs / rhs)
        if lhs > rhs + tol * float((xi.conj() @ xi).real):
            n_violations += 1
    return {
        "kind": kind.label,
        "n_samples": n_samples,
        "worst_ratio": worst_sample,
        "exact_max_eig": exact,
        "sample_violations": n_violations,
        "tol": tol,
        "passed": exact <= 1.0 + tol,
    }


def tracial_collapse_check(
    shapes,
    n_states: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
    threads: int = 1,
) -> dict:
    """On tracial states every catalog Petz product collapses onto the GNS one.

    Draws random block-scalar states on the given shapes and reports the
    largest deviation of any Petz Gram from the identity.
    """
    shapes = list(shapes)
    seeds = np.random.SeedSequence(seed).spawn(n_states)

    def one_trial(idx: int) -> tuple[str, float]:
        shape = shapes[idx % len(shapes)]
        state = random_tracial_state(shape, seed=seeds[idx])
        space = build_gns(shape, state)
        dev = 0.0
        for f in omf_catalog():
            gram = covariance_gram(petz_kind(f), space).gram
            dev = max(dev, float(np.max(np.abs(gram - np.eye(space.dim)))))
        return repr(list(shape.blocks)), dev

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_trial, range(n_states)))
    else:
        results = [one_trial(i) for i in range(n_states)]

    per_shape: dict[str, float] = {}
    for label, dev in results:
        per_shape[label] = max(per_shape.get(label, 0.0), dev)
    max_dev = max(dev for _, dev in results) if results else 0.0
    return {
        "shapes": [list(s.blocks) for s in shapes],
        "n_states": n_states,
        "max_deviation": max_dev,
        "per_shape": per_shape,
        "tol": tol,
        "passed": max_dev <= tol,
    }
