"""Parametrized families of states and the Riemannian metrics they inherit
from covariance products.

Pullback procedure
------------------
At a parameter point the differential of the state along each coordinate is a
Hermitian trace-zero element dD_i.  Its score v_i is the Riesz representative
of the real functional a -> Re Tr(dD_i a) on self-adjoint classes, taken with
respect to the real part of the chosen covariance product; the metric is
g_ij = Re <v_i, v_j>.  With the GNS product this reproduces the classical
Fisher information matrix on abelian algebras and the symmetric-logarithmic-
derivative quantum Fisher information on faithful matrix states.

Normalization: the quantum Fisher information convention is used throughout
(no 1/4), so the pure-qubit family below carries the round unit-sphere metric,
i.e. four times the Fubini-Study metric.

The covariance pairing decomposes block by block, and in each block's density
eigenbasis it is diagonal: the Riesz score is the differential divided
entrywise by the kind's kernel, one batched change of basis per rank group,
so pullbacks stay cheap for finely discretized abelian models and large
matrix blocks alike.  A returned metric is always finite: where it overflows,
an error names theta, so the solve and the metrics run with numpy's
floating-point warnings off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    InputError,
    ShapeError,
    _check_count,
    _check_tol,
    _from_vec,
    _wrap,
    abelian_shape,
    mk_shape,
)
from .channels import CpuMap, _markov_from_owned, _predual_vec, predual
from .covariance import ONE, OperatorMonotoneFunction, block_form
from .gns import _iso, _transform, build_gns
from .states import NormalState, _state_from_vec


class ModelDomainError(InputError):
    """Bad model arguments, or parameters off the chart or where a metric is not finite."""


class ScoreNotRepresentableError(InputError):
    """A differential has no Riesz representative at the requested state."""

    def __init__(self, message: str, param_index: int):
        super().__init__(message)
        self.param_index = param_index


RESIDUAL_TOL = 1e-8
FD_STEP = 1e-5
#: Most outcomes an abelian family may have (bins of ``gaussian_model``,
#: points of ``simplex_model``).  Checked before anything is allocated, so a
#: size far beyond memory is an input error, not a failed allocation; the
#: largest pullback in use, 262144 bins, is well inside it.
MAX_OUTCOMES = 2**22


@dataclass
class StatModel:
    """A chart theta -> state on a fixed ambient algebra.

    Derivatives come from the analytic closure ``_deriv_fn`` when the family
    has one, else from finite differences with step ``FD_STEP``: central,
    or one-sided of second order at the edge of the chart.
    ``reference(theta)`` is the family's closed-form GNS metric and
    ``interior(rng)`` a seeded parameter point well inside the chart; either
    is None when the family has none.
    """

    name: str
    shape: AlgebraShape
    param_dim: int
    domain: Callable[[np.ndarray], bool]
    _state_fn: Callable[[np.ndarray], NormalState]
    _deriv_fn: Callable[[np.ndarray], list[AlgebraElement]] | None = None
    _domain_message: Callable[[np.ndarray], str] | None = None
    reference: Callable[[np.ndarray], np.ndarray] | None = None
    interior: Callable[[np.random.Generator], np.ndarray] | None = None

    def _check(self, theta: np.ndarray) -> None:
        """Raise :class:`ModelDomainError` unless theta is a point of the chart."""
        if theta.shape != (self.param_dim,):
            raise ModelDomainError(
                f"{self.name}: expected {self.param_dim} parameters, got {theta.shape}"
            )
        if not self.domain(theta):
            msg = (
                self._domain_message(theta)
                if self._domain_message is not None
                else f"{self.name}: parameters {theta.tolist()} outside the chart domain"
            )
            raise ModelDomainError(msg)

    @np.errstate(all="ignore")
    def reference_at(self, theta) -> np.ndarray | None:
        """The closed-form GNS metric at theta, or None; ModelDomainError if not finite."""
        if self.reference is None:
            return None
        return _finite(self, theta, "reference metric", self.reference(theta))

    def state_at(self, theta) -> NormalState:
        theta = np.asarray(theta, dtype=float)
        self._check(theta)
        return self._state_fn(theta)

    def derivatives(self, theta) -> list[AlgebraElement]:
        """Hermitian trace-zero differentials dD_i, one per parameter.

        Finite differences are central where theta +- h both lie in the
        chart.  Near its edge a parameter takes the second-order one-sided
        stencil (-3 f(theta) + 4 f(theta + s h) - f(theta + 2 s h)) / (2 s h)
        towards the side s that fits.
        """
        theta = np.asarray(theta, dtype=float)
        self._check(theta)
        if self._deriv_fn is not None:
            return self._deriv_fn(theta)
        return [_from_vec(self.shape, self._difference(theta, i)) for i in range(self.param_dim)]

    def _difference(self, theta: np.ndarray, i: int) -> np.ndarray:
        h = np.zeros(self.param_dim)
        h[i] = FD_STEP

        def f(t):
            return self._state_fn(t).vec

        if self.domain(theta + h) and self.domain(theta - h):
            return (f(theta + h) - f(theta - h)) / (2.0 * FD_STEP)
        for s in (h, -h):
            if self.domain(theta + s) and self.domain(theta + 2.0 * s):
                return (-3.0 * f(theta) + 4.0 * f(theta + s) - f(theta + 2.0 * s)) / (2.0 * s[i])
        raise ModelDomainError(
            f"{self.name}: no finite-difference stencil of step {FD_STEP:.0e} in "
            f"parameter {i} fits inside the chart at {theta.tolist()}"
        )


def _finite(model: StatModel, theta, what: str, value: np.ndarray) -> np.ndarray:
    if not np.isfinite(value).all():
        raise ModelDomainError(
            f"{model.name}: the {what} is not finite at theta={np.asarray(theta).tolist()}"
        )
    return value


def finite_difference(model: StatModel) -> StatModel:
    """The same chart with its derivatives taken by central finite differences."""
    return replace(model, _deriv_fn=None)


# ---------------------------------------------------------------------------
# Concrete models
# ---------------------------------------------------------------------------


def simplex_model(n: int) -> StatModel:
    """Open probability simplex on n+1 outcomes, coordinates p_1..p_n;
    at most ``MAX_OUTCOMES`` outcomes."""
    n = _check_count("n", n)
    if n < 1:
        raise ModelDomainError("simplex needs at least one free coordinate")
    if n + 1 > MAX_OUTCOMES:
        raise ModelDomainError(
            f"simplex:{n} has {n + 1} outcomes, above the limit of {MAX_OUTCOMES}"
        )
    shape = abelian_shape(n + 1)

    def domain(theta):
        return bool(np.all(theta > 0.0) and float(np.sum(theta)) < 1.0)

    def probs(theta):
        return np.concatenate([theta, [1.0 - float(np.sum(theta))]])

    def state_fn(theta):
        return _state_from_vec(shape, probs(theta))

    def deriv_fn(theta):
        d = np.eye(n, n + 1)  # row i: d/dp_i moves mass from the last outcome
        d[:, n] = -1.0
        return [_from_vec(shape, row) for row in d]

    def interior(rng):
        p = rng.dirichlet(np.ones(n + 1))
        return (0.9 * p + 0.1 / (n + 1))[:-1]

    return StatModel(
        f"simplex:{n}", shape, n, domain, state_fn, deriv_fn,
        reference=fisher_rao_simplex_metric, interior=interior,
    )


#: sigma_x, sigma_y, sigma_z, entries row-major
_PAULI = np.reshape([0, 1, 1, 0, 0, -1j, 1j, 0, 1, 0, 0, -1], (3, 2, 2)).astype(complex)


def _bloch_vectors(th: float, ph: float):
    n_hat = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
    d_th = np.array([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)])
    d_ph = np.array([-np.sin(th) * np.sin(ph), np.sin(th) * np.cos(ph), 0.0])
    return n_hat, d_th, d_ph


def _pauli_dot(vec) -> np.ndarray:
    return sum(c * s for c, s in zip(vec, _PAULI))


def qubit_faithful_model() -> StatModel:
    """Full-rank qubit states in spherical Bloch coordinates (r, theta, phi).

    The chart is the punctured open ball: r in (0, 1), theta in (0, pi).
    """
    shape = mk_shape([2])

    def domain(theta):
        r, th, _ = theta
        return bool(0.0 < r < 1.0 and 0.0 < th < np.pi)

    def state_fn(theta):
        r, th, ph = theta
        n_hat, _, _ = _bloch_vectors(th, ph)
        return _state_from_vec(shape, ((np.eye(2) + r * _pauli_dot(n_hat)) / 2.0).ravel())

    def deriv_fn(theta):
        r, th, ph = theta
        n_hat, d_th, d_ph = _bloch_vectors(th, ph)
        return [
            _wrap(shape, [_pauli_dot(n_hat) / 2.0]),
            _wrap(shape, [r * _pauli_dot(d_th) / 2.0]),
            _wrap(shape, [r * _pauli_dot(d_ph) / 2.0]),
        ]

    return StatModel(
        "qubit-faithful", shape, 3, domain, state_fn, deriv_fn,
        reference=lambda theta: qubit_qfi_metric(*theta),
    )


def qubit_pure_model() -> StatModel:
    """Rank-one qubit states on the Bloch sphere, coordinates (theta, phi)."""
    shape = mk_shape([2])

    def domain(theta):
        th, _ = theta
        return bool(0.0 <= th <= np.pi)

    def state_fn(theta):
        th, ph = theta
        n_hat, _, _ = _bloch_vectors(th, ph)
        return _state_from_vec(shape, ((np.eye(2) + _pauli_dot(n_hat)) / 2.0).ravel())

    def deriv_fn(theta):
        th, ph = theta
        _, d_th, d_ph = _bloch_vectors(th, ph)
        return [
            _wrap(shape, [_pauli_dot(d_th) / 2.0]),
            _wrap(shape, [_pauli_dot(d_ph) / 2.0]),
        ]

    return StatModel(
        "qubit-pure", shape, 2, domain, state_fn, deriv_fn,
        reference=lambda theta: pure_qubit_sphere_metric(*theta),
    )


MASS_LEAK_TOL = 1e-6


def gaussian_model(n_bins: int, x_min: float, x_max: float) -> StatModel:
    """Normal densities binned on a uniform grid, parameters (mu, sigma).

    Bin masses are exact differences of the CDF left of the mean and of the
    survival function right of it, so neither tail rounds to zero,
    renormalized; the chart requires at least 1 - 1e-6 of the mass inside
    [x_min, x_max].  Interior points have mu near the centre of the range
    and sigma near a twentieth of its width.
    ``n_bins`` is an integer from 2 to ``MAX_OUTCOMES``.
    """
    n_bins = _check_count("n_bins", n_bins)
    if n_bins < 2:
        raise ModelDomainError("need at least two bins")
    if n_bins > MAX_OUTCOMES:
        raise ModelDomainError(f"{n_bins} bins is above the limit of {MAX_OUTCOMES}")
    if not (x_min < x_max and np.isfinite([x_min, x_max]).all()):
        raise ModelDomainError(f"bin range [{x_min}, {x_max}] is empty or not finite")
    # imported here, on the first binned model, so that importing the
    # package does not load scipy.special
    from scipy.special import ndtr

    shape = abelian_shape(n_bins)
    edges = np.linspace(x_min, x_max, n_bins + 1)

    def contained(theta):
        mu, sig = theta
        return float(ndtr((x_max - mu) / sig) - ndtr((x_min - mu) / sig))

    def domain(theta):
        if theta[1] <= 0.0:
            return False
        return contained(theta) >= 1.0 - MASS_LEAK_TOL

    def domain_message(theta):
        if theta[1] <= 0.0:
            return f"gaussian: sigma must be positive, got {theta[1]}"
        leak = 1.0 - contained(theta)
        return (
            f"gaussian: {leak:.3e} of the mass leaks outside "
            f"[{x_min}, {x_max}] (limit {MASS_LEAK_TOL:.1e})"
        )

    def raw_probs(theta):
        # right of the mean the CDF rounds to 1, which would zero every bin
        # past about 8.3 sigma; there the survival function ndtr(-z) keeps
        # the tail, and the bin that straddles the mean takes the CDF
        mu, sig = theta
        z = (edges - mu) / sig
        k = int(np.searchsorted(z, 0.0))  # edges from k on lie at or right of the mean
        return np.concatenate([np.diff(ndtr(z[: k + 1])), -np.diff(ndtr(-z[k:]))])

    def state_fn(theta):
        p = raw_probs(theta)
        return _state_from_vec(shape, p / p.sum())

    def deriv_fn(theta):
        mu, sig = theta
        z = (edges - mu) / sig
        pdf = np.exp(-z * z / 2.0) / np.sqrt(2.0 * np.pi)
        p = raw_probs(theta)
        total = p.sum()
        d_mu = -np.diff(pdf) / sig
        d_sig = -np.diff(z * pdf) / sig
        return [
            _from_vec(shape, (d_raw * total - p * d_raw.sum()) / total**2)
            for d_raw in (d_mu, d_sig)
        ]

    centre, scale = (x_min + x_max) / 2.0, (x_max - x_min) / 20.0

    def interior(rng):
        return np.array([centre + scale * rng.uniform(-0.5, 0.5), scale * rng.uniform(0.8, 1.2)])

    return StatModel(
        f"gaussian:{n_bins}", shape, 2, domain, state_fn, deriv_fn, domain_message,
        reference=lambda theta: gaussian_fisher_rao_metric(*theta), interior=interior,
    )


# ---------------------------------------------------------------------------
# Affine group action on the Gaussian family
# ---------------------------------------------------------------------------


def affine_compose(xi, xi2) -> tuple[float, float]:
    """Composition of x -> sigma x + mu maps: (mu, s) o (mu', s') = (mu + s mu', s s')."""
    mu, s = xi
    mu2, s2 = xi2
    if s <= 0.0 or s2 <= 0.0:
        raise ModelDomainError("affine scale must be positive")
    return (mu + s * mu2, s * s2)


def _normal_pdf(x, mu, sig):
    z = (np.asarray(x, dtype=float) - mu) / sig
    return np.exp(-z * z / 2.0) / (sig * np.sqrt(2.0 * np.pi))


def affine_pushforward_check(xi, xi2, grid) -> dict:
    """Pointwise identity p_{xi o xi'}(x) = p_{xi'}((x - mu)/sigma) / sigma.

    Checked on analytic normal densities over the supplied grid; this is the
    density form of pushing the law at xi' forward through the affine map xi.
    """
    mu, s = xi
    comp = affine_compose(xi, xi2)
    grid = np.asarray(grid, dtype=float)
    lhs = _normal_pdf(grid, comp[0], comp[1])
    rhs = _normal_pdf((grid - mu) / s, xi2[0], xi2[1]) / s
    dev = float(np.max(np.abs(lhs - rhs)))
    return {
        "xi": list(map(float, xi)),
        "xi_prime": list(map(float, xi2)),
        "composed": list(map(float, comp)),
        "grid_points": int(grid.size),
        "max_abs_deviation": dev,
        "passed": dev < 1e-12,
    }


@dataclass
class GroupActionModel:
    """A model together with a compatible group of channel automorphisms."""

    base: StatModel
    act_on_params: Callable
    automorphism_at: Callable[[tuple], CpuMap]

    def equivariance_deviation(self, g, theta, interior: int = 0) -> float:
        """Worst bin deviation between the pushed state and the state at g o theta.

        ``interior`` drops that many bins at each edge of the grid before
        comparing, to separate discretization edge effects.
        """
        rho = self.base.state_at(theta)
        pushed = predual(self.automorphism_at(g), rho)
        direct = self.base.state_at(self.act_on_params(g, theta))
        p, q = pushed.vec.real, direct.vec.real
        if interior:
            p, q = p[interior:-interior], q[interior:-interior]
        return float(np.max(np.abs(p - q)))

    def composition_deviation(self, g, g2, theta) -> float:
        """Total-variation gap, on the state at theta, between the channel at
        g o g2 and the chained channels at g and g2."""
        rho = self.base.state_at(theta)
        direct = predual(self.automorphism_at(self.act_on_params(g, g2)), rho)
        # the channel at g after the one at g2, one map alive at a time
        mid = predual(self.automorphism_at(g2), rho)
        chained = predual(self.automorphism_at(g), mid)
        p, q = direct.vec.real, chained.vec.real
        return float(np.sum(np.abs(p - q)))


def _affine_bin_overlap_map(edges: np.ndarray, mu: float, s: float) -> CpuMap:
    """Markov map of the column-stochastic matrix S with S[j, i] = share of
    bin i's image (under x -> s x + mu) that lands in bin j; out-of-range
    mass is clamped to the boundary bins: the difference, between
    consecutive target edges, of the uniform CDF of each image, with the
    outer edges moved to -+inf.

    Built from its band, sized in closed form.  Column i's CDF is exactly 0
    up to row ``first[i]``, the last target edge at or below the image's
    left end ``lo``, and exactly 1 from the first edge at or above its right
    end ``hi`` on: there ``at - lo >= hi - lo``, and rounded subtraction and
    division are monotone, so fl(fl(at - lo) / width) >= 1 with ``width`` =
    fl(hi - lo).  So the band runs from ``first[i]`` over the widest such
    span, ``rows``, evaluated with the dense formula; its rows past a
    column's last edge give zero differences, which are not stored.  The
    nonzero differences of column i, at rows ``r``, are row i of the CSR
    action, entry for entry the matrix the dense formula gives.
    """
    n = edges.size - 1
    lo = s * edges[:-1] + mu
    hi = s * edges[1:] + mu
    width = hi - lo
    at = np.concatenate([[-np.inf], edges[1:-1], [np.inf]])
    first = np.searchsorted(at, lo, side="right") - 1
    # at least one row: an image that rounds to a point fills its bin
    rows = max(1, int(np.max(np.searchsorted(at, hi) - first)))
    r = np.minimum(first + np.arange(rows + 1)[:, None], n)
    cdf = np.clip((at[r] - lo) / width, 0.0, 1.0)
    d = np.diff(cdf, axis=0).T
    keep = (r[:-1].T < n) & (d != 0.0)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return _markov_from_owned(d[keep], r[:-1].T[keep], indptr, n)


def gaussian_group_model(n_bins: int, x_min: float, x_max: float) -> GroupActionModel:
    """Binned Gaussian family with the affine group acting by bin-overlap
    Markov maps.  Equivariance holds up to discretization error that
    decreases with the number of bins."""
    base = gaussian_model(n_bins, x_min, x_max)
    edges = np.linspace(x_min, x_max, n_bins + 1)

    def automorphism_at(g) -> CpuMap:
        mu, s = g
        if not np.isfinite([mu, s]).all():
            raise ModelDomainError(f"affine map ({mu}, {s}) is not finite")
        if s <= 0.0:
            raise ModelDomainError("affine scale must be positive")
        return _affine_bin_overlap_map(edges, mu, s)

    return GroupActionModel(base, affine_compose, automorphism_at)


# ---------------------------------------------------------------------------
# Scores and metric pullback
# ---------------------------------------------------------------------------


@np.errstate(all="ignore")
def _riesz_solve(model: StatModel, theta, kind: OperatorMonotoneFunction):
    """Scores at theta in each block's density eigenbasis, one batched change
    of basis per rank group.

    There dD is X' = U^dag dD U and its score v' = X' / W^s, for the kernel
    W^s of :func:`~ncplab.covariance.block_form`: the minimum-norm
    least-squares solution of the form's system, whose singular values are
    the |W^s_ab|, with ``lstsq``'s cutoff (v'_ab = 0 where |W^s_ab| <= n^2 eps
    times its block's largest).  A differential is not representable where
    X'_ab is not zero there, or where its score is not finite.

    Returns the space and, per rank group, the group, its kernels (m, n, n)
    and the scores v' (p, m, n, n).
    """
    state = model.state_at(theta)
    space = build_gns(model.shape, state)
    derivs = np.column_stack([x.vec for x in model.derivatives(theta)])
    solved, xs = [], []
    x_max = np.zeros(model.param_dim)
    for g in space._groups:
        ws = np.concatenate([block_form(kind, space, k) for k in g.index.tolist()]).reshape(g.u.shape)
        x = g.u.conj().swapaxes(-1, -2) @ np.moveaxis(derivs[g.pos], -1, 0) @ g.u
        x_max = np.maximum(x_max, np.max(np.abs(x), axis=(1, 2, 3)))
        w = np.abs(ws)
        keep = w > g.n * g.n * np.finfo(float).eps * w.max(axis=(1, 2), keepdims=True)
        v = np.divide(x, ws, out=np.zeros(x.shape, dtype=complex), where=keep)
        solved.append((g, ws, v))
        xs.append(x)
    tol = RESIDUAL_TOL * max(1.0, float(np.max(x_max)))
    for i in range(model.param_dim):
        for (g, ws, v), x in zip(solved, xs):
            resid = np.abs(ws * v[i] - x[i])
            j, a, b = np.unravel_index(np.argmax(resid), resid.shape)  # the first NaN, if any
            if not resid[j, a, b] <= tol:
                raise ScoreNotRepresentableError(
                    f"{model.name}: differential {i} is not representable at "
                    f"theta={np.asarray(theta).tolist()} (residual {resid[j, a, b]:.3e}): "
                    f"in block {g.index[j]}, entry ({a}, {b}) of the density eigenbasis "
                    f"(eigenvalues descending) is {abs(x[i, j, a, b]) / x_max[i]:.3e} of "
                    "the differential's largest entry",
                    param_index=i,
                )
    return space, solved


def riesz_score(model: StatModel, theta, kind: OperatorMonotoneFunction = ONE) -> list[np.ndarray]:
    """GNS coordinates of the score vectors v_1..v_p at theta; for the GNS
    kind their Gram is :func:`metric_pullback`."""
    space, solved = _riesz_solve(model, theta, kind)
    vecs = np.zeros((model.shape.element_dim, model.param_dim), dtype=complex)
    for g, _, v in solved:
        vecs[g.pos] = np.moveaxis(g.u @ v @ g.u.conj().swapaxes(-1, -2), 0, -1)
    return list(np.ascontiguousarray(_transform(space, vecs, _iso).T))


@np.errstate(all="ignore")
def metric_pullback(model: StatModel, theta, kind: OperatorMonotoneFunction = ONE) -> np.ndarray:
    """Metric matrix g_ij = Re <v_i, v_j> = Re sum_ab conj(v'_i,ab) W^s_ab v'_j,ab
    of the pulled-back covariance; :class:`ModelDomainError` where it is not finite."""
    _, solved = _riesz_solve(model, theta, kind)
    p = model.param_dim
    g = sum((v.reshape(p, -1).conj() @ (ws * v).reshape(p, -1).T).real for _, ws, v in solved)
    return _finite(model, theta, f"{kind.label} metric", (g + g.T) / 2.0)


# ---------------------------------------------------------------------------
# Closed-form reference metrics
# ---------------------------------------------------------------------------


def fisher_rao_simplex_metric(theta) -> np.ndarray:
    """Fisher-Rao matrix in the first-n coordinates of the simplex."""
    theta = np.asarray(theta, dtype=float)
    p_last = 1.0 - float(np.sum(theta))
    return np.diag(1.0 / theta) + 1.0 / p_last


def gaussian_fisher_rao_metric(mu: float, sigma: float) -> np.ndarray:
    """Fisher-Rao matrix of the normal family in (mu, sigma)."""
    del mu
    return np.diag([1.0 / sigma**2, 2.0 / sigma**2])


def qubit_qfi_metric(r: float, theta: float, phi: float) -> np.ndarray:
    """Quantum Fisher information of the faithful qubit family in
    spherical Bloch coordinates."""
    del phi
    return np.diag([1.0 / (1.0 - r**2), r**2, r**2 * np.sin(theta) ** 2])


def pure_qubit_sphere_metric(theta: float, phi: float) -> np.ndarray:
    """Round unit-sphere metric (four times Fubini-Study)."""
    del phi
    return np.diag([1.0, np.sin(theta) ** 2])



# ---------------------------------------------------------------------------
# Congruence invariance
# ---------------------------------------------------------------------------


def embedded_model(model: StatModel, embedding: CpuMap) -> StatModel:
    """Compose an abelian model with the predual of a congruent embedding.

    Every field but the name, shape, states and derivatives is the base
    model's: its chart, domain message, reference metric (Cencov's
    invariance) and interior points."""
    if not model.shape.is_abelian:
        raise ShapeError("only abelian models can be congruently embedded")
    if embedding.target_shape != model.shape:
        raise ShapeError(
            f"embedding codomain {embedding.target_shape} must equal the "
            f"model ambient {model.shape}"
        )
    new_shape = embedding.source_shape

    def state_fn(theta):
        return predual(embedding, model.state_at(theta))

    def deriv_fn(theta):
        return [_from_vec(new_shape, _predual_vec(embedding, d.vec)) for d in model.derivatives(theta)]

    return replace(
        model, name=f"{model.name}+embedded", shape=new_shape, _state_fn=state_fn, _deriv_fn=deriv_fn
    )


def congruence_invariance_check(
    model: StatModel,
    embedding: CpuMap,
    theta_samples,
    kind: OperatorMonotoneFunction = ONE,
    tol: float = 1e-9,
) -> dict:
    """Pullback metric before and after a congruent embedding must agree;
    ``tol`` must be finite and >= 0 (else :class:`InputError`)."""
    _check_tol(tol)
    refined = embedded_model(model, embedding)
    samples = [np.asarray(t, dtype=float) for t in theta_samples]
    worst = 0.0
    for theta in samples:
        g0 = metric_pullback(model, theta, kind)
        g1 = metric_pullback(refined, theta, kind)
        worst = max(worst, float(np.max(np.abs(g0 - g1))))
    return {
        "model": model.name,
        "n_samples": len(samples),
        "kind": kind.label,
        "max_metric_deviation": worst,
        "tol": tol,
        "passed": worst <= tol,
    }
