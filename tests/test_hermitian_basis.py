"""The monotonicity criterion read as a real matrix in a Hermitian basis.

Where both kernels W_aq = d_q f(d_a / d_q) are symmetric and both states
faithful, a carrier that commutes with x -> x^dag gives a criterion matrix M
that is real in the basis e_bb, (e_bp + e_pb)/sqrt(2), i (e_bp - e_pb)/sqrt(2)
of each block's grid, and ``monotonicity_check`` certifies it with one real
Gram and one real Cholesky factorization.  These tests hold that route to the
dense generalized eigenproblem on every kind it takes and every kind it
declines, count the factorizations of each route, and show that a carrier
which does not commute with x -> x^dag is declined by the remainder test and
gets the report of the complex route on the unfolded criterion."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from ncplab import covariance
from ncplab.algebra import mk_shape
from ncplab.channels import (
    NcpMorphism,
    from_kraus,
    from_linear,
    mk_morphism,
    predual,
    random_cpu_map,
    transpose_map,
)
from ncplab.covariance import KMB, ONE, RLD, SLD, WY, OperatorMonotoneFunction, monotonicity_check
from ncplab.states import random_state, random_tracial_state
from test_certificates import partial_trace, pinching, power_mean, skewed_depolarizing

AFFINE = OperatorMonotoneFunction("affine", lambda t: (1.0 + 2.0 * t) / 3.0)

#: name -> (kind, symmetric kernel on every state)
KINDS = {
    "gns": (ONE, False),
    "sld": (SLD, True),
    "kmb": (KMB, True),
    "wy": (WY, True),
    "rld": (RLD, True),
    "pow-2": (power_mean(-2.0), True),
    "pow0.5": (power_mean(0.5), True),
    "pow2": (power_mean(2.0), True),
    "affine": (AFFINE, False),
}

#: (carrier source B, carrier target A): phi maps B -> A, rho lives on A
SHAPES = [([2, 3], [2, 1]), ([2, 1], [2, 3]), ([3], [3]), ([12, 4], [12, 4])]


def unitary_mixture(shape, rng):
    """A mixture of three blockwise unitary conjugations of ``shape``: it
    keeps every block-scalar state, so both states of its morphism are
    tracial."""
    weights = rng.dirichlet(np.ones(3))
    kraus = []
    for w in weights:
        full = np.zeros((shape.total_dim, shape.total_dim), dtype=complex)
        start = 0
        for n in shape.blocks:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            full[start : start + n, start : start + n] = np.linalg.qr(g)[0]
            start += n
        kraus.append(np.sqrt(w) * full)
    return from_kraus(shape, shape, kraus)


def morphism(family, shapes, seed):
    """A morphism of one family, and whether both of its states are tracial."""
    rng = np.random.default_rng(seed)
    if family == "tracial":
        shape = mk_shape(shapes[0])
        rho = random_tracial_state(shape, seed=seed)
        phi = unitary_mixture(shape, rng)
        return mk_morphism((shape, rho), (shape, predual(phi, rho)), phi), True
    if family in ("partial_trace", "pinching"):
        phi = partial_trace() if family == "partial_trace" else pinching()
    elif family == "transpose":
        # unital and positive, not CP: commutes with x -> x^dag all the same
        phi = transpose_map(mk_shape(shapes[1]))
    else:
        phi = random_cpu_map(mk_shape(shapes[0]), mk_shape(shapes[1]), seed=seed, n_kraus=3, mix_trace=0.1)
    rho = random_state(phi.target_shape, faithful=True, seed=seed)
    obj_a, obj_b = (phi.target_shape, rho), (phi.source_shape, predual(phi, rho))
    if family == "transpose":
        return NcpMorphism(obj_a, obj_b, phi), False
    return mk_morphism(obj_a, obj_b, phi), False


@contextmanager
def route():
    """Record, for each criterion ``monotonicity_check`` forms, whether the
    verdict took the real route: False where the criterion was not folded
    into the Hermitian basis or the real-route gate declined it."""
    taken, criterion, real_criterion = [], covariance._criterion, covariance._real_criterion

    def formed(*args, **kwargs):
        taken.append(False)
        return criterion(*args, **kwargs)

    def gated(*args):
        out = real_criterion(*args)
        taken[-1] = out is not None
        return out

    with mock.patch.object(covariance, "_criterion", formed), mock.patch.object(covariance, "_real_criterion", gated):
        yield taken


def matches_dense(kind, m, real, seed=0):
    """The verdict on m agrees with the dense generalized eigenproblem, and
    takes the real route if ``real`` is True and never if it is False (None:
    either, the remainder test decides); returns ``passed``."""
    with route() as taken:
        rep = monotonicity_check(kind, m, n_samples=20, seed=seed)
    assert real is None or taken == [real]
    exact, pushed, g_sigma, _ = ref.monotonicity_dense(kind, m)
    assert abs(rep["exact_max_eig"] - exact) <= 1e-12 * exact
    assert rep["passed"] == (exact <= 1.0 + 1e-9)
    worst, violations = ref.monotonicity_samples(pushed, g_sigma, 20, seed, 1e-9)
    assert rep["sample_violations"] == violations
    assert abs(rep["worst_ratio"] - worst) <= 1e-12 * worst
    assert ("witness" in rep) != rep["passed"]
    if not rep["passed"]:
        xi = rep["witness"]["vector"]
        assert abs(np.linalg.norm(xi) - 1.0) <= 1e-14
        first = xi[np.argmax(np.abs(xi) > 1e-12)]
        assert abs(first.imag) <= 1e-15 * first.real
        rayleigh = (xi.conj() @ pushed @ xi).real / (xi.conj() @ g_sigma @ xi).real
        assert abs(rayleigh - exact) <= 1e-12 * exact
        assert rep["witness"]["ratio"] == rep["exact_max_eig"]
    return rep["passed"]


def check_against_dense(family, shapes, seed, name):
    # on a few GNS dimensions the margin 8 d eps leaves little room for the
    # remainder test, which may send an eligible verdict to the complex route
    kind, symmetric = KINDS[name]
    m, tracial = morphism(family, shapes, seed)
    matches_dense(kind, m, None if symmetric or tracial else False, seed)


def stretch(shape):
    """b -> b + tau(z b) z / 2 on M_3, z = diag(1, -1, 0) sqrt(3/2): unital,
    trace preserving and commuting with x -> x^dag, so it keeps the tracial
    state, but it stretches z by 3/2 in the tracial (GNS) norm."""
    z = np.diag([1.0, -1.0, 0.0]).astype(complex).ravel() * np.sqrt(1.5)
    action = np.eye(shape.element_dim, dtype=complex) + np.outer(z, z.conj()) / 6.0
    return from_linear(shape, shape, action)


families = st.sampled_from(["cpu", "tracial", "partial_trace", "pinching", "transpose"])


class TestAgainstTheDenseCriterion:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(families, st.sampled_from(SHAPES), st.integers(0, 2**32 - 1), st.sampled_from(sorted(KINDS)))
    def test_same_verdict_on_both_routes(self, family, shapes, seed, name):
        check_against_dense(family, shapes, seed, name)

    @pytest.mark.parametrize("name", sorted(KINDS))
    @pytest.mark.parametrize("family", ["cpu", "tracial", "transpose"])
    def test_every_symmetric_kernel_takes_the_real_route(self, family, name):
        kind, symmetric = KINDS[name]
        for shapes in ([[2, 3], [2, 1]], [[3], [3]], [[12, 4], [12, 4]]):
            for seed in range(2):
                m, tracial = morphism(family, shapes, seed)
                matches_dense(kind, m, symmetric or tracial, seed)

    @pytest.mark.parametrize("name", ["pow2", "pow-2"])
    def test_violations_get_a_witness_of_the_real_route(self, name):
        # p = +-2 break monotonicity on the partial trace (test_certificates)
        kind, _ = KINDS[name]
        passed = [matches_dense(kind, morphism("partial_trace", None, seed)[0], True) for seed in range(8)]
        assert not all(passed)

    def test_the_gns_kind_on_tracial_states_gets_a_witness_of_the_real_route(self):
        shape = mk_shape([3])
        rho = random_tracial_state(shape, seed=1)
        phi = stretch(shape)
        m = NcpMorphism((shape, rho), (shape, predual(phi, rho)), phi)
        assert not matches_dense(ONE, m, True)


@pytest.mark.slow
class TestAgainstTheDenseCriterionSweep:
    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(families, st.sampled_from(SHAPES[:3]), st.integers(0, 2**32 - 1), st.sampled_from(sorted(KINDS)))
    def test_same_verdict_on_both_routes(self, family, shapes, seed, name):
        check_against_dense(family, shapes, seed, name)


def factorizations(monkeypatch):
    """(dtype, size) of every matrix that ``np.linalg.cholesky`` factorizes."""
    seen, cholesky = [], np.linalg.cholesky

    def counted(a, *args, **kwargs):
        seen.append((np.asarray(a).dtype, np.shape(a)[-1]))
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return seen


class TestFactorizations:
    def test_one_real_factorization_for_a_petz_kind_one_complex_for_gns(self, monkeypatch):
        shape = mk_shape([6])
        phi = random_cpu_map(shape, shape, seed=12, n_kraus=3)
        rho = random_state(shape, faithful=True, seed=12)
        m = mk_morphism((shape, rho), (shape, predual(phi, rho)), phi)
        seen = factorizations(monkeypatch)
        assert monotonicity_check(SLD, m)["passed"]
        assert seen == [(np.dtype(float), 36)]
        seen.clear()
        assert monotonicity_check(ONE, m)["passed"]
        assert seen == [(np.dtype(complex), 36)]

    def test_a_carrier_that_does_not_commute_with_the_adjoint_is_declined(self, monkeypatch):
        # unital, Choi matrix not Hermitian: M is not real in any Hermitian
        # basis, so the remainder test sends the verdict to the complex route
        phi = skewed_depolarizing()
        shape = phi.source_shape
        rho = random_state(shape, faithful=True, seed=13)
        sigma = random_state(shape, faithful=True, seed=14)
        m = NcpMorphism((shape, rho), (shape, sigma), phi)
        seen = factorizations(monkeypatch)
        with route() as taken:
            rep = monotonicity_check(SLD, m, n_samples=50, seed=3)
        assert taken == [False]
        assert seen and {dtype for dtype, _ in seen} == {np.dtype(complex)}
        assert not rep["passed"]
        # the unfolded complex route gives the same report, and so does the
        # dense generalized eigenproblem
        assert_same_report(rep, forced_complex(SLD, m, n_samples=50, seed=3))
        assert not matches_dense(SLD, m, False, seed=3)


def forced_complex(kind, m, **kwargs):
    """The report of the complex route on the unfolded criterion: every
    kernel read as not symmetric, so M is neither folded nor gated."""
    with mock.patch.object(covariance, "_symmetric", lambda kernels: False):
        return monotonicity_check(kind, m, **kwargs)


def assert_same_report(rep, plain):
    """The two reports agree: the same keys, verdict and violation count, the
    eigenvalue, worst ratio and witness ratio within 1e-12 relative, and the
    witness vectors (unit norm, phase fixed alike) within 1e-12."""
    assert rep.keys() == plain.keys()
    for key in ("kind", "n_samples", "sample_violations", "tol", "passed"):
        assert rep[key] == plain[key]
    for key in ("exact_max_eig", "worst_ratio"):
        assert abs(rep[key] - plain[key]) <= 1e-12 * plain[key]
    if "witness" in rep:
        assert abs(rep["witness"]["ratio"] - plain["witness"]["ratio"]) <= 1e-12 * plain["witness"]["ratio"]
        assert np.abs(rep["witness"]["vector"] - plain["witness"]["vector"]).max() <= 1e-12


@contextmanager
def formations():
    """The carrier's part of the criterion (``covariance._images``) and the
    real-route gate, each still run, with their calls counted."""
    with mock.patch.object(covariance, "_images", wraps=covariance._images) as images:
        with mock.patch.object(covariance, "_real_criterion", wraps=covariance._real_criterion) as gate:
            yield images, gate


class TestOneFormation:
    """Each verdict forms its criterion once: the basis is chosen from the
    ranks and the kernels before anything is formed, and a verdict whose
    real-route gate declines certifies the same folded matrix on the
    complex route."""

    @staticmethod
    def verdict(kind, m, gated):
        """The report, after asserting one formation and whether the gate
        was consulted (only a criterion folded into the Hermitian basis is)."""
        with route() as taken, formations() as (images, gate):
            rep = monotonicity_check(kind, m, n_samples=50, seed=3)
        assert images.call_count == 1
        assert gate.call_count == int(gated)
        return rep, taken

    def test_a_real_route_verdict(self):
        m, _ = morphism("cpu", SHAPES[0], 5)
        rep, taken = self.verdict(SLD, m, True)
        assert taken == [True] and rep["passed"]

    def test_a_complex_route_verdict_of_the_gns_kind(self):
        m, tracial = morphism("cpu", SHAPES[3], 5)
        assert not tracial
        rep, taken = self.verdict(ONE, m, False)
        assert taken == [False] and rep["passed"]

    @pytest.mark.parametrize("case", ["skewed_depolarizing", "skewed_cpu", "transpose"])
    def test_a_declined_verdict_matches_the_unfolded_complex_route(self, case):
        if case == "skewed_depolarizing":
            phi = skewed_depolarizing()
            shape = phi.source_shape
            sigma = random_state(shape, faithful=True, seed=14)
            m, kind = NcpMorphism((shape, random_state(shape, faithful=True, seed=13)), (shape, sigma), phi), SLD
        elif case == "skewed_cpu":
            # a random CPU map on [2, 3] -> [2, 1] with 1e-3 i added to one
            # entry of its action, between states it does not link: it
            # fails, so its complex witness is taken back through the fold
            src, dst = mk_shape([2, 3]), mk_shape([2, 1])
            action = random_cpu_map(src, dst, seed=4, n_kraus=3, mix_trace=0.1).linear_action.copy()
            action[0, 1] += 1e-3j
            rho, sigma = random_state(dst, faithful=True, seed=4), random_state(src, faithful=True, seed=5)
            m, kind = NcpMorphism((dst, rho), (src, sigma), from_linear(src, dst, action)), SLD
        else:
            # the remainder test's narrowest margin seen: the transpose on
            # [2, 1], a target of five GNS dimensions
            m, kind = morphism("transpose", SHAPES[0], 320573)[0], KINDS["pow0.5"][0]
        rep, taken = self.verdict(kind, m, True)
        assert taken == [False]
        assert rep["passed"] == (case == "transpose")
        with formations() as (images, gate):
            plain = forced_complex(kind, m, n_samples=50, seed=3)
        assert images.call_count == 1 and gate.call_count == 0
        assert_same_report(rep, plain)
        assert matches_dense(kind, m, False, seed=3) == rep["passed"]
