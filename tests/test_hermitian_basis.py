"""The monotonicity criterion read as a real matrix in a Hermitian basis.

A Petz kind's criterion matrix M is always folded into the basis e_bb,
(e_bp + e_pb)/sqrt(2), i (e_bp - e_pb)/sqrt(2) of each block's grid.  Where
both kernels W_aq = d_q f(d_a / d_q) are symmetric, a carrier that commutes
with x -> x^dag makes it real there, and ``monotonicity_check`` certifies it
with one real Gram and one real Cholesky factorization; elsewhere the
remainder test declines it, and the folded matrix takes the complex route.
The GNS kind does too on block-scalar states, and reads the contraction's
Gram on all others.  These tests hold every
route to the dense generalized eigenproblem on every kind, count the
factorizations of each route, and show that a declined verdict gets the
report of the complex route on the unfolded criterion
(``reference_loops.monotonicity_unfolded``)."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from ncplab import covariance, gns
from ncplab.algebra import mk_shape
from ncplab.channels import (
    NcpMorphism,
    from_kraus,
    from_linear,
    markov_from_stochastic,
    mk_morphism,
    predual,
    random_cpu_map,
    transpose_map,
)
from ncplab.covariance import KMB, ONE, RLD, SLD, WY, OperatorMonotoneFunction, monotonicity_check
from ncplab.states import mk_state, random_state, random_tracial_state
from test_certificates import partial_trace, pinching, power_mean, skewed_depolarizing

AFFINE = OperatorMonotoneFunction("affine", lambda t: (1.0 + 2.0 * t) / 3.0)

#: name -> (kind, symmetric kernel on every state); on states that are not
#: block-scalar the GNS kind takes the contraction's route
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
    """Record the route of each verdict ``monotonicity_check`` takes:
    "contraction" where it reads the criterion of the GNS kind's contraction
    (``gns._contraction_criterion``), else "real" where the real-route gate
    takes the folded criterion and "complex" where it declines it."""
    taken, criterion, real_criterion = [], covariance._contraction_criterion, covariance._real_criterion

    def contraction(*args):
        taken.append("contraction")
        return criterion(*args)

    def gated(*args):
        out = real_criterion(*args)
        taken.append("real" if out.dtype == float else "complex")
        return out

    with mock.patch.object(covariance, "_contraction_criterion", contraction):
        with mock.patch.object(covariance, "_real_criterion", gated):
            yield taken


def expected_route(kind, symmetric):
    """The route a verdict must take: None (either, the remainder test
    decides) for a symmetric kernel, else "contraction" for the GNS kind and
    "complex" for a Petz kind."""
    return None if symmetric else "contraction" if kind is ONE else "complex"


def matches_dense(kind, m, want, seed=0):
    """The verdict on m agrees with the dense generalized eigenproblem, and
    takes the route ``want`` unless that is None; returns ``passed``."""
    with route() as taken:
        rep = monotonicity_check(kind, m, n_samples=20, seed=seed)
    assert len(taken) == 1 and want in (None, taken[0])
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
    matches_dense(kind, m, expected_route(kind, symmetric or tracial), seed)


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
                want = expected_route(kind, symmetric or tracial)
                matches_dense(kind, m, "real" if want is None else want, seed)

    @pytest.mark.parametrize("name", ["pow2", "pow-2"])
    def test_violations_get_a_witness_of_the_real_route(self, name):
        # p = +-2 break monotonicity on the partial trace (test_certificates)
        kind, _ = KINDS[name]
        passed = [matches_dense(kind, morphism("partial_trace", None, seed)[0], "real") for seed in range(8)]
        assert not all(passed)

    def test_the_gns_kind_on_tracial_states_gets_a_witness_of_the_real_route(self):
        shape = mk_shape([3])
        rho = random_tracial_state(shape, seed=1)
        phi = stretch(shape)
        m = NcpMorphism((shape, rho), (shape, predual(phi, rho)), phi)
        assert not matches_dense(ONE, m, "real")

    def test_the_gns_kind_on_abelian_states_takes_the_real_route(self):
        # a Markov map on 40 cells: every density block is 1 x 1, so scalar
        rng = np.random.default_rng(3)
        stochastic = rng.dirichlet(np.ones(40), size=40).T
        shape = mk_shape([1] * 40)
        rho = mk_state(shape, [np.array([[p]]) for p in rng.dirichlet(np.ones(40))])
        phi = markov_from_stochastic(stochastic)
        assert matches_dense(ONE, mk_morphism((shape, rho), (shape, predual(phi, rho)), phi), "real")


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
        assert taken == ["complex"]
        assert seen and {dtype for dtype, _ in seen} == {np.dtype(complex)}
        assert not rep["passed"]
        # the unfolded complex route gives the same report, and so does the
        # dense generalized eigenproblem
        assert_same_report(rep, ref.monotonicity_unfolded(SLD, m, n_samples=50, seed=3))
        assert not matches_dense(SLD, m, "complex", seed=3)


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
    """The carrier's images (``gns._images``, read by a Petz kind's
    criterion and by the GNS kind's Gram) and the real-route gate, each
    still run, with their calls counted."""
    images = mock.Mock(wraps=gns._images)
    with mock.patch.object(covariance, "_images", images), mock.patch.object(gns, "_images", images):
        with mock.patch.object(covariance, "_real_criterion", wraps=covariance._real_criterion) as gate:
            yield images, gate


class TestOneFormation:
    """Each verdict forms its criterion once: a Petz kind's is folded into
    the Hermitian basis as it is formed, and a verdict whose real-route gate
    declines certifies the same folded matrix on the complex route; the GNS
    kind forms the contraction's Gram, with no gate."""

    @staticmethod
    def verdict(kind, m, images):
        """The report and the route taken, after asserting how often the
        carrier's images were formed, and that the gate was consulted once
        for a folded criterion and never for the contraction."""
        with route() as taken, formations() as (formed, gate):
            rep = monotonicity_check(kind, m, n_samples=50, seed=3)
        assert formed.call_count == images
        assert gate.call_count == int(taken != ["contraction"])
        return rep, taken

    def test_a_real_route_verdict(self):
        m, _ = morphism("cpu", SHAPES[0], 5)
        rep, taken = self.verdict(SLD, m, 1)
        assert taken == ["real"] and rep["passed"]

    def test_a_contraction_route_verdict_of_the_gns_kind(self):
        # [12, 4] with a trace mixture: the family is too long for the Kraus
        # Gram, so the contraction's Gram is that of the images, formed once
        m, tracial = morphism("cpu", SHAPES[3], 5)
        assert not tracial
        rep, taken = self.verdict(ONE, m, 1)
        assert taken == ["contraction"] and rep["passed"]

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
        rep, taken = self.verdict(kind, m, 1)
        assert taken == ["complex"]
        assert rep["passed"] == (case == "transpose")
        assert_same_report(rep, ref.monotonicity_unfolded(kind, m, n_samples=50, seed=3))
        assert matches_dense(kind, m, "complex", seed=3) == rep["passed"]

    @pytest.mark.parametrize("name", ["affine", "pow2"])
    def test_a_kernel_that_is_not_symmetric_is_declined(self, name):
        # the affine kind's kernel is not symmetric: its folded criterion
        # keeps an imaginary part, which the gate alone declines
        kind, symmetric = KINDS[name]
        m, _ = morphism("cpu", SHAPES[2], 7)
        rep, taken = self.verdict(kind, m, 1)
        assert taken == (["real"] if symmetric else ["complex"])
        if not symmetric:
            assert_same_report(rep, ref.monotonicity_unfolded(kind, m, n_samples=50, seed=3))
