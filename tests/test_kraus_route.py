"""Verdicts of carriers built from Kraus operators read the family.

``from_kraus`` returns a :class:`~ncplab.channels._KrausMap`, and for it the
carrier's images behind a Petz kind's criterion and the GNS kind's Gram,
which both the GNS kind's criterion and the contraction's operator norm
read, are formed from the Kraus factors instead of the dense action, each
where its cost rule says that is faster (``gns._kraus_criterion_pays``,
``gns._kraus_gram_pays``).  Every other carrier, including a plain
``CpuMap`` handed a family, keeps the dense route.  These tests hold the
factor route, forced on, to its twin, the same action wrapped by
``from_linear``, on random shapes: rectangular and multi-block ones with
1 x 1 blocks, and rank-deficient states for the GNS kind.  They also pin
the design: the factor route reads no action, and forms no Gram of the
contraction nor the contraction itself, the dense route runs no factor
product, each verdict forms its criterion once, both GNS verdicts read one
Gram, and the cost rules pick the measured routes on the benchmark's
shapes."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncplab import covariance, gns
from ncplab.algebra import mk_shape
from ncplab.channels import (
    CpuMap,
    _KrausMap,
    NcpMorphism,
    compose,
    conjugation_map,
    from_linear,
    identity_map,
    markov_from_stochastic,
    mk_morphism,
    predual,
    random_cpu_map,
    transpose_map,
)
from ncplab.covariance import ONE, SLD, kind_catalog, monotonicity_check
from ncplab.gns import GnsQuotientError, build_gns, induced_contraction
from ncplab.states import mk_state, random_state
from test_batched import random_blocks
from test_certificates import lowered, partial_trace, pinching, power_mean


def twin(m: NcpMorphism) -> NcpMorphism:
    """The same morphism carried by the same action, with no family."""
    phi = m.cpu
    return NcpMorphism(m.source, m.target, from_linear(phi.source_shape, phi.target_shape, phi.linear_action))


@contextmanager
def counted(*names):
    """Calls of the named private functions, through every binding of each
    in ``covariance`` and ``gns``."""
    counts = dict.fromkeys(names, 0)
    patches = []
    for name in names:
        for module in (covariance, gns):
            original = getattr(module, name, None)
            if original is None:
                continue

            def wrapper(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            patches.append(mock.patch.object(module, name, wrapper))
    for p in patches:
        p.start()
    try:
        yield counts
    finally:
        for p in patches:
            p.stop()


#: The carrier's images (``gns._images``), which read the action unless they
#: hand the carrier to the factor route (``gns._kraus_images``, which turns
#: the family with ``_kraus_blocks``, as the family Gram ``gns._kraus_gram`` does)
CARRIER_PARTS = ("_images", "_kraus_images", "_kraus_blocks")
#: Images from the action, images from the Kraus factors, and the GNS
#: kind's Gram from the Kraus factors, with no images
DENSE = {"_images": 1, "_kraus_images": 0, "_kraus_blocks": 0}
FACTOR = {"_images": 1, "_kraus_images": 1, "_kraus_blocks": 1}
FAMILY_GRAM = {"_images": 0, "_kraus_images": 0, "_kraus_blocks": 1}


@contextmanager
def factor_route():
    """The factor routes taken wherever the carrier qualifies, whatever
    their cost rules say."""
    with mock.patch.object(gns, "_kraus_criterion_pays", lambda *args: True):
        with mock.patch.object(gns, "_kraus_gram_pays", lambda *args: True):
            yield


def same_report(kind, m, n_samples=20, seed=0):
    """The factor route's report on m agrees with the dense route's."""
    with factor_route(), counted("_kraus_blocks") as calls:
        got = monotonicity_check(kind, m, n_samples=n_samples, seed=seed)
    assert calls["_kraus_blocks"] == 1
    want = monotonicity_check(kind, twin(m), n_samples=n_samples, seed=seed)
    assert got["passed"] == want["passed"]
    assert got["sample_violations"] == want["sample_violations"]
    assert abs(got["exact_max_eig"] - want["exact_max_eig"]) <= 1e-12 * want["exact_max_eig"]
    assert ("witness" in got) == ("witness" in want)
    if "witness" in got:
        assert abs(got["witness"]["ratio"] - want["witness"]["ratio"]) <= 1e-12 * want["witness"]["ratio"]
        assert np.linalg.norm(got["witness"]["vector"] - want["witness"]["vector"]) <= 1e-8
    return got


def same_quotient_verdict(kind, m):
    """Both routes raise the same GnsQuotientError, or neither raises."""
    messages = []
    for carrier in (m, twin(m)):
        try:
            with factor_route():
                monotonicity_check(kind, carrier, n_samples=5)
            messages.append(None)
        except GnsQuotientError as exc:
            messages.append(str(exc))
    assert messages[0] == messages[1]
    return messages[0]


def same_norm(m, tol=1e-13):
    """Both routes give the operator norm within ``tol``, and the Gram from
    the factors is exactly Hermitian and equals the one from the images."""
    (shape_a, rho), (shape_b, sigma) = m.source, m.target
    spaces = build_gns(shape_b, sigma), build_gns(shape_a, rho)
    with factor_route(), counted("_kraus_gram") as calls:
        got = induced_contraction(m, *spaces).operator_norm
    assert calls["_kraus_gram"] == 1
    want = induced_contraction(twin(m), *spaces).operator_norm
    assert abs(got - want) <= tol
    # the Gram from the factors equals the one from the action's images
    dense = gns._contraction_gram(twin(m).cpu, *spaces)
    factor = gns._kraus_gram(m.cpu, *spaces)
    assert np.array_equal(factor, factor.conj().T)
    assert np.abs(factor - dense).max() <= 1e-13 * max(1.0, np.abs(dense).max())


blocks = st.lists(st.integers(1, 3), min_size=1, max_size=3)
seeds = st.integers(0, 2**32 - 1)


def random_kraus_morphism(blocks_a, blocks_b, seed, n_kraus, rank_deficient=False, automorphism=False):
    """Verified morphism (A, rho) -> (B, sigma) with a Kraus carrier: a random
    CPU map B -> A, or a blockwise unitary conjugation of A, which keeps a
    rank-deficient rho rank deficient in sigma."""
    rng = np.random.default_rng(seed)
    shape_a = mk_shape(blocks_a)
    rho = mk_state(shape_a, random_blocks(blocks_a, rng, rank_deficient))
    if automorphism:
        unitaries = [np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0] for n in blocks_a]
        phi = conjugation_map(shape_a, unitaries)
    else:
        shape_b = mk_shape(blocks_b)
        # unital, and of rank enough that a faithful rho gives a faithful sigma
        na, nb = shape_a.total_dim, shape_b.total_dim
        n_kraus = max(n_kraus, -(-na // nb), -(-nb // na))
        phi = random_cpu_map(shape_b, shape_a, seed=seed, n_kraus=n_kraus)
    return mk_morphism((shape_a, rho), (phi.source_shape, predual(phi, rho)), phi)


class TestOnlyFromKrausQualifies:
    def test_from_kraus_returns_a_kraus_map(self):
        shape = mk_shape([2, 1])
        assert isinstance(random_cpu_map(shape, shape, seed=1), _KrausMap)
        assert isinstance(identity_map(shape), _KrausMap)
        assert not isinstance(from_linear(shape, shape, np.eye(shape.element_dim)), _KrausMap)
        assert not isinstance(markov_from_stochastic(np.eye(3)), _KrausMap)
        m = random_kraus_morphism([2, 1], [2, 1], 1, 2)
        assert not isinstance(compose(m, mk_morphism(m.source, m.source, identity_map(m.source[0]))).cpu, _KrausMap)

    def test_a_family_given_by_hand_keeps_the_dense_route(self):
        # the transpose's action with the identity's family: the family
        # would certify a contraction, the action is not one
        shape = mk_shape([3])
        plain = transpose_map(shape)
        phi = CpuMap(shape, shape, plain.linear_action, identity_map(shape).kraus)
        rho = random_state(shape, faithful=True, seed=2)
        m = NcpMorphism((shape, rho), (shape, predual(plain, rho)), phi)
        with factor_route(), counted(*CARRIER_PARTS) as calls:
            rep = monotonicity_check(ONE, m, n_samples=10)
        assert calls == DENSE
        want = monotonicity_check(ONE, NcpMorphism(m.source, m.target, plain), n_samples=10)
        assert not rep["passed"] and rep["exact_max_eig"] == want["exact_max_eig"]
        spaces = build_gns(shape, m.target[1]), build_gns(shape, rho)
        with factor_route(), counted("_kraus_blocks", "_gram") as calls:
            norm = induced_contraction(m, *spaces).operator_norm
        assert calls == {"_kraus_blocks": 0, "_gram": 1}
        assert norm == induced_contraction(NcpMorphism(m.source, m.target, plain), *spaces).operator_norm

    def test_a_lowered_action_with_its_family_keeps_the_dense_route(self):
        shape = mk_shape([1, 3])
        phi = identity_map(shape)
        rho = random_state(shape, faithful=True, seed=3)
        lowered_phi = lowered(phi, (1, 1), 1, 1e-3)
        m = NcpMorphism((shape, rho), (shape, rho), lowered_phi)
        with factor_route(), counted("_kraus_blocks") as calls:
            got = monotonicity_check(ONE, m, n_samples=10)
        assert calls["_kraus_blocks"] == 0
        want = monotonicity_check(ONE, twin(m), n_samples=10)
        assert (got["passed"], got["exact_max_eig"]) == (want["passed"], want["exact_max_eig"])


class TestDesignPins:
    @pytest.fixture
    def morphism(self):
        # above both routes' measured crossovers
        shape = mk_shape([12])
        phi = random_cpu_map(shape, shape, seed=4, n_kraus=3)
        rho = random_state(shape, faithful=True, seed=4)
        return mk_morphism((shape, rho), (shape, predual(phi, rho)), phi)

    @pytest.mark.parametrize("kind", kind_catalog(), ids=lambda k: k.label)
    def test_the_criterion_reads_no_action(self, morphism, kind):
        with counted(*CARRIER_PARTS) as calls:
            assert monotonicity_check(kind, morphism, n_samples=10)["passed"]
        assert calls == (FAMILY_GRAM if kind is ONE else FACTOR)
        with counted(*CARRIER_PARTS) as calls:
            monotonicity_check(kind, twin(morphism), n_samples=10)
        assert calls == DENSE

    def test_the_operator_norm_forms_no_gram_of_the_contraction(self, morphism):
        (shape_a, rho), (shape_b, sigma) = morphism.source, morphism.target
        c = induced_contraction(morphism, build_gns(shape_b, sigma), build_gns(shape_a, rho))
        with counted("_gram", "_kraus_gram") as calls:
            assert abs(c.operator_norm - 1.0) <= 1e-12
        assert calls == {"_gram": 0, "_kraus_gram": 1}

    def test_the_family_operator_norm_places_no_contraction(self):
        # a 3-Kraus [16] carrier: the operator norm reads the family, so no
        # transform of the action runs, and the matrix is placed only when read
        shape = mk_shape([16])
        phi = random_cpu_map(shape, shape, seed=4, n_kraus=3)
        rho = random_state(shape, faithful=True, seed=4)
        m = mk_morphism((shape, rho), (shape, predual(phi, rho)), phi)
        spaces = build_gns(shape, m.target[1]), build_gns(shape, rho)
        with counted("_transform", "_gram", "_kraus_gram") as calls:
            c = induced_contraction(m, *spaces)
            assert abs(c.operator_norm - 1.0) <= 1e-12
        assert calls == {"_transform": 0, "_gram": 0, "_kraus_gram": 1}
        assert "matrix" not in vars(c)
        with counted("_transform") as calls:
            assert c.matrix.shape == (256, 256)
        assert calls == {"_transform": 2}

    def test_a_long_family_keeps_the_dense_routes(self):
        # a trace mixture holds N_B N_A + 3 = 147 operators: the factor
        # criterion would take 147 products per entry against the dense
        # route's 48, the Kronecker form of the Gram K_rho kappa^2 per entry,
        # far above dim_rho
        shape = mk_shape([12])
        phi = random_cpu_map(shape, shape, seed=5, n_kraus=3, mix_trace=0.2)
        rho = random_state(shape, faithful=True, seed=5)
        m = mk_morphism((shape, rho), (shape, predual(phi, rho)), phi)
        spaces = build_gns(shape, m.target[1]), build_gns(shape, rho)
        with counted(*CARRIER_PARTS) as calls:
            monotonicity_check(SLD, m, n_samples=10)
        assert calls == DENSE
        with counted("_gram", "_kraus_gram") as calls:
            induced_contraction(m, *spaces).operator_norm
        assert calls == {"_gram": 1, "_kraus_gram": 0}


class TestRouteChoice:
    """Where the cost rules send the benchmark's carriers: three Gaussian
    operators between equal shapes, and small-batch's [2, 3] -> [2, 1]
    morphism.  Measured on one BLAS thread (BENCH_26.json to BENCH_29.json),
    the dense routes are the faster ones on the small multi-block shape;
    from [8] on both factor routes win, the Gram's against the carrier's
    images and their Gram."""

    @pytest.mark.parametrize(
        "blocks_b, blocks_a, criterion, gram",
        [
            ([2, 3], [2, 1], "dense", "dense"),
            ([8], [8], "factor", "factor"),
            ([12, 4], [12, 4], "factor", "factor"),
            ([16], [16], "factor", "factor"),
        ],
    )
    def test_routes(self, blocks_b, blocks_a, criterion, gram):
        shape_b, shape_a = mk_shape(blocks_b), mk_shape(blocks_a)
        phi = random_cpu_map(shape_b, shape_a, seed=6, n_kraus=3)
        rho = random_state(shape_a, faithful=True, seed=6)
        m = mk_morphism((shape_a, rho), (shape_b, predual(phi, rho)), phi)
        spaces = build_gns(shape_b, m.target[1]), build_gns(shape_a, rho)
        with counted(*CARRIER_PARTS) as calls:
            assert monotonicity_check(SLD, m, n_samples=10)["passed"]
        assert calls == (FACTOR if criterion == "factor" else DENSE)
        with counted("_gram", "_kraus_gram") as calls:
            assert abs(induced_contraction(m, *spaces).operator_norm - 1.0) <= 1e-12
        assert calls == ({"_gram": 0, "_kraus_gram": 1} if gram == "factor" else {"_gram": 1, "_kraus_gram": 0})


SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


class TestTwins:
    @SETTINGS
    @given(blocks, blocks, seeds, st.integers(1, 4), st.sampled_from(kind_catalog()))
    def test_faithful_states(self, blocks_a, blocks_b, seed, n_kraus, kind):
        m = random_kraus_morphism(blocks_a, blocks_b, seed, n_kraus)
        same_report(kind, m, seed=seed % 1000)
        same_norm(m)

    @SETTINGS
    @given(blocks, blocks, seeds, st.integers(1, 4), st.booleans())
    def test_rank_deficient_states_for_the_gns_kind(self, blocks_a, blocks_b, seed, n_kraus, automorphism):
        m = random_kraus_morphism(blocks_a, blocks_b, seed, n_kraus, rank_deficient=True, automorphism=automorphism)
        same_report(ONE, m, seed=seed % 1000)
        same_norm(m)

    @SETTINGS
    @given(blocks, seeds, st.booleans())
    def test_the_same_quotient_error(self, blocks_a, seed, automorphism):
        # a carrier whose sigma is rank deficient but not rho o phi
        m = random_kraus_morphism(blocks_a, blocks_a, seed, 2, rank_deficient=True, automorphism=automorphism)
        rng = np.random.default_rng(seed + 1)
        (shape_a, rho), (shape_b, _) = m.source, m.target
        wrong = mk_state(shape_b, random_blocks(list(shape_b.blocks), rng, True))
        same_quotient_verdict(ONE, NcpMorphism(m.source, (shape_b, wrong), m.cpu))

    def test_a_quotient_error_is_raised_on_both_routes(self):
        shape = mk_shape([3])
        u = np.linalg.qr(np.arange(9.0).reshape(3, 3) + 1j * np.eye(3))[0]
        phi = conjugation_map(shape, [u])
        rho = mk_state(shape, [np.diag([0.5, 0.5, 0.0])])
        m = NcpMorphism((shape, rho), (shape, rho), phi)
        assert "maps outside the rho-null space" in same_quotient_verdict(ONE, m)

    @pytest.mark.parametrize("carrier, p", [(partial_trace, -2.0), (partial_trace, 2.0), (pinching, 2.0)])
    def test_witnesses(self, carrier, p):
        # p = +-2 are not operator monotone, and break monotonicity on these
        # carriers (tests/test_certificates.py)
        phi = carrier()
        failed = 0
        for seed in range(12):
            rho = random_state(phi.target_shape, faithful=True, seed=seed)
            m = mk_morphism((phi.target_shape, rho), (phi.source_shape, predual(phi, rho)), phi)
            failed += not same_report(power_mean(p), m, seed=seed)["passed"]
        assert failed


def gns_morphism(carrier, blocks_a, blocks_b, seed, rank_deficient):
    """A verified morphism with a Kraus carrier, the same action wrapped by
    ``from_linear``, or a Markov carrier between abelian algebras of
    sum(blocks) points each."""
    if carrier != "markov":
        m = random_kraus_morphism(blocks_a, blocks_b, seed, 2, rank_deficient=rank_deficient)
        return m if carrier == "kraus" else twin(m)
    rng = np.random.default_rng(seed)
    na, nb = sum(blocks_a), sum(blocks_b)
    phi = markov_from_stochastic(rng.dirichlet(np.ones(nb), size=na).T)
    rho = mk_state(phi.target_shape, random_blocks([1] * na, rng, rank_deficient))
    return mk_morphism((phi.target_shape, rho), (phi.source_shape, predual(phi, rho)), phi)


def gns_verdicts(m):
    """(the GNS kind's exact_max_eig, the contraction's operator norm), or
    the two GnsQuotientError messages."""
    out = []
    for verdict in (
        lambda: monotonicity_check(ONE, m, n_samples=5)["exact_max_eig"],
        lambda: induced_contraction(m, build_gns(*m.target), build_gns(*m.source)).operator_norm,
    ):
        try:
            out.append(verdict())
        except GnsQuotientError as exc:
            out.append(str(exc))
    return out


class TestOneGnsGram:
    """The GNS kind's criterion and the contraction's operator norm read one
    Gram (``gns._contraction_gram``): the same number from both, the same
    quotient error, and no coordinate layout placed for the norm."""

    @SETTINGS
    @given(st.sampled_from(["kraus", "linear", "markov"]), blocks, blocks, seeds, st.booleans(), st.booleans())
    def test_the_criterion_is_the_squared_norm(self, carrier, blocks_a, blocks_b, seed, rank_deficient, leak):
        m = gns_morphism(carrier, blocks_a, blocks_b, seed, rank_deficient)
        if leak:
            # a rank-deficient sigma that need not be rho o phi
            shape_b = m.target[0]
            wrong = mk_state(shape_b, random_blocks(list(shape_b.blocks), np.random.default_rng(seed + 1), True))
            m = NcpMorphism(m.source, (shape_b, wrong), m.cpu)
        exact, norm = gns_verdicts(m)
        if isinstance(norm, str):
            assert exact == norm and "maps outside the rho-null space" in norm
        else:
            assert abs(exact - norm**2) <= 1e-12 * norm**2

    def test_a_leak_is_named_alike(self):
        # a conjugation of [3] that does not keep the rank-2 state, read off
        # its family and off its action
        shape = mk_shape([3])
        u = np.linalg.qr(np.arange(9.0).reshape(3, 3) + 1j * np.eye(3))[0]
        rho = mk_state(shape, [np.diag([0.5, 0.5, 0.0])])
        phi = conjugation_map(shape, [u])
        for carrier in (phi, from_linear(shape, shape, phi.linear_action)):
            exact, norm = gns_verdicts(NcpMorphism((shape, rho), (shape, rho), carrier))
            assert exact == norm and "maps outside the rho-null space" in norm

    def test_a_gns_check_forms_the_family_gram_once(self):
        shape = mk_shape([16])
        phi = random_cpu_map(shape, shape, seed=4, n_kraus=3)
        rho = random_state(shape, faithful=True, seed=4)
        m = mk_morphism((shape, rho), (shape, predual(phi, rho)), phi)
        with counted("_kraus_gram", "_gram") as calls:
            assert monotonicity_check(ONE, m, n_samples=10)["passed"]
        assert calls == {"_kraus_gram": 1, "_gram": 0}

    def test_the_operator_norm_places_no_layout(self):
        # a from_linear [6] carrier on fresh spaces: the dense Gram reads the
        # images in the density eigenbases, which need no coordinate layout
        shape = mk_shape([6])
        phi = random_cpu_map(shape, shape, seed=4, n_kraus=3)
        rho = random_state(shape, faithful=True, seed=4)
        m = twin(mk_morphism((shape, rho), (shape, predual(phi, rho)), phi))
        spaces = build_gns(shape, m.target[1]), build_gns(shape, rho)
        with counted("_gram") as calls:
            assert abs(induced_contraction(m, *spaces).operator_norm - 1.0) <= 1e-12
        assert calls == {"_gram": 1}
        assert not any("_layout" in vars(space) for space in spaces)


@pytest.mark.slow
class TestTwinsSweep:
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=2),
        st.lists(st.integers(1, 12), min_size=1, max_size=2),
        seeds,
        st.integers(1, 6),
        st.sampled_from(kind_catalog()),
        st.booleans(),
    )
    def test_same_verdict_and_norm(self, blocks_a, blocks_b, seed, n_kraus, kind, rank_deficient):
        rank_deficient = rank_deficient and kind is ONE
        m = random_kraus_morphism(blocks_a, blocks_b, seed, n_kraus, rank_deficient=rank_deficient)
        same_report(kind, m, seed=seed % 1000)
        # up to 288 GNS dimensions: where the dense route's certificate does
        # not hold, it reports the top of its own rounded Gram, up to 1.5e-13
        # above 1 at d = 130, so the norms agree within the certificate's
        # margin 8 d eps (docs/schemas.md) rather than 1e-13
        dim = sum(n * n for n in blocks_b)
        same_norm(m, tol=8 * dim * np.finfo(float).eps)
