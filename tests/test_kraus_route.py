"""Verdicts of carriers built from Kraus operators read the family.

``from_kraus`` returns a :class:`~ncplab.channels._KrausMap`.  For it the
carrier's images behind every criterion, the GNS kind's included, are
formed from the Kraus factors instead of the dense action where the cost
rule says that is faster (``gns._kraus_criterion_pays``).  Such a carrier
is CP by construction, so the Kadison-Schwarz bound
(``gns._kadison_schwarz``) certifies the contraction's norm from two
residuals, and neither GNS verdict forms a Gram (``GnsContraction._certified``,
the rule both read).  Every other carrier, including a plain ``CpuMap``
handed a family, keeps the dense route and the contraction's Gram.  These
tests hold the factor route, forced on, to its twin, the same action
wrapped by ``from_linear``, on random shapes: rectangular and multi-block
ones with 1 x 1 blocks, and rank-deficient states for the GNS kind.  They
hold the bound to the dense contraction's spectrum, and pin the design:
the factor route reads no action, a certified GNS verdict forms no Gram
and places no contraction, a carrier whose states the bound does not tie
takes the Gram, the dense route runs no factor product, each verdict forms
its images once, both GNS verdicts read one rule, and the cost rule picks
the measured routes on the benchmark's shapes."""

import math
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
    CpuMap,
    _KrausMap,
    NcpMorphism,
    compose,
    conjugation_map,
    from_kraus,
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
from ncplab.states import is_faithful, mk_state, random_state
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
#: the family with ``_kraus_blocks``)
CARRIER_PARTS = ("_images", "_kraus_images", "_kraus_blocks")
#: Images from the action, and images from the Kraus factors
DENSE = {"_images": 1, "_kraus_images": 0, "_kraus_blocks": 0}
FACTOR = {"_images": 1, "_kraus_images": 1, "_kraus_blocks": 1}
#: The Gram of a GNS verdict, and its factorization or spectrum
GRAM_PARTS = ("_gram", "_top_gram_eig")


@contextmanager
def factor_route():
    """The factor route taken wherever the carrier qualifies, whatever its
    cost rule says."""
    with mock.patch.object(gns, "_kraus_criterion_pays", lambda *args: True):
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
    """Both routes give the operator norm within ``tol``: the factor route
    from the family's images, and the twin from the action's images, whose
    Gram it forms, as every carrier not built from Kraus operators does."""
    (shape_a, rho), (shape_b, sigma) = m.source, m.target
    spaces = build_gns(shape_b, sigma), build_gns(shape_a, rho)
    with factor_route(), counted("_kraus_blocks") as calls:
        got = induced_contraction(m, *spaces).operator_norm
    assert calls == {"_kraus_blocks": 1}
    with counted("_gram") as calls:
        want = induced_contraction(twin(m), *spaces).operator_norm
    assert calls == {"_gram": 1}
    assert abs(got - want) <= tol


blocks = st.lists(st.integers(1, 3), min_size=1, max_size=3)
seeds = st.integers(0, 2**32 - 1)


def random_kraus_morphism(blocks_a, blocks_b, seed, n_kraus, rank_deficient=False, automorphism=False, mix_trace=0.0):
    """Verified morphism (A, rho) -> (B, sigma) with a Kraus carrier: a random
    CPU map B -> A, mixed toward the trace map by ``mix_trace``, or a
    blockwise unitary conjugation of A, which keeps a rank-deficient rho
    rank deficient in sigma."""
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
        phi = random_cpu_map(shape_b, shape_a, seed=seed, n_kraus=n_kraus, mix_trace=mix_trace)
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


def matrix_blocks_morphism(blocks, seed):
    """A verified 3-Kraus morphism of ``blocks`` built as the benchmark's
    matrix-blocks jobs build theirs: Gaussian operators normalized to
    sum K^dag K = 1, densities g g^dag + 0.1 n I, and sigma = rho o phi."""
    rng = np.random.default_rng(seed)
    shape = mk_shape(blocks)
    n = shape.total_dim
    raw = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3)]
    w, v = np.linalg.eigh(sum(k.conj().T @ k for k in raw))
    phi = from_kraus(shape, shape, [k @ (v / np.sqrt(w)) @ v.conj().T for k in raw])
    mats = []
    for b in blocks:
        g = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
        mats.append(g @ g.conj().T + 0.1 * b * np.eye(b))
    total = sum(np.trace(d).real for d in mats)
    rho = mk_state(shape, [d / total for d in mats])
    return mk_morphism((shape, rho), (shape, predual(phi, rho)), phi)


def mixed_toward_trace(m, t):
    """m with sigma mixed by ``t`` toward the trace state, unverified, as
    ``--assume-verified`` takes a morphism: the carrier no longer links
    the states."""
    shape, sigma = m.target
    mixed = [(1 - t) * d + t * np.eye(n) / shape.total_dim for n, d in zip(shape.blocks, sigma.densities)]
    return NcpMorphism(m.source, (shape, mk_state(shape, mixed)), m.cpu)


class TestDesignPins:
    @pytest.fixture
    def morphism(self):
        # above the images' measured crossover
        shape = mk_shape([12])
        phi = random_cpu_map(shape, shape, seed=4, n_kraus=3)
        rho = random_state(shape, faithful=True, seed=4)
        return mk_morphism((shape, rho), (shape, predual(phi, rho)), phi)

    @pytest.mark.parametrize("kind", kind_catalog(), ids=lambda k: k.label)
    def test_the_criterion_reads_no_action(self, morphism, kind):
        with counted(*CARRIER_PARTS) as calls:
            assert monotonicity_check(kind, morphism, n_samples=10)["passed"]
        assert calls == FACTOR
        with counted(*CARRIER_PARTS) as calls:
            monotonicity_check(kind, twin(morphism), n_samples=10)
        assert calls == DENSE

    @pytest.mark.parametrize("blocks", [[16], [20]])
    def test_a_matrix_blocks_morphism_forms_no_gram(self, blocks):
        # both GNS verdicts are certified by the Kadison-Schwarz bound:
        # nothing is formed beside the images, and nothing factorized
        m = matrix_blocks_morphism(blocks, seed=sum(blocks))
        spaces = build_gns(*m.target), build_gns(*m.source)
        with counted(*GRAM_PARTS, "_kadison_schwarz") as calls:
            rep = monotonicity_check(ONE, m, n_samples=10)
            norm = induced_contraction(m, *spaces).operator_norm
        assert calls == {"_gram": 0, "_top_gram_eig": 0, "_kadison_schwarz": 2}
        assert rep["passed"] and abs(norm - 1.0) <= 1e-12
        assert math.sqrt(rep["exact_max_eig"]) == norm

    @pytest.mark.parametrize("blocks", [[16], [20]])
    def test_the_same_carrier_between_states_it_does_not_link_takes_the_gram(self, blocks):
        # sigma mixed 10% toward the trace state: rho o phi - sigma is no
        # longer rounding, the bound certifies nothing, and the Gram finds
        # the contraction's norm above 1
        m = mixed_toward_trace(matrix_blocks_morphism(blocks, seed=sum(blocks)), 0.1)
        spaces = build_gns(*m.target), build_gns(*m.source)
        with counted(*GRAM_PARTS) as calls:
            rep = monotonicity_check(ONE, m, n_samples=10)
        assert calls == {"_gram": 1, "_top_gram_eig": 1}
        assert not rep["passed"] and rep["witness"]["ratio"] == rep["exact_max_eig"] > 1.0
        with counted(*GRAM_PARTS) as calls:
            norm = induced_contraction(m, *spaces).operator_norm
        assert calls == {"_gram": 1, "_top_gram_eig": 1}
        assert abs(norm**2 - rep["exact_max_eig"]) <= 1e-12 * norm**2

    def test_the_family_operator_norm_places_no_contraction(self):
        # a 3-Kraus [16] carrier: the operator norm reads the family, so no
        # transform of the action runs, and the matrix is placed only when read
        shape = mk_shape([16])
        phi = random_cpu_map(shape, shape, seed=4, n_kraus=3)
        rho = random_state(shape, faithful=True, seed=4)
        m = mk_morphism((shape, rho), (shape, predual(phi, rho)), phi)
        spaces = build_gns(shape, m.target[1]), build_gns(shape, rho)
        with counted("_transform", "_kraus_images", *GRAM_PARTS) as calls:
            c = induced_contraction(m, *spaces)
            assert abs(c.operator_norm - 1.0) <= 1e-12
        assert calls == {"_transform": 0, "_kraus_images": 1, "_gram": 0, "_top_gram_eig": 0}
        assert "matrix" not in vars(c)
        with counted("_transform") as calls:
            assert c.matrix.shape == (256, 256)
        assert calls == {"_transform": 2}

    def test_a_long_family_keeps_the_dense_images(self):
        # a trace mixture holds N_B N_A + 3 = 147 operators: the factor
        # images would take 147 products per entry against the dense
        # route's 48; the bound does not read the family, so it still
        # certifies the norm
        shape = mk_shape([12])
        phi = random_cpu_map(shape, shape, seed=5, n_kraus=3, mix_trace=0.2)
        rho = random_state(shape, faithful=True, seed=5)
        m = mk_morphism((shape, rho), (shape, predual(phi, rho)), phi)
        spaces = build_gns(shape, m.target[1]), build_gns(shape, rho)
        for kind in (SLD, ONE):
            with counted(*CARRIER_PARTS) as calls:
                monotonicity_check(kind, m, n_samples=10)
            assert calls == DENSE
        with counted(*CARRIER_PARTS, "_gram") as calls:
            induced_contraction(m, *spaces).operator_norm
        assert calls == {**DENSE, "_gram": 0}


class TestRouteChoice:
    """Where the cost rule sends the benchmark's carriers: three Gaussian
    operators between equal shapes, and small-batch's [2, 3] -> [2, 1]
    morphism.  Measured on one BLAS thread (BENCH_26.json to BENCH_28.json),
    the dense images are the faster ones on the small multi-block shape;
    from [8] on the family's win.  Every kind reads them alike."""

    @pytest.mark.parametrize(
        "blocks_b, blocks_a, criterion",
        [
            ([2, 3], [2, 1], "dense"),
            ([8], [8], "factor"),
            ([12, 4], [12, 4], "factor"),
            ([16], [16], "factor"),
        ],
    )
    def test_routes(self, blocks_b, blocks_a, criterion):
        shape_b, shape_a = mk_shape(blocks_b), mk_shape(blocks_a)
        phi = random_cpu_map(shape_b, shape_a, seed=6, n_kraus=3)
        rho = random_state(shape_a, faithful=True, seed=6)
        m = mk_morphism((shape_a, rho), (shape_b, predual(phi, rho)), phi)
        spaces = build_gns(shape_b, m.target[1]), build_gns(shape_a, rho)
        for kind in (SLD, ONE):
            with counted(*CARRIER_PARTS) as calls:
                assert monotonicity_check(kind, m, n_samples=10)["passed"]
            assert calls == (FACTOR if criterion == "factor" else DENSE)
        with counted(*CARRIER_PARTS) as calls:
            assert abs(induced_contraction(m, *spaces).operator_norm - 1.0) <= 1e-12
        assert calls == (FACTOR if criterion == "factor" else DENSE)


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


class TestOneGnsRule:
    """The GNS kind's verdict and the contraction's operator norm read one
    rule (``GnsContraction._certified``, which reads the bound
    ``gns._kadison_schwarz`` once) on the contraction's images, but on
    faithful block-scalar states: the same number from both, bit for bit,
    the same quotient error, and no coordinate layout placed for the norm."""

    @SETTINGS
    @given(st.sampled_from(["kraus", "linear", "markov"]), blocks, blocks, seeds, st.booleans(), st.booleans())
    def test_the_criterion_is_the_squared_norm(self, carrier, blocks_a, blocks_b, seed, rank_deficient, leak):
        m = gns_morphism(carrier, blocks_a, blocks_b, seed, rank_deficient)
        if leak:
            # a rank-deficient sigma that need not be rho o phi
            shape_b = m.target[0]
            wrong = mk_state(shape_b, random_blocks(list(shape_b.blocks), np.random.default_rng(seed + 1), True))
            m = NcpMorphism(m.source, (shape_b, wrong), m.cpu)
        with counted("_kadison_schwarz") as calls:
            exact, norm = gns_verdicts(m)
        if isinstance(norm, str):
            assert exact == norm and "maps outside the rho-null space" in norm
        elif calls["_kadison_schwarz"] == 2 and exact <= 1.0 + 1e-9:
            # a passing verdict is certified as the norm is: the same number
            assert math.sqrt(exact) == norm
        elif calls["_kadison_schwarz"] == 2:
            assert abs(exact - norm**2) <= 1e-12 * norm**2
        else:
            # the verdict took the folded real route: faithful block-scalar
            # states, which random states are only on 1 x 1 blocks
            assert calls["_kadison_schwarz"] == 1
            (shape_a, rho), (shape_b, sigma) = m.source, m.target
            assert set(shape_a.blocks + shape_b.blocks) == {1} and is_faithful(rho) and is_faithful(sigma)
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

    def test_the_operator_norm_places_no_layout(self):
        # a from_linear [6] carrier on fresh spaces: the dense Gram reads the
        # images in the density eigenbases, which need no coordinate layout
        shape = mk_shape([6])
        phi = random_cpu_map(shape, shape, seed=4, n_kraus=3)
        rho = random_state(shape, faithful=True, seed=4)
        m = twin(mk_morphism((shape, rho), (shape, predual(phi, rho)), phi))
        spaces = build_gns(shape, m.target[1]), build_gns(shape, rho)
        with counted("_kadison_schwarz", "_gram") as calls:
            assert abs(induced_contraction(m, *spaces).operator_norm - 1.0) <= 1e-12
        assert calls == {"_kadison_schwarz": 1, "_gram": 1}
        assert not any("_layout" in vars(space) for space in spaces)


class TestKadisonSchwarz:
    """The bound against the dense contraction (``reference_loops``): where
    it certifies, the top of C^dag C lies at most at the bound, and both
    GNS verdicts read that top; a bound above the top is sound everywhere."""

    @SETTINGS
    @given(
        blocks,
        blocks,
        seeds,
        st.integers(1, 4),
        st.booleans(),
        st.booleans(),
        st.sampled_from([0.0, 0.2]),
        st.sampled_from([0.0, 0.1]),
    )
    def test_the_bound_holds_where_it_certifies(
        self, blocks_a, blocks_b, seed, n_kraus, rank_deficient, automorphism, mix_trace, leak
    ):
        # rectangular and multi-block carriers; a rank-deficient rho stays
        # rank deficient in sigma under a conjugation, and under a random
        # map of few operators into a larger algebra
        m = random_kraus_morphism(blocks_a, blocks_b, seed, n_kraus, rank_deficient, automorphism, mix_trace)
        if leak:
            m = mixed_toward_trace(m, leak)
        (shape_a, rho), (shape_b, sigma) = m.source, m.target
        c = induced_contraction(m, build_gns(shape_b, sigma), build_gns(shape_a, rho))
        bound = gns._kadison_schwarz(c)
        dense = ref.dense_contraction(m, ref.RefGnsSpace(shape_b, sigma), ref.RefGnsSpace(shape_a, rho))
        top = float(np.linalg.eigvalsh(dense.conj().T @ dense)[-1])
        assert top <= bound * (1.0 + 1e-12)
        with counted("_gram") as calls:
            norm = c.operator_norm
        exact = monotonicity_check(ONE, m, n_samples=5)["exact_max_eig"]
        if not calls["_gram"]:  # certified
            assert abs(norm**2 - top) <= 1e-12 * top
            assert abs(exact - top) <= 1e-12 * top

    def test_a_morphism_of_linked_states_is_certified(self):
        # rank-deficient sigmas: Delta is read on their kept eigenvectors
        # only, so the bound certifies them, but for seed 1, whose sigma has
        # a [2] block of eigenvalues 0.70 and 0.0012: its own rounding over
        # the least one is above the margin 8 d eps at d = 10
        deficient = 0
        for seed in range(12):
            m = random_kraus_morphism([3, 2], [3, 2], seed, 2, rank_deficient=True, automorphism=True)
            c = induced_contraction(m, build_gns(*m.target), build_gns(*m.source))
            with counted("_gram") as calls:
                assert abs(c.operator_norm - 1.0) <= 1e-12
            assert calls == {"_gram": int(seed == 1)}
            deficient += seed != 1 and not is_faithful(m.target[1])
        assert deficient >= 4

    def test_an_ill_conditioned_sigma_takes_the_gram(self):
        # a verified morphism whose sigma has its least eigenvalue 1e-5 of its
        # largest: Delta as computed is zero, but sigma's own rounding over
        # that eigenvalue is above the margin 8 d eps, so the bound declines
        # and both verdicts take the Gram, whose top agrees with the twin's
        # within the margin
        m = random_kraus_morphism([2], [10], 1, 1)
        (shape_a, rho), (shape_b, sigma) = m.source, m.target
        spaces = build_gns(shape_b, sigma), build_gns(shape_a, rho)
        g = spaces[0]._groups[0]
        assert g.rank == 10 and g.d[0, -1] < 1e-4 * g.d[0, 0]
        c = induced_contraction(m, *spaces)
        margin = 8 * spaces[0].dim * np.finfo(float).eps
        assert gns._kadison_schwarz(c) > 1.0 + margin
        with counted("_gram") as calls:
            exact = monotonicity_check(ONE, m, n_samples=5)["exact_max_eig"]
            norm = c.operator_norm
        assert calls == {"_gram": 2} and abs(exact - norm**2) <= 1e-12
        assert abs(norm - induced_contraction(twin(m), *spaces).operator_norm) <= margin

    def test_a_carrier_not_built_from_kraus_operators_has_no_bound(self):
        m = twin(random_kraus_morphism([3], [3], 1, 2))
        c = induced_contraction(m, build_gns(*m.target), build_gns(*m.source))
        assert gns._kadison_schwarz(c) == math.inf

    def test_an_unverified_morphism_gets_no_certificate(self):
        # a 3-Kraus map on [3] with sigma mixed 10% toward the trace state:
        # the bound is far above the contraction's norm, and the Gram finds
        # that norm above 1
        m = mixed_toward_trace(random_kraus_morphism([3], [3], 2, 3), 0.1)
        (shape_a, rho), (shape_b, sigma) = m.source, m.target
        c = induced_contraction(m, build_gns(shape_b, sigma), build_gns(shape_a, rho))
        dense = ref.dense_contraction(m, ref.RefGnsSpace(shape_b, sigma), ref.RefGnsSpace(shape_a, rho))
        top = float(np.linalg.eigvalsh(dense.conj().T @ dense)[-1])
        assert 1.0 < top < gns._kadison_schwarz(c)
        with counted("_gram") as calls:
            norm = c.operator_norm
        assert calls == {"_gram": 1} and abs(norm**2 - top) <= 1e-12 * top


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
