import tracemalloc

import numpy as np
import pytest

import reference_loops as ref
from conftest import STANDARD_SHAPES, depolarizing_kraus, random_element, random_morphism
from ncplab.algebra import basis, identity, mk_shape
from ncplab.channels import from_kraus, identity_morphism, mk_morphism, predual, random_cpu_map
import ncplab
from ncplab import cli, covariance
from ncplab.covariance import (
    KMB,
    RLD,
    SLD,
    WY,
    OperatorMonotoneFunction,
    ONE,
    UnsupportedKindError,
    covariance_gram,
    kind_catalog,
    kind_from_name,
    monotonicity_check,
    omf_catalog,
    petz_kind,
    tracial_collapse_check,
)
from ncplab.gns import build_gns, embed, induced_contraction
from ncplab.states import evaluate, mk_state, random_state

S2 = mk_shape([2])

FLAT = OperatorMonotoneFunction("flat", lambda t: np.ones_like(t))


class TestOperatorMonotoneCatalog:
    def test_catalog_contents(self):
        names = [f.name for f in omf_catalog()]
        assert names == ["sld", "kmb", "wy", "rld"]

    def test_normalization_at_one(self):
        for f in omf_catalog():
            assert abs(f(1.0) - 1.0) < 1e-12

    def test_kmb_limit_region(self):
        # the removable singularity at t = 1 must be smooth
        ts = np.array([1.0 - 1e-7, 1.0 - 1e-10, 1.0, 1.0 + 1e-10, 1.0 + 1e-7])
        vals = KMB(ts)
        assert np.max(np.abs(vals - (1.0 + (ts - 1.0) / 2.0))) < 1e-13

    def test_wy_closed_form(self):
        assert abs(WY(4.0) - 9.0 / 4.0) < 1e-14

    def test_sld_rld_values(self):
        assert abs(SLD(3.0) - 2.0) < 1e-14
        assert abs(RLD(3.0) - 1.5) < 1e-14

    def test_monotone_on_grid(self):
        grid = np.geomspace(1e-6, 1e6, 1000)
        for f in omf_catalog():
            assert np.all(np.diff(f(grid)) > -1e-12)

    def test_symmetry(self):
        grid = np.geomspace(1e-4, 1e4, 200)
        for f in omf_catalog():
            assert np.max(np.abs(f(grid) - grid * f(1.0 / grid))) < 1e-9

    def test_matrix_monotone_2x2(self):
        rng = np.random.default_rng(0)
        for f in omf_catalog():
            for _ in range(100):
                g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                a = g @ g.conj().T + 0.05 * np.eye(2)
                h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                b = a + h @ h.conj().T
                gap = ref.matrix_apply(f, b) - ref.matrix_apply(f, a)
                assert np.linalg.eigvalsh((gap + gap.conj().T) / 2.0)[0] >= -1e-8


class TestKinds:
    def test_a_kind_is_its_function(self):
        assert ncplab.petz_kind(ncplab.SLD) is ncplab.SLD
        assert ncplab.kind_from_name("gns") is ncplab.ONE
        assert [kind_from_name(f.name) for f in omf_catalog()] == omf_catalog()
        assert petz_kind(FLAT) is FLAT

    def test_labels(self):
        assert [k.label for k in kind_catalog()] == ["gns", "petz:sld", "petz:kmb", "petz:wy", "petz:rld"]
        assert [k.is_gns for k in kind_catalog()] == [True, False, False, False, False]
        # a function equal to 1 is a Petz kind all the same: only ONE is GNS
        assert FLAT.label == "petz:flat" and not FLAT.is_gns

    def test_kind_cache_is_shared_by_every_spelling(self):
        space = build_gns(S2, random_state(S2, faithful=True, seed=4))
        covariance.block_form(petz_kind(SLD), space, 0)
        covariance.block_form(kind_from_name("SLD"), space, 0)
        assert list(space._forms) == [SLD]


class TestCovarianceGram:
    def test_gns_gram_is_exact_identity(self):
        for seed, shape in enumerate(STANDARD_SHAPES):
            rho = random_state(shape, seed=seed)
            space = build_gns(shape, rho)
            gram = covariance_gram(ONE, space).gram
            assert np.array_equal(gram, np.eye(space.dim))

    def test_flat_function_reproduces_gns(self):
        rho = random_state(S2, faithful=True, seed=1)
        space = build_gns(S2, rho)
        gram = covariance_gram(petz_kind(FLAT), space).gram
        assert np.max(np.abs(gram - np.eye(space.dim))) < 1e-10

    def test_tracial_state_collapses(self):
        mixed = mk_state(S2, [np.eye(2) / 2.0])
        space = build_gns(S2, mixed)
        for f in omf_catalog():
            gram = covariance_gram(petz_kind(f), space).gram
            assert np.max(np.abs(gram - np.eye(space.dim))) < 1e-10

    def test_petz_gram_hermitian_pd(self):
        for seed, shape in enumerate(STANDARD_SHAPES):
            rho = random_state(shape, faithful=True, seed=seed + 40)
            space = build_gns(shape, rho)
            for f in omf_catalog():
                gram = covariance_gram(petz_kind(f), space).gram
                assert np.max(np.abs(gram - gram.conj().T)) < 1e-10
                assert np.linalg.eigvalsh(gram)[0] > 0.0

    def test_gram_lives_on_gns_space(self):
        rho = random_state(mk_shape([2, 1]), faithful=True, seed=2)
        space = build_gns(mk_shape([2, 1]), rho)
        for kind in kind_catalog():
            g = covariance_gram(kind, space)
            assert g.gram.shape == (space.dim, space.dim)

    def test_petz_rejects_non_faithful(self):
        rho = mk_state(S2, [np.diag([1.0, 0.0])])
        space = build_gns(S2, rho)
        with pytest.raises(UnsupportedKindError):
            covariance_gram(petz_kind(SLD), space)


class TestCovarianceEval:
    def test_classical_indicators(self):
        # direct oracle: sum_x p_x conj(f_x) g_x on indicator functions
        shape = mk_shape([1, 1, 1])
        p = [0.5, 1.0 / 3.0, 1.0 / 6.0]
        rho = mk_state(shape, [np.array([[x]]) for x in p])
        space = build_gns(shape, rho)
        es = basis(shape)
        for i in range(3):
            for j in range(3):
                val = ref.covariance_eval(ONE, space, es[i], es[j])
                assert abs(val - (p[i] if i == j else 0.0)) < 1e-12

    def test_unit_pairing_is_one(self):
        rho = random_state(mk_shape([2, 1]), faithful=True, seed=4)
        space = build_gns(mk_shape([2, 1]), rho)
        one = identity(mk_shape([2, 1]))
        for kind in kind_catalog():
            assert abs(ref.covariance_eval(kind, space, one, one) - 1.0) < 1e-10

    def test_sld_offdiagonal_weight(self):
        # kernel weight on the (1,2) coordinate of diag(3/4, 1/4) is
        # (d1 + d2)/2 = 1/2
        rho = mk_state(S2, [np.diag([0.75, 0.25])])
        space = build_gns(S2, rho)
        e12 = basis(S2)[1]
        val = ref.covariance_eval(petz_kind(SLD), space, e12, e12)
        assert abs(val - 0.5) < 1e-12

    def test_gns_eval_matches_state(self):
        rng = np.random.default_rng(5)
        from ncplab.algebra import adjoint, multiply

        for seed, shape in enumerate(STANDARD_SHAPES):
            rho = random_state(shape, seed=seed + 50)
            space = build_gns(shape, rho)
            x, y = random_element(shape, rng), random_element(shape, rng)
            val = ref.covariance_eval(ONE, space, x, y)
            assert abs(val - evaluate(rho, multiply(adjoint(x), y))) < 1e-9

    def test_eval_agrees_with_embed_then_gram(self):
        rng = np.random.default_rng(6)
        rho = random_state(mk_shape([2, 3]), faithful=True, seed=7)
        space = build_gns(mk_shape([2, 3]), rho)
        for kind in kind_catalog():
            gram = covariance_gram(kind, space).gram
            for _ in range(5):
                x = random_element(mk_shape([2, 3]), rng)
                y = random_element(mk_shape([2, 3]), rng)
                via_gram = np.vdot(embed(space, x), gram @ embed(space, y))
                direct = ref.covariance_eval(kind, space, x, y)
                assert abs(via_gram - direct) < 1e-8

    def test_sesquilinear(self):
        rng = np.random.default_rng(8)
        rho = random_state(S2, faithful=True, seed=9)
        space = build_gns(S2, rho)
        x, y, z = (random_element(S2, rng) for _ in range(3))
        for kind in kind_catalog():
            lhs = ref.covariance_eval(kind, space, x, (2.0 + 1j) * y + z)
            rhs = (2.0 + 1j) * ref.covariance_eval(kind, space, x, y) + ref.covariance_eval(
                kind, space, x, z
            )
            assert abs(lhs - rhs) < 1e-10
            lhs = ref.covariance_eval(kind, space, (2.0 + 1j) * x, y)
            rhs = np.conj(2.0 + 1j) * ref.covariance_eval(kind, space, x, y)
            assert abs(lhs - rhs) < 1e-10


class TestAbelianCollapse:
    def test_all_kinds_equal_gns_on_abelian(self):
        shape = mk_shape([1, 1, 1, 1])
        for seed in range(10):
            rho = random_state(shape, faithful=True, seed=seed)
            space = build_gns(shape, rho)
            for f in omf_catalog():
                gram = covariance_gram(petz_kind(f), space).gram
                assert np.max(np.abs(gram - np.eye(space.dim))) < 1e-10


class TestMonotonicity:
    def test_identity_morphism_ratio_one(self):
        rho = random_state(S2, faithful=True, seed=10)
        m = identity_morphism((S2, rho))
        for kind in kind_catalog():
            rep = monotonicity_check(kind, m, n_samples=20, seed=0)
            assert abs(rep["exact_max_eig"] - 1.0) < 1e-10
            assert rep["passed"]

    def test_gns_ratio_equals_squared_norm(self):
        # dual route: for the GNS kind the exact criterion coincides with the
        # squared operator norm of the induced contraction
        for trial in range(10):
            m = random_morphism(
                STANDARD_SHAPES[trial % len(STANDARD_SHAPES)],
                STANDARD_SHAPES[(trial + 1) % len(STANDARD_SHAPES)],
                seed=trial + 60,
            )
            rep = monotonicity_check(ONE, m, n_samples=10, seed=trial)
            con = induced_contraction(m, build_gns(*m.target), build_gns(*m.source))
            assert abs(rep["exact_max_eig"] - con.operator_norm**2) < 1e-9

    def test_depolarizing_sld(self):
        phi = from_kraus(S2, S2, depolarizing_kraus(0.5))
        rho = mk_state(S2, [np.diag([0.75, 0.25])])
        sigma = predual(phi, rho)
        m = mk_morphism((S2, rho), (S2, sigma), phi)
        rep = monotonicity_check(petz_kind(SLD), m, n_samples=200, seed=1)
        assert rep["exact_max_eig"] <= 1.0 + 1e-9
        assert rep["worst_ratio"] <= rep["exact_max_eig"] + 1e-9
        assert rep["passed"]

    def test_all_kinds_random_morphisms(self):
        for trial in range(20):
            shape_a = STANDARD_SHAPES[trial % len(STANDARD_SHAPES)]
            shape_b = STANDARD_SHAPES[(trial + 2) % len(STANDARD_SHAPES)]
            m = random_morphism(shape_a, shape_b, seed=trial + 800, mix_trace=0.1)
            for kind in kind_catalog():
                rep = monotonicity_check(kind, m, n_samples=20, seed=trial)
                assert rep["exact_max_eig"] <= 1.0 + 1e-8, (kind.label, trial)

    def test_working_set_of_a_matrix_verdict(self, monkeypatch):
        # the criterion is read off the action, and sigma's rows are dropped
        # once gathered, so at most two 256 x 256 complex arrays (1 MB each)
        # and a fold's run are alive at once, and the real route's Gram and
        # factor are real: 2.30 MB, where it was 3.30 MB with the rows kept
        # and the complex route, and 5.1-5.4 MB when the contraction was
        # built and whitened on both sides; and only the samples and the
        # witness are whitened, never a matrix
        shape = mk_shape([16])
        phi = random_cpu_map(shape, shape, seed=5, n_kraus=3)
        rho = random_state(shape, faithful=True, seed=6)
        m = mk_morphism((shape, rho), (shape, predual(phi, rho)), phi)
        whitened, whiten = [], covariance._whiten

        def recorded(kernels, space, x, inverse=False):
            whitened.append(x.shape)
            return whiten(kernels, space, x, inverse)

        monkeypatch.setattr(covariance, "_whiten", recorded)
        monotonicity_check(SLD, m, n_samples=100)
        tracemalloc.start()
        try:
            rep = monotonicity_check(SLD, m, n_samples=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep["passed"]
        assert peak <= 2.35e6
        assert whitened == [(256, 100), (256, 100)]

    def test_samples_beyond_the_limit_refused_before_drawing(self):
        # sigma on M_2 has GNS dimension 4, so 2**22 + 1 samples are one row
        # of four coordinates too many
        m = identity_morphism((S2, random_state(S2, faithful=True, seed=11)))
        limit = covariance.MAX_SAMPLE_ENTRIES
        with pytest.raises(ncplab.InputError, match=rf"{limit // 4 + 1} samples in sigma's 4 GNS dimensions .* {limit}"):
            monotonicity_check(ONE, m, n_samples=limit // 4 + 1)
        with pytest.raises(ncplab.InputError, match="limit"):
            monotonicity_check(ONE, m, n_samples=10**12)

    def test_report_carries_tolerance(self):
        m = identity_morphism((S2, random_state(S2, faithful=True, seed=11)))
        rep = monotonicity_check(ONE, m, n_samples=5, seed=0, tol=1e-7)
        assert rep["tol"] == 1e-7


class TestTracialCollapse:
    def test_maximally_mixed_qubit(self):
        rep = tracial_collapse_check([S2], n_states=5, seed=0)
        assert rep["max_deviation"] < 1e-10
        assert rep["passed"]

    def test_abelian_states(self):
        rep = tracial_collapse_check([mk_shape([1, 1, 1])], n_states=5, seed=1)
        assert rep["max_deviation"] < 1e-10

    def test_block_scalar_direct_sum(self):
        rep = tracial_collapse_check([mk_shape([2, 3])], n_states=5, seed=2)
        assert rep["max_deviation"] < 1e-10

    def test_state_count_beyond_the_limit_refused_before_spawning(self):
        # SeedSequence.spawn(10**12) would hold a child per state
        limit = covariance.MAX_TRACIAL_STATES
        assert limit == cli.MAX_SAMPLES
        for n_states in (limit + 1, 10**12):
            with pytest.raises(ncplab.InputError, match=rf"{n_states} states exceed the limit of {limit}"):
                tracial_collapse_check([S2], n_states=n_states)


class TestVerdictInputsRefused:
    """The library verdicts refuse a tolerance that is not a finite real
    number >= 0 (an infinite one passes every map, a NaN one fails every
    map; a string, None or a boolean is no tolerance) and sample
    counts and seeds that are not integers >= 0, each with an InputError."""

    BAD_TOLS = [float("inf"), float("nan"), -1.0, "x", None, True]
    BAD_IDS = ["inf", "nan", "negative", "str", "none", "bool"]

    @pytest.fixture
    def violation(self):
        # the partial trace M_2 -> M_4 breaks the power mean p = 2
        from test_certificates import partial_trace, power_mean

        phi = partial_trace()
        rho = random_state(phi.target_shape, faithful=True, seed=0)
        m = mk_morphism((phi.target_shape, rho), (phi.source_shape, predual(phi, rho)), phi)
        kind = power_mean(2.0)
        assert not monotonicity_check(kind, m, n_samples=0)["passed"]
        return kind, m

    @pytest.mark.parametrize("tol", BAD_TOLS, ids=BAD_IDS)
    def test_monotonicity_tol(self, violation, tol):
        with pytest.raises(ncplab.InputError, match="tol must be finite and >= 0"):
            monotonicity_check(*violation, n_samples=0, tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLS, ids=BAD_IDS)
    def test_tracial_collapse_tol(self, tol):
        with pytest.raises(ncplab.InputError, match="tol must be finite and >= 0"):
            tracial_collapse_check([S2], n_states=2, tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLS, ids=BAD_IDS)
    def test_congruence_invariance_tol(self, tol):
        from ncplab.channels import congruent_embedding
        from ncplab.models import congruence_invariance_check, simplex_model

        emb = congruent_embedding([0, 1, 2], [1.0, 1.0, 1.0])
        with pytest.raises(ncplab.InputError, match="tol must be finite and >= 0"):
            congruence_invariance_check(simplex_model(2), emb, [np.array([0.3, 0.4])], tol=tol)

    @pytest.mark.parametrize(
        "name, value", [("n_samples", -1), ("n_samples", 2.5), ("seed", -1), ("seed", 2.5)]
    )
    def test_monotonicity_counts(self, name, value):
        m = identity_morphism((S2, random_state(S2, faithful=True, seed=11)))
        with pytest.raises(ncplab.InputError, match=f"{name} must be an integer >= 0"):
            monotonicity_check(SLD, m, **{name: value})

    @pytest.mark.parametrize(
        "name, value", [("n_states", -1), ("n_states", 2.5), ("seed", -1), ("seed", 2.5)]
    )
    def test_tracial_collapse_counts(self, name, value):
        with pytest.raises(ncplab.InputError, match=f"{name} must be an integer >= 0"):
            tracial_collapse_check([S2], **{"n_states": 2, name: value})
