from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

import reference_loops as ref
from conftest import PAULI_Z
from ncplab.algebra import ShapeError, adjoint, hs_norm, mk_element, mk_shape
from ncplab.channels import congruent_embedding
from ncplab.covariance import ONE, SLD, kind_catalog, petz_kind
from ncplab.gns import build_gns, embed
from ncplab import models
from ncplab.models import (
    ModelDomainError,
    ScoreNotRepresentableError,
    StatModel,
    affine_compose,
    affine_pushforward_check,
    congruence_invariance_check,
    embedded_model,
    finite_difference,
    fisher_rao_simplex_metric,
    gaussian_fisher_rao_metric,
    gaussian_group_model,
    gaussian_model,
    metric_pullback,
    pure_qubit_sphere_metric,
    qubit_faithful_model,
    qubit_pure_model,
    qubit_qfi_metric,
    riesz_score,
    simplex_model,
)
from ncplab.states import is_faithful


def brute_fisher_rao(model, theta):
    """Independent classical oracle: sum_x dp_i(x) dp_j(x) / p(x)."""
    state = model.state_at(theta)
    p = np.array([d[0, 0].real for d in state.densities])
    derivs = [
        np.array([b[0, 0].real for b in d.blocks]) for d in model.derivatives(theta)
    ]
    g = np.zeros((model.param_dim, model.param_dim))
    for i in range(model.param_dim):
        for j in range(model.param_dim):
            g[i, j] = float(np.sum(derivs[i] * derivs[j] / p))
    return g


def sld_via_lyapunov(density, direction):
    """Independent quantum score: solve (D L + L D)/2 = dD spectrally,
    L_ab = 2 dD_ab / (d_a + d_b) in the density eigenbasis."""
    w, v = np.linalg.eigh(density)
    dd = v.conj().T @ direction @ v
    l_eig = 2.0 * dd / (w[:, None] + w[None, :])
    return v @ l_eig @ v.conj().T


class TestSimplexModel:
    def test_midpoint_state(self):
        m = simplex_model(1)
        state = m.state_at([0.5])
        assert np.allclose([d[0, 0].real for d in state.densities], [0.5, 0.5])

    def test_derivative_pattern(self):
        m = simplex_model(3)
        d1 = m.derivatives(np.array([0.2, 0.3, 0.1]))[0]
        values = [b[0, 0].real for b in d1.blocks]
        assert values == [1.0, 0.0, 0.0, -1.0]
        assert abs(ref.trace_functional(d1)) < 1e-14

    def test_boundary_rejected(self):
        m = simplex_model(2)
        with pytest.raises(ModelDomainError):
            m.state_at([0.0, 0.5])
        with pytest.raises(ModelDomainError):
            m.state_at([0.6, 0.4])

    def test_injectivity(self):
        m = simplex_model(2)
        rng = np.random.default_rng(0)
        pts = [rng.dirichlet(np.ones(3))[:2] for _ in range(10)]
        for i, a in enumerate(pts):
            for b in pts[i + 1:]:
                if np.max(np.abs(a - b)) < 1e-8:
                    continue
                sa, sb = m.state_at(a), m.state_at(b)
                dist = np.sqrt(
                    sum(
                        float(np.sum(np.abs(x - y) ** 2))
                        for x, y in zip(sa.densities, sb.densities)
                    )
                )
                assert dist > 1e-8


class TestQubitModels:
    def test_faithful_chart(self):
        m = qubit_faithful_model()
        with pytest.raises(ModelDomainError):
            m.state_at([0.0, 1.0, 0.0])  # r = 0 excluded by the chart
        state = m.state_at([0.5, 1.0, 2.0])
        w = np.linalg.eigvalsh(state.densities[0])
        assert np.allclose(sorted(w), [0.25, 0.75], atol=1e-12)
        assert is_faithful(state)

    def test_pure_north_pole(self):
        m = qubit_pure_model()
        state = m.state_at([0.0, 0.0])
        assert np.allclose(state.densities[0], np.diag([1.0, 0.0]), atol=1e-12)

    def test_derivatives_hermitian_traceless(self):
        for model, theta in [
            (qubit_faithful_model(), np.array([0.6, 1.1, 0.4])),
            (qubit_pure_model(), np.array([1.1, 0.4])),
        ]:
            for d in model.derivatives(theta):
                assert hs_norm(adjoint(d) - d) < 1e-12
                assert abs(ref.trace_functional(d)) < 1e-12

    @pytest.mark.parametrize("theta", [[2.0, 1.0, 1.0], [0.5, 1.0]], ids=["off-chart", "too-short"])
    def test_analytic_derivatives_check_the_chart(self, theta):
        # the analytic and the finite-difference routes refuse the same points
        for model in (qubit_faithful_model(), finite_difference(qubit_faithful_model())):
            with pytest.raises(ModelDomainError):
                model.derivatives(theta)


class TestGaussianModel:
    def test_two_bin_symmetry(self):
        m = gaussian_model(2, -8.0, 8.0)
        state = m.state_at([0.0, 1.0])
        assert np.allclose([d[0, 0].real for d in state.densities], [0.5, 0.5], atol=1e-12)

    def test_normalized(self):
        m = gaussian_model(128, -10.0, 10.0)
        state = m.state_at([0.3, 1.7])
        total = sum(d[0, 0].real for d in state.densities)
        assert abs(total - 1.0) < 1e-12

    def test_injectivity(self):
        m = gaussian_model(64, -10.0, 10.0)
        a = m.state_at([0.0, 1.0])
        b = m.state_at([0.1, 1.0])
        dist = np.sqrt(
            sum(float(np.abs(x - y) ** 2) for x, y in zip(
                [d[0, 0] for d in a.densities], [d[0, 0] for d in b.densities]
            ))
        )
        assert dist > 1e-8

    def test_mass_leak_reported(self):
        m = gaussian_model(32, -2.0, 2.0)
        with pytest.raises(ModelDomainError) as err:
            m.state_at([0.0, 2.0])
        assert "leak" in str(err.value)

    def test_right_tail_keeps_its_mass(self):
        # as CDF differences every bin past about 8.3 sigma right of the mean
        # rounded to exactly 0, though the left tail kept masses near 1e-43
        m = gaussian_model(4096, -20.0, 20.0)
        theta = [0.3, 1.5]
        state = m.state_at(theta)
        assert is_faithful(state) and float(state.vec.real.min()) > 0.0
        g_gns, g_sld = metric_pullback(m, theta), metric_pullback(m, theta, SLD)
        assert np.max(np.abs(g_sld - g_gns)) <= 1e-12 * np.max(np.abs(g_gns))

    def test_bulk_masses_are_cdf_differences(self):
        edges = np.linspace(-6.0, 6.0, 49)
        p = gaussian_model(48, -6.0, 6.0).state_at([0.4, 1.0]).vec.real
        q = np.diff(ndtr(edges - 0.4))
        bulk = q > 1e-3  # where the CDF difference loses no digits to rounding
        assert np.allclose(p[bulk], (q / q.sum())[bulk], rtol=1e-12, atol=0.0)

    def test_derivatives_sum_to_zero(self):
        m = gaussian_model(64, -10.0, 10.0)
        for d in m.derivatives(np.array([0.2, 1.3])):
            total = sum(b[0, 0].real for b in d.blocks)
            assert abs(total) < 1e-14


class TestAffineGroup:
    def test_identity(self):
        assert affine_compose((0.0, 1.0), (3.0, 4.0)) == (3.0, 4.0)

    def test_composition_formula(self):
        assert affine_compose((1.0, 2.0), (3.0, 4.0)) == (7.0, 8.0)

    def test_pushforward_identity(self):
        rep = affine_pushforward_check((1.0, 2.0), (0.0, 1.0), np.linspace(-6.0, 6.0, 1000))
        assert rep["max_abs_deviation"] < 1e-12
        assert rep["passed"]

    def test_pushforward_generic(self):
        rep = affine_pushforward_check((-0.7, 0.6), (0.4, 1.3), np.linspace(-5.0, 5.0, 1000))
        assert rep["max_abs_deviation"] < 1e-12

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            affine_compose((0.0, -1.0), (0.0, 1.0))


class TestGaussianGroupModel:
    def test_identity_element_exact(self):
        gm = gaussian_group_model(128, -8.0, 8.0)
        phi = gm.automorphism_at((0.0, 1.0))
        assert phi.linear_action.nnz == 128
        assert np.array_equal(phi.linear_action.toarray(), np.eye(128))
        assert gm.equivariance_deviation((0.0, 1.0), np.array([0.2, 1.0])) < 1e-14

    def test_aligned_shift(self):
        bins, lo, hi = 512, -8.0, 8.0
        width = (hi - lo) / bins
        gm = gaussian_group_model(bins, lo, hi)
        dev = gm.equivariance_deviation((8 * width, 1.0), np.array([0.1, 1.0]), interior=16)
        assert dev < 1e-10

    def test_equivariance_converges(self):
        g = (0.3, 1.2)
        theta = np.array([0.1, 1.0])
        devs = [
            gaussian_group_model(bins, -8.0, 8.0).equivariance_deviation(g, theta)
            for bins in (256, 2048)
        ]
        assert devs[0] > devs[1]

    def test_composition_exact_for_aligned_shifts(self):
        bins, lo, hi = 256, -8.0, 8.0
        width = (hi - lo) / bins
        gm = gaussian_group_model(bins, lo, hi)
        theta = np.array([0.1, 1.0])
        dev = gm.composition_deviation((4 * width, 1.0), (6 * width, 1.0), theta)
        assert dev < 1e-12

    def test_composition_converges(self):
        g1, g2 = (0.25, 1.1), (-0.4, 0.9)
        theta = np.array([0.1, 1.0])
        devs = [
            gaussian_group_model(bins, -8.0, 8.0).composition_deviation(g1, g2, theta)
            for bins in (128, 1024)
        ]
        assert devs[0] > devs[1]
        assert devs[1] < 0.01


class TestModelInputErrors:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: simplex_model(0),
            lambda: gaussian_model(1, -1.0, 1.0),
            lambda: gaussian_model(4, 1.0, -1.0),
            lambda: affine_compose((0.0, -1.0), (0.0, 1.0)),
            lambda: gaussian_group_model(4, -1.0, 1.0).automorphism_at((0.0, 0.0)),
            lambda: gaussian_group_model(4, -1.0, 1.0).automorphism_at((np.nan, 1.0)),
            lambda: gaussian_group_model(4, -1.0, 1.0).automorphism_at((0.0, np.nan)),
            lambda: gaussian_group_model(4, -1.0, 1.0).automorphism_at((np.inf, 1.0)),
        ],
    )
    def test_bad_arguments(self, call):
        with pytest.raises(ModelDomainError):
            call()

    def test_only_abelian_models_embed(self):
        with pytest.raises(ShapeError, match="only abelian models"):
            embedded_model(qubit_faithful_model(), congruent_embedding([0, 0], [0.5, 0.5]))

    def test_size_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(models, "MAX_OUTCOMES", 8)
        assert gaussian_model(8, -1.0, 1.0).shape.num_blocks == 8
        assert simplex_model(7).shape.num_blocks == 8
        with pytest.raises(ModelDomainError, match="^9 bins is above the limit of 8$"):
            gaussian_model(9, -1.0, 1.0)
        with pytest.raises(ModelDomainError, match="^simplex:8 has 9 outcomes, above the limit of 8$"):
            simplex_model(8)

    def test_score_that_overflows_names_theta(self):
        # RuntimeWarnings are errors under pytest: the solve must not warn first
        with pytest.raises(ScoreNotRepresentableError, match=r"theta=\[1e-320, 0.5\]"):
            riesz_score(simplex_model(2), [1e-320, 0.5])

    def test_metric_that_overflows_names_theta(self):
        model = gaussian_model(4, -1e-300, 1e-300)
        with pytest.raises(ModelDomainError, match=r"gns metric is not finite at theta=\[0.0, 1e-301\]"):
            metric_pullback(model, [0.0, 1e-301])

    def test_reference_that_overflows_names_theta(self):
        model = gaussian_model(4, -1e-150, 1e-150)
        with pytest.raises(ModelDomainError, match=r"reference metric is not finite at theta=\[0.0, 1e-160\]"):
            model.reference_at(np.array([0.0, 1e-160]))
        theta = np.array([0.5, 0.25])
        assert np.array_equal(simplex_model(2).reference_at(theta), [[6.0, 4.0], [4.0, 8.0]])
        assert replace(simplex_model(2), reference=None).reference_at(theta) is None


class TestRieszScore:
    def test_simplex_score_is_classical(self):
        # oracle: solve sum_x p_x v_x a_x = sum_x dp_x a_x for all a, i.e.
        # v = dp / p pointwise
        m = simplex_model(2)
        theta = np.array([0.5, 1.0 / 3.0])
        state = m.state_at(theta)
        p = np.array([d[0, 0].real for d in state.densities])
        scores = riesz_score(m, theta, ONE)
        space = build_gns(m.shape, state)
        for i, d in enumerate(m.derivatives(theta)):
            dp = np.array([b[0, 0].real for b in d.blocks])
            oracle = mk_element(m.shape, [np.array([[x]]) for x in dp / p])
            assert np.max(np.abs(scores[i] - embed(space, oracle))) < 1e-10

    def test_qubit_score_is_sld(self):
        m = qubit_faithful_model()
        theta = np.array([0.55, 1.2, 0.8])
        state = m.state_at(theta)
        space = build_gns(m.shape, state)
        scores = riesz_score(m, theta, ONE)
        for i, d in enumerate(m.derivatives(theta)):
            l = sld_via_lyapunov(state.densities[0], d.blocks[0])
            oracle = mk_element(m.shape, [l])
            assert np.max(np.abs(scores[i] - embed(space, oracle))) < 1e-8

    def test_score_gram_is_the_pullback_on_wide_tails(self):
        # the tail bins of gaussian:4096 over +-20 fall to 2e-40 of the
        # largest, then underflow to exact zeros; the quotient keeps every
        # nonzero bin, as the pullback's forms do
        m = gaussian_model(4096, -20.0, 20.0)
        theta = np.array([0.3, 1.5])
        v = np.array(riesz_score(m, theta))
        gram = (v.conj() @ v.T).real
        g = metric_pullback(m, theta)
        state = m.state_at(theta)
        assert build_gns(m.shape, state).dim == np.count_nonzero(state.vec)
        assert np.max(np.abs(gram - g)) <= 1e-12 * np.max(np.abs(g))

    def test_pure_qubit_north_pole_theta_score(self):
        m = qubit_pure_model()
        v = riesz_score(m, np.array([0.0, 0.0]), ONE)[0]
        mags = np.sort(np.abs(v))
        assert v.size == 2
        assert mags[0] < 1e-10
        assert abs(mags[1] - 1.0) < 1e-10

    def test_rank_changing_direction_rejected(self):
        # at a pure state the direction diag(-1, 1) pairs nontrivially with
        # the Gelfand ideal, so no representative exists
        shape = mk_shape([2])

        def state_fn(theta):
            from ncplab.states import mk_state

            t = float(theta[0])
            return mk_state(shape, [np.diag([1.0 - t, t])])

        def deriv_fn(theta):
            return [mk_element(shape, [np.diag([-1.0, 1.0])])]

        model = StatModel(
            "rank-change", shape, 1, lambda th: bool(0.0 <= th[0] < 0.5),
            state_fn, deriv_fn,
        )
        with pytest.raises(ScoreNotRepresentableError) as err:
            riesz_score(model, np.array([0.0]), ONE)
        assert err.value.param_index == 0


class TestMetricPullback:
    def test_simplex_against_brute_force(self):
        m = simplex_model(2)
        theta = np.array([0.5, 1.0 / 3.0])
        g = metric_pullback(m, theta, ONE)
        assert np.max(np.abs(g - brute_fisher_rao(m, theta))) < 1e-10

    def test_simplex_uniform_frozen(self):
        m = simplex_model(2)
        g = metric_pullback(m, np.array([1 / 3, 1 / 3]), ONE)
        assert np.allclose(g, [[6.0, 3.0], [3.0, 6.0]], atol=1e-9)

    def test_simplex_matches_closed_form(self):
        rng = np.random.default_rng(1)
        for n in range(1, 7):
            m = simplex_model(n)
            for _ in range(8):
                p = rng.dirichlet(np.ones(n + 1))
                p = 0.85 * p + 0.15 / (n + 1)
                theta = p[:-1]
                g = metric_pullback(m, theta, ONE)
                assert np.max(np.abs(g - fisher_rao_simplex_metric(theta))) < 1e-9

    def test_radial_direction_frozen_value(self):
        # at D = diag(3/4, 1/4) the classical block gives
        # sum_x (dD_xx)^2 / d_x = (1/4)/(3/4) + (1/4)/(1/4) = 4/3
        shape = mk_shape([2])

        def state_fn(theta):
            from ncplab.states import mk_state

            r = float(theta[0])
            return mk_state(shape, [np.diag([(1 + r) / 2.0, (1 - r) / 2.0])])

        def deriv_fn(theta):
            return [mk_element(shape, [PAULI_Z / 2.0])]

        model = StatModel(
            "radial", shape, 1, lambda th: bool(0.0 < th[0] < 1.0), state_fn, deriv_fn
        )
        g = metric_pullback(model, np.array([0.5]), ONE)
        assert abs(g[0, 0] - 4.0 / 3.0) < 1e-10

    def test_qubit_qfi_recovery(self):
        m = qubit_faithful_model()
        rng = np.random.default_rng(2)
        for _ in range(25):
            theta = np.array(
                [rng.uniform(0.05, 0.95), rng.uniform(0.2, np.pi - 0.2), rng.uniform(0, 2 * np.pi)]
            )
            g = metric_pullback(m, theta, ONE)
            assert np.max(np.abs(g - qubit_qfi_metric(*theta))) < 1e-8

    def test_pure_qubit_sphere(self):
        m = qubit_pure_model()
        rng = np.random.default_rng(3)
        for _ in range(25):
            theta = np.array([rng.uniform(0.1, np.pi - 0.1), rng.uniform(0, 2 * np.pi)])
            g = metric_pullback(m, theta, ONE)
            assert np.max(np.abs(g - pure_qubit_sphere_metric(*theta))) < 1e-8

    def test_gaussian_converges(self):
        theta = np.array([0.0, 1.5])
        oracle = gaussian_fisher_rao_metric(*theta)
        denom = np.sqrt(np.outer(np.diag(oracle), np.diag(oracle)))
        errs = []
        for bins in (128, 512):
            m = gaussian_model(bins, -15.0, 15.0)
            g = metric_pullback(m, theta, ONE)
            errs.append(float(np.max(np.abs(g - oracle) / denom)))
        assert errs[1] < errs[0]
        assert errs[1] < 0.01

    def test_fd_matches_analytic(self):
        for model_an, theta in [
            (simplex_model(2), np.array([0.4, 0.25])),
            (qubit_faithful_model(), np.array([0.5, 1.2, 0.7])),
        ]:
            g_fd = metric_pullback(finite_difference(model_an), theta, ONE)
            g_an = metric_pullback(model_an, theta, ONE)
            assert np.max(np.abs(g_fd - g_an)) < 1e-6

    def test_fd_without_room_names_the_given_point(self):
        # the chart is narrower than FD_STEP on both sides of 0.5
        model = replace(
            finite_difference(simplex_model(1)), domain=lambda t: bool(abs(t[0] - 0.5) < 5e-6)
        )
        with pytest.raises(ModelDomainError, match=r"\[0\.5\]"):
            model.derivatives([0.5])

    def test_petz_pullback_runs_and_is_spd(self):
        # no closed-form reference; the pullback must still be symmetric
        # positive definite on the faithful chart
        m = qubit_faithful_model()
        theta = np.array([0.5, 1.0, 0.5])
        for f_kind in (petz_kind(SLD),):
            g = metric_pullback(m, theta, f_kind)
            assert np.max(np.abs(g - g.T)) < 1e-12
            assert np.linalg.eigvalsh(g)[0] > 0.0


class TestOracles:
    def test_gaussian_closed_form(self):
        assert np.allclose(
            gaussian_fisher_rao_metric(0.0, 2.0), np.diag([0.25, 0.5]), atol=1e-14
        )

    def test_simplex_uniform(self):
        g = fisher_rao_simplex_metric(np.array([1 / 3, 1 / 3]))
        assert np.allclose(g, [[6.0, 3.0], [3.0, 6.0]], atol=1e-12)

    def test_reference_bundle(self):
        for m, theta, oracle in [
            (simplex_model(2), [0.2, 0.3], fisher_rao_simplex_metric([0.2, 0.3])),
            (gaussian_model(64, -10.0, 10.0), [0.5, 2.0], np.diag([0.25, 0.5])),
            (qubit_faithful_model(), [0.5, 1.2, 0.3], qubit_qfi_metric(0.5, 1.2, 0.3)),
            (qubit_pure_model(), [np.pi / 2, 0.0], np.eye(2)),
        ]:
            for model in (m, finite_difference(m)):
                assert np.allclose(model.reference(np.array(theta)), oracle, atol=1e-14)


class TestCongruenceInvariance:
    def test_identity_embedding(self):
        m = simplex_model(2)
        emb = congruent_embedding([0, 1, 2], [1.0, 1.0, 1.0])
        rep = congruence_invariance_check(m, emb, [np.array([0.3, 0.4])])
        assert rep["max_metric_deviation"] < 1e-12

    def test_binary_split(self):
        m = simplex_model(1)
        emb = congruent_embedding([0, 0, 1], [0.5, 0.5, 1.0])
        rep = congruence_invariance_check(m, emb, [np.array([0.3]), np.array([0.7])])
        assert rep["max_metric_deviation"] < 1e-10
        assert rep["passed"]

    def test_gaussian_bin_refinement(self):
        bins = 64
        m = gaussian_model(bins, -9.0, 9.0)
        partition = np.repeat(np.arange(bins), 2)
        weights = np.full(2 * bins, 0.5)
        emb = congruent_embedding(partition, weights)
        rep = congruence_invariance_check(
            m, emb, [np.array([0.1, 1.2])], tol=1e-9
        )
        assert rep["max_metric_deviation"] < 1e-9

    @pytest.mark.parametrize("kind", kind_catalog(), ids=lambda k: k.name)
    def test_refinement_keeps_a_faithful_model_faithful(self, kind):
        # the smallest bin is 1.8e-8 of the largest, and a 0.999 / 0.001 split
        # of every bin puts the smallest cell at 1.8e-11 of the largest: a
        # cutoff against the largest eigenvalue of the whole state read the
        # refined state as rank deficient and refused every Petz kind
        m = gaussian_model(208, -6.0, 6.0)
        emb = congruent_embedding(np.repeat(np.arange(208), 2), np.tile([0.999, 0.001], 208))
        assert is_faithful(embedded_model(m, emb).state_at([0.0, 1.0]))
        rep = congruence_invariance_check(m, emb, [[0.0, 1.0]], kind)
        assert rep["passed"] and rep["max_metric_deviation"] <= 1e-9

    def test_k_axis_16384_bins(self):
        # 16384 points refined into about 32,800 cells: a dense action would
        # hold 4.3 GB, the CSR one holds one entry per cell
        rng = np.random.default_rng(11)
        m = gaussian_model(16384, -10.0, 10.0)
        sizes = rng.integers(1, 4, size=16384)
        partition = np.repeat(np.arange(16384), sizes)
        weights = np.concatenate([rng.dirichlet(np.ones(k)) for k in sizes])
        emb = congruent_embedding(partition, weights)
        rep = congruence_invariance_check(m, emb, [m.interior(rng)], tol=1e-9)
        assert rep["passed"] and rep["max_metric_deviation"] <= 1e-9

    @pytest.mark.parametrize("x_min, x_max", [(-10.0, 10.0), (40.0, 60.0), (-3.0, 3.0)])
    def test_interior_points_in_chart(self, x_min, x_max):
        rng = np.random.default_rng(0)
        gauss = gaussian_model(64, x_min, x_max)
        for m in (simplex_model(3), gauss):
            for _ in range(20):
                m.state_at(m.interior(rng))  # raises ModelDomainError outside the chart
        emb = congruent_embedding(np.repeat(np.arange(64), 2), np.full(128, 0.5))
        refined = embedded_model(gauss, emb)
        assert refined.reference is gauss.reference and refined.interior is gauss.interior
        assert refined._domain_message is gauss._domain_message and refined.domain is gauss.domain
        with pytest.raises(ModelDomainError, match="leaks outside"):
            refined.state_at([x_max, 1.0])

    def test_embedded_model_states(self):
        m = simplex_model(1)
        emb = congruent_embedding([0, 0, 1], [0.25, 0.75, 1.0])
        refined = embedded_model(m, emb)
        state = refined.state_at([0.4])
        assert np.allclose(
            [d[0, 0].real for d in state.densities], [0.1, 0.3, 0.6], atol=1e-12
        )
