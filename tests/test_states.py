import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from conftest import PAULI_Z, STANDARD_SHAPES, random_element
from ncplab.algebra import abelian_shape, adjoint, basis, hs_norm, identity, mk_element, mk_shape, multiply
from ncplab.channels import congruent_embedding, predual
from ncplab.gns import build_gns
from ncplab.states import (
    StateValidationError,
    evaluate,
    is_faithful,
    mk_state,
    random_state,
    random_tracial_state,
    support,
)


class TestConstruction:
    def test_maximally_mixed(self):
        rho = mk_state(mk_shape([2]), [np.eye(2) / 2.0])
        assert abs(evaluate(rho, identity(rho.shape)) - 1.0) < 1e-12

    def test_classical_vector(self):
        rho = mk_state(
            mk_shape([1, 1, 1]),
            [np.array([[1 / 2]]), np.array([[1 / 3]]), np.array([[1 / 6]])],
        )
        assert is_faithful(rho)

    def test_non_psd_rejected_with_block(self):
        with pytest.raises(StateValidationError) as err:
            mk_state(mk_shape([2]), [np.diag([2.0, -1.0])])
        assert err.value.block == 0

    def test_bad_trace_rejected(self):
        with pytest.raises(StateValidationError):
            mk_state(mk_shape([2]), [np.eye(2)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_with_block(self, bad):
        with pytest.raises(StateValidationError, match="not finite") as err:
            mk_state(
                mk_shape([1, 2, 1]),
                [np.array([[0.5]]), np.array([[0.25, bad], [bad, 0.25]]), np.array([[bad]])],
            )
        assert err.value.block == 1

    def test_nan_probability_rejected(self):
        with pytest.raises(StateValidationError, match="not finite") as err:
            mk_state(mk_shape([1, 1]), [np.array([[np.nan]]), np.array([[0.5]])])
        assert err.value.block == 0

    def test_offending_block_index_reported(self):
        with pytest.raises(StateValidationError) as err:
            mk_state(
                mk_shape([1, 2]),
                [np.array([[0.5]]), np.diag([1.0, -0.5])],
            )
        assert err.value.block == 1


class TestEvaluate:
    def test_indicator(self):
        rho = mk_state(
            mk_shape([1, 1, 1]),
            [np.array([[1 / 2]]), np.array([[1 / 3]]), np.array([[1 / 6]])],
        )
        a = mk_element(rho.shape, [[[1.0]], [[0.0]], [[0.0]]])
        assert abs(evaluate(rho, a) - 0.5) < 1e-15

    def test_unit(self):
        for shape in STANDARD_SHAPES:
            rho = random_state(shape, seed=1)
            assert abs(evaluate(rho, identity(shape)) - 1.0) < 1e-12

    def test_pauli_z_vanishes_on_mixed(self):
        rho = mk_state(mk_shape([2]), [np.eye(2) / 2.0])
        z = mk_element(rho.shape, [PAULI_Z])
        assert abs(evaluate(rho, z)) < 1e-15

    def test_positive_on_positive(self):
        rng = np.random.default_rng(2)
        for shape in STANDARD_SHAPES:
            rho = random_state(shape, seed=3)
            b = random_element(shape, rng)
            val = evaluate(rho, multiply(adjoint(b), b))
            assert val.real >= -1e-12 and abs(val.imag) < 1e-10

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(4)
        for trial in range(100):
            shape = STANDARD_SHAPES[trial % len(STANDARD_SHAPES)]
            rho = random_state(shape, seed=trial)
            a, b = random_element(shape, rng), random_element(shape, rng)
            cross = abs(evaluate(rho, multiply(adjoint(a), b))) ** 2
            norms = evaluate(rho, multiply(adjoint(a), a)).real * evaluate(
                rho, multiply(adjoint(b), b)
            ).real
            assert cross <= norms + 1e-9


class TestSupport:
    def test_pure_state(self):
        rho = mk_state(mk_shape([2]), [np.diag([1.0, 0.0])])
        p = support(rho)
        assert np.allclose(p.blocks[0], np.diag([1.0, 0.0]), atol=1e-12)

    def test_faithful_support_is_identity(self):
        rho = random_state(mk_shape([2, 3]), faithful=True, seed=5)
        p = support(rho)
        assert hs_norm(p - identity(rho.shape)) < 1e-9

    def test_rank_two(self):
        rho = mk_state(mk_shape([3]), [np.diag([0.75, 0.25, 0.0])])
        p = support(rho)
        assert np.allclose(p.blocks[0], np.diag([1.0, 1.0, 0.0]), atol=1e-12)


    def test_projection_properties(self):
        for seed in range(10):
            rho = random_state(mk_shape([3, 2]), seed=seed)
            p = support(rho)
            assert hs_norm(multiply(p, p) - p) < 1e-12
            assert hs_norm(adjoint(p) - p) < 1e-12

    def test_state_lives_on_support(self):
        for seed in range(10):
            rho = random_state(mk_shape([3]), seed=seed)
            p = support(rho)
            val = evaluate(rho, identity(rho.shape) - p)
            assert abs(val) < 1e-10


class TestTracial:
    def test_maximally_mixed_is_tracial(self):
        rho = mk_state(mk_shape([2]), [np.eye(2) / 2.0])
        assert ref.is_tracial(rho, 1e-9)

    def test_unbalanced_diag_not_tracial(self):
        # basis-pair sweep hits (e12, e21): rho(e12 e21) - rho(e21 e12)
        # equals rho(e11) - rho(e22) = 1/2, far above tolerance.
        rho = mk_state(mk_shape([2]), [np.diag([0.75, 0.25])])
        e = basis(rho.shape)
        e12, e21 = e[1], e[2]
        gap = evaluate(rho, multiply(e12, e21)) - evaluate(rho, multiply(e21, e12))
        assert abs(gap - 0.5) < 1e-15
        assert not ref.is_tracial(rho, 1e-9)

    def test_abelian_always_tracial(self):
        for seed in range(10):
            rho = random_state(mk_shape([1, 1, 1]), seed=seed)
            assert ref.is_tracial(rho, 1e-9)

    @pytest.mark.parametrize("shape", STANDARD_SHAPES, ids=str)
    def test_methods_agree(self, shape):
        for seed in range(100):
            rho = (
                random_tracial_state(shape, seed=seed)
                if seed % 2
                else random_state(shape, seed=seed)
            )
            assert ref.is_tracial(rho, 1e-9) == ref.is_tracial_commutator_sweep(rho, 1e-9)


class TestRandomStates:
    def test_deterministic(self):
        a = random_state(mk_shape([2, 3]), seed=42)
        b = random_state(mk_shape([2, 3]), seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a.densities, b.densities))

    def test_faithful_floor(self):
        for seed in range(20):
            rho = random_state(mk_shape([3, 2]), faithful=True, seed=seed)
            min_eig = min(float(w[0]) for w in rho.block_eigenvalues())
            assert min_eig >= 1e-3 - 1e-12
            assert is_faithful(rho)

    @pytest.mark.parametrize("n", [1024, 2048, 4096])
    def test_faithful_floor_beyond_a_thousand_dimensions(self, n):
        # eigenvalues average 1/N, so the floor there is 1/(2N), not 1e-3
        for seed in range(20):
            rho = random_state(abelian_shape(n), faithful=True, seed=seed)
            min_eig = min(float(w[0]) for w in rho.block_eigenvalues())
            assert min_eig >= 0.5 / n - 1e-12
            assert is_faithful(rho)

    def test_trace_one(self):
        for seed in range(20):
            rho = random_state(mk_shape([2, 3]), seed=seed)
            total = sum(np.trace(d).real for d in rho.densities)
            assert abs(total - 1.0) < 1e-12

    def test_tracial_generator(self):
        rho = random_tracial_state(mk_shape([2, 3]), seed=1)
        assert ref.is_tracial(rho, 1e-10)
        assert is_faithful(rho)


class TestSupportRuleUnderRefinement:
    """A congruent embedding splits each 1x1 block into cells; the support
    rule, each block against its own largest eigenvalue, must not notice."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(-14.0, 0.0), min_size=1, max_size=40),
        st.floats(0.0, 2.0),
        st.integers(0, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_faithfulness_and_gns_dim_are_unchanged(self, exponents, extra, zeros, seed):
        # probabilities spanning at least 12 decades, the first ``zeros`` of
        # the free ones exact zeros
        p = 10.0 ** np.array([0.0, -12.0 - extra, *exponents])
        p[2 : 2 + zeros] = 0.0
        p /= p.sum()
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 4, size=p.size)
        partition = np.repeat(np.arange(p.size), sizes)
        # per-fiber weights down to 1e-6 of each other
        w = 10.0 ** rng.uniform(-6.0, 0.0, size=partition.size)
        w /= np.bincount(partition, weights=w)[partition]
        base = mk_state(mk_shape([1] * p.size), [np.array([[x]]) for x in p])
        refined = predual(congruent_embedding(partition, w), base)
        assert is_faithful(base) == is_faithful(refined) == bool(np.all(p > 0.0))
        # every bin kept in the base keeps all of its cells
        assert build_gns(base.shape, base).dim == np.count_nonzero(p)
        assert build_gns(refined.shape, refined).dim == np.count_nonzero(p[partition])
