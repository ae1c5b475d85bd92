import numpy as np
import pytest

import reference_loops as ref
from conftest import (
    STANDARD_SHAPES,
    depolarizing_kraus,
    random_element,
    random_morphism,
    random_morphism_chain,
    random_rank_deficient_state,
    random_unitary,
)
from ncplab.algebra import (
    adjoint,
    basis,
    hs_norm,
    identity,
    mk_element,
    mk_shape,
    multiply,
    scale,
)
from ncplab.channels import (
    NcpMorphism,
    conjugation_map,
    from_kraus,
    mk_morphism,
    predual,
    transpose_map,
)
from ncplab import gns
from ncplab.gns import (
    GnsQuotientError,
    build_gns,
    check_functor_laws,
    embed,
    induced_contraction,
)
from ncplab.states import evaluate, mk_state, random_state, support

S2 = mk_shape([2])


def full_gram_rank(shape, state, rtol=1e-9):
    """Independent quotient dimension: rank of the full basis Gram matrix."""
    es = basis(shape)
    g = np.array(
        [[evaluate(state, multiply(adjoint(a), b)) for b in es] for a in es]
    )
    w = np.linalg.eigvalsh((g + g.conj().T) / 2.0)
    return int(np.sum(w > rtol * w[-1]))


class TestBuild:
    def test_faithful_qubit_dim(self):
        rho = random_state(S2, faithful=True, seed=0)
        space = build_gns(S2, rho)
        assert space.dim == 4
        assert space.dim == full_gram_rank(S2, rho)

    def test_pure_qubit_dim(self):
        rho = mk_state(S2, [np.diag([1.0, 0.0])])
        space = build_gns(S2, rho)
        # rank formula: n * rank(D) = 2 * 1; cross-checked by Gram rank
        assert space.dim == 2
        assert full_gram_rank(S2, rho) == 2

    def test_fair_coin(self):
        shape = mk_shape([1, 1])
        p = mk_state(shape, [np.array([[0.5]]), np.array([[0.5]])])
        space = build_gns(shape, p)
        assert space.dim == 2
        x = mk_element(shape, [np.array([[1.0]]), np.array([[-1.0]])])
        assert abs(np.linalg.norm(embed(space, x)) - 1.0) < 1e-12
        # inner product is the weighted dot product sum_i p_i conj(x_i) y_i
        y = mk_element(shape, [np.array([[2.0]]), np.array([[1.0 + 1j]])])
        expected = 0.5 * 1.0 * 2.0 + 0.5 * (-1.0) * (1.0 + 1j)
        assert abs(ref.inner(space, x, y) - expected) < 1e-12

    def test_cyclic_vector_norm(self):
        for seed, shape in enumerate(STANDARD_SHAPES):
            rho = random_state(shape, seed=seed)
            space = build_gns(shape, rho)
            assert abs(np.linalg.norm(space.cyclic) - 1.0) < 1e-10

    def test_rep_orthonormality(self):
        for seed, shape in enumerate(STANDARD_SHAPES):
            rho = random_state(shape, faithful=(seed % 2 == 0), seed=seed + 10)
            space = build_gns(shape, rho)
            rows = gns._transform(space, np.eye(shape.element_dim), gns._rep)
            reps = [ref.element_from_coords(shape, c) for c in rows]
            gram = np.array(
                [[ref.inner(space, a, b) for b in reps] for a in reps]
            )
            assert np.max(np.abs(gram - np.eye(space.dim))) < 1e-9

    def test_gelfand_ideal_embeds_to_zero(self):
        rho = mk_state(S2, [np.diag([1.0, 0.0])])
        space = build_gns(S2, rho)
        e12 = basis(S2)[1]
        # e12 annihilates the support projection from the right
        assert hs_norm(multiply(e12, support(rho))) < 1e-12
        assert np.linalg.norm(embed(space, e12)) < 1e-9

    def test_dimension_formula_random(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            shape = STANDARD_SHAPES[trial % len(STANDARD_SHAPES)]
            if trial % 3 == 0 and not shape.is_abelian:
                rho = random_rank_deficient_state(shape, rng)
            else:
                rho = random_state(shape, seed=trial)
            space = build_gns(shape, rho)
            ranks = [
                int(np.sum(w > 1e-9 * max(float(v[-1]) for v in rho.block_eigenvalues())))
                for w in rho.block_eigenvalues()
            ]
            formula = sum(n * r for n, r in zip(shape.blocks, ranks))
            assert space.dim == formula
            assert space.dim == full_gram_rank(shape, rho)

    def test_iso_matrix_matches_embed(self):
        rng = np.random.default_rng(12)
        rho = random_state(mk_shape([2, 3]), seed=13)
        space = build_gns(mk_shape([2, 3]), rho)
        for _ in range(5):
            a = random_element(mk_shape([2, 3]), rng)
            iso = gns._transform(space, a.vec[:, None], gns._iso)[:, 0]
            assert np.allclose(iso, embed(space, a), atol=1e-12)

    def test_deterministic_coordinates(self):
        rho = random_state(mk_shape([2, 3]), seed=14)
        s1 = build_gns(mk_shape([2, 3]), rho)
        s2 = build_gns(mk_shape([2, 3]), rho)
        eye = np.eye(s1.shape.element_dim)
        assert np.array_equal(gns._transform(s1, eye, gns._iso), gns._transform(s2, eye, gns._iso))
        assert np.array_equal(s1.gram_eigenvalues, s2.gram_eigenvalues)
        assert np.all(np.diff(s1.gram_eigenvalues) <= 0)


class TestEmbedInner:
    def test_unit_norm(self):
        rho = random_state(mk_shape([3]), seed=1)
        space = build_gns(mk_shape([3]), rho)
        assert abs(ref.inner(space, identity(rho.shape), identity(rho.shape)) - 1.0) < 1e-12

    def test_inner_equals_coordinate_dot(self):
        rng = np.random.default_rng(2)
        for seed, shape in enumerate(STANDARD_SHAPES):
            rho = random_state(shape, seed=seed + 20)
            space = build_gns(shape, rho)
            for _ in range(10):
                a, b = random_element(shape, rng), random_element(shape, rng)
                lhs = np.vdot(embed(space, a), embed(space, b))
                assert abs(lhs - ref.inner(space, a, b)) < 1e-9

    def test_embed_linear(self):
        rng = np.random.default_rng(3)
        shape = mk_shape([2, 1])
        rho = random_state(shape, seed=30)
        space = build_gns(shape, rho)
        a, b = random_element(shape, rng), random_element(shape, rng)
        lhs = embed(space, scale(2.0 + 1j, a) + b)
        rhs = (2.0 + 1j) * embed(space, a) + embed(space, b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestInducedContraction:
    def test_identity_morphism(self):
        from ncplab.channels import identity_morphism

        rho = random_state(mk_shape([2, 1]), seed=4)
        m = identity_morphism((mk_shape([2, 1]), rho))
        space = build_gns(mk_shape([2, 1]), rho)
        con = induced_contraction(m, space, space)
        assert np.max(np.abs(con.matrix - np.eye(space.dim))) < 1e-12

    def test_unitary_conjugation_is_gns_unitary(self):
        rng = np.random.default_rng(5)
        u = random_unitary(2, rng)
        phi = conjugation_map(S2, [u])
        rho = random_state(S2, faithful=True, seed=6)
        sigma = predual(phi, rho)
        m = mk_morphism((S2, rho), (S2, sigma), phi)
        con = induced_contraction(m, build_gns(S2, sigma), build_gns(S2, rho))
        svals = np.linalg.svd(con.matrix, compute_uv=False)
        assert np.max(np.abs(svals - 1.0)) < 1e-9

    def test_depolarizing_contracts(self):
        # On the trace state the map acts as identity on the unit class and
        # (1 - lam) on the traceless classes, so the singular values at
        # lam = 1/2 are {1, 1/2, 1/2, 1/2}.
        phi = from_kraus(S2, S2, depolarizing_kraus(0.5))
        mixed = mk_state(S2, [np.eye(2) / 2.0])
        m = mk_morphism((S2, mixed), (S2, mixed), phi)
        space = build_gns(S2, mixed)
        con = induced_contraction(m, space, space)
        svals = sorted(np.linalg.svd(con.matrix, compute_uv=False))
        assert np.allclose(svals, [0.5, 0.5, 0.5, 1.0], atol=1e-10)
        assert con.operator_norm <= 1.0 + 1e-9

    def test_cyclic_vector_is_fixed(self):
        for trial in range(20):
            shape_a = STANDARD_SHAPES[trial % len(STANDARD_SHAPES)]
            shape_b = STANDARD_SHAPES[(trial + 2) % len(STANDARD_SHAPES)]
            m = random_morphism(shape_a, shape_b, seed=trial, faithful=(trial % 2 == 0))
            sp_rho = build_gns(*m.source)
            sp_sigma = build_gns(*m.target)
            con = induced_contraction(m, sp_sigma, sp_rho)
            dev = np.linalg.norm(con.matrix @ sp_sigma.cyclic - sp_rho.cyclic)
            assert dev < 1e-9

    def test_contraction_norms_random(self):
        for trial in range(60):
            shape_a = STANDARD_SHAPES[trial % len(STANDARD_SHAPES)]
            shape_b = STANDARD_SHAPES[(trial // 2) % len(STANDARD_SHAPES)]
            m = random_morphism(shape_a, shape_b, seed=trial + 700, faithful=False)
            con = induced_contraction(m, build_gns(*m.target), build_gns(*m.source))
            assert con.operator_norm <= 1.0 + 1e-9

    def test_rank_deficient_source_state(self):
        rng = np.random.default_rng(8)
        from ncplab.channels import random_cpu_map

        rho = random_rank_deficient_state(mk_shape([3]), rng)
        phi = random_cpu_map(mk_shape([2]), mk_shape([3]), seed=80)
        sigma = predual(phi, rho)
        m = mk_morphism((mk_shape([3]), rho), (mk_shape([2]), sigma), phi)
        con = induced_contraction(m, build_gns(*m.target), build_gns(*m.source))
        assert con.operator_norm <= 1.0 + 1e-9

    def test_quotient_violation_detected(self):
        # Transpose preserves a diagonal pure state and is unital, but it is
        # not CP and maps the Gelfand ideal off itself; constructing the
        # morphism unchecked must trip the well-definedness guard.
        rho = mk_state(S2, [np.diag([1.0, 0.0])])
        bad = NcpMorphism((S2, rho), (S2, rho), transpose_map(S2))
        space = build_gns(S2, rho)
        with pytest.raises(GnsQuotientError):
            induced_contraction(bad, space, space)


class TestFunctorLaws:
    def test_identity_law_exact(self):
        from ncplab.channels import identity_morphism

        rho = random_state(mk_shape([2]), seed=9)
        rep = check_functor_laws([[identity_morphism((mk_shape([2]), rho))]])
        assert rep["max_identity_deviation"] < 1e-12
        assert rep["passed"]

    def test_unitary_chain(self):
        rng = np.random.default_rng(10)
        rho = random_state(S2, faithful=True, seed=11)
        chain = []
        cur = (S2, rho)
        for _ in range(2):
            u = random_unitary(2, rng)
            phi = conjugation_map(S2, [u])
            sigma = predual(phi, cur[1])
            chain.append(mk_morphism(cur, (S2, sigma), phi))
            cur = (S2, sigma)
        rep = check_functor_laws([chain])
        assert rep["max_composition_deviation"] < 1e-10

    def test_random_chains(self):
        chains = []
        for seed in range(10):
            shapes = [
                STANDARD_SHAPES[seed % len(STANDARD_SHAPES)],
                STANDARD_SHAPES[(seed + 1) % len(STANDARD_SHAPES)],
                STANDARD_SHAPES[(seed + 3) % len(STANDARD_SHAPES)],
                STANDARD_SHAPES[(seed + 4) % len(STANDARD_SHAPES)],
            ]
            chains.append(random_morphism_chain(shapes, seed=900 + seed))
        rep = check_functor_laws(chains)
        assert rep["max_composition_deviation"] < 1e-9
        assert rep["max_identity_deviation"] < 1e-9
        assert rep["passed"]
