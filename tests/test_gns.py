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
    InputError,
    ShapeError,
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
    identity_morphism,
    markov_from_stochastic,
    mk_morphism,
    predual,
    transpose_map,
)
from ncplab import gns
from ncplab.covariance import kind_catalog, monotonicity_check
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
    """Independent quotient dimension: rank of the full basis Gram matrix,
    each block's diagonal part against its own largest eigenvalue (the
    Gram is block diagonal: rho(a^dag b) = 0 for a, b in different blocks)."""
    es = basis(shape)
    g = np.array(
        [[evaluate(state, multiply(adjoint(a), b)) for b in es] for a in es]
    )
    owner = np.repeat(np.arange(shape.num_blocks), [n * n for n in shape.blocks])
    rank = 0
    for k in range(shape.num_blocks):
        gk = g[np.ix_(owner == k, owner == k)]
        w = np.linalg.eigvalsh((gk + gk.conj().T) / 2.0)
        rank += int(np.sum(w > rtol * w[-1]))
    return rank


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

    @pytest.mark.parametrize("tol", [1.0, 2.0, np.nan, np.inf, -1e-9, "x", None, True])
    def test_cutoff_outside_the_unit_interval_is_input_error(self, tol):
        # 1 or more would drop the unit's class; below 0 would keep null directions
        pure = mk_state(S2, [np.diag([1.0, 0.0])])
        with pytest.raises(InputError, match="support tolerance must be in"):
            build_gns(S2, pure, tol)

    def test_zero_cutoff_keeps_every_positive_eigenvalue(self):
        rho = mk_state(S2, [np.diag([1.0 - 1e-12, 1e-12])])
        assert build_gns(S2, rho).dim == 2
        assert build_gns(S2, rho, 0.0).dim == 4

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
            # the support rule: each block against its own largest eigenvalue
            ranks = [int(np.sum(w > 1e-9 * float(w[-1]))) for w in rho.block_eigenvalues()]
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


class TestShapeMismatches:
    def test_state_of_another_shape(self):
        with pytest.raises(ShapeError, match="does not match state shape"):
            build_gns(mk_shape([1, 1]), random_state(S2, seed=0))

    def test_element_of_another_shape(self):
        with pytest.raises(ShapeError, match="element shape"):
            embed(build_gns(S2, random_state(S2, seed=0)), identity(mk_shape([3])))

    def test_contraction_between_other_objects(self):
        m = identity_morphism((S2, random_state(S2, seed=0)))
        other = build_gns(mk_shape([3]), random_state(mk_shape([3]), seed=0))
        with pytest.raises(ShapeError, match="do not match the morphism objects"):
            induced_contraction(m, other, other)

    def test_contraction_between_other_states(self):
        m = identity_morphism((S2, random_state(S2, seed=0)))
        other = build_gns(S2, random_state(S2, seed=1))
        with pytest.raises(ShapeError, match="built for different states"):
            induced_contraction(m, other, other)


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
        with pytest.raises(GnsQuotientError, match=r"block 0, row 0, dropped eigenvector 1 .* norm 1\.000e\+00"):
            induced_contraction(bad, space, space)

    def test_rounding_level_target_block_is_kept(self):
        # b -> (b_1, b_1) on [2, 2], its Kraus operators passed through a
        # random unitary and back, so sigma's second block is rounding: its
        # eigenvalues are near 1e-31.  The per-block rule keeps them (a cutoff
        # against the whole state's largest eigenvalue dropped the block, GNS
        # dimension 4); the contraction stays one of norm 1 + O(eps).
        shape = mk_shape([2, 2])
        r = random_unitary(4, np.random.default_rng(0))
        kraus = []
        for rows in (slice(0, 2), slice(2, 4)):
            p = np.zeros((4, 4), dtype=complex)
            p[:2, rows] = np.eye(2)
            kraus.append(r @ (r.conj().T @ p))
        phi = from_kraus(shape, shape, kraus)
        rho = random_state(shape, faithful=True, seed=0)
        sigma = predual(phi, rho)
        tiny = sigma.block_eigenvalues()[1]
        assert 0.0 < tiny[0] and tiny[1] < 1e-30
        m = mk_morphism((shape, rho), (shape, sigma), phi)
        space_sigma = build_gns(shape, sigma)
        assert space_sigma.dim == 8
        con = induced_contraction(m, space_sigma, build_gns(shape, rho))
        assert abs(con.operator_norm - 1.0) <= 1e-12
        for kind in kind_catalog():
            exact = monotonicity_check(kind, m, n_samples=0)["exact_max_eig"]
            assert abs(exact - 1.0) <= 1e-12
            assert abs(exact - ref.monotonicity_dense(kind, m)[0]) <= 1e-12


def eager_contraction(m, space_sigma, space_rho):
    """The contraction as it was once formed when built, as the reference
    for the one placed on read: sigma's transform over the representatives
    and the null basis at once, then rho's.  Returns the matrix and the
    null images."""

    def rep_null(g):
        return np.concatenate([gns._rep(g), g.u[:, :, g.rank :].conj()], axis=2)

    action = m.cpu.linear_action
    lt = (action if isinstance(action, np.ndarray) else action.toarray()).T
    full = gns._transform(space_rho, gns._transform(space_sigma, lt, rep_null).T, gns._iso)
    return np.ascontiguousarray(full[:, : space_sigma.dim]), full[:, space_sigma.dim :]


def conjugation_morphism(blocks, seed, leaking=False):
    """A random unitary conjugation of a rank-deficient state rho, as a
    morphism to its predual, which is rank deficient too; or, ``leaking``,
    unchecked to rho itself, whose Gelfand ideal it maps partly off."""
    rng = np.random.default_rng(seed)
    shape = mk_shape(blocks)
    rho = random_rank_deficient_state(shape, rng)
    phi = conjugation_map(shape, [random_unitary(n, rng) for n in blocks])
    if leaking:
        return NcpMorphism((shape, rho), (shape, rho), phi)
    return mk_morphism((shape, rho), (shape, predual(phi, rho)), phi)


class TestContractionPlacedOnRead:
    """An induced contraction checks sigma's null basis when built and
    places its matrix on first read, with the numbers of the contraction
    formed eagerly."""

    @pytest.mark.parametrize("seed", range(6))
    def test_faithful_sigma_bit_for_bit(self, seed):
        from test_batched import random_morphism_on

        m = random_morphism_on([3, 2], [2, 2], seed, False, False, 0.0)
        spaces = build_gns(*m.target), build_gns(*m.source)
        assert spaces[0].dim == m.target[0].element_dim
        c = induced_contraction(m, *spaces)
        assert "matrix" not in vars(c)
        want, null = eager_contraction(m, *spaces)
        assert null.shape[1] == 0
        assert np.array_equal(c.matrix, want)
        assert c.matrix.flags.c_contiguous

    @pytest.mark.parametrize("seed", range(6))
    def test_rank_deficient_sigma(self, seed):
        m = conjugation_morphism([3, 2], seed)
        spaces = build_gns(*m.target), build_gns(*m.source)
        assert spaces[0].dim < m.target[0].element_dim
        c = induced_contraction(m, *spaces)
        want, _ = eager_contraction(m, *spaces)
        assert np.max(np.abs(c.matrix - want)) <= 1e-14 * np.max(np.abs(want))

    def test_a_sparse_carrier_densifies_only_the_null_columns_when_built(self, monkeypatch):
        # a Markov map from 12 cells onto 6, sigma zero on two cells: the
        # check reads the action's two null columns, the matrix all of it
        rng = np.random.default_rng(4)
        s = np.zeros((6, 12))
        s[np.arange(12) % 6, np.arange(12)] = 1.0
        phi = markov_from_stochastic(s)
        p = rng.random(12)
        p[[3, 9]] = 0.0
        rho = mk_state(phi.target_shape, [np.array([[x]]) for x in p / p.sum()])
        m = mk_morphism((phi.target_shape, rho), (phi.source_shape, predual(phi, rho)), phi)
        spaces = build_gns(*m.target), build_gns(*m.source)
        assert spaces[0].dim == 5
        shapes = []
        original = type(phi.linear_action).toarray

        def recorded(self, *args, **kwargs):
            shapes.append(self.shape)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(type(phi.linear_action), "toarray", recorded)
        c = induced_contraction(m, *spaces)
        assert shapes == [(12, 1)]
        want, _ = eager_contraction(m, *spaces)
        assert np.max(np.abs(c.matrix - want)) <= 1e-14 * np.max(np.abs(want))
        assert shapes[1:] == [(12, 6), (12, 6)]  # the matrix read, then the reference

    @pytest.mark.parametrize("blocks, seed", [([3], 0), ([3], 1), ([2, 3], 2), ([3, 3], 3)])
    def test_a_leak_is_raised_when_built(self, monkeypatch, blocks, seed):
        m = conjugation_morphism(blocks, seed, leaking=True)
        space = build_gns(*m.source)
        _, null = eager_contraction(m, space, space)
        with pytest.raises(GnsQuotientError) as want:
            gns._check_null_images(space, null)
        calls = {"n": 0}
        original = gns._transform

        def counted(*args):
            calls["n"] += 1
            return original(*args)

        monkeypatch.setattr(gns, "_transform", counted)
        with pytest.raises(GnsQuotientError) as got:
            induced_contraction(m, space, space)
        # rho's transform of the null images only: no contraction was placed
        assert calls["n"] == 1
        assert str(got.value) == str(want.value)
        assert "maps outside the rho-null space" in str(got.value)


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
