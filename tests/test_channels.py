import tracemalloc

import numpy as np
import pytest

from conftest import (
    PAULI_X,
    STANDARD_SHAPES,
    depolarizing_kraus,
    random_element,
    random_morphism,
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
)
from ncplab.channels import (
    ChannelValidationError,
    MorphismValidationError,
    _choi_verdict,
    apply,
    choi,
    compose,
    congruent_embedding,
    conjugation_map,
    from_kraus,
    from_linear,
    identity_map,
    identity_morphism,
    is_cp,
    is_unital,
    left_inverse,
    markov_from_stochastic,
    min_choi_eig,
    mk_morphism,
    predual,
    random_cpu_map,
    transpose_map,
)
from ncplab.models import gaussian_group_model
from ncplab.states import evaluate, mk_state, random_state

S2 = mk_shape([2])


def depolarizing_action_matrix(lam: float) -> np.ndarray:
    """Coordinate matrix of b -> (1-lam) b + lam Tr(b)/2 on M_2, built
    directly from the affine formula (independent of the Kraus route)."""
    cols = []
    for e in basis(S2):
        out = (1.0 - lam) * e.blocks[0] + lam * np.trace(e.blocks[0]) / 2.0 * np.eye(2)
        cols.append(out.ravel())
    return np.column_stack(cols)


def brute_force_choi(action: np.ndarray) -> np.ndarray:
    """Normalized Choi of a qubit map given its coordinate action."""
    c = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            out = (action @ e.ravel()).reshape(2, 2)
            c[i * 2: (i + 1) * 2, j * 2: (j + 1) * 2] = out
    return c / 2.0


class TestKrausConstruction:
    def test_identity_map(self):
        phi = identity_map(mk_shape([2, 1]))
        rng = np.random.default_rng(0)
        a = random_element(phi.source_shape, rng)
        assert hs_norm(apply(phi, a) - a) < 1e-14

    def test_unitary_conjugation(self):
        rng = np.random.default_rng(1)
        u = random_unitary(3, rng)
        phi = from_kraus(mk_shape([3]), mk_shape([3]), [u.conj().T])
        assert is_cp(phi)
        assert is_unital(phi)
        a = random_element(mk_shape([3]), rng)
        expected = mk_element(mk_shape([3]), [u @ a.blocks[0] @ u.conj().T])
        assert hs_norm(apply(phi, a) - expected) < 1e-12

    def test_depolarizing_half_is_cp(self):
        # Oracle: eigenvalues of the Choi built straight from the affine
        # formula are {(4-3*lam)/4, lam/4 x3}; at lam = 1/2 that is
        # {5/8, 1/8, 1/8, 1/8}, all nonnegative.
        lam = 0.5
        oracle_eigs = np.linalg.eigvalsh(brute_force_choi(depolarizing_action_matrix(lam)))
        assert np.allclose(sorted(oracle_eigs), [1 / 8, 1 / 8, 1 / 8, 5 / 8], atol=1e-12)
        phi = from_kraus(S2, S2, depolarizing_kraus(lam))
        assert is_cp(phi)
        (only,) = choi(phi)  # one source block, one target block: one Choi block
        assert np.allclose(
            np.linalg.eigvalsh(only.blocks[0]), oracle_eigs, atol=1e-12
        )

    def test_non_unital_kraus_rejected(self):
        with pytest.raises(ChannelValidationError) as err:
            from_kraus(S2, S2, [0.5 * np.eye(2)])
        assert "unital" in str(err.value)

    def test_kraus_dimension_check(self):
        with pytest.raises(Exception):
            from_kraus(S2, mk_shape([3]), [np.eye(2)])


class TestChoi:
    def test_identity_choi_is_entangled_projector(self):
        phi = identity_map(S2)
        (only,) = choi(phi)
        assert only.pairs.tolist() == [[0, 0]]
        c = only.blocks[0]
        omega = np.zeros(4, dtype=complex)
        omega[0] = omega[3] = 1.0  # unnormalized maximally entangled vector
        assert np.allclose(c, np.outer(omega, omega.conj()) / 2.0, atol=1e-12)
        assert is_cp(phi)

    def test_transpose_not_cp(self):
        # Oracle: the Choi of the transpose is SWAP/2 with eigenvalues
        # {1/2 x3, -1/2}; the map is positive but not CP.
        t = transpose_map(S2)
        oracle = brute_force_choi(np.column_stack(
            [e.blocks[0].T.ravel() for e in basis(S2)]
        ))
        eigs = sorted(np.linalg.eigvalsh(oracle))
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
        assert not is_cp(t)
        assert abs(min_choi_eig(t) + 0.5) < 1e-12
        assert is_unital(t)

    @pytest.mark.parametrize(
        "blocks, witness", [([3], (0, 0)), ([1, 2], (1, 1)), ([2, 2], (0, 0))]
    )
    def test_transpose_witness(self, blocks, witness):
        # only the blocks (k, k) of k >= 2 see the SWAP; the two equal
        # minima of [2, 2] go to the smaller pair
        t = transpose_map(mk_shape(blocks))
        cp, min_eig, pair = _choi_verdict(t, 1e-9)[:3]
        assert not cp
        assert pair == witness
        assert min_eig == pytest.approx(-1.0 / sum(blocks), abs=1e-12)
        rho = random_state(t.target_shape, faithful=True, seed=2)
        with pytest.raises(
            MorphismValidationError,
            match=f"source block {witness[0]} and target block {witness[1]}",
        ):
            mk_morphism((t.target_shape, rho), (t.source_shape, predual(t, rho)), t)

    def test_1024_cell_embedding_is_cp_blockwise(self):
        rng = np.random.default_rng(5)
        weights = rng.dirichlet(np.ones(2), size=512).ravel()
        emb = congruent_embedding(np.repeat(np.arange(512), 2), weights)
        (only,) = choi(emb)
        assert only.blocks.shape == (1024 * 512, 1, 1)
        assert is_cp(emb)

    @pytest.mark.parametrize("x, cp", [(-2e-9, True), (-4e-9, False)])
    def test_tolerance_scales_with_choi_trace(self, x, cp):
        # [1] -> [1]*4: the four 1x1 Choi blocks are the action entries, trace 3 + x
        phi = from_linear(mk_shape([1]), mk_shape([1] * 4), [[1.0], [1.0], [1.0], [x]])
        assert is_cp(phi) is cp

    def test_depolarizing_family_cp_range(self):
        # CP exactly where the oracle Choi eigenvalues stay >= -1e-9,
        # i.e. lam <= 4/3.
        for lam in [0.0, 0.25, 0.5, 0.75, 1.0, 1.2, 4.0 / 3.0, 1.34, 1.5, 2.0]:
            phi = from_linear(S2, S2, depolarizing_action_matrix(lam))
            oracle_min = float(
                np.linalg.eigvalsh(brute_force_choi(depolarizing_action_matrix(lam)))[0]
            )
            assert is_cp(phi) == (oracle_min >= -1e-9), lam
            assert abs((4.0 - 3.0 * lam) / 4.0 - oracle_min) < 1e-12 or lam < 4.0 / 3.0


class TestPredual:
    def test_identity(self):
        rho = random_state(S2, seed=3)
        sigma = predual(identity_map(S2), rho)
        assert np.allclose(sigma.densities[0], rho.densities[0], atol=1e-12)

    def test_pauli_x_conjugation_permutes(self):
        phi = conjugation_map(S2, [PAULI_X])
        rho = mk_state(S2, [np.diag([0.75, 0.25])])
        sigma = predual(phi, rho)
        assert np.allclose(sigma.densities[0], np.diag([0.25, 0.75]), atol=1e-12)

    def test_full_depolarizing(self):
        phi = from_kraus(S2, S2, depolarizing_kraus(1.0))
        rho = random_state(S2, seed=4)
        sigma = predual(phi, rho)
        assert np.allclose(sigma.densities[0], np.eye(2) / 2.0, atol=1e-12)

    def test_composition_order(self):
        rng = np.random.default_rng(5)
        shape_a, shape_b, shape_c = mk_shape([2]), mk_shape([2, 1]), mk_shape([3])
        phi1 = random_cpu_map(shape_b, shape_a, seed=11)  # B -> A
        phi2 = random_cpu_map(shape_c, shape_b, seed=12)  # C -> B
        rho = random_state(shape_a, seed=13)
        composite_action = phi1.linear_action @ phi2.linear_action
        composite = from_linear(shape_c, shape_a, composite_action)
        lhs = predual(composite, rho)
        rhs = predual(phi2, predual(phi1, rho))
        for x, y in zip(lhs.densities, rhs.densities):
            assert np.max(np.abs(x - y)) < 1e-10


class TestMorphisms:
    def test_identity_morphism(self):
        rho = random_state(mk_shape([2, 1]), seed=6)
        m = identity_morphism((mk_shape([2, 1]), rho))
        assert m.source == m.target

    def test_depolarizing_endomorphism_of_mixed(self):
        phi = from_kraus(S2, S2, depolarizing_kraus(0.5))
        mixed = mk_state(S2, [np.eye(2) / 2.0])
        m = mk_morphism((S2, mixed), (S2, mixed), phi)
        assert m.cpu is phi

    def test_preservation_failure_reports_deviation(self):
        phi = conjugation_map(S2, [PAULI_X])
        rho = mk_state(S2, [np.diag([0.75, 0.25])])
        with pytest.raises(MorphismValidationError) as err:
            mk_morphism((S2, rho), (S2, rho), phi)
        assert "preservation" in str(err.value)

    def test_non_cp_rejected(self):
        rho = mk_state(S2, [np.diag([0.75, 0.25])])
        with pytest.raises(MorphismValidationError) as err:
            mk_morphism((S2, rho), (S2, rho), transpose_map(S2))
        assert "completely positive" in str(err.value)

    def test_compose_with_identity(self):
        m = random_morphism(mk_shape([2]), mk_shape([2, 1]), seed=7)
        ident = identity_morphism(m.source)
        comp = compose(m, ident)
        assert np.allclose(comp.cpu.linear_action, m.cpu.linear_action, atol=1e-12)

    def test_unitary_conjugations_compose(self):
        rng = np.random.default_rng(8)
        u, v = random_unitary(2, rng), random_unitary(2, rng)
        rho = random_state(S2, faithful=True, seed=9)
        phi_u = conjugation_map(S2, [u])
        phi_v = conjugation_map(S2, [v])
        m1 = mk_morphism((S2, rho), (S2, predual(phi_u, rho)), phi_u)
        m2 = mk_morphism(m1.target, (S2, predual(phi_v, m1.target[1])), phi_v)
        comp = compose(m2, m1)
        direct = conjugation_map(S2, [v @ u])
        assert np.allclose(comp.cpu.linear_action, direct.linear_action, atol=1e-12)

    def test_associativity(self):
        shapes = [mk_shape([2]), mk_shape([2, 1]), mk_shape([3]), mk_shape([1, 1])]
        for seed in range(5):
            ms = []
            rho = random_state(shapes[0], faithful=True, seed=seed)
            cur = (shapes[0], rho)
            for i, dst in enumerate(shapes[1:]):
                phi = random_cpu_map(dst, cur[0], seed=100 * seed + i)
                sigma = predual(phi, cur[1])
                ms.append(mk_morphism(cur, (dst, sigma), phi))
                cur = (dst, sigma)
            lhs = compose(compose(ms[2], ms[1]), ms[0])
            rhs = compose(ms[2], compose(ms[1], ms[0]))
            assert np.max(np.abs(lhs.cpu.linear_action - rhs.cpu.linear_action)) < 1e-12


class TestMarkov:
    def test_identity_stochastic(self):
        phi = markov_from_stochastic(np.eye(3))
        p = random_state(mk_shape([1, 1, 1]), seed=10)
        q = predual(phi, p)
        assert all(
            np.allclose(x, y, atol=1e-14) for x, y in zip(p.densities, q.densities)
        )

    def test_coarse_graining(self):
        phi = markov_from_stochastic(np.array([[1.0, 1.0]]))
        p = mk_state(mk_shape([1, 1]), [np.array([[0.3]]), np.array([[0.7]])])
        q = predual(phi, p)
        assert abs(q.densities[0][0, 0] - 1.0) < 1e-14

    def test_mixing_kernel(self):
        phi = markov_from_stochastic(np.full((2, 2), 0.5))
        p = mk_state(mk_shape([1, 1]), [np.array([[0.9]]), np.array([[0.1]])])
        q = predual(phi, p)
        assert np.allclose([d[0, 0].real for d in q.densities], [0.5, 0.5], atol=1e-14)

    def test_non_stochastic_rejected(self):
        with pytest.raises(ChannelValidationError):
            markov_from_stochastic(np.array([[0.5, 0.2], [0.2, 0.5]]))
        with pytest.raises(ChannelValidationError):
            markov_from_stochastic(np.array([[1.5, 0.0], [-0.5, 1.0]]))


class TestCongruentEmbedding:
    def test_point_split(self):
        emb = congruent_embedding([0, 0], [0.3, 0.7])
        p = mk_state(mk_shape([1]), [np.array([[1.0]])])
        q = predual(emb, p)
        assert np.allclose([d[0, 0].real for d in q.densities], [0.3, 0.7], atol=1e-14)

    def test_fiber_split_mass_conservation(self):
        w = 0.4
        emb = congruent_embedding([0, 1, 1], [1.0, w, 1.0 - w])
        p = mk_state(mk_shape([1, 1]), [np.array([[0.3]]), np.array([[0.7]])])
        q = predual(emb, p)
        assert np.allclose(
            [d[0, 0].real for d in q.densities],
            [0.3, 0.7 * w, 0.7 * (1.0 - w)],
            atol=1e-14,
        )

    def test_left_inverse_recovers(self):
        emb = congruent_embedding([0, 1, 1], [1.0, 0.4, 0.6])
        li = left_inverse(emb)
        p = mk_state(mk_shape([1, 1]), [np.array([[0.3]]), np.array([[0.7]])])
        back = predual(li, predual(emb, p))
        assert np.allclose([d[0, 0].real for d in back.densities], [0.3, 0.7], atol=1e-14)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            sizes = rng.integers(1, 4, size=n)
            partition = np.repeat(np.arange(n), sizes)
            weights = np.concatenate([rng.dirichlet(np.ones(s)) for s in sizes])
            emb = congruent_embedding(partition, weights)
            li = left_inverse(emb)
            p = rng.dirichlet(np.ones(n))
            state = mk_state(mk_shape([1] * n), [np.array([[x]]) for x in p])
            back = predual(li, predual(emb, state))
            dev = max(
                abs(d[0, 0].real - x) for d, x in zip(back.densities, p)
            )
            assert dev < 1e-12

    def test_invalid_weights_rejected(self):
        with pytest.raises(ChannelValidationError):
            congruent_embedding([0, 0], [0.3, 0.3])
        with pytest.raises(ChannelValidationError):
            congruent_embedding([0, 0], [1.5, -0.5])


OBJ = (S2, mk_state(S2, [np.diag([0.75, 0.25])]))
EMBEDDING = ([0, 0, 1], [0.3, 0.7, 1.0])


class TestCarriersAreReadOnly:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: from_linear(S2, S2, np.eye(4)),
            lambda: from_kraus(S2, S2, [np.eye(2)]),
            lambda: identity_map(S2),
            lambda: conjugation_map(S2, [random_unitary(2, np.random.default_rng(0))]),
            lambda: transpose_map(S2),
            lambda: markov_from_stochastic([[0.5, 1.0], [0.5, 0.0]]),
            lambda: congruent_embedding(*EMBEDDING),
            lambda: left_inverse(congruent_embedding(*EMBEDDING)),
            lambda: compose(identity_morphism(OBJ), identity_morphism(OBJ)).cpu,
            lambda: random_cpu_map(S2, mk_shape([1, 1]), seed=1),
            lambda: _markov_composite(MARKOV_S),
            lambda: gaussian_group_model(16, -4.0, 4.0).automorphism_at((0.5, 1.2)),
        ],
        ids=[
            "from_linear", "from_kraus", "identity_map", "conjugation_map", "transpose_map",
            "markov_from_stochastic", "congruent_embedding", "left_inverse", "compose",
            "random_cpu_map", "markov_compose", "automorphism_at",
        ],
    )
    # writing an unstored CSR entry warns before the read-only data refuses it
    @pytest.mark.filterwarnings("ignore::scipy.sparse.SparseEfficiencyWarning")
    def test_action_and_kraus_are_read_only(self, build):
        phi = build()
        action = phi.linear_action
        # a CSR action: its three arrays, and neither a stored nor an unstored entry can be set
        csr = not isinstance(action, np.ndarray)
        arrays = (action.data, action.indices, action.indptr) if csr else (action,)
        assert not any(a.flags.writeable for a in arrays)
        before = action.toarray() if csr else action.copy()
        spots = [(0, 0)] + ([tuple(np.argwhere(before == 0)[0])] if csr else [])
        for at in spots:
            with pytest.raises(ValueError, match="read-only"):
                action[at] = -5.0
        after = action.toarray() if csr else action
        assert np.array_equal(after, before)
        assert all(not k.flags.writeable for k in phi.kraus or ())


MARKOV_S = np.array([[0.5, 1.0, 0.0], [0.5, 0.0, 0.25], [0.0, 0.0, 0.75]])


def _markov_composite(S):
    """Carrier of the composite of two morphisms both carried by the Markov map of S."""
    shape = mk_shape([1, 1, 1])
    phi = markov_from_stochastic(S)
    rho = random_state(shape, seed=0)
    sigma = predual(phi, rho)
    m1 = mk_morphism((shape, rho), (shape, sigma), phi)
    m2 = mk_morphism((shape, sigma), (shape, predual(phi, sigma)), phi)
    return compose(m2, m1).cpu


class TestMarkovActionIsReal:
    @pytest.mark.parametrize(
        "build",
        [
            lambda S, w: markov_from_stochastic(S),
            lambda S, w: congruent_embedding([0, 0, 1], w),
            lambda S, w: left_inverse(congruent_embedding([0, 0, 1], w)),
            lambda S, w: gaussian_group_model(16, -4.0, 4.0).automorphism_at((0.5, 1.2)),
            lambda S, w: _markov_composite(S),
        ],
        ids=["markov_from_stochastic", "congruent_embedding", "left_inverse", "automorphism_at", "compose"],
    )
    def test_read_only_float64_private_copy(self, build):
        S, w = MARKOV_S.copy(), np.array([0.3, 0.7, 1.0])
        phi = build(S, w)
        action = phi.linear_action
        assert action.format == "csr" and action.dtype == np.float64
        arrays = (action.data, action.indices, action.indptr)
        assert action.data.dtype == np.float64
        assert not any(a.flags.writeable for a in arrays)
        assert not any(np.shares_memory(a, x) for a in arrays for x in (S, w))
        assert action.has_canonical_format and np.all(action.data != 0.0)
        before = action.toarray()
        S[...], w[...] = -1.0, -1.0
        assert np.array_equal(phi.linear_action.toarray(), before)
        assert S.flags.writeable and w.flags.writeable


def _peak_bytes(fn):
    """What ``fn()`` returns, and the peak of the memory it holds on top of
    what was held before; tracemalloc must be tracing."""
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = fn()
    return out, tracemalloc.get_traced_memory()[1] - held


def _csr_bytes(action):
    return action.data.nbytes + action.indices.nbytes + action.indptr.nbytes


class TestMarkovMemory:
    def test_one_copy_to_build_none_to_use(self):
        # the CSR arrays to build, and neither a copy of them nor a dense or
        # complex cast (16 bytes per entry) to push a state or apply the map
        n = 1024
        S = np.random.default_rng(0).dirichlet(np.ones(n), size=n).T
        rho = random_state(mk_shape([1] * n), seed=1)
        unit = identity(mk_shape([1] * n))
        markov_from_stochastic(np.eye(2))  # scipy.sparse imported outside the measurement
        tracemalloc.start()
        try:
            phi, build = _peak_bytes(lambda: markov_from_stochastic(S))
            _, push = _peak_bytes(lambda: predual(phi, rho))
            _, act = _peak_bytes(lambda: apply(phi, unit))
        finally:
            tracemalloc.stop()
        stored = _csr_bytes(phi.linear_action)
        assert stored == S.size * (8 + 4) + (n + 1) * 4
        assert build <= 1.1 * stored
        assert push < S.nbytes / 8
        assert act < S.nbytes / 8

    def test_automorphism_peaks_at_its_map(self):
        # the band build holds the band's CDFs, never an n x n array
        gm = gaussian_group_model(1024, -12.0, 12.0)
        gm.automorphism_at((0.0, 1.0))  # scipy.sparse imported outside the measurement
        tracemalloc.start()
        try:
            phi, build = _peak_bytes(lambda: gm.automorphism_at((0.3, 1.1)))
        finally:
            tracemalloc.stop()
        # an image spans about s + 1 bins, so 2 or 3 entries per column
        assert 1024 < phi.linear_action.nnz <= 3 * 1024
        assert build <= 16 * _csr_bytes(phi.linear_action)

    def test_embedding_of_65536_points_holds_its_cells(self):
        # O(nnz): a dense action would take 8 * 65536 bytes per cell
        rng = np.random.default_rng(3)
        part = np.repeat(np.arange(65536), rng.integers(1, 4, size=65536))
        w = rng.random(part.size) + 0.1
        w /= np.bincount(part, weights=w)[part]
        congruent_embedding([0, 0], [0.5, 0.5])  # scipy.sparse imported outside the measurement
        tracemalloc.start()
        try:
            emb, build = _peak_bytes(lambda: congruent_embedding(part, w))
        finally:
            tracemalloc.stop()
        cells = part.size
        assert emb.linear_action.shape == (65536, cells)
        assert emb.linear_action.nnz == cells
        assert _csr_bytes(emb.linear_action) == cells * (8 + 4) + (65536 + 1) * 4
        assert build <= 80 * cells


class TestMarkovBuildersRejectBadInput:
    def test_complex_stochastic(self):
        with pytest.raises(ChannelValidationError, match="not real"):
            markov_from_stochastic([[0.5 + 0.3j, 0.5], [0.5 - 0.3j, 0.5]])
        # a zero imaginary part is a real matrix
        phi = markov_from_stochastic(np.full((2, 2), 0.5 + 0j))
        assert np.array_equal(phi.linear_action.toarray(), np.full((2, 2), 0.5))

    @pytest.mark.parametrize("S", [[["0.5", "0.5"]], [[0.5], [0.5, 0.5]], [[None, 1.0]]])
    def test_stochastic_not_a_real_array(self, S):
        with pytest.raises(ChannelValidationError):
            markov_from_stochastic(S)

    @pytest.mark.parametrize("partition", [[0, 0.7, 1.2], ["0", "1"], [True, False], [0.0, 1.0]])
    def test_non_integer_partition(self, partition):
        with pytest.raises(ChannelValidationError, match="integers"):
            congruent_embedding(partition, [1.0] * len(partition))

    @pytest.mark.parametrize("partition", [[], [[0], [1]], [[0], [1, 2]], 0])
    def test_nested_or_empty_partition(self, partition):
        with pytest.raises(ChannelValidationError):
            congruent_embedding(partition, [1.0, 1.0])

    @pytest.mark.parametrize("partition", [[0, 2], [-1, 0], [0, 2**40], np.array([0, 2**63], dtype=np.uint64)])
    def test_partition_not_surjective(self, partition):
        with pytest.raises(ChannelValidationError, match="surjective"):
            congruent_embedding(partition, [1.0, 1.0])

    def test_unsigned_partition(self):
        emb = congruent_embedding(np.array([1, 0, 0], dtype=np.uint8), [1.0, 0.25, 0.75])
        assert np.array_equal(emb.linear_action.toarray(), [[0.0, 0.25, 0.75], [1.0, 0.0, 0.0]])


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_stochastic(self, bad):
        with pytest.raises(ChannelValidationError, match="not finite"):
            markov_from_stochastic(np.array([[bad, 0.5], [0.5, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_embedding_weights(self, bad):
        with pytest.raises(ChannelValidationError, match="not finite"):
            congruent_embedding([0, 0], [bad, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_kraus(self, bad):
        k = np.eye(2, dtype=complex)
        k[0, 1] = bad
        with pytest.raises(ChannelValidationError, match="Kraus operator 1 is not finite"):
            from_kraus(mk_shape([2]), mk_shape([2]), [np.eye(2), k])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_linear(self, bad):
        mat = np.eye(4, dtype=complex)
        mat[1, 2] = bad
        with pytest.raises(ChannelValidationError, match="not finite"):
            from_linear(mk_shape([2]), mk_shape([2]), mat)


class TestRandomChannelProperties:
    def test_random_kraus_channels(self):
        for trial in range(100):
            src = STANDARD_SHAPES[trial % len(STANDARD_SHAPES)]
            dst = STANDARD_SHAPES[(trial // 5) % len(STANDARD_SHAPES)]
            phi = random_cpu_map(src, dst, seed=trial)
            assert min_choi_eig(phi) >= -1e-9
            assert is_unital(phi, tol=1e-10)
            rho = random_state(dst, seed=trial + 1)
            sigma = predual(phi, rho)  # raises if invalid
            assert sigma.shape == src

    def test_kadison_schwarz(self):
        rng = np.random.default_rng(12)
        for trial in range(60):
            shape = STANDARD_SHAPES[trial % len(STANDARD_SHAPES)]
            phi = random_cpu_map(shape, shape, seed=trial + 500)
            rho = random_state(shape, seed=trial + 501)
            b = random_element(shape, rng)
            lhs = evaluate(rho, multiply(adjoint(apply(phi, b)), apply(phi, b))).real
            rhs = evaluate(rho, apply(phi, multiply(adjoint(b), b))).real
            assert lhs <= rhs + 1e-9
