"""The batched (per-block-size) state, GNS, contraction, Kraus, Choi and
pullback paths and the coordinate-vector element operations against the
per-block and per-basis-element reference loops, on random mixed shapes, and
the count of eigendecompositions per state."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_loops as ref
from conftest import random_element
from ncplab.algebra import (
    _wrap,
    adjoint,
    basis,
    embed_full,
    identity,
    mk_shape,
)
from ncplab.covariance import (
    ONE,
    SLD,
    UnsupportedKindError,
    covariance_gram,
    kind_catalog,
    kind_from_name,
    monotonicity_check,
    petz_kind,
)
from ncplab import channels, gns
from ncplab.channels import (
    CpuMap,
    NcpMorphism,
    apply,
    compose,
    congruent_embedding,
    conjugation_map,
    from_kraus,
    from_linear,
    identity_map,
    left_inverse,
    markov_from_stochastic,
    mk_morphism,
    predual,
    random_cpu_map,
    transpose_map,
)
from ncplab.gns import GnsQuotientError, build_gns, embed, induced_contraction
from ncplab.models import (
    ScoreNotRepresentableError,
    StatModel,
    _affine_bin_overlap_map,
    gaussian_model,
    metric_pullback,
)
from ncplab.states import (
    StateValidationError,
    evaluate,
    is_faithful,
    mk_state,
    random_tracial_state,
    support,
)

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)

shapes = st.lists(st.integers(1, 4), min_size=1, max_size=6)
small_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=4)
seeds = st.integers(0, 2**32 - 1)


def _hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def random_blocks(blocks, rng, rank_deficient: bool):
    """Wishart blocks with total trace one.  With ``rank_deficient`` about
    half of the blocks lose some or all of their eigenvalues (set exactly to
    zero); the first block keeps at least one."""
    mats = []
    for k, n in enumerate(blocks):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        d = g @ g.conj().T
        if rank_deficient and rng.random() < 0.5:
            w, v = np.linalg.eigh(d)
            w[: int(rng.integers(0, n if k == 0 else n + 1))] = 0.0
            d = (v * w) @ v.conj().T
        mats.append((d + d.conj().T) / 2.0)
    total = sum(np.trace(m).real for m in mats)
    return [m / total for m in mats]


def random_state_on(blocks, seed, rank_deficient):
    rng = np.random.default_rng(seed)
    shape = mk_shape(blocks)
    return mk_state(shape, random_blocks(blocks, rng, rank_deficient)), rng


def _matrices(rng, blocks):
    return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in blocks]


class TestVectorRepresentation:
    @SETTINGS
    @given(shapes, seeds)
    def test_views_are_the_read_only_split_of_the_vector(self, blocks, seed):
        rho, rng = random_state_on(blocks, seed, rank_deficient=True)
        a = random_element(rho.shape, rng)
        offs = np.cumsum([0, *(n * n for n in blocks)])
        for vec, views in ((a.vec, a.blocks), (rho.vec, rho.densities)):
            assert vec.shape == (offs[-1],) and not vec.flags.writeable
            assert [v.shape for v in views] == [(n, n) for n in blocks]
            for k, v in enumerate(views):
                assert np.array_equal(v.ravel(), vec[offs[k]: offs[k + 1]])
                assert np.shares_memory(v, vec) and not v.flags.writeable
                with pytest.raises(ValueError):
                    v[0, 0] = 1.0

    @SETTINGS
    @given(shapes, seeds)
    def test_wrap_roundtrips_exactly(self, blocks, seed):
        mats = _matrices(np.random.default_rng(seed), blocks)
        a = _wrap(mk_shape(blocks), mats)
        assert np.array_equal(a.vec, np.concatenate([m.ravel() for m in mats]))
        back = ref.element_from_coords(a.shape, a.vec)
        assert back == a and back is not a
        for m, x, y in zip(mats, a.blocks, back.blocks):
            assert np.array_equal(x, m) and np.array_equal(y, m)
        # the element holds its own copy; the caller's matrices stay writeable
        assert all(m.flags.writeable for m in mats)


class TestVectorOpsAgainstLoops:
    @SETTINGS
    @given(shapes, seeds)
    def test_evaluate(self, blocks, seed):
        rho, rng = random_state_on(blocks, seed, rank_deficient=False)
        a = random_element(rho.shape, rng)
        terms = [np.abs(d) * np.abs(x.T) for d, x in zip(rho.densities, a.blocks)]
        # both sides sum the same element_dim products, in different orders
        bound = 4.0 * np.finfo(float).eps * rho.shape.element_dim * sum(t.sum() for t in terms)
        assert abs(evaluate(rho, a) - ref.evaluate(rho.densities, a.blocks)) <= bound

    @SETTINGS
    @given(small_shapes, small_shapes, seeds)
    def test_predual_apply(self, blocks_src, blocks_dst, seed):
        phi = random_cpu_map(mk_shape(blocks_src), mk_shape(blocks_dst), seed=seed)
        data = _matrices(np.random.default_rng(seed), blocks_dst)
        vec = np.concatenate(data, axis=None, dtype=complex)
        out = phi.source_shape.split(channels._predual_vec(phi, vec))
        expected = ref.predual_apply(phi, data)
        assert len(out) == len(expected)
        assert all(np.array_equal(x, y) for x, y in zip(out, expected))

    @SETTINGS
    @given(small_shapes, small_shapes, seeds, st.sampled_from([0.0, 0.1, "transpose", "linear"]))
    def test_unit_images_are_the_action_columns(self, blocks_src, blocks_dst, seed, family):
        phi = random_map(blocks_src, blocks_dst, seed, family)
        images = [image.vec for image in channels._unit_images(phi)]
        assert all(not v.flags.writeable for v in images)
        assert np.array_equal(np.stack(images, axis=1), phi.linear_action)

    @SETTINGS
    @given(shapes, seeds)
    def test_blockwise_transpose_and_embedding(self, blocks, seed):
        shape = mk_shape(blocks)
        a = random_element(shape, np.random.default_rng(seed))
        assert np.array_equal(transpose_map(shape).linear_action, ref.transpose_action(shape))
        assert all(np.array_equal(x, y.conj().T) for x, y in zip(adjoint(a).blocks, a.blocks))
        assert np.array_equal(embed_full(a), ref.embed_full(shape, a.blocks))

    @SETTINGS
    @given(shapes)
    def test_bases(self, blocks):
        shape = mk_shape(blocks)
        ours, loops = basis(shape), ref.basis(shape)
        assert len(ours) == len(loops) == shape.element_dim
        for e, mats in zip(ours, loops):
            assert np.array_equal(e.vec, np.concatenate([m.ravel() for m in mats]))


class TestGramAgainstComplexProduct:
    """``gns._gram`` against ``m.conj().T @ m``: exactly Hermitian, and within
    rounding of the complex product, entry by entry."""

    @SETTINGS
    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 3),
        seeds,
        st.sampled_from(["complex", "real", "imaginary", "zero", "real dtype"]),
        st.integers(-150, 150),
    )
    @example(400, 400, 0, 0, "complex", 0)
    def test_hermitian_and_within_rounding(self, r, n, extra, seed, part, exponent):
        rng = np.random.default_rng(seed)
        # m[:, :n] of a wider matrix, as the criterion passes it when sigma
        # has null columns
        wide = 2.0**exponent * (rng.standard_normal((r, n + extra)) + 1j * rng.standard_normal((r, n + extra)))
        wide = {
            "complex": wide,
            "real": wide.real + 0j,
            "imaginary": 1j * wide.imag,
            "zero": np.zeros_like(wide),
            "real dtype": wide.real,
        }[part]
        m = wide[:, :n]
        h = gns._gram(m)
        want = m.conj().T @ m
        assert h.shape == (n, n) and h.dtype == complex
        assert np.array_equal(h, h.conj().T)
        if part in ("real", "imaginary", "real dtype"):
            assert not np.any(h.imag)
        col = np.linalg.norm(m, axis=0)
        assert np.all(np.abs(h - want) <= 4 * r * np.finfo(float).eps * np.outer(col, col))
        if part == "zero":
            assert not np.any(h)


class TestGnsAgainstLoops:
    @SETTINGS
    @given(shapes, seeds, st.booleans())
    def test_coordinates_exactly_equal(self, blocks, seed, rank_deficient):
        rho, rng = random_state_on(blocks, seed, rank_deficient)
        space = build_gns(rho.shape, rho)
        loops = ref.RefGnsSpace(rho.shape, rho)
        assert space.dim == loops.dim
        assert np.array_equal(space.gram_eigenvalues, loops.gram_eigenvalues)
        # the blockwise transforms of the identity are the dense coordinate matrices
        eye = np.eye(rho.shape.element_dim)
        iso = gns._transform(space, eye, gns._iso)
        assert np.array_equal(iso, loops.iso_matrix())
        assert np.array_equal(space.cyclic, loops.embed(identity(rho.shape)))
        for _ in range(3):
            a = random_element(rho.shape, rng)
            assert np.array_equal(embed(space, a), loops.embed(a))
        reps = gns._transform(space, eye, gns._rep).T
        assert np.array_equal(reps, loops.rep_matrix())

    @SETTINGS
    @given(shapes, seeds, st.booleans())
    def test_state_queries_match_loops(self, blocks, seed, rank_deficient):
        rho, _ = random_state_on(blocks, seed, rank_deficient)
        per_block = [
            np.linalg.eigh((d + d.conj().T) / 2.0) for d in rho.densities
        ]
        for w, (w_ref, _) in zip(rho.block_eigenvalues(), per_block):
            assert np.array_equal(w, w_ref)
        # the support rule: each block against its own largest eigenvalue
        assert is_faithful(rho) == all(float(w[0]) > 1e-9 * float(w[-1]) for w, _ in per_block)
        for p, (w, v) in zip(support(rho).blocks, per_block):
            keep = v[:, w > 1e-9 * float(w[-1])]
            assert np.allclose(p, keep @ keep.conj().T, rtol=0.0, atol=1e-14)


class TestValidationAgainstLoops:
    @SETTINGS
    @given(shapes, seeds, st.lists(st.sampled_from(["ok", "hermitian", "psd", "both"]), min_size=6, max_size=6))
    def test_same_first_rejection(self, blocks, seed, faults):
        rng = np.random.default_rng(seed)
        mats = random_blocks(blocks, rng, rank_deficient=False)
        for k, n in enumerate(blocks):
            if faults[k] in ("psd", "both"):
                # every eigenvalue drops below -0.5; the trace drifts off one
                mats[k] = mats[k] - (np.trace(mats[k]).real + 0.5) * np.eye(n)
            if faults[k] in ("hermitian", "both"):
                mats[k] = mats[k] + 1e-3j * _hermitian(rng, n)  # anti-Hermitian part
        expected = ref.first_rejection(mk_shape(blocks), mats)
        if expected is None:
            mk_state(mk_shape(blocks), mats)
            return
        with pytest.raises(StateValidationError) as err:
            mk_state(mk_shape(blocks), mats)
        kind, block = expected
        assert err.value.block == block
        word = "Hermitian" if kind == "hermitian" else "positive semidefinite"
        assert word in str(err.value)


class TestKernelGramAgainstForms:
    @SETTINGS
    @given(shapes, seeds, st.sampled_from(range(5)))
    def test_gram_matches_raw_forms(self, blocks, seed, kind_no):
        rho, _ = random_state_on(blocks, seed, rank_deficient=False)
        kind = kind_catalog()[kind_no]
        g = covariance_gram(kind, build_gns(rho.shape, rho)).gram
        g_ref = ref.covariance_gram(kind, ref.RefGnsSpace(rho.shape, rho))
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))

    @SETTINGS
    @given(shapes, seeds)
    def test_gns_gram_exact_identity_on_rank_deficient(self, blocks, seed):
        rho, _ = random_state_on(blocks, seed, rank_deficient=True)
        space = build_gns(rho.shape, rho)
        assert np.array_equal(covariance_gram(ONE, space).gram, np.eye(space.dim))

    @SETTINGS
    @given(shapes, seeds)
    def test_tracial_deviation_exactly_zero(self, blocks, seed):
        rho = random_tracial_state(mk_shape(blocks), seed=seed)
        space = build_gns(rho.shape, rho)
        for kind in kind_catalog():
            assert np.array_equal(covariance_gram(kind, space).gram, np.eye(space.dim))


def random_morphism_on(blocks_a, blocks_b, seed, rank_deficient, automorphism, mix):
    """Verified morphism (A, rho) -> (B, sigma).  An automorphism conjugates
    each block of A by a random unitary, so a rank-deficient rho gives a
    rank-deficient sigma; otherwise the carrier is a random CPU map B -> A."""
    rho, rng = random_state_on(blocks_a, seed, rank_deficient)
    shape_a = rho.shape
    if automorphism:
        unitaries = [np.linalg.qr(_hermitian(rng, n) + 1j * np.eye(n))[0] for n in blocks_a]
        phi = conjugation_map(shape_a, unitaries)
    else:
        phi = random_cpu_map(mk_shape(blocks_b), shape_a, seed=seed, mix_trace=mix)
    sigma = predual(phi, rho)
    return mk_morphism((shape_a, rho), (sigma.shape, sigma), phi)


class TestContractionAgainstLoops:
    @SETTINGS
    @given(small_shapes, small_shapes, seeds, st.booleans(), st.booleans(), st.sampled_from([0.0, 0.1]))
    def test_matrix_matches(self, blocks_a, blocks_b, seed, rank_deficient, automorphism, mix):
        m = random_morphism_on(blocks_a, blocks_b, seed, rank_deficient, automorphism, mix)
        (shape_a, rho), (shape_b, sigma) = m.source, m.target
        c = induced_contraction(m, build_gns(shape_b, sigma), build_gns(shape_a, rho)).matrix
        c_ref = ref.induced_contraction(
            m, ref.RefGnsSpace(shape_b, sigma), ref.RefGnsSpace(shape_a, rho)
        )
        assert c.shape == c_ref.shape
        assert np.max(np.abs(c - c_ref)) <= 1e-12 * np.max(np.abs(c_ref))

    @SETTINGS
    @given(small_shapes.filter(lambda b: max(b) > 1), seeds)
    def test_transposed_pure_state_raises(self, blocks, seed):
        rng = np.random.default_rng(seed)
        k = next(k for k, n in enumerate(blocks) if n > 1)
        psi = rng.standard_normal(blocks[k]) + 1j * rng.standard_normal(blocks[k])
        mats = [np.zeros((n, n)) for n in blocks]
        mats[k] = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        rho = mk_state(mk_shape(blocks), mats)
        bad = NcpMorphism((rho.shape, rho), (rho.shape, rho), transpose_map(rho.shape))
        space = build_gns(rho.shape, rho)
        with pytest.raises(GnsQuotientError):
            induced_contraction(bad, space, space)
        loops = ref.RefGnsSpace(rho.shape, rho)
        with pytest.raises(GnsQuotientError):
            ref.induced_contraction(bad, loops, loops)


class TestMonotonicitySamplesAgainstLoop:
    @SETTINGS
    @given(small_shapes, small_shapes, seeds, st.sampled_from(["gns", "sld", "rld"]), st.booleans())
    def test_samples_match(self, blocks_a, blocks_b, seed, kind_name, transposed):
        # the blockwise transpose is not CP and breaks monotonicity, so its
        # samples find violations
        m = random_morphism_on(blocks_a, blocks_b, seed, False, False, 0.1)
        if transposed:
            (shape_a, rho) = m.source
            t = transpose_map(shape_a)
            m = NcpMorphism((shape_a, rho), (shape_a, predual(t, rho)), t)
        kind = kind_from_name(kind_name)
        (shape_a, rho), (shape_b, sigma) = m.source, m.target
        space_rho, space_sigma = build_gns(shape_a, rho), build_gns(shape_b, sigma)
        c = induced_contraction(m, space_sigma, space_rho).matrix
        pushed = c.conj().T @ covariance_gram(kind, space_rho).gram @ c
        pushed = (pushed + pushed.conj().T) / 2.0
        g_sigma = covariance_gram(kind, space_sigma).gram
        worst, violations = ref.monotonicity_samples(pushed, g_sigma, 40, seed, 1e-9)
        rep = monotonicity_check(kind, m, n_samples=40, seed=seed, tol=1e-9)
        assert rep["sample_violations"] == violations
        assert abs(rep["worst_ratio"] - worst) <= 1e-12 * worst


def partial_transpose_map(shape):
    """3/4 of the partial transpose of M_2 (x) M_2 plus 1/4 of the identity on
    a leading M_4 block, identity on the other blocks.  On a product state the
    pulled-back state is a product too, but with the second factor's
    eigenbasis moved, so the map's worst vector is no single matrix unit of
    either eigenbasis."""
    action = np.eye(shape.element_dim)
    action[:16, :16] /= 4.0
    for i, a, j, b in np.ndindex(2, 2, 2, 2):
        action[(2 * i + b) * 4 + 2 * j + a, (2 * i + a) * 4 + 2 * j + b] += 0.75
    return from_linear(shape, shape, action)


def monotonicity_morphism(blocks_a, blocks_b, seed, rank_deficient, family):
    """A verified morphism whose carrier is a random CPU map with trace
    mixing or a random automorphism; or, as negative controls (not CP), the
    blockwise transpose of the source algebra, which breaks only the GNS
    kind's monotonicity (the catalog kinds are symmetric) and can leak the
    null space, or a partial transpose mixed with the identity on a leading
    M_4 block holding a faithful product state, which breaks every kind's."""
    if family in ("cpu", "automorphism"):
        return random_morphism_on(blocks_a, blocks_b, seed, rank_deficient, family == "automorphism", 0.1)
    if family == "transpose":
        rho, _ = random_state_on(blocks_a, seed, rank_deficient)
        t = transpose_map(rho.shape)
    else:
        mats = random_blocks([2, 2, *blocks_a], np.random.default_rng(seed), rank_deficient=False)
        mats = [np.kron(mats[0], mats[1]), *mats[2:]]
        rho = mk_state(mk_shape([4, *blocks_a]), [m / sum(np.trace(x).real for x in mats) for m in mats])
        t = partial_transpose_map(rho.shape)
    return NcpMorphism((rho.shape, rho), (rho.shape, predual(t, rho)), t)


def verdict_or_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except GnsQuotientError as exc:
        return type(exc)


class TestMonotonicityAgainstDense:
    # Rank-deficient states only for the GNS kind, the one defined there.
    @SETTINGS
    @given(
        small_shapes,
        small_shapes,
        seeds,
        st.sampled_from(range(5)),
        st.booleans(),
        st.sampled_from(["cpu", "automorphism", "transpose", "partial_transpose"]),
    )
    @example([3, 2], [2], 0, 0, True, "transpose")  # leaks the null space
    @example([3, 2], [2], 0, 0, True, "automorphism")
    def test_same_verdict_criterion_samples_and_contraction(
        self, blocks_a, blocks_b, seed, kind_no, rank_deficient, family
    ):
        kind = kind_catalog()[kind_no]
        m = monotonicity_morphism(blocks_a, blocks_b, seed, rank_deficient and kind.is_gns, family)
        dense = verdict_or_error(ref.monotonicity_dense, kind, m)
        rep = verdict_or_error(monotonicity_check, kind, m, n_samples=40, seed=seed, tol=1e-9)
        if isinstance(dense, type):
            assert rep is dense is GnsQuotientError
            return
        exact, pushed, g_sigma, c_ref = dense
        assert rep["passed"] == (exact <= 1.0 + 1e-9)
        assert abs(rep["exact_max_eig"] - exact) <= 1e-12 * exact
        worst, violations = ref.monotonicity_samples(pushed, g_sigma, 40, seed, 1e-9)
        assert rep["sample_violations"] == violations
        assert abs(rep["worst_ratio"] - worst) <= 1e-12 * worst
        (shape_a, rho), (shape_b, sigma) = m.source, m.target
        c = induced_contraction(m, build_gns(shape_b, sigma), build_gns(shape_a, rho)).matrix
        assert c.shape == c_ref.shape
        assert np.max(np.abs(c - c_ref)) <= 1e-14 * max(1.0, np.max(np.abs(c_ref)))
        assert ("witness" in rep) != rep["passed"]

    def test_leak_named_alike_by_the_contraction_and_the_criterion(self):
        # the [3, 2] -> [2] transpose example above: one null-space check
        m = monotonicity_morphism([3, 2], [2], 0, True, "transpose")
        with pytest.raises(GnsQuotientError) as contraction:
            induced_contraction(m, build_gns(*m.target), build_gns(*m.source))
        with pytest.raises(GnsQuotientError) as criterion:
            monotonicity_check(ONE, m)
        assert "maps outside the rho-null space" in str(contraction.value)
        assert str(criterion.value) == str(contraction.value)

    @SETTINGS
    @given(
        small_shapes.filter(lambda b: max(b) > 1),
        seeds,
        st.sampled_from(range(5)),
        st.sampled_from(["transpose", "partial_transpose"]),
    )
    def test_witness_attains_the_criterion(self, blocks, seed, kind_no, family):
        kind = kind_catalog()[kind_no]
        m = monotonicity_morphism(blocks, blocks, seed, False, family)
        rep = monotonicity_check(kind, m, n_samples=0)
        exact, pushed, g_sigma, _ = ref.monotonicity_dense(kind, m)
        if rep["passed"]:
            assert "witness" not in rep
            return
        xi, ratio = rep["witness"]["vector"], rep["witness"]["ratio"]
        assert xi.shape == (build_gns(*m.target).dim,)
        assert abs(np.linalg.norm(xi) - 1.0) <= 1e-14
        first = xi[np.argmax(np.abs(xi) > 1e-12)]  # the GNS coordinates' phase convention
        assert abs(first.imag) <= 1e-15 * first.real
        rayleigh = (xi.conj() @ pushed @ xi).real / (xi.conj() @ g_sigma @ xi).real
        assert abs(rayleigh - rep["exact_max_eig"]) <= 1e-12 * rep["exact_max_eig"]
        assert abs(ratio - rep["exact_max_eig"]) <= 1e-12 * rep["exact_max_eig"]


class TestKrausAgainstLoop:
    @SETTINGS
    @given(small_shapes, small_shapes, seeds, st.sampled_from([0.0, 0.1]))
    def test_action_matches(self, blocks_src, blocks_dst, seed, mix):
        phi = random_cpu_map(mk_shape(blocks_src), mk_shape(blocks_dst), seed=seed, mix_trace=mix)
        action = ref.from_kraus_action(phi.source_shape, phi.target_shape, phi.kraus)
        assert np.max(np.abs(phi.linear_action - action)) <= 1e-14 * np.max(np.abs(action))

    @SETTINGS
    @given(small_shapes, small_shapes, seeds, st.sampled_from([0.1, 0.5, 1.0]))
    def test_trace_mix_matches_loop(self, blocks_src, blocks_dst, seed, mix):
        src, dst = mk_shape(blocks_src), mk_shape(blocks_dst)
        phi = random_cpu_map(src, dst, seed=seed, mix_trace=mix)
        kraus = ref.trace_mixed_kraus(
            random_cpu_map(src, dst, seed=seed).kraus, src.total_dim, dst.total_dim, mix
        )
        assert len(phi.kraus) == len(kraus)
        assert all(np.array_equal(a, b) for a, b in zip(phi.kraus, kraus))
        assert np.array_equal(phi.linear_action, from_kraus(src, dst, kraus).linear_action)

    @SETTINGS
    @given(small_shapes, small_shapes, seeds, st.sampled_from([0.0, 0.3]))
    @example([3], [1, 2], 1, 0.0)
    @example([2, 2], [2, 1, 1], 2, 0.3)
    def test_factor_built_action_matches_the_entrywise_formula(self, blocks_src, blocks_dst, seed, mix):
        # a target of several blocks cuts off the Kraus operators' parts
        # between its blocks: the pinching
        src, dst = mk_shape(blocks_src), mk_shape(blocks_dst)
        phi = random_cpu_map(src, dst, seed=seed, mix_trace=mix)
        action = ref.from_kraus_entrywise(src, dst, phi.kraus)
        assert np.max(np.abs(phi.linear_action - action)) <= 1e-15

    @pytest.mark.parametrize("blocks", [[1], [3], [2, 3, 1], [1] * 5, [8]])
    def test_identity_map_is_bit_identical_to_the_entrywise_formula(self, blocks):
        shape = mk_shape(blocks)
        phi = identity_map(shape)
        action = np.ascontiguousarray(ref.from_kraus_entrywise(shape, shape, phi.kraus))
        assert phi.linear_action.tobytes() == action.tobytes()


choi_shapes = st.lists(st.integers(1, 3), min_size=1, max_size=3)


def random_map(blocks_src, blocks_dst, seed, family):
    """A CPU map with or without trace mixing, the blockwise transpose of the
    source shape, or a random real coordinate matrix (rarely CP)."""
    src, dst = mk_shape(blocks_src), mk_shape(blocks_dst)
    if family == "transpose":
        return transpose_map(src)
    if family == "linear":
        rng = np.random.default_rng(seed)
        return from_linear(src, dst, rng.standard_normal((dst.element_dim, src.element_dim)))
    return random_cpu_map(src, dst, seed=seed, mix_trace=family)


class TestChoiBlocksAgainstDense:
    @SETTINGS
    @given(choi_shapes, choi_shapes, seeds, st.sampled_from([0.0, 0.1, "transpose", "linear"]))
    @example([2, 3], [2, 1], 5, 0.0)
    @example([12, 4], [12, 4], 6, 0.0)
    def test_blocks_match_dense(self, blocks_src, blocks_dst, seed, family):
        phi = random_map(blocks_src, blocks_dst, seed, family)
        src, dst = phi.source_shape, phi.target_shape
        # the blocks are the action read at the layout's places
        flat = phi.linear_action.ravel()
        for cls, (pairs, at) in zip(channels.choi(phi), channels._choi_layout(src, dst)):
            assert np.array_equal(cls.pairs, pairs)
            assert np.array_equal(cls.blocks, flat[at] / src.total_dim)
        dense = ref.choi(phi)
        scale = max(1.0, abs(float(np.trace(dense).real)))
        # rows (i, a) of the dense matrix, by source block of i and target block of a
        rows = np.arange(src.total_dim * dst.total_dim).reshape(src.total_dim, dst.total_dim)
        owner_src = np.repeat(np.arange(src.num_blocks), src.blocks)
        owner_dst = np.repeat(np.arange(dst.num_blocks), dst.blocks)
        spectra = []
        for cls in channels.choi(phi):
            for (k, l), block in zip(cls.pairs, cls.blocks):
                at = rows[owner_src == k][:, owner_dst == l].ravel()
                assert np.array_equal(block, dense[np.ix_(at, at)])
            herm = (cls.blocks + cls.blocks.conj().swapaxes(-1, -2)) / 2.0
            spectra.append(np.linalg.eigvalsh(herm).ravel())
        spectra = np.sort(np.concatenate(spectra))
        dense_spectrum = np.linalg.eigvalsh((dense + dense.conj().T) / 2.0)
        assert spectra.size == src.total_dim * dst.total_dim
        assert np.max(np.abs(spectra - dense_spectrum)) <= 1e-12 * scale

        cp, min_eig, (k, l) = channels._choi_verdict(phi, channels.CP_TOL)[:3]
        cp_ref, min_ref = ref.choi_test(phi, channels.CP_TOL)
        assert cp == cp_ref
        assert abs(min_eig - min_ref) <= 1e-13 * scale
        # the Cholesky certificate: the same verdict, and a failure decomposed alike
        certified = channels._choi_verdict(phi, channels.CP_TOL, spectrum=False)
        assert certified.cp == cp
        if not cp:
            assert (certified.min_eig, certified.pair) == (min_eig, (k, l))
        # the witness holds the minimum
        at = rows[owner_src == k][:, owner_dst == l].ravel()
        witness = dense[np.ix_(at, at)]
        assert np.linalg.eigvalsh((witness + witness.conj().T) / 2.0)[0] == pytest.approx(
            min_eig, abs=1e-13 * scale
        )


class TestCongruentEmbeddingAgainstLoop:
    @SETTINGS
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=8), seeds)
    def test_actions_match(self, fiber_sizes, seed):
        rng = np.random.default_rng(seed)
        partition = np.repeat(np.arange(len(fiber_sizes)), fiber_sizes)
        weights = np.concatenate([rng.dirichlet(np.ones(k)) for k in fiber_sizes])
        emb = congruent_embedding(partition, weights)
        inv = left_inverse(emb)
        S, L = ref.embedding_stochastic(partition.tolist(), weights)
        assert emb.linear_action.format == inv.linear_action.format == "csr"
        assert np.array_equal(emb.linear_action.toarray(), S.T)
        assert np.array_equal(inv.linear_action.toarray(), L.T)
        # one stored entry per cell, and the partition and weights read back
        assert emb.linear_action.nnz == inv.linear_action.nnz == partition.size
        assert np.array_equal(emb.partition, partition)
        assert np.array_equal(emb.weights, weights)


def random_embedding(cells, points, rng):
    """A congruent embedding of ``points`` points into ``cells`` >= ``points`` cells."""
    part = np.concatenate([np.arange(points), rng.integers(0, points, size=cells - points)])
    w = rng.random(cells) + 0.1
    return congruent_embedding(part, w / np.bincount(part, weights=w)[part])


def markov_map(m, n, rng, family):
    """A Markov map with a real action onto n points: from a dense or a
    sparse m x n column-stochastic matrix, a congruent embedding of n points
    into max(m, n) cells, or the left inverse of one of min(m, n) points
    into n cells."""
    if family == "embedding":
        return random_embedding(max(m, n), n, rng)
    if family == "left_inverse":
        return left_inverse(random_embedding(n, min(m, n), rng))
    S = rng.dirichlet(np.ones(m), size=n).T
    if family == "sparse":
        drop = rng.random(S.shape) < 0.5
        drop[rng.integers(0, m, size=n), np.arange(n)] = False
        S = np.where(drop, 0.0, S)
        S /= S.sum(axis=0)
    return markov_from_stochastic(S)


def complex_twin(phi):
    """The same map with its action stored as a dense complex matrix."""
    return from_linear(phi.source_shape, phi.target_shape, dense(phi.linear_action).astype(complex))


def dense(action):
    """A CSR action as a dense array; a dense one as it is."""
    return action if isinstance(action, np.ndarray) else action.toarray()


def gamma(k):
    """gamma_k = k u / (1 - k u): relative bound on the rounding error of a
    length-k float64 inner product (Higham 2002, Lemma 3.1)."""
    u = np.finfo(np.float64).eps / 2.0
    return k * u / (1.0 - k * u)


def contraction_or_error(m, space_sigma, space_rho):
    try:
        return induced_contraction(m, space_sigma, space_rho).matrix
    except GnsQuotientError as exc:
        return type(exc)


markov_families = st.sampled_from(["dense", "sparse", "embedding", "left_inverse"])
markov_sizes = st.integers(1, 8)


class TestRealMarkovAgainstComplexTwin:
    # Both routes round the same real products, in different orders, each
    # within gamma_k |A| |x| in the real and in the imaginary part, so their
    # results differ by less than 4 gamma_k |A| |x| in modulus.
    @SETTINGS
    @given(markov_sizes, markov_sizes, markov_sizes, seeds, markov_families, markov_families, st.booleans())
    def test_same_results(self, m, n, l, seed, family, family2, rank_deficient):
        rng = np.random.default_rng(seed)
        phi = markov_map(m, n, rng, family)
        twin = complex_twin(phi)
        assert phi.linear_action.format == "csr" and phi.linear_action.dtype == np.float64
        A = phi.linear_action.toarray()
        src, dst = phi.source_shape, phi.target_shape

        b = random_element(src, rng)
        got, want = apply(phi, b).vec, apply(twin, b).vec
        assert np.all(np.abs(got - want) <= 4 * gamma(src.element_dim) * (np.abs(A) @ np.abs(b.vec)))

        rho, _ = random_state_on(dst.blocks, seed, rank_deficient)
        sigma = predual(phi, rho)
        bound = 4 * gamma(dst.element_dim) * (np.abs(A).T @ np.abs(rho.vec))
        assert np.all(np.abs(sigma.vec - predual(twin, rho).vec) <= bound)

        m1 = mk_morphism((dst, rho), (src, sigma), phi)
        psi = markov_map(l, src.num_blocks, rng, family2)
        m2 = mk_morphism((src, sigma), (psi.source_shape, predual(psi, sigma)), psi)
        twin1 = NcpMorphism(m1.source, m1.target, twin)
        twin2 = NcpMorphism(m2.source, m2.target, complex_twin(psi))
        want = compose(twin2, twin1).cpu.linear_action
        bound = 4 * gamma(src.element_dim) * (np.abs(A) @ np.abs(psi.linear_action.toarray()))
        for outer, inner in [(m2, m1), (twin2, m1), (m2, twin1)]:
            got = compose(outer, inner).cpu.linear_action
            markov = outer is m2 and inner is m1
            assert got.dtype == (np.float64 if markov else complex)
            assert isinstance(got, np.ndarray) != markov
            assert np.all(np.abs(dense(got) - want) <= bound)

        space_sigma, space_rho = build_gns(src, sigma), build_gns(dst, rho)
        got = contraction_or_error(m1, space_sigma, space_rho)
        want = contraction_or_error(twin1, space_sigma, space_rho)
        if isinstance(want, type):
            assert got is want
        else:
            iso = ref.RefGnsSpace(dst, rho).iso_matrix()
            rep = ref.RefGnsSpace(src, sigma).rep_matrix()
            bound = 4 * gamma(src.element_dim + dst.element_dim) * (np.abs(iso) @ np.abs(A) @ np.abs(rep))
            assert np.all(np.abs(got - want) <= bound)

        cp, min_eig, witness = channels._choi_verdict(phi, channels.CP_TOL)[:3]
        cp_ref, min_ref, witness_ref = channels._choi_verdict(twin, channels.CP_TOL)[:3]
        assert cp == cp_ref
        assert abs(min_eig - min_ref) <= 4 * gamma(1) * np.abs(A).max() / src.total_dim
        assert witness == witness_ref


# Dyadic entries, so that both paths sum them exactly into the same trace
# and scale the tolerance alike; None is an entry that is not stored.
csr_entries = st.sampled_from([None, 0.0, -0.0, 0.25, 0.5, 1.0, -0.5, -(2.0**-28), 2.0**-40, -(2.0**-40)])
csr_grids = st.integers(1, 6).flatmap(
    lambda cols: st.lists(st.lists(csr_entries, min_size=cols, max_size=cols), min_size=1, max_size=6)
)


def csr_map(grid):
    """A map between abelian algebras whose CSR action stores the entries of
    ``grid`` (rows by target point) that are not None, zeros included."""
    from scipy.sparse import csr_array

    stored = [[(k, x) for k, x in enumerate(row) if x is not None] for row in grid]
    data = np.array([x for row in stored for _, x in row], dtype=float)
    indices = np.array([k for row in stored for k, _ in row], dtype=np.int32)
    indptr = np.cumsum([0] + [len(row) for row in stored]).astype(np.int32)
    rows, cols = len(grid), len(grid[0])
    action = csr_array((data, indices, indptr), shape=(rows, cols))
    return CpuMap(mk_shape([1] * cols), mk_shape([1] * rows), action)


class TestMarkovChoiAgainstDense:
    @SETTINGS
    @given(csr_grids, st.sampled_from([0.0, channels.CP_TOL, 1e-3]))
    @example([[None]], channels.CP_TOL)
    @example([[0.5, None], [0.5, 1.0]], channels.CP_TOL)
    @example([[1.0, -0.0], [None, 1.0]], 0.0)
    @example([[1.0, 0.5, 0.25], [0.5, None, -0.5]], channels.CP_TOL)
    def test_same_verdict_minimum_and_witness(self, grid, tol):
        phi = csr_map(grid)
        got = channels._choi_verdict(phi, tol)[:3]
        assert got == channels._choi_verdict(complex_twin(phi), tol)[:3]
        assert isinstance(got[1], float) and all(isinstance(x, int) for x in got[2])


class TestAffineOverlapAgainstLoop:
    @SETTINGS
    @given(
        st.integers(2, 400),
        st.floats(-20.0, 19.0),
        st.floats(0.5, 40.0),
        st.floats(-50.0, 50.0),
        st.floats(-3.0, 2.0).map(lambda e: 10.0**e),
    )
    def test_matches_overlap_bookkeeping(self, n, x_min, span, mu, s):
        edges = np.linspace(x_min, x_min + span, n + 1)
        got = _affine_bin_overlap_map(edges, mu, s).linear_action.toarray().T
        want = ref.affine_bin_overlap_stochastic(edges, mu, s)
        assert got.shape == want.shape == (n, n)
        assert np.max(np.abs(got - want)) <= 1e-15


class TestAffineBandAgainstDenseCdf:
    # One bin's image spans about s target bins: s = 1e3 on 2-50 bins gives
    # bands wider than n, and |mu| up to 100 against ranges within [-20, 59]
    # puts whole images outside the range, where only a boundary bin is hit.
    @SETTINGS
    @given(
        st.integers(2, 300),
        st.floats(-20.0, 19.0),
        st.floats(0.5, 40.0),
        st.floats(-100.0, 100.0),
        st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    )
    @example(50, -1.0, 2.0, 0.0, 1e3)
    @example(2, -1.0, 2.0, 0.3, 1e3)
    @example(300, -20.0, 40.0, 0.0, 1e-3)
    @example(64, -1.0, 2.0, 100.0, 1.0)
    @example(64, -1.0, 2.0, -100.0, 1.0)
    @example(256, -8.0, 16.0, 0.25, 1.0)
    # images 1.1 bins wide starting inside a bin span three rows
    @example(64, -1.0, 2.0, 0.01, 1.1)
    # an aligned shift: the images end exactly on target edges
    @example(64, -1.0, 2.0, 0.09375, 1.0)
    def test_bit_identical(self, n, x_min, span, mu, s):
        edges = np.linspace(x_min, x_min + span, n + 1)
        action = _affine_bin_overlap_map(edges, mu, s).linear_action
        want = ref.affine_cdf_stochastic(edges, mu, s)
        assert action.shape == want.shape == (n, n)
        # bit for bit, signs of zeros included, and only nonzero entries stored
        assert np.array_equal(action.toarray().T.view(np.uint64), want.view(np.uint64))
        assert action.nnz == np.count_nonzero(want)


def _fixed_model(rho, derivs):
    """Two-parameter chart whose state is rho at every theta, with the given
    differentials; enough for one pullback at theta = 0."""
    return StatModel(
        "fixed",
        rho.shape,
        len(derivs),
        lambda theta: True,
        lambda theta: rho,
        lambda theta: derivs,
    )


def _differentials(rho, rng, representable):
    """Hermitian trace-zero differentials.  Representable ones have the form
    (D V + V D)/2 with V Hermitian, shifted by a multiple of D."""
    out = []
    for _ in range(2):
        if representable:
            mats = [
                (d @ v + v @ d) / 2.0
                for d, v in zip(rho.densities, (_hermitian(rng, n) for n in rho.shape.blocks))
            ]
            tr = sum(np.trace(m).real for m in mats)
            mats = [m - tr * d for m, d in zip(mats, rho.densities)]
        else:
            mats = [_hermitian(rng, n) for n in rho.shape.blocks]
            tr = sum(np.trace(m).real for m in mats)
            mats = [m - tr * np.eye(n) / rho.shape.total_dim for m, n in zip(mats, rho.shape.blocks)]
        out.append(_wrap(rho.shape, mats))
    return out


def _pullback_error_and_bound(blocks, seed, rank_deficient, representable, kind_no):
    """The largest |batched - per-block loop| metric entry of one random
    pullback and its bound, or None where both raise the same error."""
    rho, rng = random_state_on(blocks, seed, rank_deficient)
    kind = kind_catalog()[kind_no]
    model = _fixed_model(rho, _differentials(rho, rng, representable))
    theta = [0.0, 0.0]
    if not kind.is_gns and not is_faithful(rho):
        with pytest.raises(UnsupportedKindError):
            metric_pullback(model, theta, kind)
        return None
    try:
        g_ref = ref.metric_pullback(model, theta, kind)
    except ValueError as exc:
        with pytest.raises(ScoreNotRepresentableError) as err:
            metric_pullback(model, theta, kind)
        assert err.value.param_index == exc.args[0]
        return None
    g = metric_pullback(model, theta, kind)
    # The closed-form solve and the per-block lstsq round differently,
    # by up to about cond * eps relative (at most 4e-16 * cond over 3000
    # random cases), where cond is the spread of the kept density
    # spectrum: the bound is 1e-12 up to cond = 100 and grows with it.
    w = np.concatenate(rho.block_eigenvalues())
    cond = w.max() / w[w > 1e-9 * w.max()].min()
    tol = 1e-12 * max(1.0, cond / 100.0)
    return np.max(np.abs(g - g_ref)), tol * np.max(np.abs(g_ref))


pullback_cases = (shapes, seeds, st.booleans(), st.booleans(), st.sampled_from(range(5)))


class TestPullbackAgainstLoops:
    def test_hermitian_basis(self):
        # the per-block basis the reference solve expands in: Hermitian and HS-orthonormal
        for n in (1, 2, 3):
            hb = ref.hermitian_matrix_basis(n)
            assert len(hb) == n * n
            for h in hb:
                assert np.array_equal(h, h.conj().T)
            mat = np.column_stack([h.ravel() for h in hb])
            assert np.max(np.abs(mat.conj().T @ mat - np.eye(n * n))) <= 1e-15

    @SETTINGS
    @given(*pullback_cases)
    def test_metric_matches(self, blocks, seed, rank_deficient, representable, kind_no):
        error_bound = _pullback_error_and_bound(blocks, seed, rank_deficient, representable, kind_no)
        assert error_bound is None or error_bound[0] <= error_bound[1]

    # The same bound over 3000 cases (``pytest -m slow``).  The worst
    # error/bound ratio is 0.021 with the closed-form solve; it was 0.064
    # with the eigh pseudo-inverse of the symmetrized form, 0.024 with the
    # SVD pseudo-inverse, and 0.053 with eigh on the form as assembled,
    # unsymmetrized.
    @pytest.mark.slow
    @settings(max_examples=3000, deadline=None, derandomize=True)
    @given(*pullback_cases)
    def test_metric_matches_sweep(self, blocks, seed, rank_deficient, representable, kind_no):
        error_bound = _pullback_error_and_bound(blocks, seed, rank_deficient, representable, kind_no)
        assert error_bound is None or error_bound[0] <= error_bound[1]


@pytest.fixture
def eig_calls(monkeypatch):
    """Counts np.linalg.eigh and np.linalg.eigvalsh calls."""
    counts = {"n": 0}
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            counts["n"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


class TestTwoTransformsPerContraction:
    """Building an induced contraction runs rho's transform once over
    sigma's null images, and none for a faithful sigma; the first read of
    its matrix runs two, sigma's over the representatives and rho's, and a
    second read none."""

    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_two_transforms(self, monkeypatch, rank_deficient):
        calls = {"n": 0}
        original = gns._transform

        def counted(*args):
            calls["n"] += 1
            return original(*args)

        monkeypatch.setattr(gns, "_transform", counted)
        m = random_morphism_on([2, 3], [2, 3], 1, rank_deficient, True, 0.0)
        (shape_a, rho), (shape_b, sigma) = m.source, m.target
        space_sigma, space_rho = build_gns(shape_b, sigma), build_gns(shape_a, rho)
        assert (space_sigma.dim < shape_b.element_dim) == rank_deficient
        contraction = induced_contraction(m, space_sigma, space_rho)
        assert calls["n"] == int(rank_deficient)
        c = contraction.matrix
        assert calls["n"] == int(rank_deficient) + 2
        assert contraction.matrix is c
        assert calls["n"] == int(rank_deficient) + 2
        assert c.shape == (space_rho.dim, space_sigma.dim)


class TestOneDecompositionPerState:
    def test_petz_pullback_on_208_bins(self, eig_calls):
        model = gaussian_model(208, -5.5, 5.5)
        metric_pullback(model, [0.0, 1.0], petz_kind(SLD))
        assert eig_calls["n"] == 1

    def test_state_queries_and_gns_on_mixed_sizes(self, eig_calls):
        rng = np.random.default_rng(3)
        rho = mk_state(mk_shape([2, 2, 1]), random_blocks([2, 2, 1], rng, False))
        is_faithful(rho)
        support(rho)
        rho.block_eigenvalues()
        build_gns(rho.shape, rho)
        assert eig_calls["n"] == 2


class TestNoEigensolveOnPassingVerdicts:
    """A passing verdict is certified by Cholesky factors, with no Hermitian
    eigensolve; a failing one takes one decomposition, whose top or bottom
    eigenvector is also its witness."""

    @pytest.fixture
    def kraus_morphism(self):
        shape = mk_shape([6])
        phi = random_cpu_map(shape, shape, seed=11)
        rho = mk_state(shape, random_blocks([6], np.random.default_rng(11), False))
        return (shape, rho), (shape, predual(phi, rho)), phi

    def test_passing_verdicts(self, kraus_morphism, eig_calls):
        source, target, phi = kraus_morphism
        spaces = build_gns(*target), build_gns(*source)
        eig_calls["n"] = 0
        m = mk_morphism(source, target, phi)
        for kind in kind_catalog():
            assert monotonicity_check(kind, m, n_samples=10)["passed"]
        assert induced_contraction(m, *spaces).operator_norm <= 1.0 + 1e-12
        assert eig_calls["n"] == 0

    def test_failing_verdicts(self, kraus_morphism, eig_calls):
        (shape, rho), _, _ = kraus_morphism
        t = transpose_map(shape)
        target = (shape, predual(t, rho))
        space = build_gns(shape, rho)
        rng = np.random.default_rng(12)
        wide = 2.0 * rng.standard_normal((space.dim, space.dim))
        eig_calls["n"] = 0
        with pytest.raises(channels.MorphismValidationError):
            mk_morphism((shape, rho), target, t)
        assert eig_calls["n"] == 1
        # trusted as a morphism, the transpose fails the GNS criterion
        eig_calls["n"] = 0
        rep = monotonicity_check(ONE, NcpMorphism((shape, rho), target, t), n_samples=0)
        assert not rep["passed"] and "witness" in rep
        assert eig_calls["n"] == 1
        eig_calls["n"] = 0
        assert gns.GnsContraction(space, space, wide).operator_norm > 1.0
        assert eig_calls["n"] == 1
