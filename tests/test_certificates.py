"""Negative controls for the Cholesky certificates of the spectral verdicts.

A verifier that has never been seen to fail proves nothing.  The power means
f_p(t) = ((1 + t^p) / 2)^(1/p) are normalized and symmetric, and operator
monotone only for p in [-1, 1].  Random carriers do not expose the violation
of p = +-2; two structured carriers on M_4 do: the partial trace onto M_2 and
the pinching onto the diagonal.  The certificate only buys speed, so on these
controls a failing verdict must carry a witness and agree with the dense
generalized eigenproblem, and a passing one must still pass.  The CP test
and the operator norm get the same treatment: non-CP carriers are rejected
with the spectral minimum and block pair, and a non-contraction gets the
norm of its spectrum.  A Kraus carrier is certified CP by its factor
residual; that certificate agrees with the spectral verdict on random
families, and a Kraus family that does not match its action is caught.
The allocation peaks of the three matrix verdicts are pinned."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from ncplab import channels, gns
from ncplab.algebra import InputError, ShapeError, mk_shape
from ncplab.channels import (
    CP_TOL,
    CpuMap,
    MorphismValidationError,
    choi,
    conjugation_map,
    from_kraus,
    from_linear,
    identity_map,
    is_cp,
    mk_morphism,
    predual,
    random_cpu_map,
    transpose_map,
)
from ncplab.covariance import ONE, SLD, OperatorMonotoneFunction, monotonicity_check, petz_kind
from ncplab.gns import GnsContraction, build_gns, induced_contraction
from ncplab.states import mk_state, random_state

M4, M2 = mk_shape([4]), mk_shape([2])


def power_mean(p: float) -> OperatorMonotoneFunction:
    return OperatorMonotoneFunction(f"pow:{p}", lambda t: ((1.0 + t**p) / 2.0) ** (1.0 / p))


def partial_trace():
    """M_2 -> M_4, b -> b (x) 1: the predual traces out the second factor."""
    return from_kraus(M2, M4, [np.kron(np.eye(2), np.eye(2)[k : k + 1]) for k in range(2)])


def pinching():
    """M_4 -> M_4, b -> its diagonal."""
    return from_kraus(M4, M4, [np.outer(e, e) for e in np.eye(4)])


def partial_transpose():
    """Transpose of the second factor of M_4 = M_2 (x) M_2: unital, not CP."""
    idx = np.arange(16).reshape(2, 2, 2, 2)  # entry (2i + j, 2i' + j') at [i, j, i', j']
    return from_linear(M4, M4, np.eye(16)[idx.transpose(0, 3, 2, 1).ravel()])


def skewed_depolarizing():
    """The half-depolarizing qubit map with 1e-3 i of entry (0, 1) added to
    entry (0, 0): unital, its Choi matrix not Hermitian, its Hermitian part
    positive definite (smallest eigenvalue about 1/8)."""
    cols = [(0.5 * e + 0.25 * np.trace(e) * np.eye(2)).ravel() for e in np.eye(4).reshape(4, 2, 2)]
    action = np.column_stack(cols).astype(complex)
    action[0, 1] += 1e-3j
    return from_linear(M2, M2, action)


CARRIERS = {"partial_trace": partial_trace, "pinching": pinching}


class TestPowerMeanControls:
    # the worst exact_max_eig over 60 seeded faithful states; None: all pass
    @pytest.mark.parametrize(
        "carrier, p, worst",
        [
            ("partial_trace", -2.0, 1.018667),
            ("partial_trace", 2.0, 1.310315),
            ("pinching", 2.0, 1.389191),
            ("partial_trace", 0.5, None),
            ("pinching", 0.5, None),
        ],
    )
    def test_verdicts_match_the_dense_criterion(self, carrier, p, worst):
        phi, kind = CARRIERS[carrier](), petz_kind(power_mean(p))
        tops = []
        for seed in range(60):
            rho = random_state(M4, faithful=True, seed=seed)
            m = mk_morphism((M4, rho), (phi.source_shape, predual(phi, rho)), phi)
            rep = monotonicity_check(kind, m, n_samples=0)
            exact = ref.monotonicity_dense(kind, m)[0]
            assert abs(rep["exact_max_eig"] - exact) <= 1e-12 * exact
            assert rep["passed"] == (exact <= 1.0 + 1e-9)
            assert ("witness" in rep) != rep["passed"]
            if not rep["passed"]:
                assert rep["witness"]["ratio"] == rep["exact_max_eig"]
            tops.append(rep["exact_max_eig"])
        if worst is None:
            assert max(tops) <= 1.0 + 1e-9
        else:
            assert round(max(tops), 6) == worst


class TestCpCertificate:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: transpose_map(mk_shape([2])),
            lambda: transpose_map(mk_shape([2, 3])),
            lambda: transpose_map(mk_shape([1, 2])),
            partial_transpose,
            skewed_depolarizing,
        ],
        ids=["transpose-2", "transpose-2x3", "transpose-1x2", "partial-transpose-4", "not-hermitian-2"],
    )
    def test_rejected_with_the_spectral_minimum_and_pair(self, make):
        phi = make()
        cp, min_eig, (k, l) = channels._choi_verdict(phi, CP_TOL)[:3]
        assert not cp
        certified = channels._choi_verdict(phi, CP_TOL, spectrum=False)
        assert (certified.cp, certified.min_eig, certified.pair) == (cp, min_eig, (k, l))
        # CP is checked before state preservation, so any two states will do
        rho = random_state(phi.target_shape, faithful=True, seed=4)
        sigma = random_state(phi.source_shape, faithful=True, seed=5)
        message = f"min Choi eigenvalue {min_eig:.3e} in the block of source block {k} and target block {l}"
        with pytest.raises(MorphismValidationError, match=message):
            mk_morphism((phi.target_shape, rho), (phi.source_shape, sigma), phi)

    def test_a_certified_verdict_skips_the_spectrum(self):
        phi = random_cpu_map(mk_shape([3, 2]), mk_shape([2, 2]), seed=6)
        assert tuple(channels._choi_verdict(phi, CP_TOL, spectrum=False)) == (True, None, None, None)
        assert channels._choi_verdict(phi, CP_TOL)[0]


def lowered(phi, pair, row, by):
    """phi's action with the diagonal entry ``row`` of its Choi block
    ``pair`` lowered by ``by`` (in Choi units), still carrying phi's Kraus
    family: a family that no longer matches its action."""
    action = phi.linear_action.copy()
    for pairs, at in channels._choi_layout(phi.source_shape, phi.target_shape):
        hit = np.flatnonzero((pairs == pair).all(axis=1))
        if hit.size:
            action.reshape(-1)[at[hit[0], row, row]] -= by * phi.source_shape.total_dim
    return CpuMap(phi.source_shape, phi.target_shape, action, phi.kraus)


class TestKrausCertificate:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["kraus", "mixed", "damaged"]),
        st.data(),
    )
    def test_agrees_with_the_spectral_verdict(self, blocks_src, blocks_dst, seed, family, data):
        src, dst = mk_shape(blocks_src), mk_shape(blocks_dst)
        NB, NA = src.total_dim, dst.total_dim
        # from one operator (where N_B >= N_A allows it) to beyond N_B * N_A;
        # the trace mix adds N_B * N_A more
        n_kraus = data.draw(st.integers(-(-NA // NB), NB * NA + 2), label="n_kraus")
        phi = random_cpu_map(src, dst, seed=seed, n_kraus=n_kraus, mix_trace=0.3 if family == "mixed" else 0.0)
        if family == "damaged":
            # a Choi diagonal entry driven to -1e-3, far below -tol * trace
            layout = channels._choi_layout(src, dst)
            pairs, at = layout[data.draw(st.integers(0, len(layout) - 1), label="class")]
            j = data.draw(st.integers(0, len(pairs) - 1), label="pair")
            row = data.draw(st.integers(0, at.shape[1] - 1), label="row")
            entry = phi.linear_action.reshape(-1)[at[j, row, row]] / NB
            phi = lowered(phi, pairs[j], row, 1e-3 + float(entry.real))
        spectral = channels._choi_verdict(phi, CP_TOL, spectrum=True)
        assert spectral.cp == (family != "damaged")
        assert is_cp(phi) == spectral.cp
        classes = list(choi(phi))
        trace = sum(float(np.trace(b, axis1=1, axis2=2).real.sum()) for _, b in classes)
        certified = channels._kraus_certifies(phi, classes, CP_TOL * max(1.0, abs(trace)))
        assert certified == spectral.cp

    def test_transpose_action_with_the_identity_family_is_rejected(self):
        shape = mk_shape([3])
        plain = transpose_map(shape)
        phi = CpuMap(shape, shape, plain.linear_action, identity_map(shape).kraus)
        verdict = channels._choi_verdict(phi, CP_TOL, spectrum=False)
        assert not verdict.cp and verdict.pair == (0, 0)
        assert verdict.min_eig == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert verdict[:3] == channels._choi_verdict(plain, CP_TOL, spectrum=False)[:3]
        assert not is_cp(phi)

    def test_a_diagonal_entry_lowered_by_20_tol_is_rejected(self):
        # the identity on [1, 3]: entry ((0, 1), (0, 1)) of its Choi block
        # (1, 1) is 0, and so is the rest of its row and column
        shape = mk_shape([1, 3])
        phi = lowered(identity_map(shape), (1, 1), 1, 20 * CP_TOL)
        plain = from_linear(shape, shape, phi.linear_action)
        verdict = channels._choi_verdict(phi, CP_TOL, spectrum=False)
        assert not verdict.cp and verdict.pair == (1, 1)
        assert verdict.min_eig == pytest.approx(-20 * CP_TOL, rel=1e-9)
        assert verdict[:3] == channels._choi_verdict(plain, CP_TOL, spectrum=False)[:3]
        spectral, unfactored = channels._choi_verdict(phi, CP_TOL), channels._choi_verdict(plain, CP_TOL)
        assert spectral[:3] == unfactored[:3] and np.array_equal(spectral.vector, unfactored.vector)
        assert not is_cp(phi)

    def test_a_kraus_carrier_is_not_factorized(self, monkeypatch):
        shape = mk_shape([6])
        phi = random_cpu_map(shape, shape, seed=11, n_kraus=3)
        rho = random_state(shape, faithful=True, seed=11)
        sigma = predual(phi, rho)
        sizes, cholesky = [], np.linalg.cholesky

        def counted(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        mk_morphism((shape, rho), (shape, sigma), phi)
        assert 36 not in sizes
        mk_morphism((shape, rho), (shape, sigma), from_linear(shape, shape, phi.linear_action))
        assert sizes.count(36) == 1


class TestOperatorNormCertificate:
    def test_non_contraction_gets_the_spectral_norm(self):
        shape = mk_shape([2, 3])
        space = build_gns(shape, random_state(shape, faithful=True, seed=8))
        rng = np.random.default_rng(8)
        m = 1.5 * (rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal((space.dim, space.dim)))
        norm = GnsContraction(space, space, m).operator_norm
        assert norm > 1.0
        # the spectrum of the package's own Gram, exactly; the complex product
        # rounds differently, within a few units in the last place
        assert norm == np.sqrt(np.linalg.eigvalsh(gns._gram(m))[-1])
        spectral = np.sqrt(np.linalg.eigvalsh(m.conj().T @ m)[-1])
        assert abs(norm - spectral) <= 1e-14 * spectral

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (4, 4, 1), (16,)], ids=["rows", "cols", "3d", "flat"])
    def test_a_matrix_of_another_shape_is_refused(self, shape):
        # on M_2 (4 dimensions) a 3 x 4 matrix once reported a norm of 3.46
        space = build_gns(M2, random_state(M2, faithful=True, seed=8))
        with pytest.raises(ShapeError, match=r"expected \(target dim, source dim\) = \(4, 4\)"):
            GnsContraction(space, space, np.ones(shape))

    def test_a_rectangular_matrix_takes_target_rows_and_source_columns(self):
        small = build_gns(M2, random_state(M2, faithful=True, seed=8))
        large = build_gns(M4, random_state(M4, faithful=True, seed=8))
        assert GnsContraction(small, large, np.ones((16, 4))).matrix.shape == (16, 4)
        with pytest.raises(ShapeError):
            GnsContraction(small, large, np.ones((4, 16)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)], ids=["nan", "inf", "imag-inf"])
    def test_a_matrix_that_is_not_finite_is_refused(self, bad):
        space = build_gns(M2, random_state(M2, faithful=True, seed=8))
        m = np.eye(4, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(InputError, match="not finite"):
            GnsContraction(space, space, m)

    def test_certified_norm_of_a_morphism(self):
        shape = mk_shape([6])
        phi = random_cpu_map(shape, shape, seed=9)
        rho = random_state(shape, faithful=True, seed=9)
        sigma = predual(phi, rho)
        m = mk_morphism((shape, rho), (shape, sigma), phi)
        c = induced_contraction(m, build_gns(shape, sigma), build_gns(shape, rho))
        spectral = np.sqrt(np.linalg.eigvalsh(c.matrix.conj().T @ c.matrix)[-1])
        assert abs(c.operator_norm - spectral) <= 1e-12
        assert abs(c.operator_norm - 1.0) <= 1e-12


def _peak_above_start(fn) -> int:
    """Bytes traced at the peak of fn(), above what was traced when it started;
    tracemalloc must be running."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    fn()
    return tracemalloc.get_traced_memory()[1] - start


class TestAllocationPeaks:
    """The traced peaks of the three matrix verdicts on a 3-Kraus [16]
    morphism, in units of one 256 x 256 complex array (16 dim^2 bytes, dim =
    256 element and GNS coordinates).  Forming the Gram from real products
    and the Choi Hermitian part in one buffer may raise none of them: with
    the Gram as one complex product and the Hermitian part from full-size
    temporaries they were 3.128 (mk_morphism: the unit images, a scaled
    copy and the Choi blocks), 3.148 (monotonicity_check) and 2.007
    (operator_norm: a conjugate copy and the Gram).  mk_morphism's was then
    3.008, the Choi blocks, their Hermitian part and its Cholesky factor; it
    is 2.008 now that the blocks are released once their Hermitian part is
    formed.  monotonicity_check's was 3.148 on both of its routes, with
    sigma's rows, their gather and its product alive at once; the criterion
    now drops the rows once they are gathered, and the real route of a Petz
    kind holds real N^2 arrays where the complex route holds complex ones,
    so SLD's peak is 2.196 (the criterion's sandwiches) and the GNS kind's
    3.032 (the complex Gram's stacked parts)."""

    def test_no_higher_than_with_the_complex_gram(self):
        shape = mk_shape([16])
        phi = random_cpu_map(shape, shape, seed=3, n_kraus=3)
        rho = random_state(shape, faithful=True, seed=3)
        sigma = predual(phi, rho)
        m = mk_morphism((shape, rho), (shape, sigma), phi)
        c = induced_contraction(m, build_gns(shape, sigma), build_gns(shape, rho))
        calls = {
            "mk_morphism": (lambda: mk_morphism((shape, rho), (shape, sigma), phi), 2.06),
            "monotonicity_check": (lambda: monotonicity_check(SLD, m, n_samples=100), 2.24),
            "monotonicity_check_gns": (lambda: monotonicity_check(ONE, m, n_samples=100), 3.15),
            "operator_norm": (lambda: c.operator_norm, 2.01),
        }
        unit = 16 * shape.element_dim**2
        peaks = {}
        tracemalloc.start()
        try:
            for name, (fn, _) in calls.items():
                fn()  # caches filled: the states' spectra, the Choi layout
                peaks[name] = _peak_above_start(fn) / unit
        finally:
            tracemalloc.stop()
        for name, (_, pin) in calls.items():
            assert peaks[name] <= pin, (name, peaks[name])

    @pytest.mark.parametrize(
        "blocks, pin",
        [
            # one rank group: the product, then the output; 3.01 units,
            # where the output allocated first made it 4.01
            ([16], 3.1),
            # four groups: the largest product, then the output, then each
            # other product written and freed at once; 2.61 units, where
            # the output first made it 3.20 and every product first 3.02
            ([9, 6, 4, 2], 2.7),
        ],
    )
    def test_induced_contraction(self, blocks, pin):
        shape = mk_shape(blocks)
        phi = random_cpu_map(shape, shape, seed=3, n_kraus=3)
        rho = random_state(shape, faithful=True, seed=3)
        sigma = predual(phi, rho)
        m = mk_morphism((shape, rho), (shape, sigma), phi)
        spaces = build_gns(shape, sigma), build_gns(shape, rho)
        # the matrix is placed on first read, so each call reads it
        tracemalloc.start()
        try:
            induced_contraction(m, *spaces).matrix  # caches filled: the layouts
            peak = _peak_above_start(lambda: induced_contraction(m, *spaces).matrix)
        finally:
            tracemalloc.stop()
        assert peak / (16 * shape.element_dim**2) <= pin

    def test_the_family_operator_norm_places_no_contraction(self):
        # a 3-Kraus [16] carrier, whose Gram the family gives: 2.009 units,
        # the Gram and its factors; with the contraction placed as well, as
        # when it was formed at construction, 3.010
        shape = mk_shape([16])
        phi = random_cpu_map(shape, shape, seed=3, n_kraus=3)
        rho = random_state(shape, faithful=True, seed=3)
        sigma = predual(phi, rho)
        m = mk_morphism((shape, rho), (shape, sigma), phi)
        spaces = build_gns(shape, sigma), build_gns(shape, rho)
        tracemalloc.start()
        try:
            induced_contraction(m, *spaces).operator_norm  # caches filled
            peak = _peak_above_start(lambda: induced_contraction(m, *spaces).operator_norm)
        finally:
            tracemalloc.stop()
        assert peak / (16 * shape.element_dim**2) <= 2.05

    def test_a_rank_deficient_sigma_drops_its_null_images_before_the_gram(self):
        # a unitary conjugation of [16] read off its Kraus family, rho of
        # rank 12: sigma's 64 null images are kept apart from M and freed
        # once checked, 1.81 units; kept in M's array beside it, 2.00
        shape, rng = mk_shape([16]), np.random.default_rng(3)
        g = rng.standard_normal((16, 12)) + 1j * rng.standard_normal((16, 12))
        rho = mk_state(shape, [g @ g.conj().T / np.trace(g @ g.conj().T).real])
        u = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))[0]
        phi = conjugation_map(shape, [u])
        m = mk_morphism((shape, rho), (shape, predual(phi, rho)), phi)
        tracemalloc.start()
        try:
            assert monotonicity_check(ONE, m, n_samples=100)["passed"]  # caches filled
            peak = _peak_above_start(lambda: monotonicity_check(ONE, m, n_samples=100))
        finally:
            tracemalloc.stop()
        assert peak / (16 * shape.element_dim**2) <= 1.85
