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
norm of its spectrum."""

import numpy as np
import pytest

import reference_loops as ref
from ncplab import channels
from ncplab.algebra import mk_shape
from ncplab.channels import (
    CP_TOL,
    MorphismValidationError,
    from_kraus,
    from_linear,
    mk_morphism,
    predual,
    random_cpu_map,
    transpose_map,
)
from ncplab.covariance import OperatorMonotoneFunction, monotonicity_check, petz_kind
from ncplab.gns import GnsContraction, build_gns, induced_contraction
from ncplab.states import random_state

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


class TestOperatorNormCertificate:
    def test_non_contraction_gets_the_spectral_norm(self):
        shape = mk_shape([2, 3])
        space = build_gns(shape, random_state(shape, faithful=True, seed=8))
        rng = np.random.default_rng(8)
        m = 1.5 * (rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal((space.dim, space.dim)))
        norm = GnsContraction(space, space, m).operator_norm
        assert norm > 1.0
        assert norm == np.sqrt(np.linalg.eigvalsh(m.conj().T @ m)[-1])

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
