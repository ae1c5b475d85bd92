"""The batched (per-block-size) state, GNS and pullback paths against the
per-block reference loops, on random mixed shapes, and the count of
eigendecompositions per state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from conftest import random_element
from ncplab.algebra import _wrap, identity, mk_shape
from ncplab.covariance import (
    SLD,
    UnsupportedKindError,
    covariance_gram,
    gns_kind,
    kind_catalog,
    petz_kind,
)
from ncplab.gns import build_gns, embed
from ncplab.models import ScoreNotRepresentableError, StatModel, gaussian_model, metric_pullback
from ncplab.states import (
    StateValidationError,
    is_faithful,
    mk_state,
    random_tracial_state,
    support,
)

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)

shapes = st.lists(st.integers(1, 4), min_size=1, max_size=6)
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


class TestGnsAgainstLoops:
    @SETTINGS
    @given(shapes, seeds, st.booleans())
    def test_coordinates_exactly_equal(self, blocks, seed, rank_deficient):
        rho, rng = random_state_on(blocks, seed, rank_deficient)
        space = build_gns(rho.shape, rho)
        loops = ref.RefGnsSpace(rho.shape, rho)
        assert space.dim == loops.dim
        assert np.array_equal(space.gram_eigenvalues, loops.gram_eigenvalues)
        assert np.array_equal(space.iso_matrix, loops.iso_matrix())
        assert np.array_equal(space.cyclic, loops.embed(identity(rho.shape)))
        for _ in range(3):
            a = random_element(rho.shape, rng)
            assert np.array_equal(embed(space, a), loops.embed(a))
        for x, y in zip(space.rep_elements, loops.rep_elements()):
            assert all(np.array_equal(p, q) for p, q in zip(x.blocks, y.blocks))

    @SETTINGS
    @given(shapes, seeds, st.booleans())
    def test_state_queries_match_loops(self, blocks, seed, rank_deficient):
        rho, _ = random_state_on(blocks, seed, rank_deficient)
        per_block = [
            np.linalg.eigh((d + d.conj().T) / 2.0) for d in rho.densities
        ]
        for w, (w_ref, _) in zip(rho.block_eigenvalues(), per_block):
            assert np.array_equal(w, w_ref)
        cutoff = 1e-9 * max(float(w[-1]) for w, _ in per_block)
        assert is_faithful(rho) == all(float(w[0]) > cutoff for w, _ in per_block)
        for p, (w, v) in zip(support(rho).blocks, per_block):
            keep = v[:, w > cutoff]
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
        assert np.array_equal(covariance_gram(gns_kind(), space).gram, np.eye(space.dim))

    @SETTINGS
    @given(shapes, seeds)
    def test_tracial_deviation_exactly_zero(self, blocks, seed):
        rho = random_tracial_state(mk_shape(blocks), seed=seed)
        space = build_gns(rho.shape, rho)
        for kind in kind_catalog():
            assert np.array_equal(covariance_gram(kind, space).gram, np.eye(space.dim))


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


class TestPullbackAgainstLoops:
    @SETTINGS
    @given(shapes, seeds, st.booleans(), st.booleans(), st.sampled_from(range(5)))
    def test_metric_matches(self, blocks, seed, rank_deficient, representable, kind_no):
        rho, rng = random_state_on(blocks, seed, rank_deficient)
        kind = kind_catalog()[kind_no]
        model = _fixed_model(rho, _differentials(rho, rng, representable))
        theta = [0.0, 0.0]
        if not kind.is_gns and not is_faithful(rho):
            with pytest.raises(UnsupportedKindError):
                metric_pullback(model, theta, kind)
            return
        try:
            g_ref = ref.metric_pullback(model, theta, kind)
        except ValueError as exc:
            with pytest.raises(ScoreNotRepresentableError) as err:
                metric_pullback(model, theta, kind)
            assert err.value.param_index == exc.args[0]
            return
        g = metric_pullback(model, theta, kind)
        # The batched pseudo-inverse and the per-block lstsq round differently,
        # by up to about cond * eps relative (at most 4e-16 * cond over 3000
        # random cases), where cond is the spread of the kept density
        # spectrum: the bound is 1e-12 up to cond = 100 and grows with it.
        w = np.concatenate(rho.block_eigenvalues())
        cond = w.max() / w[w > 1e-9 * w.max()].min()
        tol = 1e-12 * max(1.0, cond / 100.0)
        assert np.max(np.abs(g - g_ref)) <= tol * np.max(np.abs(g_ref))


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
