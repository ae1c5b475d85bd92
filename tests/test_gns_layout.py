"""The GNS coordinate layout (places, the class of the unit, the sorted Gram
eigenvalues) is placed by the space on first read, at most once, and never
by a metric pullback; once placed it equals the layout the space used to
build eagerly, bit for bit."""

from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from conftest import random_element, random_morphism
from ncplab.algebra import mk_shape
from ncplab.channels import congruent_embedding
from ncplab.covariance import covariance_gram, kind_catalog, monotonicity_check
from ncplab.gns import GnsSpace, build_gns, embed, induced_contraction
from ncplab.models import (
    congruence_invariance_check,
    gaussian_model,
    metric_pullback,
    qubit_faithful_model,
    riesz_score,
    simplex_model,
)
from ncplab.states import mk_state

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)

MODELS = [
    (gaussian_model(64, -5.5, 5.5), [0.2, 1.1]),
    (simplex_model(3), [0.2, 0.3, 0.1]),
    (qubit_faithful_model(), [0.5, 0.8, 0.3]),
]


@pytest.fixture
def unplaceable(monkeypatch):
    def refuse(self):
        raise AssertionError("the GNS coordinate layout was placed")

    monkeypatch.setattr(GnsSpace, "_layout", property(refuse))


@pytest.fixture
def placements(monkeypatch):
    """Each space whose layout is placed, once per placement; the list keeps
    them alive, so their ids stay distinct."""
    placed = []
    place = GnsSpace._layout.func

    def counting(self):
        placed.append(self)
        return place(self)

    prop = cached_property(counting)
    prop.__set_name__(GnsSpace, "_layout")
    monkeypatch.setattr(GnsSpace, "_layout", prop)
    return placed


def _at_most_once(placed) -> bool:
    ids = [id(space) for space in placed]
    return len(ids) == len(set(ids))


@pytest.mark.parametrize("kind", kind_catalog(), ids=lambda k: k.label)
@pytest.mark.parametrize("model, theta", MODELS, ids=lambda m: getattr(m, "name", ""))
def test_metric_pullback_never_places_coordinates(unplaceable, model, theta, kind):
    g = metric_pullback(model, theta, kind)
    assert g.shape == (model.param_dim, model.param_dim)


@pytest.mark.parametrize("kind", kind_catalog(), ids=lambda k: k.label)
def test_congruence_check_never_places_coordinates(unplaceable, kind):
    embedding = congruent_embedding(np.repeat(np.arange(32), 2), np.tile([0.3, 0.7], 32))
    report = congruence_invariance_check(gaussian_model(32, -5.5, 5.5), embedding, [[0.1, 0.9]], kind)
    assert report["passed"]


@pytest.mark.parametrize("model, theta", MODELS, ids=lambda m: getattr(m, "name", ""))
def test_riesz_score_places_once(placements, model, theta):
    for kind in kind_catalog():
        placements.clear()
        riesz_score(model, theta, kind)
        assert len(placements) == 1


def test_matrix_verdicts_place_each_space_once(placements):
    shape = mk_shape([2, 3])
    m = random_morphism(shape, shape, seed=4, mix_trace=0.1)
    for kind in kind_catalog():
        placements.clear()
        assert monotonicity_check(kind, m, n_samples=8)["passed"]
        assert 1 <= len(placements) and _at_most_once(placements)
    (shape_a, rho), (shape_b, sigma) = m.source, m.target
    space_rho, space_sigma = build_gns(shape_a, rho), build_gns(shape_b, sigma)
    placements.clear()
    c = induced_contraction(m, space_sigma, space_rho)
    c.operator_norm
    induced_contraction(m, space_sigma, space_rho)
    for kind in kind_catalog():
        covariance_gram(kind, space_rho)
    rng = np.random.default_rng(0)
    for _ in range(3):
        embed(space_sigma, random_element(shape_b, rng))
    assert sorted(map(id, placements)) == sorted(map(id, (space_rho, space_sigma)))


def _states():
    """Mixed block sizes with rank-deficient blocks, abelian states with
    exact-zero bins, and diagonal blocks whose eigenvalues tie within and
    across blocks, so that every key of the coordinate order decides."""
    mixed = st.builds(
        lambda blocks, seed: _mixed_state(blocks, seed),
        st.lists(st.integers(1, 4), min_size=1, max_size=6),
        st.integers(0, 2**32 - 1),
    )
    masses = st.sampled_from([0.0, 0.0, 1e-300, 1e-12, 0.25, 0.5, 1.0, 3.0])
    bins = st.lists(masses, min_size=1, max_size=40)
    abelian = bins.filter(lambda p: sum(p) > 0).map(_abelian_state)
    diagonal = st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=1, max_size=3)
    diagonals = st.lists(diagonal, min_size=1, max_size=5)
    tied = diagonals.filter(lambda ds: sum(map(sum, ds)) > 0).map(_diagonal_state)
    return st.one_of(mixed, abelian, tied)


def _mixed_state(blocks, seed):
    rng = np.random.default_rng(seed)
    mats = []
    for k, n in enumerate(blocks):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w, v = np.linalg.eigh(g @ g.conj().T)
        w[: int(rng.integers(0, n + (k > 0)))] = 0.0  # block 0 keeps an eigenvalue
        d = (v * w) @ v.conj().T
        mats.append((d + d.conj().T) / 2.0)
    total = sum(np.trace(m).real for m in mats)
    return mk_state(mk_shape(blocks), [m / total for m in mats])


def _diagonal_state(diagonals):
    total = sum(map(sum, diagonals))
    return mk_state(mk_shape([len(d) for d in diagonals]), [np.diag(d) / total for d in diagonals])


def _abelian_state(masses):
    p = np.asarray(masses) / sum(masses)
    return mk_state(mk_shape([1] * p.size), [[[x]] for x in p])


@SETTINGS
@given(_states(), st.sampled_from([1e-9, 0.0, 0.3]))
def test_placed_layout_equals_the_eager_one(state, tol):
    space = build_gns(state.shape, state, tol)
    groups, cyclic, eigs = ref.eager_gns_layout(state.shape, state, tol)
    layout = space._layout
    assert len(space._groups) == len(layout.at) == len(groups)
    for g, at, (n, r, index, at_ref) in zip(space._groups, layout.at, groups):
        assert (g.n, g.rank) == (n, r) and np.array_equal(g.index, index)
        assert at.dtype == at_ref.dtype and np.array_equal(at, at_ref)
    assert space.dim == cyclic.size
    assert space.cyclic.tobytes() == cyclic.tobytes()
    assert space.gram_eigenvalues.tobytes() == eigs.tobytes()

