import json

import numpy as np
import pytest

from conftest import depolarizing_kraus
from ncplab.algebra import ShapeError, mk_shape
from ncplab.channels import (
    congruent_embedding,
    from_kraus,
    left_inverse,
    markov_from_stochastic,
    predual,
    transpose_map,
)
from ncplab.models import gaussian_group_model
from ncplab.serialize import (
    SerializationError,
    cpumap_from_json,
    cpumap_to_json,
    matrix_from_json,
    morphism_from_json,
    morphism_to_json,
    shape_from_json,
    shape_to_json,
    state_from_json,
    state_to_json,
)
from ncplab.states import random_state


class TestRoundtrips:
    def test_shape(self):
        s = mk_shape([2, 3, 1])
        assert shape_from_json(shape_to_json(s)) == s

    def test_state(self):
        rho = random_state(mk_shape([2, 3]), seed=1)
        back = state_from_json(state_to_json(rho))
        assert all(
            np.allclose(x, y, atol=1e-15) for x, y in zip(rho.densities, back.densities)
        )

    def test_kraus_channel(self):
        phi = from_kraus(mk_shape([2]), mk_shape([2]), depolarizing_kraus(0.3))
        back = cpumap_from_json(cpumap_to_json(phi))
        assert np.allclose(back.linear_action, phi.linear_action, atol=1e-14)

    def test_linear_channel(self):
        t = transpose_map(mk_shape([2]))
        back = cpumap_from_json(cpumap_to_json(t))
        assert np.allclose(back.linear_action, t.linear_action, atol=1e-15)

    def test_morphism(self):
        shape = mk_shape([2])
        phi = from_kraus(shape, shape, depolarizing_kraus(0.5))
        rho = random_state(shape, faithful=True, seed=2)
        sigma = predual(phi, rho)
        from ncplab.channels import mk_morphism

        m = mk_morphism((shape, rho), (shape, sigma), phi)
        back = morphism_from_json(morphism_to_json(m))
        assert np.allclose(back.cpu.linear_action, m.cpu.linear_action, atol=1e-14)


class TestInputForms:
    def test_probability_shorthand(self):
        rho = state_from_json({"prob": [0.5, 0.25, 0.25]})
        assert rho.shape == mk_shape([1, 1, 1])
        assert abs(rho.densities[0][0, 0] - 0.5) < 1e-15

    def test_plain_numbers_accepted(self):
        rho = state_from_json(
            {"shape": {"blocks": [2]}, "densities": [[[0.75, 0.0], [0.0, 0.25]]]}
        )
        assert abs(rho.densities[0][0, 0] - 0.75) < 1e-15

    def test_stochastic_channel(self):
        phi = cpumap_from_json({"stochastic": [[0.5, 0.5], [0.5, 0.5]]})
        ref = markov_from_stochastic(np.full((2, 2), 0.5))
        assert_same_csr(phi.linear_action, ref.linear_action)
        assert np.array_equal(phi.linear_action.toarray(), np.full((2, 2), 0.5))

    def test_complex_entries_read_in_one_pass(self):
        mat = [[{"re": 1.5, "im": -2.0}, 3], [{"re": -0.25}, {"re": 0, "im": 1e-300}]]
        want = np.array([[1.5 - 2.0j, 3.0], [-0.25, 1e-300j]])
        got = matrix_from_json(mat)
        assert got.dtype == complex and np.array_equal(got, want)
        assert np.array_equal(matrix_from_json([[1, 2.5]]), [[1.0, 2.5]])


def assert_same_csr(a, b):
    assert a.format == b.format == "csr" and a.shape == b.shape
    for x, y in [(a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr)]:
        assert x.dtype == y.dtype and np.array_equal(x, y)


class TestMarkovRoundtrips:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: markov_from_stochastic([[0.5, 1.0, 0.0], [0.5, 0.0, 0.25], [0.0, 0.0, 0.75]]),
            lambda: congruent_embedding([0, 1, 0, 2], [0.3, 1.0, 0.7, 1.0]),
            lambda: left_inverse(congruent_embedding([0, 1, 0, 2], [0.3, 1.0, 0.7, 1.0])),
            lambda: gaussian_group_model(64, -4.0, 4.0).automorphism_at((0.3, 0.7)),
        ],
        ids=["markov_from_stochastic", "congruent_embedding", "left_inverse", "automorphism_at"],
    )
    def test_stochastic_payload_gives_the_same_csr_action(self, build):
        phi = build()
        payload = json.loads(json.dumps(cpumap_to_json(phi)))
        assert set(payload) == {"stochastic"}
        back = cpumap_from_json(payload)
        assert back.source_shape == phi.source_shape and back.target_shape == phi.target_shape
        assert_same_csr(back.linear_action, phi.linear_action)


class TestErrors:
    def test_missing_fields(self):
        with pytest.raises(SerializationError):
            state_from_json({"densities": [[[1.0]]]})
        with pytest.raises(SerializationError):
            cpumap_from_json({"source": {"blocks": [2]}, "target": {"blocks": [2]}})

    def test_ragged_matrix(self):
        with pytest.raises(SerializationError):
            state_from_json(
                {"shape": {"blocks": [2]}, "densities": [[[1.0, 0.0], [0.0]]]}
            )

    @pytest.mark.parametrize("blocks", [[1.9], [True], ["1"], [1.5, 2]])
    def test_non_integer_block_size(self, blocks):
        with pytest.raises(SerializationError):
            shape_from_json({"blocks": blocks})
        assert shape_from_json({"blocks": [np.int64(2), 1]}).blocks == (2, 1)

    def test_empty_stochastic_matrix(self):
        with pytest.raises(ShapeError):
            cpumap_from_json({"stochastic": [[]]})

    def test_bad_complex_entry(self):
        with pytest.raises(SerializationError):
            state_from_json({"shape": {"blocks": [1]}, "densities": [[["x"]]]})
