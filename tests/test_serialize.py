import numpy as np
import pytest

from conftest import depolarizing_kraus, random_element
from ncplab.algebra import ShapeError, mk_shape
from ncplab.channels import from_kraus, markov_from_stochastic, predual, transpose_map
from ncplab.serialize import (
    SerializationError,
    cpumap_from_json,
    cpumap_to_json,
    element_from_json,
    element_to_json,
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

    def test_element(self):
        rng = np.random.default_rng(0)
        a = random_element(mk_shape([2, 1]), rng)
        b = element_from_json(element_to_json(a))
        assert all(np.allclose(x, y, atol=1e-15) for x, y in zip(a.blocks, b.blocks))

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
        assert np.allclose(phi.linear_action, ref.linear_action, atol=1e-15)


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
            element_from_json({"blocks": [[["x"]]]})
