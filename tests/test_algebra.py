import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from conftest import PAULI_X, PAULI_Y, PAULI_Z, STANDARD_SHAPES, random_element
from ncplab.algebra import (
    ShapeError,
    adjoint,
    add,
    basis,
    hermitian_matrix_basis,
    hs_norm,
    identity,
    mk_element,
    mk_shape,
    multiply,
    scale,
)


class TestShape:
    def test_abelian_shape(self):
        s = mk_shape([1, 1, 1])
        assert s.is_abelian
        assert s.element_dim == 3

    def test_qubit_shape(self):
        s = mk_shape([2])
        assert not s.is_abelian
        assert s.element_dim == 4

    def test_direct_sum_dims(self):
        s = mk_shape([2, 3])
        assert s.element_dim == 13
        assert s.total_dim == 5

    def test_empty_rejected(self):
        with pytest.raises(ShapeError, match="^shape needs at least one block$"):
            mk_shape([])

    def test_zero_block_rejected(self):
        with pytest.raises(ShapeError):
            mk_shape([2, 0])

    @pytest.mark.parametrize("bad", [True, np.True_, 1.5])
    def test_non_integer_block_rejected(self, bad):
        for dims in ([2, bad], [1] * 6143 + [bad]):
            with pytest.raises(ShapeError) as err:
                mk_shape(dims)
            assert str(err.value) == f"block dimensions must be integers, got {dims}"
            assert isinstance(err.value.__cause__, TypeError)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_non_positive_block_message(self, bad):
        for dims in ([2, bad], [1] * 6143 + [bad]):
            with pytest.raises(ShapeError) as err:
                mk_shape(dims)
            assert str(err.value) == f"block dimensions must be >= 1, got {tuple(dims)}"

    def test_many_blocks_become_python_ints(self):
        dims = list(np.ones(6144, dtype=np.int64))
        dims[-1] = np.int64(2)
        s = mk_shape(dims)
        assert s.blocks == (1,) * 6143 + (2,)
        assert all(type(n) is int for n in s.blocks)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=40), st.booleans())
def test_shape_sizes_are_the_sums(dims, numpy_ints):
    s = mk_shape([np.int64(n) for n in dims] if numpy_ints else dims)
    for _ in range(2):  # the first read computes, the second reads the cache
        assert s.element_dim == sum(n * n for n in dims) and type(s.element_dim) is int
        assert s.total_dim == sum(dims) and type(s.total_dim) is int
        assert s.is_abelian is all(n == 1 for n in dims)
    # a shape that has computed its sizes still equals and hashes as a fresh one
    assert s == mk_shape(dims) and hash(s) == hash(mk_shape(dims))


class TestElementOps:
    def test_identity_qubit(self):
        e = identity(mk_shape([2]))
        assert np.array_equal(e.blocks[0], np.eye(2))

    def test_identity_abelian(self):
        e = identity(mk_shape([1, 1]))
        assert all(np.array_equal(b, np.eye(1)) for b in e.blocks)

    def test_trace_of_identity(self):
        assert ref.trace_functional(identity(mk_shape([2, 3]))) == 5

    def test_pauli_product(self):
        s = mk_shape([2])
        x = mk_element(s, [PAULI_X])
        y = mk_element(s, [PAULI_Y])
        z = mk_element(s, [PAULI_Z])
        assert hs_norm(multiply(x, y) - scale(1j, z)) == 0.0

    def test_identity_neutral(self):
        rng = np.random.default_rng(0)
        s = mk_shape([2, 3])
        a = random_element(s, rng)
        assert hs_norm(multiply(a, identity(s)) - a) == 0.0

    def test_adjoint_example(self):
        s = mk_shape([2])
        a = mk_element(s, [np.array([[0.0, 1.0], [0.0, 0.0]])])
        assert np.array_equal(adjoint(a).blocks[0], np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_adjoint_involution_exact(self):
        rng = np.random.default_rng(1)
        for s in STANDARD_SHAPES:
            a = random_element(s, rng)
            back = adjoint(adjoint(a))
            assert all(np.array_equal(x, y) for x, y in zip(a.blocks, back.blocks))

    def test_adjoint_antihomomorphism(self):
        # BLAS accumulation order differs between the two products, so the
        # identity holds to machine epsilon rather than bitwise.
        rng = np.random.default_rng(2)
        for s in STANDARD_SHAPES:
            for _ in range(25):
                a, b = random_element(s, rng), random_element(s, rng)
                dev = hs_norm(adjoint(multiply(a, b)) - multiply(adjoint(b), adjoint(a)))
                assert dev <= 1e-13

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            multiply(identity(mk_shape([2])), identity(mk_shape([3])))


class TestPositivity:
    def test_identity_positive(self):
        assert ref.is_positive(identity(mk_shape([2, 3])))

    def test_indefinite_not_positive(self):
        s = mk_shape([2])
        a = mk_element(s, [np.diag([1.0, -1.0])])
        assert not ref.is_positive(a)

    def test_non_hermitian_not_positive(self):
        s = mk_shape([2])
        a = mk_element(s, [np.array([[0.0, 1.0], [0.0, 0.0]])])
        assert not ref.is_positive(a)

    @pytest.mark.parametrize("shape", STANDARD_SHAPES, ids=str)
    def test_squares_positive(self, shape):
        rng = np.random.default_rng(3)
        for _ in range(100):
            b = random_element(shape, rng)
            assert ref.is_positive(multiply(adjoint(b), b), tol=1e-10)


class TestBasis:
    @pytest.mark.parametrize(
        "dims,count", [([1, 1], 2), ([2], 4), ([2, 3], 13)]
    )
    def test_basis_size(self, dims, count):
        assert len(basis(mk_shape(dims))) == count

    def test_basis_independent_and_spanning(self):
        s = mk_shape([2, 1])
        mat = np.column_stack([e.vec for e in basis(s)])
        assert np.linalg.matrix_rank(mat) == s.element_dim

    def test_basis_order_is_row_major(self):
        s = mk_shape([2])
        es = basis(s)
        assert es[1].blocks[0][0, 1] == 1.0
        assert es[2].blocks[0][1, 0] == 1.0

    def test_hermitian_basis(self):
        # the per-block basis the Riesz solve expands in: Hermitian and HS-orthonormal
        for n in (1, 2, 3):
            hb = hermitian_matrix_basis(n)
            assert len(hb) == n * n
            for h in hb:
                assert np.array_equal(h, h.conj().T)
            mat = np.column_stack([h.ravel() for h in hb])
            assert np.max(np.abs(mat.conj().T @ mat - np.eye(n * n))) <= 1e-15


class TestCoordinates:
    @pytest.mark.parametrize("shape", STANDARD_SHAPES, ids=str)
    def test_roundtrip(self, shape):
        rng = np.random.default_rng(4)
        a = random_element(shape, rng)
        b = ref.element_from_coords(shape, a.vec)
        assert all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))

    def test_linear(self):
        rng = np.random.default_rng(5)
        s = mk_shape([2, 3])
        a, b = random_element(s, rng), random_element(s, rng)
        lhs = add(scale(2.0 - 1j, a), b).vec
        rhs = (2.0 - 1j) * a.vec + b.vec
        assert np.max(np.abs(lhs - rhs)) == 0.0


class TestAbelian:
    def test_commutativity_exact(self):
        rng = np.random.default_rng(6)
        s = mk_shape([1, 1, 1, 1])
        for _ in range(20):
            a, b = random_element(s, rng), random_element(s, rng)
            assert hs_norm(multiply(a, b) - multiply(b, a)) == 0.0
