import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from conftest import PAULI_X, PAULI_Y, PAULI_Z, STANDARD_SHAPES, random_element
from ncplab import algebra
from ncplab.algebra import (
    AlgebraShape,
    ShapeError,
    abelian_shape,
    adjoint,
    add,
    basis,
    hs_norm,
    identity,
    mk_element,
    mk_shape,
    multiply,
    scale,
)
from ncplab.models import gaussian_group_model, gaussian_model, metric_pullback


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

    @pytest.mark.parametrize("bad", [5, None])
    def test_non_iterable_rejected(self, bad):
        with pytest.raises(ShapeError) as err:
            mk_shape(bad)
        assert str(err.value) == f"block dimensions must be a sequence of integers, got {bad}"

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
    assert s == AlgebraShape(tuple(dims)) and hash(s) == hash(AlgebraShape(tuple(dims)))


@pytest.fixture
def shape_builds(monkeypatch):
    """Counts AlgebraShape constructions."""
    counts = {"n": 0}
    original = AlgebraShape.__post_init__

    def counted(self):
        counts["n"] += 1
        return original(self)

    monkeypatch.setattr(AlgebraShape, "__post_init__", counted)
    return counts


class TestSharedShape:
    """mk_shape and abelian_shape return one shape per block tuple, so its
    index maps are built once per process."""

    def test_one_instance_per_tuple(self):
        assert mk_shape([2, 3]) is mk_shape((2, 3)) is mk_shape(np.array([2, 3]))
        assert abelian_shape(6144) is mk_shape([1] * 6144) is abelian_shape(np.int64(6144))

    def test_a_map_is_built_once(self):
        assert mk_shape([2, 3]).transpose_perm is mk_shape([2, 3]).transpose_perm
        assert abelian_shape(4096).full_positions[0] is mk_shape([1] * 4096).full_positions[0]

    @pytest.mark.parametrize("bad", [True, np.True_, 1.0])
    def test_validated_before_the_lookup(self, bad):
        abelian_shape(6144)
        for dims in ([1] * 6143 + [bad], [bad]):
            with pytest.raises(ShapeError, match="^block dimensions must be integers"):
                mk_shape(dims)

    def test_cache_is_bounded(self):
        assert algebra._shared_shape.cache_parameters()["maxsize"] == 16
        first = mk_shape([2, 5])
        for n in range(1, 18):
            mk_shape([3, n])
        assert algebra._shared_shape.cache_info().currsize == 16
        # an evicted shape is rebuilt, equal to the one still held elsewhere
        assert mk_shape([2, 5]) is not first and mk_shape([2, 5]) == first

    def test_a_composition_builds_no_shape(self, shape_builds):
        """The three Markov maps of a composition check reuse the model's
        shape: no construction beyond the model's own."""
        gm = gaussian_group_model(1024, -12.0, 12.0)
        shape_builds["n"] = 0
        gm.composition_deviation((0.1, 1.1), (-0.2, 0.9), np.array([0.0, 1.0]))
        assert shape_builds["n"] == 0

    def test_a_second_pullback_builds_no_shape(self, shape_builds):
        """A fresh model on bins seen before reuses their shape."""
        metric_pullback(gaussian_model(6144, -10.0, 10.0), [0.3, 1.2])
        shape_builds["n"] = 0
        metric_pullback(gaussian_model(6144, -10.0, 10.0), [0.3, 1.2])
        assert shape_builds["n"] == 0


_MAPS = ("element_dim", "total_dim", "is_abelian", "_offsets", "_starts", "transpose_perm", "full_positions")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=40))
def test_shared_maps_equal_fresh_ones(dims):
    shared, fresh = mk_shape(dims), AlgebraShape(tuple(dims))
    assert shared == fresh and hash(shared) == hash(fresh)
    for name in _MAPS:
        assert np.array_equal(getattr(shared, name), getattr(fresh, name))
    assert len(shared.size_positions) == len(fresh.size_positions)
    for a, b in zip(shared.size_positions, fresh.size_positions):
        assert a[0] == b[0] and np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])


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
