"""Import-time cost: ``import ncplab`` and ``import ncplab.cli`` load only
what every command needs.  scipy.sparse (about 15 ms and 1.6 MB) is
imported where a Markov map is built, on the first such map; scipy.special
(about 200 ms, with numpy.testing and unittest behind it) where a binned
Gaussian model is built; scipy.linalg (36-53 ms and about 6.3 MB of peak
resident memory) is not imported by the package at all, not even by a
verdict."""

from conftest import fresh


def test_scipy_sparse_not_loaded_by_import():
    out = fresh(
        "import sys, ncplab, ncplab.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
        "ncplab.congruent_embedding([0, 0], [0.5, 0.5])\n"
        "print('scipy.sparse' in sys.modules)\n"
    )
    assert out[0] == "[]"
    assert out[1] == "True"


def test_scipy_special_not_loaded_by_import():
    out = fresh(
        "import sys, ncplab, ncplab.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.special', 'unittest'))))\n"
        "ncplab.gaussian_model(8, -1.0, 1.0)\n"
        "print('scipy.special' in sys.modules)\n"
    )
    assert out[0] == "[]"
    assert out[1] == "True"


def test_scipy_linalg_not_loaded_by_import():
    out = fresh(
        "import sys, ncplab, ncplab.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
    )
    assert out[0] == "[]"


def test_scipy_linalg_not_loaded_by_verdicts():
    # a matrix monotonicity verdict (its Cholesky certificate and whitening)
    # and a Markov CP test run on numpy and scipy.sparse alone
    out = fresh(
        "import sys, ncplab, ncplab.cli\n"
        "shape = ncplab.mk_shape([2, 3])\n"
        "phi = ncplab.random_cpu_map(shape, shape, seed=1, mix_trace=0.1)\n"
        "rho = ncplab.random_state(shape, faithful=True, seed=2)\n"
        "m = ncplab.mk_morphism((shape, rho), (shape, ncplab.predual(phi, rho)), phi)\n"
        "print(ncplab.monotonicity_check(ncplab.SLD, m)['passed'])\n"
        "print(ncplab.is_cp(ncplab.markov_from_stochastic([[0.25, 1.0], [0.75, 0.0]])))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
    )
    assert out[:3] == ["True", "True", "[]"]
