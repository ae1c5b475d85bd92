"""Finite-dimensional W*-algebras with normal states, state-preserving CPU
channels, GNS quotients with their induced contractions, covariance products,
and Riemannian metric pullbacks for statistical models."""

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    InputError,
    ShapeError,
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
from .states import (
    NormalState,
    StateValidationError,
    evaluate,
    is_faithful,
    mk_state,
    random_state,
    random_tracial_state,
    support,
)
from .channels import (
    ChannelValidationError,
    CongruentEmbedding,
    CpuMap,
    MorphismValidationError,
    NcpMorphism,
    apply,
    choi,
    compose,
    congruent_embedding,
    from_kraus,
    from_linear,
    identity_map,
    identity_morphism,
    is_cp,
    is_unital,
    left_inverse,
    markov_from_stochastic,
    min_choi_eig,
    mk_morphism,
    predual,
    random_cpu_map,
    transpose_map,
)
from .gns import (
    GnsContraction,
    GnsQuotientError,
    GnsSpace,
    build_gns,
    check_functor_laws,
    embed,
    induced_contraction,
)
from .covariance import (
    KMB,
    ONE,
    RLD,
    SLD,
    WY,
    CovarianceGram,
    OperatorMonotoneFunction,
    UnsupportedKindError,
    covariance_gram,
    kind_catalog,
    kind_from_name,
    monotonicity_check,
    omf_catalog,
    petz_kind,
    tracial_collapse_check,
)
from .models import (
    GroupActionModel,
    ModelDomainError,
    ScoreNotRepresentableError,
    StatModel,
    affine_compose,
    affine_pushforward_check,
    congruence_invariance_check,
    embedded_model,
    finite_difference,
    gaussian_group_model,
    gaussian_model,
    metric_pullback,
    qubit_faithful_model,
    qubit_pure_model,
    riesz_score,
    simplex_model,
)

__version__ = "0.1.0"


def _keep_freed_heap() -> None:
    """Let glibc's malloc keep freed heap in the process instead of returning
    it to the kernel after every verdict: a fixed mmap threshold of 32 MiB
    (glibc's own ceiling for its dynamic threshold on 64-bit) and a trim
    threshold of 64 MiB, so that a steady loop of matrix verdicts, whose
    n^2 x n^2 temporaries glibc would otherwise trim and fault back in, stops
    page-faulting.  Up to 64 MiB of freed heap may stay resident.  Does
    nothing off glibc, or when the environment sets either threshold itself
    (``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_``, or the same
    tunables in ``GLIBC_TUNABLES``): the user's setting wins."""
    import ctypes  # already imported by numpy
    import os

    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"} & os.environ.keys() or any(
        f"malloc.{name}_threshold" in tunables for name in ("mmap", "trim")
    ):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_heap()
