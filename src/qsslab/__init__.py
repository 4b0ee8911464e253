"""Quasi-stationary states of finite-dimensional quantum Markov semigroups."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    ModelSpec,
    apply_semigroup,
    build_generator,
    two_qubit_both,
    two_qubit_site1,
)
from .operators import (  # noqa: F401
    adjoint,
    devectorize,
    eig_general,
    psd_check,
    vectorize,
)
from .qss import (  # noqa: F401
    QssCertificate,
    QssFamily,
    extract_qss,
    perron_structure,
    verify_qss,
)
from .structure import (  # noqa: F401
    absorption_operator,
    check_irreducible,
    check_subharmonic,
    restrict,
)
from .trajectory import build_kernel, jump_statistics, sample_trajectories  # noqa: F401
from .classical import RateMatrix, classical_qsd, crosscheck, embed  # noqa: F401
