"""Feasibility of first and second su(2) moments for a total spin j system."""

from .matcore import (
    hermitian_eig,
    hermitize,
    is_psd,
    kron,
    min_eigenvalue,
    partial_transpose_b,
)
from .spinalg import (
    MomentMatrix,
    SpinOperatorTriple,
    chi_matrix,
    extract_first_moments,
    moment_matrix,
    spin_operators,
    validate_algebra,
)
from .reduction import (
    RenormalizedCoords,
    moments_from_coords,
    ppt_inner_test,
    reconstruct_rho,
    reduction_operators,
    tau,
)
from .sdp import SdpSolution, phase1_min_t
from .feasibility import (
    Verdict,
    Witness,
    classify,
    exact_test_batch,
    exact_test_direct,
    exact_test_extension,
    first_moment_test,
)
from .scan import ScanResult, scan_grid

__version__ = "0.1.0"
