"""heisenbath: Heisenberg-picture dynamics of finite-dimensional open quantum systems.

Image-operator families carry the complete Heisenberg information of a
system observable; this package evolves them exactly, expands them
perturbatively in the system-bath coupling through time-ordered kernels and
super-operators, deforms the operator product to reproduce multi-time
correlations from one-point data, and takes the Markovian limit to an
adjoint Lindblad-form generator.  Every perturbative path is checked
against an embedded exact brute-force oracle.
"""

from .spaces import (
    Constants,
    OperatorMatrix,
    TimeGrid,
    full_operator,
    system_operator,
    weighted_bath_trace,
)
from .model import ModelSpec, make_model
from .oracle import (
    evolve_exact,
    heisenberg_evolve_exact,
    npoint_reduced_exact,
)
from .images import (
    ImageFamily,
    contract_with_bath,
    evolve_images_exact,
    to_image_family,
)
from .dyson import (
    InteractionFrame,
    KernelSet,
    compute_kernels,
    dyson_propagator,
)
from .superop import (
    OnePointTrajectory,
    SeriesTruncation,
    image_from_one_point,
    one_point_operator,
    star_product,
)
from .npoint import (
    decompose_3pt,
    expand_image_by_partitions,
    irreducible_2pt,
)
from .markov import (
    BohrDecomposition,
    InteractionDecomposition,
    MarkovReport,
    SpectralCoefficients,
    bohr_decomposition,
    check_markov_assumptions,
    decompose_interaction,
    evolve_lindblad,
    lindblad_generator,
    lindblad_rhs,
    spectral_coefficients,
)
from .presets import PRESETS, dephasing_bath, two_qubit

__version__ = "0.1.0"

# Every path is NumPy; the name stays for provenance records.
BACKEND = "python"
