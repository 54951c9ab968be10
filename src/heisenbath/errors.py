"""Exception hierarchy shared by all heisenbath modules."""


class HeisenbathError(Exception):
    """Base class for all package errors."""


class DimensionError(HeisenbathError):
    """Operands live on incompatible spaces or have mismatched sizes."""


class NonHermitianInput(HeisenbathError):
    """A Hamiltonian (or other operator required to be hermitian) is not."""


class InvalidDensityMatrix(HeisenbathError):
    """Density matrix fails hermiticity, unit trace or positivity checks."""


class IndexOutOfRange(HeisenbathError):
    """Bath index outside [0, d_B)."""


class OrderExceedsKernels(HeisenbathError):
    """A series operation requested an order beyond the computed kernels."""


class NonConvergent(HeisenbathError):
    """A half-line integral did not converge within the requested horizon."""


class ParseError(HeisenbathError):
    """Experiment configuration file could not be parsed."""


class ValidationError(HeisenbathError):
    """Experiment configuration parsed but failed validation."""
