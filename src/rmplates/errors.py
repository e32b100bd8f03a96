"""Exception types shared across the package."""


class UnsupportedConfigurationError(ValueError):
    """A mesh/space/boundary-condition combination the package does not build."""


class UnsupportedLimitError(ValueError):
    """Boundary-condition family without a standard biharmonic limit."""


class SingularSystemError(RuntimeError):
    """Factorization of a singular (unshifted) system was attempted."""


class AssemblyError(RuntimeError):
    """Density evaluation failed; carries the offending element index."""

    def __init__(self, element: int, message: str):
        super().__init__(f"element {element}: {message}")
        self.element = element


class ConvergenceError(RuntimeError):
    """The eigensolver ran out of iterations, or returned a pair whose
    residual misses its tol and whose backward error exceeds
    `eigensolve.BACKWARD_ERROR`; the computed pairs are attached as `partial`."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
