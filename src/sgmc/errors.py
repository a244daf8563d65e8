"""Exception types shared across the package."""


class LayoutError(ValueError):
    """Parameter layout mismatch (wrong length, wrong names, drifting shapes)."""


class ConfigurationError(ValueError):
    """Invalid or incomplete sampler/run configuration; names the offending field."""

    def __init__(self, message, field=None):
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(message)
        self.field = field


class NumericError(ArithmeticError):
    """A numerical quantity became non-finite."""


class ChainError(RuntimeError):
    """A Markov chain failed mid-run; carries the iteration and partial results.

    ``results``, set by ``run_mcmc``, holds every chain's result in order.
    """

    def __init__(self, message, iteration=None, partial=None):
        if iteration is not None:
            message = f"{message} (iteration {iteration})"
        super().__init__(message)
        self.iteration = iteration
        self.partial = partial
        self.results = None


class StoreError(ValueError):
    """Sample store misuse (layout drift between collected samples)."""
