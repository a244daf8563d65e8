"""Exception types shared across the package, and the type check of a setting."""


class ConfigurationError(ValueError):
    """Invalid or incomplete sampler/run configuration; names the offending field."""

    def __init__(self, message, field=None):
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(message)
        self.field = field


def check_type(field: str, value, kinds: tuple):
    """Raise ConfigurationError naming ``field`` unless ``value`` is one of ``kinds``:
    a bool passes only for bool, an int also for float."""
    allowed = kinds + (int,) if float in kinds else kinds
    if (isinstance(value, bool) and bool not in kinds) or not isinstance(value, allowed):
        names = " | ".join("None" if kind is type(None) else kind.__name__ for kind in kinds)
        raise ConfigurationError(f"expected {names}, got {value!r}", field=field)


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
