"""Exception types shared across the package, and the checks of a setting."""

import functools
import inspect
import typing


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


@functools.cache
def parameters(fn) -> dict:
    """``fn``'s parameters by name, annotations evaluated; parsed once per callable."""
    return dict(inspect.signature(fn, eval_str=True).parameters)


def check_kwargs(owner: str, fn, values: dict):
    """Raise ConfigurationError naming the field unless ``fn`` takes ``values`` as
    keyword arguments: each name a parameter, each value of its annotated type by
    :func:`check_type` (None only where that allows it), every required one given."""
    params = parameters(fn)
    for name, value in values.items():
        if name not in params:
            raise ConfigurationError(f"{owner} takes no such setting", field=name)
        kind = params[name].annotation
        check_type(name, value, typing.get_args(kind) or (kind,))
    for name, param in params.items():
        if param.default is param.empty and name not in values:
            raise ConfigurationError(f"{owner} requires a value", field=name)


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
