"""Composable stochastic-gradient MCMC samplers with a CLI harness."""

from .core import RandomKey, named
from .data import BatchSpec, Dataset, MiniBatch, load_in_memory, next_batch
from .models import BuiltinModel, get_model, rwmh_oracle, synth_data_generate
from .potential import LogDensityModel, full_value, minibatch_value_grad, per_observation
from .scheduler import ScheduleItem, init_scheduler, polynomial_schedule, scheduler_next
from .solver import SamplerBundle, build_sampler, run_mcmc

__version__ = "0.1.0"

__all__ = [
    "RandomKey", "named",
    "Dataset", "MiniBatch", "BatchSpec", "load_in_memory", "next_batch",
    "LogDensityModel", "per_observation", "minibatch_value_grad", "full_value",
    "ScheduleItem", "polynomial_schedule", "init_scheduler", "scheduler_next",
    "build_sampler", "run_mcmc", "SamplerBundle",
    "BuiltinModel", "get_model", "synth_data_generate", "rwmh_oracle",
    "__version__",
]
