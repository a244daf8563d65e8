"""The benchmark's hook table still reaches the solver.

``perfbench/trace.py`` wraps the module attributes it names, so a transition
that is renamed, or called without going through its module attribute, drops
out of the per-layer figures without an error.  This test reads the hook
table and edits nothing in ``perfbench``.  Run it from the repository root
(``python -m pytest``), where ``perfbench`` is importable.
"""

from perfbench.trace import HOOKS, Tracer

from sgmc.core import RandomKey
from sgmc.models import get_model, synth_data_generate
from sgmc.solver import build_sampler

KNOBS = {"sgld": {}, "psgld": {}, "sghmc": {"friction": 1.0},
         "amagold": {"leapfrog_steps": 2}, "sggmc": {"obabo_steps": 2},
         "resgld": {"tau_high": 3.0, "swap_interval": 2}}


def test_every_solver_hook_records_spans():
    model = get_model("gaussian_mean")
    dataset = synth_data_generate(model, RandomKey(0), 20)
    with Tracer() as tracer:
        for name, knobs in KNOBS.items():
            build_sampler(name, dict(model=model, dataset=dataset, iterations=5,
                                     batch_size=4, seed=1, step_size_first=0.01,
                                     step_size_last=0.005, **knobs)).run()
    # the function behind this hook was deleted; the table still lists it
    assert tracer.unavailable == ["sgmc.data.sequential_batches"]
    reached = {span.name for span in tracer.spans}
    solver_hooks = [attr for module, attr, _, _ in HOOKS if module == "sgmc.solver"]
    for hook in ("sgmc_update", "amagold_round", "sggmc_round", "resgld_step",
                 "resgld_swap"):
        assert hook in solver_hooks
    assert [hook for hook in solver_hooks if hook not in reached] == []
