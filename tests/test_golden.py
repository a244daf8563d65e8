"""Golden digests: samples pinned across commits, not only across reruns.

Each case runs ``build_sampler`` briefly and compares the SHA-256 of the
collected samples (``store.stacked().tobytes()``), the acceptance rate and the
gradient-evaluation count with constants recorded from an earlier commit.  A
refactor that claims byte-identical samples must pass this test unchanged.

A change that deliberately alters the key stream (the documented
(seed, path) -> stream mapping) changes these digests on purpose: such a
change regenerates the constants with ``python tests/test_golden.py`` and
records the update in CHANGES.md.
"""

import hashlib

import pytest

from sgmc.core import RandomKey
from sgmc.models import get_model, synth_data_generate
from sgmc.solver import build_sampler

BASE = dict(iterations=300, burn_in=100, batch_size=8, seed=11,
            step_size_first=0.01, step_size_last=0.002)

CASES = {
    "sgld_draw_replacement": ("sgld", {"batch_strategy": "draw_replacement"}),
    "sgld_shuffle": ("sgld", {"batch_strategy": "shuffle"}),
    "sgld_shuffle_in_epochs": ("sgld", {"batch_strategy": "shuffle_in_epochs"}),
    "psgld": ("psgld", {"selections": 50}),
    "sghmc": ("sghmc", {"friction": 10.0}),
    "amagold": ("amagold", {"leapfrog_steps": 3, "step_size_first": 0.05,
                            "step_size_last": 0.02}),
    "amagold_target_accept": ("amagold", {"leapfrog_steps": 3, "target_accept": 0.65,
                                          "step_size_init": 0.05}),
    "sggmc": ("sggmc", {"obabo_steps": 2, "friction": 1.0, "step_size_first": 0.05,
                        "step_size_last": 0.02}),
    "resgld": ("resgld", {"tau_high": 1.2, "swap_interval": 10,
                          "hot_step_factor": 2.0}),
    "resgld_rms_prop": ("resgld", {"tau_high": 1.2, "swap_interval": 10,
                                   "rms_prop": True}),
    "sgld_rms_prop": ("sgld", {"rms_prop": True, "rms_alpha": 0.9}),
}

# (sha256 of the stacked samples, acceptance rate, gradient evaluations)
GOLDEN = {
    'amagold': ('3b136020255c697efcfee4484c254ea575407b5b0b0a1f471ce25103677ed272', 0.8033333333333333, 900),
    'amagold_target_accept': ('c35b2838a7bb9b5a8e2d9255ce2edf7bfad4d3d6a6f239b766056d0ab366cbbe', 0.65, 900),
    'psgld': ('677a79a0eafbbf1d3a0fb486d9c76ab9a1bdc2e7e07561e07d5c56518e3c94f0', 1.0, 300),
    'resgld': ('8323b92d4cbc044ee4d0f6bb0b825cc1dc2f806ddfb060e828f009e1b5c1151a', 0.5, 600),
    'resgld_rms_prop': ('220628b2c5f3764c0a0b8f5f8a600111f744353168bd1e6867581b534a731b5b', 0.7, 600),
    'sggmc': ('9a8ac92b5d37a8f4eafac56fed633e76174c22a3cbef1f8113f2450261722fb8', 0.9033333333333333, 1200),
    'sghmc': ('baa963debf50cd8e2e122cf3ef128e21b8d5467cd4a2bdf2a411636c1a35bb31', 1.0, 300),
    'sgld_draw_replacement': ('af84f20417b75ca4dfa1ddd6b7d9782306e92a0e959f6cc262f7fd0337b26da6', 1.0, 300),
    'sgld_rms_prop': ('81e260c89d5b9c6407950686a1d533f186a2c2548eb8c95d0ddcae5dcfc1d380', 1.0, 300),
    'sgld_shuffle': ('598a47e3fc3b58693f97e7a57644a226d44f9dc2c585f46471ac71df102c0c7c', 1.0, 300),
    'sgld_shuffle_in_epochs': ('888636fa10376c9ec00684c28a69d4aed7c58f08688636f6ec4cda927329f531', 1.0, 300),
}


def run_case(name):
    sampler, over = CASES[name]
    model = get_model("logreg_2d")
    dataset = synth_data_generate(model, RandomKey(11).child(0), 60)
    cfg = dict(BASE, model=model, dataset=dataset, **over)
    result = build_sampler(sampler, cfg).run()[0]
    digest = hashlib.sha256(result["store"].stacked().tobytes()).hexdigest()
    return digest, result["acceptance_rate"], result["gradient_evaluations"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert run_case(name) == GOLDEN[name]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}: {run_case(case)!r},")
