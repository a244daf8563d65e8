"""Golden digests: samples pinned across commits, not only across reruns.

Each case runs ``build_sampler`` briefly and compares the SHA-256 of the
collected samples (``store.stacked().tobytes()``), the acceptance rate and the
gradient-evaluation count with constants recorded from an earlier commit.  A
refactor that claims byte-identical samples must pass this test unchanged.
``ONE_ROW_GOLDEN`` pins the same for data-free targets at N = 1 under each
batching strategy; their chains draw no mini-batch.  ``TEMPERED_GOLDEN`` pins
replica exchange around SGHMC, which no sampler name builds: the one swap that
keeps the move's state (the momentum) with its chain.  ``THINNED_ADAPTIVE_GOLDEN`` pins an
adaptive run with random thinning, whose plan weights every iteration alike.
``ADAPTIVE_SGGMC_GOLDEN`` pins dual averaging around the OBABO trajectory.
``DATA_PATH_GOLDEN`` pins a real one-row dataset (``gaussian_mean`` at N = 1),
which draws its batch stream like any dataset, and the Metropolis samplers on a
data-free target with N > 1, whose exact potential is the prior alone.
``TAIL_BATCH_GOLDEN`` pins every move under ``shuffle_in_epochs`` where N is no
multiple of the batch size, so that each epoch ends on a short batch.
``FILE_GOLDEN`` pins the bytes of the sample files that one ``sgmc run``
writes in each output format.

A change that deliberately alters the key stream (the documented
(seed, path) -> stream mapping) or the numerics (say, a model's
log-likelihood formula) changes these digests on purpose: such a change
regenerates the constants with ``python tests/test_golden.py`` and records
the old and new digests in CHANGES.md.  ``python tests/test_golden.py
--check`` prints only the entries that differ from the pinned constants and
exits 1 if any does, so a regeneration shows exactly what moved.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from sgmc.cli import main
from sgmc.core import RandomKey
from sgmc.data import STRATEGIES
from sgmc.models import get_model, synth_data_generate
from sgmc.scheduler import init_scheduler
from sgmc.solver import SGHMC, Solver, Tempering, build_sampler, run_mcmc

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
    'amagold': ('29cccf82c0e0e2715a8043abd856d4f93868ce575154dbc3296bb5a59a59ef14', 0.8433333333333334, 900),
    'amagold_target_accept': ('194ea9dd8220e1a88b07032673ff6839e50b006b8229e7f744f1bcf34a3e0891', 0.67, 900),
    'psgld': ('23caba593fccf30b68e39a9e634c2488f6ba0dc8d8d9cd25432b36a0ce7aa966', 1.0, 300),
    'resgld': ('4c4cd0254cbd055e7b03f5792f77ae30cc8b97025904e12b6dee1bf26d2329ef', 0.5, 600),
    'resgld_rms_prop': ('1c9afda7032ba0bf0d42520eecd38df03da70409a5b458e1ba2b86ed6b69472e', 0.6333333333333333, 600),
    'sggmc': ('159e3d8a62bbb628734dfabf8b750a18cadaeae0f6ffe708029495351d6f7049', 0.9066666666666666, 1200),
    'sghmc': ('796369c6c786c05deb8b14df8e109a9a7974b0cb7fee5be1c6f6eaaa2fd1c02c', 1.0, 300),
    'sgld_draw_replacement': ('5059b37eab07ce8851a0b824e54dcbdea71e51f99727a98289cfc7a3fce7ccdf', 1.0, 300),
    'sgld_rms_prop': ('c4ee2b1e701bdd60cd1fcd9d4cfbac4cf42661462dd29d3842ca3e44bf0a8630', 1.0, 300),
    'sgld_shuffle': ('f33c4d6d3c03a9742441f3719a1181dfc813c72584fe93fbf6f96690bcd7dfdf', 1.0, 300),
    'sgld_shuffle_in_epochs': ('de035931e214e92f972606e60ced6abccb28a74bf11ed16d1d63e9934b5b3d74', 1.0, 300),
}


# data-free targets at N = 1 and batch_size 1, which draw no batch under any strategy
ONE_ROW_CASES = {
    **{f"std_normal_sgld_{strategy}": ("std_normal", {"dim": 3}, "sgld",
                                       {"batch_strategy": strategy})
       for strategy in STRATEGIES},
    "mixture_1d_resgld": ("mixture_1d", {}, "resgld",
                          {"tau_high": 10.0, "swap_interval": 10, "step_size_first": 0.1,
                           "step_size_last": 0.05}),
}

ONE_ROW_GOLDEN = {
    'mixture_1d_resgld': ('db56e1b708543c92980615d64c9ed41fafb3dd719f1f91662879ce8f077e6a44', 0.5, 600),
    'std_normal_sgld_draw_replacement': ('3796af197dca52f412e248a739743f7029f2931f8100a7520e39537836a18cf9', 1.0, 300),
    'std_normal_sgld_shuffle': ('3796af197dca52f412e248a739743f7029f2931f8100a7520e39537836a18cf9', 1.0, 300),
    'std_normal_sgld_shuffle_in_epochs': ('3796af197dca52f412e248a739743f7029f2931f8100a7520e39537836a18cf9', 1.0, 300),
}


TEMPERED_GOLDEN = {
    'tempered_sghmc': ('c0dcbe9628b808ee29ecb6b5430d7d0493bdde1a6f74a71ef0119f518d7bfe5e', 0.7, 1200),
}


# dual averaging and random thinning in one run: the plan's weights are uniform
THINNED_ADAPTIVE_CASES = {
    "amagold_target_accept_thinned": ("amagold", {"leapfrog_steps": 3, "target_accept": 0.65,
                                                  "step_size_init": 0.05, "selections": 50}),
}

THINNED_ADAPTIVE_GOLDEN = {
    'amagold_target_accept_thinned': ('b3f9f87a24eeefe5504259d8870498523d4539db8ced2af5793574b72ddca0d9', 0.67, 900),
}


# dual averaging around the OBABO trajectory, through burn-in
ADAPTIVE_SGGMC_CASES = {
    "sggmc_target_accept": ("sggmc", {"obabo_steps": 2, "friction": 1.0, "target_accept": 0.65,
                                      "step_size_init": 0.05}),
}

ADAPTIVE_SGGMC_GOLDEN = {
    'sggmc_target_accept': ('4d9b4b946894eededdb247877ddaa993036b496e7049e0490eaedb98c33009ab', 0.6866666666666666, 1200),
}


# (model, model args, N, sampler, settings): one-row gaussian_mean under each
# strategy, and data-free std_normal rounds whose dataset has more than one row
DATA_PATH_CASES = {
    **{f"gaussian_mean_one_row_sgld_{strategy}": ("gaussian_mean", {}, 1, "sgld",
                                                  {"batch_strategy": strategy,
                                                   "batch_size": 1})
       for strategy in STRATEGIES},
    "std_normal_amagold": ("std_normal", {"dim": 3}, 5, "amagold",
                           {"leapfrog_steps": 3, "batch_size": 2, "step_size_first": 0.9,
                            "step_size_last": 0.6}),
    "std_normal_sggmc": ("std_normal", {"dim": 3}, 5, "sggmc",
                         {"obabo_steps": 2, "friction": 1.0, "batch_size": 2,
                          "step_size_first": 0.9, "step_size_last": 0.6}),
}

DATA_PATH_GOLDEN = {
    'gaussian_mean_one_row_sgld_draw_replacement': ('30d549cc6d29ec23983441b039ba79d947e2a643e836f5e691d911c24e40c1c6', 1.0, 300),
    'gaussian_mean_one_row_sgld_shuffle': ('30d549cc6d29ec23983441b039ba79d947e2a643e836f5e691d911c24e40c1c6', 1.0, 300),
    'gaussian_mean_one_row_sgld_shuffle_in_epochs': ('30d549cc6d29ec23983441b039ba79d947e2a643e836f5e691d911c24e40c1c6', 1.0, 300),
    'std_normal_amagold': ('0a6093057454f4b6a5848eaa9f53079c27854d55d4ff012e57f0e3fe343c77f5', 0.9366666666666666, 900),
    'std_normal_sggmc': ('d8effb73ca67c3d0323d1aa6404daba730fb4d394c86af601d4ca169dba71cbd', 0.9133333333333333, 1200),
}


# (model, model args, N, sampler, settings) under shuffle_in_epochs: logreg_2d at
# N = 60, b = 8 ends each epoch on 4 rows, the others at N = 61, b = 7 on 5 rows
TAIL_BATCH_CASES = {
    **{f"logreg_2d_{sampler}_tail": ("logreg_2d", {}, 60, sampler,
                                     dict(over, batch_strategy="shuffle_in_epochs"))
       for sampler, over in [
           ("amagold", {"leapfrog_steps": 3, "step_size_first": 0.05,
                        "step_size_last": 0.02}),
           ("sggmc", {"obabo_steps": 2, "friction": 1.0, "step_size_first": 0.05,
                      "step_size_last": 0.02}),
           ("sghmc", {"friction": 10.0}),
           ("psgld", {}),
           ("resgld", {"tau_high": 1.2, "swap_interval": 10})]},
    **{f"{model}_{sampler}_tail": (model, model_args, 61, sampler,
                                   dict(over, batch_strategy="shuffle_in_epochs",
                                        batch_size=7))
       for model, model_args, sampler, over in [
           ("linreg_sigma", {"n_weights": 3}, "sgld", {}),
           ("linreg_sigma", {"n_weights": 3}, "amagold", {"leapfrog_steps": 3}),
           ("mixture_1d", {}, "sgld", {}),
           ("gaussian_mean", {}, "sgld", {})]},
}

TAIL_BATCH_GOLDEN = {
    'gaussian_mean_sgld_tail': ('14df51b2d837acf06d7861f21b942c9c00b0b793fc8cd3af9c2297a6cd3e8d90', 1.0, 300),
    'linreg_sigma_amagold_tail': ('bb278ee0cb51f8ecba7a3a657e4eaa0ec0e791f8695b0c908ffee4b41275da70', 0.9166666666666666, 900),
    'linreg_sigma_sgld_tail': ('cf304dd3fadab61528daaed8c52a3ed0afe42244af85b62f21abf6c4d44b6ac1', 1.0, 300),
    'logreg_2d_amagold_tail': ('b1e543807da8aff2698099d6ab33ee0c44ed7010215f1c3e59129f2223498b5d', 0.88, 900),
    'logreg_2d_psgld_tail': ('87985cf6d452d3944ebba0887a6244d0548ccde66580637810c8df79b038f898', 1.0, 300),
    'logreg_2d_resgld_tail': ('8479d4065bb045f7299916a3c6edb587fdbc507bf4e8aa7eddffd83719211d55', 0.3, 600),
    'logreg_2d_sggmc_tail': ('0320cd1c71d4c7b618eb6f8ef808e75d6d45a71fe1b9d4c168f562a03e9ed2ac', 0.9133333333333333, 1200),
    'logreg_2d_sghmc_tail': ('888a98d1ad5187dde0b55d96d8c0f3da2cd5032442287817e09e21eb6fe25363', 1.0, 300),
    'mixture_1d_sgld_tail': ('4ac423cc09a49d4d66ac2edb03e71a4938236e0ba7fc5c7582838c09b5576113', 1.0, 300),
}


# a small 2-chain run of the 2-parameter logistic regression
FILE_RUN = {"model": "logreg_2d", "n_obs": 60, "sampler": "sgld", "iterations": 200,
            "burn_in": 50, "batch_size": 8, "seed": 11, "chains": 2,
            "step_size_first": 0.01, "step_size_last": 0.002}

# file name -> sha256 of its bytes
FILE_GOLDEN = {
    'samples_chain0.jsonl': '91cb2ca35bb7b3a9971da795793e1b137f06cc7c7621700ddbbdef78df3601d7',
    'samples_chain1.jsonl': 'c3b4fd264e26729f4cc370a0539668e0f4ede8e94e31d77a46c49932a702e3d7',
    'samples_chain0.csv': 'c230fbab7591ab19069f3ef12686ba0a6c4aac97e89354d1febedaeb38ea87ad',
    'samples_chain1.csv': 'cf30c2e20f98044be6e33f6f692565f6e0717ea0f91d89d0cbecab942f51da4d',
}


def _digest(result):
    digest = hashlib.sha256(result["store"].stacked().tobytes()).hexdigest()
    return digest, result["acceptance_rate"], result["gradient_evaluations"]


def _run(model, n_obs, sampler, over):
    dataset = synth_data_generate(model, RandomKey(11).child(0), n_obs)
    return _digest(build_sampler(sampler, dict(BASE, model=model, dataset=dataset,
                                               **over)).run()[0])


def run_case(name):
    if name == "tempered_sghmc":  # swap rate 0.7
        model = get_model("gaussian_mean")
        block = Tempering(SGHMC(friction=5.0), tau_high=1.05, swap_interval=5)
        solver = Solver(block, model.density, synth_data_generate(model, RandomKey(0), 50), 8)
        return _digest(run_mcmc(solver, init_scheduler(600, step_size=0.01), model.init,
                                key=RandomKey(3))[0])
    if name in DATA_PATH_CASES or name in TAIL_BATCH_CASES:
        model, model_args, n_obs, sampler, over = {**DATA_PATH_CASES, **TAIL_BATCH_CASES}[name]
        return _run(get_model(model, **model_args), n_obs, sampler, over)
    if name in ONE_ROW_CASES:
        model, model_args, sampler, over = ONE_ROW_CASES[name]
        return _run(get_model(model, **model_args), 1, sampler, dict(over, batch_size=1))
    sampler, over = {**CASES, **THINNED_ADAPTIVE_CASES, **ADAPTIVE_SGGMC_CASES}[name]
    return _run(get_model("logreg_2d"), 60, sampler, over)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert run_case(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(ONE_ROW_CASES))
def test_one_row_golden_digest(name):
    assert run_case(name) == ONE_ROW_GOLDEN[name]


def test_tempered_sghmc_golden_digest():
    assert run_case("tempered_sghmc") == TEMPERED_GOLDEN["tempered_sghmc"]


def test_thinned_adaptive_golden_digest():
    name = "amagold_target_accept_thinned"
    assert run_case(name) == THINNED_ADAPTIVE_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(ADAPTIVE_SGGMC_CASES))
def test_adaptive_sggmc_golden_digest(name):
    assert run_case(name) == ADAPTIVE_SGGMC_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(DATA_PATH_CASES))
def test_data_path_golden_digest(name):
    assert run_case(name) == DATA_PATH_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(TAIL_BATCH_CASES))
def test_tail_batch_golden_digest(name):
    assert run_case(name) == TAIL_BATCH_GOLDEN[name]


def file_digests(tmp: Path) -> dict:
    digests = {}
    for fmt in ("jsonl", "csv"):
        out = tmp / fmt
        config = tmp / f"{fmt}.json"
        config.write_text(json.dumps({**FILE_RUN, "format": fmt, "output": str(out)}))
        assert main(["run", "--config", str(config)]) == 0
        for path in sorted(out.glob("samples_chain*")):
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_golden_output_files(tmp_path):
    assert file_digests(tmp_path) == FILE_GOLDEN


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: python tests/test_golden.py [--check]")
    check = sys.argv[1:] == ["--check"]
    current = {case: run_case(case)
               for case in sorted(CASES) + sorted(ONE_ROW_CASES) + sorted(TEMPERED_GOLDEN)
               + sorted(THINNED_ADAPTIVE_CASES) + sorted(ADAPTIVE_SGGMC_CASES)
               + sorted(DATA_PATH_CASES) + sorted(TAIL_BATCH_CASES)}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        current.update(file_digests(Path(tmp)))
    pinned = {**GOLDEN, **ONE_ROW_GOLDEN, **TEMPERED_GOLDEN, **THINNED_ADAPTIVE_GOLDEN,
              **ADAPTIVE_SGGMC_GOLDEN, **DATA_PATH_GOLDEN, **TAIL_BATCH_GOLDEN, **FILE_GOLDEN}
    moved = {name: value for name, value in current.items() if value != pinned.get(name)}
    for name, value in (moved if check else current).items():
        print(f"    {name!r}: {value!r},")
    sys.exit(1 if check and moved else 0)
