#!/usr/bin/env python3
"""Conjugate-recovery experiment: SGLD on the normal-location model.

Runs the ``gaussian`` preset, then compares the mean and standard deviation
(ddof=1) of the kept samples, pooled unweighted over the chains whose status
is "ok", against the closed-form posterior (``sgmc compare --reference analytic``).
"""

import argparse
import sys

from sgmc.cli import main as cli_main


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="runs/gaussian")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    run_argv = ["run", "--demo", "gaussian", "--output", args.output]
    if args.seed is not None:
        run_argv += ["--seed", str(args.seed)]
    code = cli_main(run_argv)
    if code != 0:
        return code
    return cli_main(["compare", "--run", args.output, "--reference", "analytic"])


if __name__ == "__main__":
    sys.exit(main())
