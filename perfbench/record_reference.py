#!/usr/bin/env python3
"""Record the correctness gate's reference values from the library entry points.

    python3 perfbench/record_reference.py [--workload NAME ...]

For every workload and each of the DATA_SEEDS dataset seeds, runs the library
call the workload stands for (``run_sigma_sweep``, ``run_ct_experiment``, the
``probe_rsc_quantile.py`` loop) at the paper size and stores the gated values
in ``reference.json``. Rerun it only when a change is meant to alter results,
and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    run.use_checkout_library()
    from workloads import DATA_SEEDS, PAPER_SEED, SIZES, WORKLOADS

    path = run.BENCH / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    reference["commit"] = run._git_commit()
    run.WORK.mkdir(exist_ok=True)
    for name in args.workload or run.WORKLOAD_NAMES:
        entries = {}
        for seed in range(PAPER_SEED, PAPER_SEED + DATA_SEEDS):
            with tempfile.TemporaryDirectory(dir=run.WORK) as out_dir:
                entries[str(seed)] = WORKLOADS[name].library(SIZES[name], seed, out_dir)
            print(name, seed, json.dumps(entries[str(seed)]), flush=True)
        reference[name] = entries
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
