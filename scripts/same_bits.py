#!/usr/bin/env python3
"""Compare the output files of this checkout with those of another revision.

    python scripts/same_bits.py REV

Extracts REV with `git archive` into a temporary directory, removed
afterwards, and runs on both source trees, with NCADMM_SEQUENTIAL=1 so that
the timing columns are zero:

- `ncadmm run --experiment ct --iters 20`;
- `ncadmm run --experiment quantile --iters 30`;
- `scripts/probe_rsc_quantile.py --iters 3000 --seed 20240802`.

Both trees write under the same relative output paths, so even the
manifests' `out` fields agree and every output file is compared byte for
byte. For each file that differs it prints, per numeric column, the largest
relative change; a column is a CSV header field, a JSON path, or else a
whitespace-separated position on the line. The checkout's files are taken
as they are in its work tree, uncommitted edits included. Exits 0 when
nothing differs and 1 otherwise.
"""

import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = [
    ["-m", "ncadmm", "run", "--experiment", "ct", "--iters", "20", "--out", "ct"],
    ["-m", "ncadmm", "run", "--experiment", "quantile", "--iters", "30", "--out", "quantile"],
    [
        "scripts/probe_rsc_quantile.py", "--iters", "3000", "--seed", "20240802",
        "--out", "probe/rsc_probe_report.csv",
    ],
]


def extract(rev: str, dest: str) -> None:
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_outputs(tree: str, out: str) -> None:
    """Every run of RUNS on the source tree `tree`, writing under `out`."""
    env = dict(os.environ, NCADMM_SEQUENTIAL="1", PYTHONPATH=os.path.join(tree, "src"))
    os.makedirs(os.path.join(out, "probe"))
    for args in RUNS:
        if args[0].endswith(".py"):
            args = [os.path.join(tree, args[0])] + args[1:]
        subprocess.run([sys.executable] + args, cwd=out, env=env, check=True, capture_output=True)


def files(top: str) -> set:
    return {
        os.path.relpath(os.path.join(d, name), top) for d, _, names in os.walk(top) for name in names
    }


def _leaves(value, path=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, json.dumps(value)


def columns(path: str) -> dict:
    """The file's values as named columns of text tokens."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        return {name: [token] for name, token in _leaves(json.loads(text))}
    lines = text.splitlines()
    if path.endswith(".csv"):
        header = lines[0].split(",")
        cols = {name: [] for name in header}
        for line in lines[1:]:
            for name, token in zip(header, line.split(",")):
                cols[name].append(token)
        return cols
    cols = {}
    for line in lines:
        for k, token in enumerate(line.split()):
            cols.setdefault(f"field {k + 1}", []).append(token)
    return cols


def relative_change(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    scale = max(abs(x), abs(y))
    return math.inf if not math.isfinite(scale) else abs(x - y) / scale


def describe(rev_path: str, work_path: str) -> list:
    """One line per column that differs between the two files."""
    old, new = columns(rev_path), columns(work_path)
    lines = []
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name), new.get(name)
        if a == b:
            continue
        if a is None or b is None or len(a) != len(b):
            lines.append(f"    {name}: missing on one side, or of another length")
            continue
        try:
            worst = max(relative_change(x, y) for x, y in zip(a, b))
        except ValueError:
            lines.append(f"    {name}: text differs")
            continue
        lines.append(f"    {name}: largest relative change {worst:.3g}")
    return lines


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rev = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="same_bits_") as tmp:
        tree = os.path.join(tmp, "tree")
        extract(rev, tree)
        outs = {"rev": os.path.join(tmp, "out_rev"), "work": os.path.join(tmp, "out_work")}
        run_outputs(tree, outs["rev"])
        run_outputs(ROOT, outs["work"])
        rev_files, work_files = files(outs["rev"]), files(outs["work"])
        same, report = 0, []
        for name in sorted(rev_files | work_files):
            if name not in work_files or name not in rev_files:
                report.append(f"only at {'REV' if name in rev_files else 'the checkout'}: {name}")
                continue
            rev_path, work_path = (os.path.join(outs[k], name) for k in ("rev", "work"))
            with open(rev_path, "rb") as a, open(work_path, "rb") as b:
                if a.read() == b.read():
                    same += 1
                    continue
            report += [f"differs: {name}"] + describe(rev_path, work_path)
    print(f"{rev} against the checkout: {same} of {len(rev_files | work_files)} files the same")
    for line in report:
        print(line)
    return 1 if report else 0


if __name__ == "__main__":
    raise SystemExit(main())
