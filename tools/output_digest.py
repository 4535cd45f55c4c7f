"""Print one digest line per daflow CLI command, to compare two source trees.

Run from the repository root, once per source tree, and compare the two:

    python3 tools/output_digest.py --src src --seeds 1,2,3 > change.txt
    python3 tools/output_digest.py --src ../parent/src --seeds 1,2,3 > parent.txt
    diff parent.txt change.txt

The commands are every call of every job in the four benchmark workloads,
built by ``perfbench/jobs.py``'s ``make_jobs`` at each seed (``--tiny`` takes
its small sizes), then ``EDGE_COMMANDS``, which share a directory that holds
``EDGE_FILES``. Each runs in-process through ``daflow.cli.main``, imported
from ``--src``, with the working directory set to a fresh temporary
directory; an exception that escapes ``main`` prints its traceback to stderr
and counts as exit 1, as it would from a shell. A line holds the command's
label, its exit code, the sha256 of its stdout and of its stderr, with the
temporary directory and the source path replaced by placeholders, and the
sha256 over the names and bytes of the files the command wrote or changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("converge", "certify", "sample", "wide")

# the README commands, retention modes, degenerate grid shapes, pinned checks
# (lemma3 at n = 0 among them, whose two listed times repeat), a step-budget
# stop, a wide run, targets that need redraws or hold subnormal cells, a
# target file with zero cells, verify selections that read the target alone
# (balance and reconstruction), with the start refusals they still make, and
# refusals (among them a zero-step sample over its budget, sweeps whose grid
# is empty, one of them listed after a family that could run, and an lsc
# pinned past the final state), a cauchy
# scan over 1,000 retained times, lemma3 and cauchy stacks of 1,600-entry
# rows too large for one pass of the exact row sums, lemma1, lemma3 and
# cauchy on a banded 40x40 target whose 150 retained times span several tiles
# of the pair sweeps, a run on that target whose stop falls inside a block of
# half-steps, exported as CSV and as JSON, budget stops of 1,025 and 1,026
# records on each side of the table writer's 1,024-row chunk edge, as CSV and
# as JSON, lemma3 blocks of 990 and 1,035 reports on each side of that edge
# in the verify JSON, refusals of gamma draws whose total overflows, of an
# infinite eps and of the hostile files of EDGE_FILES, as a target and as
# p0, density files of one cell, one row and one column, written a row at a
# time, and a density file of concentration 0.02 whose weights take fixed
# notation and two- and three-digit exponents, some too small for the float
# kernel
EDGE_COMMANDS = {
    "readme-gen": ("gen", "--nx", "4", "--ny", "5", "--seed", "7", "--out", "target.json"),
    "readme-run": ("run", "--target", "target.json", "--p0", "uniform", "--out-prefix", "demo"),
    "readme-run-json": ("run", "--target", "target.json", "--format", "json", "--out-prefix", "demo"),
    "readme-verify": ("verify", "--gen", "5,5,3", "--out-prefix", "demo"),
    "readme-sample": ("sample", "--gen", "3,3,9", "--replicas", "20000", "--seed", "5", "--times", "0,2,10"),
    "retain-thin": ("run", "--gen", "6,6,2", "--retain", "thin:3", "--out-prefix", "thin"),
    "verify-thin": ("verify", "--gen", "6,6,2", "--retain", "thin:3", "--checks", "lemma3,cauchy,lsc", "--out-prefix", "thin"),
    "retain-none": ("run", "--gen", "30,30,4", "--retain", "none", "--out-prefix", "none"),
    "grid-6x1": ("run", "--gen", "6,1,3", "--p0", "random:2", "--format", "json", "--out-prefix", "g61"),
    "grid-1x6": ("verify", "--gen", "1,6,3", "--out-prefix", "g16"),
    "pinned-lemma1": ("verify", "--gen", "5,5,3", "--checks", "lemma1", "--t", "3", "--out-prefix", "pin1"),
    "pinned-lemma2": ("verify", "--gen", "5,5,3", "--checks", "lemma2", "--t", "2", "--n", "4", "--out-prefix", "pin2"),
    "pinned-lsc": ("verify", "--gen", "5,5,3", "--checks", "lsc", "--t", "2", "--out-prefix", "pinl"),
    "pinned-lemma3": ("verify", "--gen", "5,5,3", "--checks", "lemma3", "--t", "2", "--n", "3", "--out-prefix", "pin3"),
    "pinned-lemma3-n0": (
        "verify", "--gen", "5,5,3", "--checks", "lemma3", "--t", "2", "--n", "0", "--out-prefix", "pin30",
    ),
    "maxiters-1x5": ("run", "--gen", "1,5,3", "--p0", "random:4", "--eps", "1e-16", "--max-steps", "200", "--out-prefix", "m15"),
    "wide-run": ("run", "--gen", "200,200,1", "--p0", "degenerate:0,0", "--out-prefix", "w200"),
    "redraw-4x4": ("run", "--gen", "4,4,1,0.001", "--max-steps", "50", "--out-prefix", "r44"),
    "subnormal-6x6": ("run", "--gen", "6,6,1,0.002", "--max-steps", "50", "--out-prefix", "r66"),
    "zero-run-uniform": ("run", "--target", "zero.json", "--p0", "uniform", "--out-prefix", "z0"),
    "zero-run-degenerate": ("run", "--target", "zero.json", "--p0", "degenerate:0,0", "--out-prefix", "z1"),
    "zero-verify-balance": ("verify", "--target", "zero.json", "--checks", "balance", "--out-prefix", "z2"),
    "zero-sample": ("sample", "--target", "zero.json"),
    "target-only-verify": (
        "verify", "--target", "target.json", "--checks", "balance,reconstruction", "--out-prefix", "tonly",
    ),
    "zero-verify-reconstruction-degenerate": (
        "verify", "--target", "zero.json", "--p0", "degenerate:0,0", "--checks", "reconstruction",
    ),
    "target-only-eps-zero": ("verify", "--target", "target.json", "--checks", "balance", "--eps", "0"),
    "refuse-1x1": ("run", "--gen", "1,1,1,1e-300"),
    "refuse-10x10": ("run", "--gen", "10,10,1,0.001"),
    "refuse-seed": ("gen", "--nx", "2", "--ny", "2", "--seed", "-5", "--out", "x.json"),
    "refuse-repeated-checks": ("verify", "--gen", "4,4,1", "--checks", "balance,balance"),
    "not-retained-2000": (
        "verify", "--gen", "1,5,3", "--p0", "random:4", "--eps", "1e-16", "--max-steps", "2000",
        "--checks", "lemma3", "--t", "1", "--n", "5000",
    ),
    "not-retained-thin": (
        "verify", "--gen", "1,5,3", "--p0", "random:4", "--eps", "1e-16", "--max-steps", "2000",
        "--retain", "thin:7", "--checks", "lemma3", "--t", "1", "--n", "3",
    ),
    "not-retained-thin-latest": (
        "verify", "--gen", "1,5,3", "--p0", "random:4", "--eps", "1e-16", "--max-steps", "2000",
        "--retain", "thin:7", "--checks", "lemma3", "--t", "7", "--n", "3",
    ),
    "pinned-none-lemma3": (
        "verify", "--gen", "1,5,3", "--p0", "random:4", "--eps", "1e-16", "--max-steps", "2000",
        "--retain", "none", "--checks", "lemma3", "--t", "1", "--n", "2",
    ),
    "pinned-thin-lemma1": (
        "verify", "--gen", "1,5,3", "--p0", "random:4", "--eps", "1e-16", "--max-steps", "2000",
        "--retain", "thin:7", "--checks", "lemma1", "--t", "1",
    ),
    "pinned-lsc-negative": ("verify", "--gen", "6,6,1", "--checks", "lsc", "--t", "-1"),
    "pinned-lsc-past-final": ("verify", "--gen", "3,3,1", "--checks", "lsc", "--t", "500"),
    "sample-zero-steps-budget": ("sample", "--gen", "2,2,1", "--replicas", "10", "--times", "0", "--budget", "5"),
    "empty-grid-lemma1": (
        "verify", "--gen", "4,4,1", "--eps", "1e-12", "--retain", "thin:1000", "--checks", "lemma1",
    ),
    "empty-grid-lemma3-after-lemma1": (
        "verify", "--gen", "6,1,3", "--checks", "lemma1,lemma3", "--eps", "1e-300", "--max-steps", "8",
    ),
    "verify-cauchy-long": (
        "verify", "--gen", "1,5,3", "--p0", "random:4", "--checks", "cauchy", "--max-steps", "1000",
        "--out-prefix", "cyl",
    ),
    "verify-stacks-40x40": ("verify", "--gen", "40,40,1", "--checks", "lemma3,cauchy", "--max-steps", "60"),
    "verify-tiles-banded-40x40": (
        "verify", "--target", "b40.json", "--p0", "degenerate:0,39", "--checks", "lemma1,lemma3,cauchy",
        "--eps", "1e-15", "--max-steps", "150", "--out-prefix", "b40",
    ),
    "run-banded-40-csv": (
        "run", "--target", "b40.json", "--p0", "degenerate:0,39", "--eps", "1e-10", "--out-prefix", "rb40",
    ),
    "run-banded-40-json": (
        "run", "--target", "b40.json", "--p0", "degenerate:0,39", "--eps", "1e-10", "--format", "json",
        "--out-prefix", "rb40",
    ),
    **{
        f"run-chunk-edge-{steps}-{fmt}": (
            "run", "--gen", "1,5,3", "--p0", "random:4", "--eps", "1e-300", "--max-steps", str(steps),
            "--format", fmt, "--out-prefix", f"ce{steps}",
        )
        for steps in (1024, 1025)
        for fmt in ("csv", "json")
    },
    **{
        f"verify-chunk-edge-{steps}": (
            "verify", "--gen", "1,5,3", "--p0", "random:4", "--checks", "lemma3", "--eps", "1e-300",
            "--max-steps", str(steps), "--out-prefix", f"vce{steps}",
        )
        for steps in (45, 46)
    },
    "refuse-conc-overflow-run": ("run", "--gen", "2,2,1,1e308"),
    "refuse-conc-overflow-100x100": ("run", "--gen", "100,100,1,1e305"),
    "refuse-conc-overflow-verify": ("verify", "--gen", "3,3,1,1e308"),
    "refuse-conc-overflow-gen": ("gen", "--nx", "2", "--ny", "2", "--seed", "1", "--conc", "1e308", "--out", "g.json"),
    "refuse-eps-inf": ("run", "--gen", "2,2,1", "--eps", "inf"),
    "refuse-huge-int-target": ("run", "--target", "huge_int.json"),
    "refuse-huge-int-p0": ("run", "--gen", "1,2,1", "--p0", "file:huge_int.json"),
    "refuse-nested-target": ("run", "--target", "nested.json"),
    "refuse-nested-p0": ("run", "--gen", "1,2,1", "--p0", "file:nested.json"),
    "refuse-bool-target": ("run", "--target", "bool_entries.json"),
    "refuse-bool-p0": ("run", "--gen", "1,2,1", "--p0", "file:bool_entries.json"),
    "refuse-string-target": ("run", "--target", "string_entries.json"),
    "refuse-string-p0": ("run", "--gen", "1,2,1", "--p0", "file:string_entries.json"),
    **{
        f"gen-{nx}x{ny}": ("gen", "--nx", str(nx), "--ny", str(ny), "--seed", "3", "--out", f"g{nx}x{ny}.json")
        for nx, ny in ((1, 1), (1, 2000), (2000, 1))
    },
    "gen-spread-30x30": ("gen", "--nx", "30", "--ny", "30", "--seed", "3", "--conc", "0.02", "--out", "spread.json"),
}



def banded_target_json(n: int, beta: float) -> str:
    """The seeded banded target with weights proportional to
    exp(-beta |i - j| + 0.1 z[i, j]), as tools/bench_layers.py draws it."""
    rng = np.random.default_rng(n)
    i = np.arange(n)
    w = np.exp(-beta * np.abs(i[:, None] - i[None, :]) + 0.1 * rng.standard_normal((n, n)))
    return json.dumps({"nx": n, "ny": n, "w": (w / w.sum()).tolist()}) + "\n"


# files written into the edge directory before the edge commands run: a 3x3
# target whose last row and middle column carry no mass, a weight written as
# an integer beyond float range, 100,000 nested brackets, weights written as
# booleans and as numeric strings, and a banded target
EDGE_FILES = {
    "zero.json": '{"nx": 3, "ny": 3, "w": [[1, 0, 1], [1, 0, 1], [0, 0, 0]]}\n',
    "huge_int.json": '{"nx": 1, "ny": 2, "w": [[1' + "0" * 400 + ', 1]]}\n',
    "nested.json": "[" * 100_000 + "\n",
    "bool_entries.json": '{"nx": 1, "ny": 2, "w": [[true, true]]}\n',
    "string_entries.json": '{"nx": 1, "ny": 2, "w": [["0.5", "0.5"]]}\n',
    "b40.json": banded_target_json(40, 0.9),
}


def import_cli(src: Path):
    """daflow.cli imported from `src`, refusing any other copy."""
    sys.path.insert(0, str(src))
    import daflow.cli

    if Path(daflow.cli.__file__).resolve().parent != src / "daflow":
        raise SystemExit(f"error: imported daflow from {daflow.cli.__file__}, not from {src}")
    return daflow.cli


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_hashes(work: str) -> dict[str, str]:
    out = {}
    for root, _, names in os.walk(work):
        for name in names:
            path = os.path.join(root, name)
            out[os.path.relpath(path, work)] = sha256(Path(path).read_bytes())
    return out


def digest(cli, argv: tuple[str, ...], cwd: str, work: str, src: Path) -> str:
    """`exit=... stdout=... stderr=... files=...` for one call run in `cwd`,
    a directory under `work`."""
    before = file_hashes(cwd)
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)
    try:
        # a fresh filter list per call, so a warning prints on every call
        # that raises it, not only on the first
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("default")
            try:
                code = cli.main(list(argv))
            except Exception:
                traceback.print_exc()
                code = 1
    finally:
        os.chdir(home)
    after = file_hashes(cwd)
    written = sorted((name, h) for name, h in after.items() if before.get(name) != h)
    files = sha256("".join(f"{name}\0{h}\n" for name, h in written).encode())

    def masked(text: str) -> str:
        return sha256(text.replace(work, "<tmp>").replace(str(src), "<src>").encode())

    return f"exit={code} stdout={masked(out.getvalue())} stderr={masked(err.getvalue())} files={files}"


def commands(seeds: list[int], tiny: bool, work: str):
    """(label, argv, directory) for every pool job call at each seed, then
    the edge commands; each pool's inputs and outputs go to a directory of
    its own under `work`, and the edge commands share one."""
    sys.path.insert(0, str(PERFBENCH))
    import jobs

    for workload in WORKLOADS:
        for seed in seeds:
            pool = os.path.join(work, f"{workload}-{seed}")
            os.mkdir(pool)
            for k, job in enumerate(jobs.make_jobs(workload, seed, pool, tiny)):
                for c, argv in enumerate(job.calls):
                    yield f"{workload}/seed{seed}/job{k}/call{c}", argv, pool
    edge = os.path.join(work, "edge")
    os.mkdir(edge)
    for name, text in EDGE_FILES.items():
        Path(edge, name).write_text(text, encoding="utf-8")
    for label, argv in EDGE_COMMANDS.items():
        yield f"edge/{label}", argv, edge


def main(argv: list[str] | None = None) -> list[str]:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=ROOT / "src", help="the source tree to import daflow from")
    p.add_argument("--seeds", default="1,2,3", help="workload seeds, comma-separated")
    p.add_argument("--tiny", action="store_true", help="the workloads' small sizes")
    args = p.parse_args(argv)
    src = args.src.resolve()
    cli = import_cli(src)
    seeds = [int(s) for s in args.seeds.split(",")]
    lines = []
    with tempfile.TemporaryDirectory(prefix="daflow-digest-") as work:
        work = os.path.realpath(work)
        for label, call, cwd in commands(seeds, args.tiny, work):
            line = f"{label} {digest(cli, call, cwd, work, src)}"
            print(line, flush=True)
            lines.append(line)
    return lines


if __name__ == "__main__":
    main()
