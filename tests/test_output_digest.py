"""tools/output_digest.py: one line per command, the same on a repeat run."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path


def load_output_digest():
    path = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_digest_repeats_line_for_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    digest = load_output_digest()
    first = digest.main(["--tiny", "--seeds", "1"])
    second = digest.main(["--tiny", "--seeds", "1"])
    assert capsys.readouterr().out.splitlines() == first + second
    assert first == second
    # eight jobs per workload, wide's of two calls (gen, then verify)
    labels = [line.split()[0] for line in first]
    assert len(labels) == len(set(labels)) == 8 * 5 + len(digest.EDGE_COMMANDS)
    codes = {label: line.split()[1] for label, line in zip(labels, first)}
    assert all(code == "exit=0" for label, code in codes.items() if not label.startswith("edge/"))
    assert codes["edge/maxiters-1x5"] == codes["edge/subnormal-6x6"] == "exit=1"
    # budget stops at the table writer's chunk edge: MaxIters after 1,025 and 1,026 records
    edge = [f"edge/run-chunk-edge-{steps}-{fmt}" for steps in (1024, 1025) for fmt in ("csv", "json")]
    assert [codes[label] for label in edge] == ["exit=1"] * 4
    assert codes["edge/refuse-1x1"] == codes["edge/refuse-10x10"] == codes["edge/refuse-seed"] == "exit=2"
    hostile = ("conc", "eps", "huge", "nested", "bool", "string")
    refusals = [label for label in codes if label.startswith(tuple(f"edge/refuse-{kind}" for kind in hostile))]
    assert len(refusals) == 13 and all(codes[label] == "exit=2" for label in refusals)
    for line in first:
        fields = line.split()[2:]
        assert [f.split("=")[0] for f in fields] == ["stdout", "stderr", "files"]
        assert all(len(f.split("=")[1]) == 64 for f in fields)
