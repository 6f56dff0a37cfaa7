"""Smoke test of the benchmark itself (about a minute).

    python3 -m pytest perfbench/test_smoke.py -q

Covers a tiny run of every workload, traced and untraced, the determinism
digests across those runs, the refusal to run without the zsflow source, and
negative tests showing that the independent checker catches corrupted flows.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
import zsflow  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def digest_line(stdout: str) -> str:
    return next(line for line in stdout.splitlines() if line.startswith("round0_digest"))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload):
    digests = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], proc.stdout
        assert result["attempted"] >= 1
        for metric in SPEC[key]:
            printed = result["metrics"][metric["name"]]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], (int, float))
        if trace == 0:
            for metric in SPEC["end_to_end"]:
                assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]
        digests.append(digest_line(proc.stdout))
    assert digests[0] == digests[1], "traced and untraced runs disagree on round 0"


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "_work-*"))
    proc = bench("--workload", "even", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_checker_catches_corrupted_flows():
    g = zsflow.random_regular(12, 4, seed=1)
    flow = zsflow.construct(g)
    values = list(flow.values)
    assert check.check_flow(g.n, g.edges, values, flow.k, (3,)) is None

    flipped = values[:]
    flipped[0] = -flipped[0]
    assert "sums to" in check.check_flow(g.n, g.edges, flipped, 3, (3,))
    zeroed = values[:]
    zeroed[1] = 0
    assert "value 0" in check.check_flow(g.n, g.edges, zeroed, 3, (3,))
    big = values[:]
    big[2] = 3
    assert "exceeds" in check.check_flow(g.n, g.edges, big, 3, (3,))
    assert "contract" in check.check_flow(g.n, g.edges, values, 5, (3,))
    assert "values for" in check.check_flow(g.n, g.edges, values[:-1], 3, (3,))

    text = zsflow.write_flow(flow)
    assert check.check_flow_file(text, g.n, g.edges, (3,)) is None
    lines = text.splitlines()
    e, u, v, val = lines[1].split()
    swapped = "\n".join([lines[0], f"{e} {u} {int(v) + 1} {val}"] + lines[2:])
    assert "graph has" in check.check_flow_file(swapped, g.n, g.edges, (3,))
    assert "misses edge" in check.check_flow_file("\n".join(lines[:-1]), g.n, g.edges, (3,))
    assert "unreadable" in check.check_flow_file("", g.n, g.edges, (3,))


def test_wrong_answers_count_as_incorrect_failures():
    g = zsflow.cubic_no_pm()
    nopm = workloads.Item("nopm-k4", "solve", g.n, g.m, 3, g, k=4, budget=10, expect="nonexistent")
    undecided = SimpleNamespace(status="undecided", nodes=10, flow=None)
    fake = SimpleNamespace(solver=SimpleNamespace(solve=lambda *a: undecided))
    out = workloads.call(fake, nopm, None)
    assert out.failed and out.incorrect

    h = zsflow.random_regular(10, 3, seed=2)
    found = zsflow.solve(h, 5)
    bad = SimpleNamespace(values=(1,) * h.m, k=5)
    fake = SimpleNamespace(solver=SimpleNamespace(solve=lambda *a: SimpleNamespace(
        status="found", nodes=found.nodes, flow=bad)))
    item = workloads.Item("solve", "solve", h.n, h.m, 3, h, budget=100)
    out = workloads.call(fake, item, None)
    assert out.failed and out.incorrect and out.edges == 0
