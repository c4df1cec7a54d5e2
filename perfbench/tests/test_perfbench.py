"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.checker import Checker

ROOT = Path(__file__).resolve().parents[2]
TINY = 8


def run_bench(*args) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(args)) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_checks_out_at_tiny_size(name):
    result = run_bench("--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0",
                       "--scale", str(TINY))
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == run.pass_count(name, 1) * len(workloads.build(name, 1, TINY).requests)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = run_bench("--workload", "cold-cli", "--seed", "2", "--seconds", "1", "--trace", "1",
                       "--scale", str(TINY))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["bratteli.tower_profile.calls"] > 0
    assert metrics["cli.import_ms"] > 0 and metrics["interp.start_ms"] > 0


def test_same_seed_same_requests():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 7, TINY), workloads.build(name, 7, TINY)
        assert [r.argv for r in a.requests] == [r.argv for r in b.requests]
        assert a.files == b.files
        assert [r.argv for r in a.requests] != [r.argv for r in workloads.build(name, 8, TINY).requests]


def test_cold_cli_covers_every_subcommand():
    commands = {r.argv[0] for r in workloads.build("cold-cli", 1).requests}
    assert commands == {"validate", "towers", "odometer", "mu", "premorphism", "embed", "k0-divides",
                        "rsub", "theta", "divide", "telescope", "sn", "group", "catalog"}


def test_deep_towers_cross_the_digit_limit():
    deep = [r for r in workloads.build("diagram-sweep", 1).requests if r.label == "towers-deep"]
    assert len(deep) == workloads.DEEP_TOWERS
    # heights of example-5.5 are 3**(n-1): past 4300 decimal digits from level 9015 on
    assert all(r.facts["depth"] > 9015 for r in deep)


def _answer(tmp_path, request, files):
    spawner = run.Spawner()
    try:
        for fname, data in files.items():
            (tmp_path / fname).write_text(json.dumps(data))
        return run.Runner(tmp_path, spawner).brat(request.argv)
    finally:
        spawner.close()


def test_corrupted_answer_counts_as_failed(tmp_path):
    work = workloads.build("diagram-sweep", 3, TINY)
    request = next(r for r in work.requests if r.kind == "towers")
    outcome = _answer(tmp_path, request, work.files)
    judge = run.Judge(Checker(work.files))
    assert judge.judge(0, request, outcome)
    outcome.stdout = run.mutate(outcome.stdout)
    assert not judge.judge(0, request, outcome)
    assert judge.failed == 1 and judge.wrong


def test_certified_mu_without_known_invariant_is_fixed_by_the_tail_cycle():
    # h_n = 17 * 10**(n-1): the invariant is 2^omega 5^omega 17
    diagram = {"levels": [1, 1, 1], "matrices": [[[17]], [[10]]], "tail": "repeat-last"}
    checker = Checker({"g.json": diagram})
    request = workloads.Request("mu", ("mu", "g.json", "--depth", "20"),
                                {"source": "g.json", "depth": 20, "invariant": None}, "mu-generic", True)

    def verdict(mu):
        return checker.check(request, 0, json.dumps({"mu": mu, "exactness": "certified"}).encode())

    assert verdict({"2": "inf", "5": "inf", "17": 1}) is None
    assert verdict({"2": "inf", "5": "inf", "17": 2}) is not None
    assert verdict({"2": "inf", "5": 20, "17": 1}) is not None
    assert verdict({"2": "inf", "17": 1}) is not None
    assert verdict({"2": "inf", "5": "inf", "17": 1, "3": "inf"}) is not None


def test_mutation_is_rejected_for_every_kind(tmp_path):
    work = workloads.build("cold-cli", 4, 1)
    checker = Checker(work.files)
    spawner = run.Spawner()
    try:
        work.write(tmp_path)
        runner = run.Runner(tmp_path, spawner)
        seen = set()
        for request in work.requests:
            if request.kind in seen:
                continue
            outcome = runner.brat(request.argv)
            assert checker.check(request, outcome.status, outcome.stdout) is None, request.argv
            corrupted = run.mutate(outcome.stdout)
            if corrupted is None:
                continue
            seen.add(request.kind)
            assert checker.check(request, outcome.status, corrupted) is not None, request.argv
    finally:
        spawner.close()
    assert len(seen) >= 20


def test_launcher_sees_calls_made_through_imported_names(tmp_path):
    out = tmp_path / "spans.json"
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, str(run.LAUNCHER), "trace", str(out), "--",
                           "mu", "catalog:example-5.5", "--depth", "6"],
                          cwd=tmp_path, env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    names, spans = record["names"], record["spans"]
    by_name = {names[s[0]]: s for s in spans}
    # bratteli calls factorize through its own `from .primes import factorize`
    parent = spans[by_name["primes.factorize"][3]]
    assert names[parent[0]] == "bratteli.maximal_uhf"
    assert names[spans[0][0]] == "cli.main" and spans[0][3] == -1
    assert record["levels"] == 6


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cold-cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
