"""Self-test of the benchmark.  Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload, at a tiny size, it checks that the untraced run emits
every end-to-end metric of ``BENCHMARK.json`` and the traced run every
per-layer metric, each with its unit; that the work counts repeat exactly
for a fixed seed; that layers a workload does not load stay idle; and that
a planted wrong expected value shows up as a failed query instead of an
exception.  Last, it checks that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SECONDS = "0.5"
COUNT_SUFFIXES = (".calls", ".syllables_out", ".terms_out", ".lyndon_words_out",
                  ".failed", ".nonzero_exit", ".stdout_bytes")

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ALL_LAYERS = ("words", "simplicial", "magnus", "homotopy", "links", "cli")


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["attempted"] >= 1, result
    return result


def check_metrics(result: dict, specs: list, where: str) -> None:
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in specs}, (where, sorted(metrics))
    for spec in specs:
        got = metrics[spec["name"]]
        assert got["unit"] == spec["unit"], (where, spec["name"], got)
        assert isinstance(got["value"], (int, float)), (where, spec["name"], got)


def check_workload(name: str) -> None:
    plain = bench(name, 0)
    check_metrics(plain, SPEC["end_to_end"], f"{name} untraced")
    assert plain["correct"] and plain["failed"] == 0, (name, plain)
    assert all(m["value"] > 0 for m in plain["metrics"].values()), (name, plain)

    first, second = bench(name, 1), bench(name, 1)
    check_metrics(first, SPEC["per_layer"], f"{name} traced")
    assert first["correct"] and second["correct"], (name, first, second)
    counts = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
    again = {k: v["value"] for k, v in second["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
    assert counts == again, (name, counts, again)
    loaded = WORKLOADS[name].layers
    for layer in ALL_LAYERS:
        calls = counts[f"{layer}.calls"]
        busy = first["metrics"][f"{layer}.busy_s"]["value"]
        if layer in loaded:
            assert calls > 0 and busy > 0, (name, layer, calls, busy)
        else:
            assert calls == 0 and busy == 0, (name, layer, calls, busy)

    planted = bench(name, 0, "--plant")
    assert not planted["correct"] and planted["failed"] >= 1, (name, planted)
    assert planted["failed"] < planted["attempted"], (name, planted)
    print(f"ok {name}: {plain['attempted']} queries, counts repeat, planted error caught")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok refuses to run without the program's sources")


def main() -> int:
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS), SPEC["workloads"]
    for name in WORKLOADS:
        check_workload(name)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
