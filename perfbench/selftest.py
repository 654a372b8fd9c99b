"""Self-test of the benchmark at tiny budgets (about two minutes).

Run from the repository root::

    python3 perfbench/selftest.py

Checks, for each of the three workloads:

- an untraced and a traced pass emit exactly the end-to-end and per-layer
  metrics ``BENCHMARK.json`` names, each with its unit, and pass their
  correctness checks;
- two untraced runs give the same cell fingerprint set;
- a planted failing cell (a request whose trace generation raises) shows
  up in ``failed`` and ``correct: false`` instead of aborting the run.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = {"core": 1_200, "paper": 600, "fleet": 400}


def bench(workload: str, trace: int, plant_failure: bool = False, seed: int = 7):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0, trace=trace,
                              profile_seed=None, sizes=TINY, plant_failure=plant_failure)
    return run.run(args, HERE.parent)


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def digest(report: list[str]) -> str:
    return next(line.split()[-1] for line in report if line.startswith("cell fingerprint set"))


def main() -> int:
    if not run.prepare(HERE.parent):
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(wanted[0] == run.END_TO_END, "BENCHMARK.json end_to_end != run.END_TO_END")
    expect(wanted[1] == {n: u for n, (u, _) in run.PER_LAYER.items()},
           "BENCHMARK.json per_layer != run.PER_LAYER")
    expect([w["name"] for w in spec["workloads"]] == list(run.LAYERS_RUN),
           "BENCHMARK.json workloads != run.LAYERS_RUN")
    for workload in run.LAYERS_RUN:
        first = None
        for trace in (0, 1):
            result, report = bench(workload, trace)
            emitted = {name: value["unit"] for name, value in result["metrics"].items()}
            expect(emitted == wanted[trace],
                   f"{workload} trace={trace}: metrics {sorted(emitted)}")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{workload} trace={trace}: non-numeric metric value")
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: a clean run failed: {report[-5:]}")
            expect(any(line.lstrip().startswith("failed_frac") for line in report),
                   f"{workload}: failed_frac not printed")
            if trace == 0:
                first = digest(report)
        _, report = bench(workload, 0)
        expect(digest(report) == first, f"{workload}: fingerprint sets differ between runs")
        result, report = bench(workload, 0, plant_failure=True)
        expect(not result["correct"] and 0 < result["failed"] < result["attempted"],
               f"{workload}: planted failure not counted: {result}")
        expect(set(result["metrics"]) == set(wanted[0]),
               f"{workload}: planted run lost metrics")
        print(f"selftest {workload}: ok ({result['failed']} planted failures of "
              f"{result['attempted']} cells counted)", flush=True)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
