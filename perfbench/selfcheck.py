"""Smoke-check the benchmark against its own ``BENCHMARK.json``.

Run from the repository root::

    python3 perfbench/selfcheck.py [--seconds 1]

For every workload it runs the benchmark untraced and traced with seed
1, then untraced with seed 2, each in a fresh process, and checks that:

- the last line is the result object with exactly the keys
  ``correct``/``attempted``/``failed``/``metrics``, and it is correct;
- the untraced run prints every ``end_to_end`` metric and the traced
  run every ``per_layer`` metric, with the declared units, and nothing
  else;
- the seed-1 runs print the same event digest (separate processes);
- the second seed passes the correctness gate too.

Last, it copies ``BENCHMARK.json`` and the benchmark files into a bare
directory under ``perfbench/out`` and checks that the benchmark fails
there without printing a result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, workload: str, seed: int, seconds: float, trace: int):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return done.returncode, done.stdout.splitlines(), done.stderr


def _digest(lines) -> str:
    for line in lines:
        if line.startswith("# digest "):
            return line.split()[4]
    return ""


def _check_result(lines, declared, label: str, problems) -> None:
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        problems.append(f"{label}: last line is not a JSON result")
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"attempted={result['attempted']}")
    printed = result["metrics"]
    for name in sorted(set(printed) - set(declared)):
        problems.append(f"{label}: {name} is not declared in BENCHMARK.json")
    for name in sorted(set(declared) - set(printed)):
        problems.append(f"{label}: {name} is declared but not printed")
    for name in sorted(set(declared) & set(printed)):
        if printed[name]["unit"] != declared[name]:
            problems.append(f"{label}: {name} unit {printed[name]['unit']} "
                            f"!= {declared[name]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = []
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            label = f"{workload} seed={seed} trace={trace}"
            code, lines, stderr = _run(ROOT, workload, seed, args.seconds, trace)
            print(f"{label}: exit {code}", flush=True)
            if code != 0:
                problems.append(f"{label}: exit {code}: {stderr[-300:]}")
            _check_result(lines, declared[trace], label, problems)
            if seed == 1:
                digests.append(_digest(lines))
        if len(set(digests)) != 1 or not digests[0]:
            problems.append(f"{workload}: seed-1 digests differ: {digests}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines, _ = _run(bare, spec["workloads"][0]["name"], 1, 1, 0)
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append("bare directory: the benchmark did not fail cleanly")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
