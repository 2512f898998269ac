"""Self-check of the benchmark, on tiny decks of every workload.

    python3 bench/selfcheck.py [--seed N]

For each workload it runs a tiny deck (the first two jobs of each kind,
plus the first job that writes --output and the first that reads --config)
and verifies that:

- the untraced run emits exactly the end_to_end metric names of
  BENCHMARK.json, and the traced run exactly the per_layer names;
- every output passes its check (error rate 0);
- outputs corrupted on purpose fail: every job when each float becomes
  nan, and at least one job when each float is scaled by 1.01.

It also prints the layer ranking of the traced run against the layer map
in README.md; that ranking is a measurement, not a pass/fail condition.
Exit status 0 means every verification passed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys

import run

FLOAT = re.compile(r"(?<![\w.])-?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def to_nan(text: str) -> str:
    return FLOAT.sub("nan", text)


def scaled(text: str) -> str:
    return FLOAT.sub(lambda match: repr(float(match.group()) * 1.01), text)


# workload -> (spans expected at the top of the inclusive ranking, layer
# expected at the top of the self-time ranking); see README.md
LAYER_MAP = {
    "farfield": ({"classical.farfield_power"}, None),
    "operators": (
        {"quantum.single_mode_hamiltonian", "quantum.expectation_energy",
         "quantum.build_operators", "multimode.multimode_energy"},
        None,
    ),
    "crosscheck": ({"classical.field_energy_grid", "multimode.overlap_integral_quadrature"}, None),
    "small_jobs": (None, "cli"),
}


def validate_spec(spec: dict) -> list:
    problems = []
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != expected:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += [f"bad or repeated name {n!r}" for n in names if not NAME.match(n) or names.count(n) > 1]
    for metric in spec["end_to_end"]:
        if set(metric) != {"name", "unit", "better", "bound"} or not 0 < metric["bound"] <= 0.25:
            problems.append(f"end_to_end entry {metric}")
    for metric in spec["per_layer"]:
        if set(metric) != {"name", "unit", "better"}:
            problems.append(f"per_layer entry {metric}")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(metric["unit"]) or metric["better"] not in ("higher", "lower"):
            problems.append(f"unit or direction of {metric['name']}")
    if sorted(names[: len(spec["workloads"])]) != sorted(run.decks.WORKLOADS):
        problems.append("workloads differ from the generator's")
    return problems


def tiny_deck(workload: str, seed: int) -> list:
    workdir = run._workdir(workload)
    os.makedirs(workdir, exist_ok=True)
    deck = run.decks.generate(workload, seed, 0, workdir)
    kinds = [job.kind for job in deck]
    chosen = [job for i, job in enumerate(deck) if kinds[:i].count(job.kind) < 2]
    for wanted in (lambda job: job.output is not None, lambda job: job.config is not None):
        extra = next((job for job in deck if wanted(job)), None)
        if extra is not None and extra not in chosen:
            chosen.append(extra)
    run._write_configs(chosen)
    return chosen


def check_workload(workload: str, seed: int, spec: dict) -> list:
    problems = []
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    setup = [run.probe_setup(workload, seed)]
    deck = tiny_deck(workload, seed)

    result, info = run.run(workload, seed, 0.0, False, setup, deck=deck, min_jobs=0)
    emitted = {name: value["unit"] for name, value in result["metrics"].items()}
    if emitted != end_to_end:
        problems.append(f"untraced metrics {emitted} != BENCHMARK.json end_to_end {end_to_end}")
    if result["failed"]:
        problems.append(f"clean tiny deck failed {result['failed']} jobs: {info['failures']}")

    result, info = run.run(workload, seed, 0.0, True, [], deck=deck, min_jobs=0)
    emitted = {name: value["unit"] for name, value in result["metrics"].items()}
    if emitted != per_layer:
        missing = sorted(set(per_layer) ^ set(emitted))
        problems.append(f"traced metrics differ from BENCHMARK.json per_layer: {missing}")
    spans, layer = LAYER_MAP[workload]
    ranking = info["ranking"]
    top_span, top_layer = ranking["kernel_spans"][0], ranking["layer_self"][0]
    holds = (spans is None or top_span in spans) and (layer is None or top_layer == layer)
    print(f"  layer map {'holds' if holds else 'does not hold'}: largest kernel span {top_span},"
          f" largest layer self time {top_layer}")

    for name, corrupt, needed in (("nan", to_nan, "all"), ("scaled by 1.01", scaled, "some")):
        result, _ = run.run(workload, seed, 0.0, False, setup, deck=deck, corrupt=corrupt, min_jobs=0)
        caught = result["failed"] == result["attempted"] if needed == "all" else result["failed"] > 0
        print(f"  outputs {name}: {result['failed']} of {result['attempted']} jobs failed")
        if not caught:
            problems.append(f"corrupted outputs ({name}) failed {result['failed']} of {result['attempted']}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    os.chdir(run.ROOT)
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = validate_spec(spec)
    for workload in run.decks.WORKLOADS:
        print(f"{workload}:")
        try:
            problems += [f"{workload}: {p}" for p in check_workload(workload, args.seed, spec)]
        finally:
            shutil.rmtree(run._workdir(workload), ignore_errors=True)
    if os.path.isdir(run.WORK_ROOT) and not os.listdir(run.WORK_ROOT):
        os.rmdir(run.WORK_ROOT)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check passed" if not problems else f"self-check failed: {len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
