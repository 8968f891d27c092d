"""Self-test of the benchmark at tiny shapes.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at tiny shapes and
checks that each metric BENCHMARK.json names is emitted with its unit,
then checks that a command exiting 1 and a command whose output check
fails are both counted as failed without stopping the run.  Exits 0
when every check passes.
"""

import json
import math
import os
import shutil
import sys

import run

run._import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from karina import cli, training  # noqa: E402


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def _units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def main():
    end_to_end, per_layer, names = _spec()
    assert set(names) == set(workloads.WORKLOADS), names
    work = os.path.join(run.WORK, "selftest")
    shutil.rmtree(work, ignore_errors=True)
    originals = [(owner, attr, tracing._get(owner, attr))
                 for owner, attr, *_ in tracing._points()]

    for name in names:
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            result, _ = run.measure(name, 0, 0, trace, workloads.TINY, work)
            assert result["correct"] and result["failed"] == 0, (name, result)
            assert _units(result) == expected, (name, trace, _units(result))
            for key, metric in result["metrics"].items():
                assert math.isfinite(metric["value"]), (name, key, metric)
                if not trace:
                    assert metric["value"] > 0, (name, key, metric)
            print(f"ok  {name} trace={int(trace)}: {len(expected)} metrics")

    for owner, attr, fn in originals:
        assert tracing._get(owner, attr) is fn, f"{attr} left wrapped"
    assert cli.train is training.train

    runs = os.path.join(work, "runs", "train_toy")
    good = workloads.plan_train_toy(0, workloads.TINY, work, runs)
    missing = os.path.join(work, "no-such.krna")
    bad = (
        workloads.Command("evaluate", ("evaluate", "--set", f"eval.checkpoint={missing}"),
                          workloads.check_evaluate),
        workloads.Command("train", good.commands[0].argv, workloads.check_finetune),
    )
    plan = workloads.Plan(good.commands + bad, good.rate_span, {})
    result, _ = run.measure("train_toy", 0, 0, False, workloads.TINY, work, plan)
    assert not result["correct"], result
    assert (result["attempted"], result["failed"]) == (4, 2), result
    assert _units(result) == end_to_end, result
    print("ok  a command exiting 1 and a failed output check count as 2 of 4 failed")
    shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
