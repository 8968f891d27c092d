"""karina benchmark: one workload, measured for a fixed time, checked.

    python3 perfbench/run.py --workload train_toy --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
ones.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Inputs, outputs, results and
span files go to `.perfbench/` in the checkout.  Exit code 0 means a
result was printed; anything else means the benchmark could not run.
"""

import os

# BLAS threads buy nothing at these shapes and add outliers; pin them
# before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

def _import_program():
    """Import karina from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "karina", "__init__.py")):
        raise SystemExit(f"perfbench: no karina sources under {SRC}")
    sys.path.insert(0, SRC)
    import karina
    if os.path.dirname(os.path.dirname(os.path.abspath(karina.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported karina from {karina.__file__}, not {SRC}")


def environment(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    result, report = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), workloads.Sizes(), WORK)
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


def measure(name, seed, seconds, trace, sizes, work, plan=None):
    """Run one workload; returns (result object, report lines).

    Also writes the result with its environment to
    work/results/, and with trace the spans to work/trace/.
    """
    import workloads

    env = environment(seed)
    plan, tracer, iterations = workloads.run_workload(
        name, seed, seconds, trace, sizes, work, plan)
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    report = [f"env {json.dumps(env, sort_keys=True)}",
              f"{name}: {len(iterations)} iterations, {attempted} commands, "
              f"{failed} failed; outputs {json.dumps(iterations[0].outputs, sort_keys=True)}"]
    if trace:
        values = workloads.per_layer(iterations)
        units = workloads.PER_LAYER_UNITS
        report += workloads.module_table(iterations)
        os.makedirs(os.path.join(work, "trace"), exist_ok=True)
        tracer.write(os.path.join(work, "trace", f"{name}-seed{seed}.spans.csv"))
    else:
        values = workloads.end_to_end(iterations)
        units = workloads.END_TO_END_UNITS
    metrics = {} if values is None else {
        k: {"value": values[k], "unit": units[k]} for k in units}
    report += [f"  {k:<36} {v['value']:>14.6g} {v['unit']}" for k, v in metrics.items()]
    result = {"correct": failed == 0 and values is not None, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    os.makedirs(os.path.join(work, "results"), exist_ok=True)
    path = os.path.join(work, "results", f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "workload": name, "seconds": seconds,
                   "iterations": len(iterations), "result": result,
                   "outputs": iterations[0].outputs}, fh, indent=1, sort_keys=True)
    return result, report


if __name__ == "__main__":
    sys.exit(main())
