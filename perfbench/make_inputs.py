"""Make the forecast_file inputs for one seed in a process of their own.

    python3 perfbench/make_inputs.py <seed> <folder> <sizes as JSON>

`workloads.forecast_inputs` runs this, so that the memory of making a
~105 MB field stays out of the workload process's peak RSS.
"""

import json
import sys

import run

run._import_program()

import workloads  # noqa: E402


def main(argv):
    seed, folder, sizes = int(argv[0]), argv[1], workloads.Sizes(**json.loads(argv[2]))
    workloads._make_forecast_inputs(seed, sizes, folder)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
