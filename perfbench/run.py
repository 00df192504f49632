"""Benchmark of the smile pipeline: source training, adaptation, evaluation
and gradient checking on the glyph12 corpora.

Run from the repository root:

    python3 perfbench/run.py --workload smile-adapt --seed 7 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
they are the per-layer ones, and the spans are written under
``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# one process, one BLAS thread: the load the numbers describe
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": BLAS_PIN["OPENBLAS_NUM_THREADS"]}


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ.update(BLAS_PIN)
    # evaluate() takes its default worker count from SMILE_THREADS
    os.environ.pop("SMILE_THREADS", None)
    if not os.path.isfile(os.path.join(ROOT, "src", "smile", "__init__.py")):
        print(f"perfbench: no smile sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    print("environment: " + json.dumps(environment()))
    result, values, lines = workloads.run(args.workload, args.seed,
                                          args.seconds, bool(args.trace),
                                          ROOT, OUT)
    for line in lines:
        print(line)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in values.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
