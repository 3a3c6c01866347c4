"""Tracing overhead: traced minus untraced, for each end-to-end metric.

    python3 bench/overhead.py --workload certify --seed 1 --seconds 25

Runs bench/run.py twice in a row (``--trace 0`` then ``--trace 1``) with the
same arguments, prints the traced run's report, then both values of every
end-to-end metric and their difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def measure(args, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600).stdout.splitlines()
    if trace:
        print("\n".join(out[:-1]))          # the traced run's per-layer report
        line = next(l for l in out if l.startswith("# e2e_traced "))
        return json.loads(line[len("# e2e_traced "):])
    return {k: v["value"] for k, v in json.loads(out[-1])["metrics"].items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    args = ap.parse_args()
    plain, traced = measure(args, 0), measure(args, 1)
    print(f"{'metric':<14} {'untraced':>12} {'traced':>12} {'traced-untraced':>16}")
    for name, value in plain.items():
        diff = traced[name] - value
        print(f"{name:<14} {value:>12.5g} {traced[name]:>12.5g} "
              f"{diff:>+16.5g} ({diff / value:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
