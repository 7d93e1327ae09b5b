#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (the first run builds everything it
needs; later runs find it up to date), runs it, checks that its result
names exactly the metrics BENCHMARK.json lists for the mode (end_to_end
for --trace 0, per_layer for --trace 1), and passes its output through.
The last line of standard output is the result object. Without a
buildable checkout around it, it exits non-zero and prints no result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kwargs):
    """subprocess.run that kills the child on timeout and waits for it."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"{cmd[0]} exceeded {timeout}s", code=3)
        return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    for path in ("dune-project", "lib", "BENCHMARK.json", "perfbench/dune"):
        if not os.path.exists(path):
            fail(f"{path} not found: run from the root of a full checkout")
    if shutil.which("dune") is None:
        fail("dune not found on PATH")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S,
        env=env,
    )
    if code != 0:
        fail(f"build failed (dune exit {code})")

    code, out = run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        RUN_TIMEOUT_S,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    if code != 0:
        fail(f"benchmark exited {code}", code=code)
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(expected.items())}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
