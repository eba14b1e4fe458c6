#!/usr/bin/env python3
"""Build the benchmark program from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload kv-update --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --list-metrics
    python3 perfbench/run.py --self-test

The program is built with CMake (perfbench/CMakeLists.txt, which
compiles the library in src/) into $CARGO_TARGET_DIR, or .bench_build
when that is unset. Build output goes to stderr; the program's last line
on stdout is the JSON result. --self-test also checks that BENCHMARK.json
lists exactly the metrics the program prints.
"""
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 840  # configure + compile, the first run in a checkout
RUN_SLACK_S = 100      # set-up, warm-up and teardown beyond --seconds


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (d if d.is_absolute() else ROOT / d) / "perfbench"


def build() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: library sources (src/) not found; "
                 "run from a full checkout")
    out = build_dir()
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = [["cmake", "--build", str(out), "-j", "3"]]
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.insert(0, configure)
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=max(1.0, deadline - time.monotonic()))
    return out / "perfbench"


def catalogue(binary: Path) -> dict:
    """name -> (unit, kind) from the program's --list-metrics."""
    text = subprocess.run([str(binary), "--list-metrics"], check=True,
                          capture_output=True, text=True).stdout
    rows = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, unit, kind = line.split("\t")[:3]
        rows[name] = (unit, "end_to_end" if kind == "end_to_end"
                      else "per_layer")
    return rows


def check_benchmark_json(binary: Path) -> bool:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            listed[m["name"]] = (m["unit"], kind)
    printed = catalogue(binary)
    ok = listed == printed
    for name in sorted(set(listed) | set(printed)):
        if listed.get(name) != printed.get(name):
            print(f"FAIL BENCHMARK.json {listed.get(name)} vs program "
                  f"{printed.get(name)} for {name}")
    print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json agrees with "
          f"--list-metrics ({len(printed)} metrics)")
    return ok


def main() -> int:
    args = sys.argv[1:]
    binary = build()
    if args == ["--self-test"]:
        rc = subprocess.run([str(binary), "--self-test"]).returncode
        return 0 if check_benchmark_json(binary) and rc == 0 else 1
    if args == ["--list-metrics"]:
        return subprocess.run([str(binary), "--list-metrics"]).returncode
    seconds = 60
    if "--seconds" in args:
        try:
            seconds = int(args[args.index("--seconds") + 1])
        except (IndexError, ValueError):
            pass
    cmd = [str(binary), *args, "--out-dir", str(build_dir())]
    return subprocess.run(cmd, timeout=seconds + RUN_SLACK_S).returncode


if __name__ == "__main__":
    sys.exit(main())
