"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: pf_family, churn, sweep_audit, solve (see perfbench/README.md).
Every process this starts runs with ``PYTHONPATH=src`` and without any
``REPRO_*`` variable, so the kernel and solver back-ends are the defaults.

With ``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric of BENCHMARK.json; ``setup_s`` is the median over
several fresh interpreters (plus the measuring one), each timed from just
before its spawn to the end of its set-up.  With ``--trace 1`` it carries
every per-layer metric instead.  Lines before it are for people.

Exits 0 whenever it prints a result (``correct`` says whether every output
check passed); exits non-zero, printing no result, when the checkout has
no ``src/repro`` or a benchmark process fails or times out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pf_family", "churn", "sweep_audit", "solve")
#: Set-up-only interpreters per untraced run, besides the measuring one.
SETUP_SAMPLES = 6
#: Whole-run budget; the benchmark must exit within 180 seconds.
DEADLINE_S = 170.0
#: Scratch space for cache directories, removed at exit.
WORK_ROOT = ROOT / ".perfbench-work"


class BenchmarkError(Exception):
    """A benchmark process failed; no result can be printed."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="repro performance benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict[str, str]:
    """The measured environment: repro from this checkout, no overrides."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(arguments: list[str], env: dict[str, str], timeout: float) -> str:
    """Run ``measure.py`` to completion; its stdout, or BenchmarkError.

    The child leads its own process group so that, on a timeout or an
    interrupt, its pool workers are killed with it; it is always waited for.
    """
    command = [sys.executable, str(HERE / "measure.py"),
               "--t0", repr(perf_counter()), *arguments]
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException as error:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(error, subprocess.TimeoutExpired):
            raise BenchmarkError(
                f"benchmark process timed out after {timeout:.0f} s") from None
        raise
    if proc.returncode != 0:
        raise BenchmarkError(f"benchmark process exited with {proc.returncode}")
    if not out.strip():
        raise BenchmarkError("benchmark process printed nothing")
    return out


def last_json(out: str) -> dict:
    """The JSON object on the last line of a child's stdout."""
    try:
        return json.loads(out.strip().splitlines()[-1])
    except ValueError as error:
        raise BenchmarkError(f"unreadable benchmark output: {error}") from None


def measure(args: argparse.Namespace, work: Path) -> tuple[list[str], dict]:
    """Set-up samples plus the measuring run; (human lines, result)."""
    started = perf_counter()
    env = child_env()
    # The build: byte-compile once so no set-up sample pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True,
                   timeout=120)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    setups = []
    if not args.trace:
        for sample in range(SETUP_SAMPLES):
            sample_dir = work / f"setup-{sample}"
            out = run_child([*common, "--work-dir", str(sample_dir), "--setup-only"],
                            env, DEADLINE_S - (perf_counter() - started))
            setups.append(float(last_json(out)["setup_s"]))
            shutil.rmtree(sample_dir, ignore_errors=True)
    out = run_child([*common, "--work-dir", str(work / "measure"),
                     "--trace", str(args.trace)],
                    env, DEADLINE_S - (perf_counter() - started))
    result = last_json(out)
    values = dict(result["values"])
    if not args.trace:
        setups.append(float(result["setup_s"]))
        values["setup_s"] = statistics.median(setups)
    lines = out.strip().splitlines()[:-1]
    if setups:
        lines.append(f"set-up samples: {len(setups)} fresh interpreters")
    lines += [f"{name} = {value!r} s (median over passes)"
              for name, value in result.get("phases", {}).items()]
    attempted, failed = int(result["attempted"]), int(result["failed"])
    if not args.trace:  # the traced run reports it as a per-layer metric
        lines.append(f"ops_failed_frac = {failed / attempted!r} "
                     f"ratio ({failed} of {attempted} operations failed)")
    return lines, {"correct": failed == 0,
                   "attempted": attempted, "failed": failed, "values": values}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    work = WORK_ROOT / f"run-{os.getpid()}"
    try:
        lines, result = measure(args, work)
    except (BenchmarkError, subprocess.SubprocessError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    values = result.pop("values")
    names = [metric["name"] for metric in declared]
    if sorted(values) != sorted(names):
        print(f"error: measured {sorted(values)} but BENCHMARK.json declares "
              f"{sorted(names)}", file=sys.stderr)
        return 1
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for line in lines:
        print(line)
    metrics = {}
    for metric in declared:
        value = float(values[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} = {value!r} {metric['unit']}")
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
