"""edgekpi benchmark: one workload, one seed, one JSON result line.

Run from the root of an edgekpi checkout:

  python3 perfbench/run.py --workload rtx-video --seed 1 --seconds 45 --trace 0

The workloads are defined in ``workloads.py`` and described in README.md.
The benchmark writes the workload's config (with the seed) under
``.perfbench_work/<workload>/``, times the set-up in several fresh
interpreters, then runs the workload in one more fresh interpreter
(``worker.py``) for ``--seconds``. Every operation's outputs are checked.

With ``--trace 0`` the result line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run. The lines
before it give the error rate, the simulate/analyze split, the failures seen
and the sha256 digest of every output file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, config_text

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
#: The whole run must end within this many seconds.
RUN_LIMIT_S = 175
#: Set-ups timed in their own interpreters before the measured one.
SETUP_PROBES = 8


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn_worker(argv: list[str], deadline: float) -> dict:
    """Run ``worker.py`` with ``argv`` and return its JSON result."""
    result = Path(argv[argv.index("--result") + 1])
    result.unlink(missing_ok=True)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv],
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {argv[0]} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"worker {argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text())


def time_setup(workload: str, work: Path, deadline: float) -> float:
    t0 = time.monotonic_ns()
    return spawn_worker(["setup", "--workload", workload, "--work", str(work), "--t0", str(t0),
                         "--result", str(work / "setup.json")], deadline)["setup_s"]


def run(args) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "edgekpi" / "__init__.py").is_file():
        raise BenchError(f"no edgekpi package under {root / 'src'}; run from the root of a checkout")
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "config.ini").write_text(config_text(args.workload, args.seed), encoding="utf-8")

    setups = []
    if not args.trace:
        # The first set-up also compiles the package's bytecode; it is timed
        # like the rest and the median keeps it from counting.
        setups = [time_setup(args.workload, work, deadline) for _ in range(SETUP_PROBES)]

    argv = ["run", "--workload", args.workload, "--work", str(work), "--seconds", str(args.seconds),
            "--result", str(work / "result.json")]
    if args.trace:
        argv.append("--trace")
    argv += ["--t0", str(time.monotonic_ns())]
    res = spawn_worker(argv, deadline)
    setups.append(res["setup_s"])

    ops = res["ops"]
    failed = sum(1 for op in ops if op["failures"] or op["problems"])
    correct = not any(op["problems"] for op in ops)
    if args.trace:
        values = res["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            # The fastest operation: noise from other tenants only slows a
            # run down, and the minimum is the statistic it moves least.
            "wall_s": min(op["wall_s"] for op in ops),
            "cpu_s": min(op["cpu_s"] for op in ops),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"the worker measured no {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    lines = [f"perfbench: workload={args.workload} seed={args.seed} trace={int(args.trace)} "
             f"ops={len(ops)} failed={failed} error_rate={failed / len(ops):.6f} setups={len(setups)}"]
    steps = [f"wall_median_s={statistics.median(op['wall_s'] for op in ops):.6f}"]
    for step in ("simulate_s", "analyze_s"):
        times = [op[step] for op in ops if step in op]
        if times:
            steps.append(f"{step}={statistics.median(times):.6f}")
    lines.append("perfbench: " + " ".join(steps))
    seen: dict[str, int] = {}
    for op in ops:
        for msg in op["failures"] + op["problems"]:
            seen[msg] = seen.get(msg, 0) + 1
    lines += [f"perfbench: failure x{count}: {msg}" for msg, count in seen.items()]
    if args.trace:
        lines.append(f"perfbench: spans written to {res['spans_file']}")
    lines.append("perfbench: digests " + json.dumps(res["digests"], sort_keys=True))
    result = {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="edgekpi benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time to spend on timed operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
