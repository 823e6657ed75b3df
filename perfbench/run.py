"""Run one benchmark workload against the SmartML service and report it.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tune_heavy --seed 1 --seconds 40 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the traced
variant and prints every per-layer metric.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report, the environment
stamp and the run's details.  The full result is also written under
``perfbench/.results/``.  The exit code is 0 only when every output check
passed; without the program's source (``src/repro``) next to this directory
the benchmark exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


class Context:
    """One run's settings, scratch directory and started processes."""

    def __init__(self, args, program_digest: str):
        self.root = ROOT
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.program_digest = program_digest
        self.workdir = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.services = []

    def service(self, workdir: Path, serve_args: list[str], spans_file: Path | None = None):
        """A server process this run will stop, whatever happens."""
        from perfbench.service import Service

        service = Service(self.root, workdir, serve_args, spans_file)
        self.services.append(service)
        return service

    def import_seconds(self, repeats: int = 3) -> float:
        """Median time a fresh interpreter takes to ``import repro.cli``."""
        from perfbench.service import child_env, pin_to_server_cpus

        code = "import time; t = time.perf_counter(); import repro.cli; print(time.perf_counter() - t)"
        times = [
            float(subprocess.run(
                [sys.executable, "-c", code], cwd=self.root, env=child_env(self.root),
                check=True, capture_output=True, text=True, timeout=120,
                preexec_fn=pin_to_server_cpus,
            ).stdout)
            for _ in range(repeats)
        ]
        return statistics.median(times)


def environment(program_digest: str) -> dict:
    import numpy as np

    from perfbench.service import THREAD_ENV, cpu_plan

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_plan": {"server": sorted(cpu_plan()[0]), "client": sorted(cpu_plan()[1])},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": commit,
        "program_digest": program_digest,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still stops the servers it started (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.service import THREAD_ENV, cpu_plan

    os.environ.update(THREAD_ENV)  # before numpy loads OpenBLAS
    os.sched_setaffinity(0, cpu_plan()[1])

    from perfbench.fixtures import source_digest
    from perfbench.workloads import E2E_METRICS, LAYER_METRICS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    program_digest = source_digest(ROOT / "src")
    ctx = Context(args, program_digest)
    shutil.rmtree(ctx.workdir, ignore_errors=True)
    ctx.workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](ctx)
        outcome = workload.run()
    finally:
        for service in ctx.services:
            service.kill()
        shutil.rmtree(ctx.workdir, ignore_errors=True)

    spec = LAYER_METRICS if ctx.trace else E2E_METRICS
    metrics = {
        name: {"value": float(outcome["metrics"][name]), "unit": unit} for name, unit in spec
    }
    env = environment(program_digest)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, entry in metrics.items():
        print(f"{name:36s} {entry['value']:>14.6g} {entry['unit']}")
    for failure in outcome["check_failures"]:
        print(f"CHECK FAILED: {failure}")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# details " + json.dumps(outcome["notes"], sort_keys=True, default=str))
    result = {
        "correct": outcome["correct"],
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }
    results_dir = BENCH_DIR / ".results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "env": env, "check_failures": outcome["check_failures"],
                    "notes": outcome["notes"]}, indent=1, sort_keys=True, default=str)
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
