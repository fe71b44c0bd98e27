"""Benchmark command: one workload, one seed, one process.

    python3 perfbench/run.py --workload uniform8-query --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root; the library is imported from src/. With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics, and
the spans are written to perfbench/results/. Earlier lines give the
environment, every stream's median, p99 and sample count, and any
failed operation. The full record also goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"


def _import_library():
    """Put the checkout's src/ and perfbench/ on the path; refuse to run
    on any other copy of the library."""
    src = ROOT / "src"
    if not (src / "waveletforest" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {src / 'waveletforest'}")
    sys.path[:0] = [str(src), str(ROOT)]
    import waveletforest
    if Path(waveletforest.__file__).resolve().parent != src / "waveletforest":
        sys.exit(f"perfbench: imported waveletforest from {waveletforest.__file__}")


def git_revision():
    """HEAD's commit, or None where the checkout is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the library's source files, names and contents: it
    names the code measured where git_revision cannot, in a copy of the
    tree without .git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "waveletforest").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "git_revision": git_revision(), "source_sha256": source_digest(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def main(argv=None) -> int:
    _import_library()
    from perfbench.engine import Run
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    env = environment(args)
    print("environment " + json.dumps(env), flush=True)
    run = Run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    metrics = run.run()
    details = run.details()
    for stream, row in details["streams"].items():
        tail = f" p99 {row['p99_ns']:.0f} ns" if "p99_ns" in row else ""
        if "untraced_warmup_median_ns" in row:
            tail += f" (untraced warm-up: {row['untraced_warmup_median_ns']:.0f} ns)"
        print(f"stream {stream}: median {row['median_ns']:.0f} ns{tail}"
              f" samples {row['samples']}")
    for note in run.check.notes:
        print("FAILED " + note)

    result = {"correct": run.check.failed == 0,
              "attempted": run.check.attempted, "failed": run.check.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run.tracer is not None:
        run.tracer.save(RESULTS / f"{stem}-spans.npz")
    record = {"environment": env, **result, "details": details,
              "failures": run.check.notes}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
