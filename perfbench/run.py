"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Run from the root of a checkout.  The program is imported from ``src``; no
build step is needed.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
separate traced run over a fixed number of cycles, so its counts and
totals cover the same requests on every commit.  Lines before it record the environment, the input
size and each metric with its unit and sample count.

End-to-end metrics (tracing off):
  setup_s        median over SETUP_SAMPLES fresh processes of the time from
                 process start to ready (import, self-check, config parsing,
                 one warm-up request on the integration path)
  points_per_s   CSV rows that pass every check, per second of timed wall time
                 (whole cycles, ending on the cycle boundary nearest to --seconds,
                 so every run has the same request mix)
  request_p50_s  median wall time of one ``cli.run`` call (one sweep)
  peak_rss_mb    peak resident memory of the measuring process
  ok_rate        points passing every check / points attempted (1 - error rate)
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

WORKER = Path(__file__).resolve().with_name("worker.py")
PROTOCOL = "@@perfbench"
SETUP_SAMPLES = 5  # the measuring process plus four set-up-only processes
DEADLINE_S = 170.0  # whole run, so the benchmark exits within its 180 s limit
RUN_DIR = ROOT / ".perfbench_run"
SPANS_DIR = ROOT / ".perfbench_spans"


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return (seconds from start to ready, result payload)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    lines: list[tuple[float, str]] = []

    def read():
        for line in proc.stdout:
            lines.append((time.perf_counter(), line.rstrip("\n")))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker exceeded the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join(timeout=10.0)
        proc.stdout.close()
    ready = [t for t, line in lines if line == f"{PROTOCOL} ready"]
    results = [line.split(" ", 2)[2] for _, line in lines if line.startswith(f"{PROTOCOL} result ")]
    if rc != 0 or not ready:
        raise WorkerError(f"worker exited with status {rc}")
    return ready[0] - t0, (json.loads(results[-1]) if results else None)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="memchannel benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "memchannel" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    run_dir = RUN_DIR / str(os.getpid())
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    try:
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                t, _ = spawn(common + ["--seconds", "0", "--setup-only",
                                       "--outdir", str(run_dir / f"setup{k}")], deadline)
                setups.append(t)
        extra = ["--trace", "1", "--spans",
                 str(SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl")] if args.trace else []
        t, res = spawn(common + ["--seconds", str(args.seconds), "--outdir",
                                 str(run_dir / "main")] + extra, deadline)
        setups.append(t)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if res is None:
        print("benchmark failed: worker printed no result", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    requests = res["requests"]
    print(f"environment: {json.dumps(res['env'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 client, "
          f"{WORKLOADS[args.workload].threads} point thread(s); {res['cycles']} cycles, "
          f"{len(requests)} requests, {attempted} points in {res['wall']:.3f} s")
    print(f"input size: {res['input_size']}")
    print(f"error_rate: {failed / attempted:.6g} ({failed} of {attempted} points failed)")
    for reason in res["reasons"]:
        print(f"  failure: {reason}")
    if args.trace:
        metrics = res["metrics"]
        print(f"spans: {res['spans']} (written to {SPANS_DIR.name}/)")
    else:
        ordered = sorted(requests)
        p50 = statistics.median(ordered)
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "points_per_s": metric((attempted - failed) / res["wall"], "1/s"),
            "request_p50_s": metric(p50, "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
            "ok_rate": metric((attempted - failed) / attempted, "ratio"),
        }
        print(f"setup samples (s): {', '.join(f'{t:.4f}' for t in setups)}")
        print(f"request samples: {len(ordered)}, min {ordered[0]:.4f} s, max {ordered[-1]:.4f} s")
        if len(ordered) >= 20:  # the highest percentile with at least ten samples beyond it
            q = 100.0 * (1.0 - 10.0 / len(ordered))
            print(f"request_p{q:.0f}_s: {ordered[-11]:.6g} s")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
