"""One benchmark process: set up, report ready, run the loop, check outputs.

Started by ``run.py``, which times set-up from process start to the
``ready`` line.  Protocol lines on stdout start with ``PROTOCOL``; anything
else (the CLI's own "wrote ..." lines) is ignored by the parent.

Set-up imports ``memchannel`` from the checkout's ``src`` (which runs the
``admap`` import self-check), parses a config and sends one untimed
single-point request on the workload's integration path, so lazy
initialisation, such as OpenBLAS starting its threads on the first 64-dim
product, is paid before timing.
BLAS threading is left as users get it: nothing here sets a thread count.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROTOCOL = "@@perfbench"
TRACE_CYCLES = 1  # the traced run and its untraced replay cover these cycles on every commit


def emit(kind: str, payload=None) -> None:
    line = f"{PROTOCOL} {kind}" + ("" if payload is None else " " + json.dumps(payload))
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def import_program():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import memchannel

    if Path(memchannel.__file__).resolve().parent != SRC / "memchannel":
        raise ImportError(f"memchannel imported from {memchannel.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def closed_loop(cli, stream, threads: int, outdir: Path, seconds: float | None = None,
                cycles: int | None = None, tracer=None) -> dict:
    """One client sending request cycles back to back.

    Runs exactly ``cycles`` whole cycles, or ends on the cycle boundary
    nearest to ``seconds`` (at least one cycle).
    """
    done = []
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    i = 0
    while cycles is None or i < cycles:
        for req in stream.cycle(i):
            if tracer is not None:
                tracer.request = len(done)
            config = cli.parse_config(req.text)
            c0, r0 = time.process_time(), time.perf_counter()
            rc, err = None, None
            try:
                rc = cli.run(config, outdir, threads)
            except Exception as exc:  # a failed request is counted, not fatal
                err = f"{type(exc).__name__}: {exc}"
            r1, c1 = time.perf_counter(), time.process_time()
            done.append({"req": req, "rc": rc, "err": err, "wall": r1 - r0, "cpu": c1 - c0})
        i += 1
        elapsed = time.perf_counter() - t0
        if cycles is None and elapsed + elapsed / i / 2 >= seconds:
            break
    return {"wall": time.perf_counter() - t0, "cycles": i, "done": done}


def preset_requests(workload):
    """The shipped figure presets the workload's requests mirror, at their own sizes."""
    from memchannel import cli

    from perfbench.workloads import Request

    for kind in workload.kinds:
        config = cli.parse_config((SRC / "memchannel" / "figures" / f"{kind.preset}.cfg")
                                  .read_text())
        v = config.values
        taus = tuple(v["tau_p"] + off for off in v["tau_offsets"])
        yield Request(config.kind, "", "", v["tau_p"], v["gamma"], taus, len(taus),
                      v.get("quantity", "coherent" if "p" in v else "holevo"),
                      v.get("p", v.get("p_tilde")))


def check_all(result: dict, outdir: Path) -> dict:
    from perfbench.checks import check_request

    attempted = failed = 0
    reasons = []
    for d in result["done"]:
        out = check_request(d["req"], outdir / d["req"].output, d["rc"], d["err"])
        attempted += out.attempted
        failed += out.failed
        reasons += [f"{d['req'].kind}: {r}" for r in out.reasons[:3]]
    return {"attempted": attempted, "failed": failed, "reasons": reasons[:10]}


def layer_metrics(tracer, stream, traced: dict, untraced: dict, outdir: Path) -> dict:
    """Per-layer metrics of a traced pass and its untraced replay."""
    from perfbench import opcount, tracing

    spans = tracer.spans
    stats = tracing.span_stats(spans)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def fn(name, keys=("calls", "busy_s")):
        s = stats.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for k in keys:
            put(f"{name}.{k}", s[k], "count" if k == "calls" else "s")

    put("cli.parse_config.busy_s", stats.get("cli.parse_config", {}).get("busy_s", 0.0), "s")
    fn("cli.run", ("calls", "busy_s", "self_s"))
    put("cli.run.cpu_s", sum(d["cpu"] for d in traced["done"]), "s")
    run_busy = stats["cli.run"]["busy_s"]
    put("cli.run.parallelism", tracing.outermost_busy(spans, "experiments") / run_busy, "ratio")
    csv_bytes = sum((outdir / d["req"].output).stat().st_size
                    for d in traced["done"] if d["err"] is None)
    put("cli.csv_bytes", csv_bytes, "bytes")
    for name in ("coherent_sweep", "holevo_sweep", "dephasing_comparison"):
        fn(f"experiments.{name}", ("calls", "busy_s", "self_s"))
    integrators = ("run_schedule", "run_ensemble")
    for name in integrators:
        fn(f"dynamics.{name}")

    # computed counts of the requests the traced run sent: exact for a seed
    counts = opcount.total_counts(d["req"] for d in traced["done"])
    put("dynamics.rk4_steps.transit", counts.transit_steps, "count")
    put("dynamics.rk4_steps.idle", counts.idle_steps, "count")
    put("dynamics.state_steps", counts.state_steps, "count")
    put("dynamics.transit_gflop", counts.transit_flop / 1e9, "GFLOP")
    put("dynamics.repeated_window_frac", counts.repeated_windows / counts.windows, "ratio")
    preset = opcount.total_counts(preset_requests(stream.workload))
    put("dynamics.repeated_window_frac.preset", preset.repeated_windows / preset.windows, "ratio")
    integ_busy = sum(stats.get(f"dynamics.{n}", {}).get("busy_s", 0.0) for n in integrators)
    put("dynamics.us_per_state_step", 1e6 * integ_busy / counts.state_steps, "us")

    for name in ("von_neumann_entropy", "coherent_information", "holevo_information",
                 "mutual_information", "holevo_via_enlarged"):
        fn(f"infomeasures.{name}")
    for name in ("purified_qubit_train", "holevo_separable_ensemble", "DensityMatrix.ptrace"):
        fn(f"states.{name}")
    fn("states.Ensemble.average_state", ("busy_s",))
    for name in ("partial_trace", "eigvals_hermitian"):
        fn(f"qlinalg.{name}")
    for name in ("eta_gamma", "memoryless_Q", "memoryless_C1"):
        fn(f"admap.{name}")
    for layer in tracing.LAYERS:
        put(f"{layer}.self_s", sum(s["self_s"] for n, s in stats.items()
                                   if n.split(".")[0] == layer), "s")
    put("trace.traced_wall_s", traced["wall"], "s")
    put("trace.untraced_wall_s", untraced["wall"], "s")
    put("trace.overhead_s", traced["wall"] - untraced["wall"], "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path, help="write the traced run's spans here (JSON lines)")
    args = ap.parse_args(argv)

    import_program()
    from memchannel import admap, cli

    from perfbench.workloads import LAM, RequestStream

    def optimum(quantity, gamma, tau_p):
        eta = admap.eta_gamma(gamma, LAM, tau_p)
        return (admap.memoryless_Q if quantity == "coherent" else admap.memoryless_C1)(eta)[1]

    stream = RequestStream(args.workload, args.seed, optimum)
    threads = stream.workload.threads
    cli.run(cli.parse_config(stream.warmup().text), args.outdir / "warmup", threads)
    emit("ready")
    if args.setup_only:
        return 0

    report = {"env": environment(), "input_size": stream.workload.input_size}
    timed = args.outdir / "timed"
    if args.trace:
        from perfbench.tracing import Tracer

        with Tracer() as tracer:
            result = closed_loop(cli, stream, threads, timed, cycles=TRACE_CYCLES, tracer=tracer)
        replay = closed_loop(cli, stream, threads, args.outdir / "replay", cycles=TRACE_CYCLES)
        report["metrics"] = layer_metrics(tracer, stream, result, replay, timed)
        report["spans"] = len(tracer.spans)
        if args.spans:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans)
    else:
        result = closed_loop(cli, stream, threads, timed, seconds=args.seconds)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.update(check_all(result, timed))
    report["wall"] = result["wall"]
    report["cycles"] = result["cycles"]
    report["requests"] = [d["wall"] for d in result["done"]]
    emit("result", report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
