"""One benchmark run: set-up, warm-up, the timed section, the optional traced
section, and the result and report it prints."""

from __future__ import annotations

import ctypes
import os
import platform
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import spec
from tracer import Tracer
from workloads import (Outcome, Scale, check_against_batch, end_to_end, percentile_ms, run_phases,
                       setup, timed_setup, warm_up)

NO_WAIT_NOTE = ("no layer has a queue: every call runs as soon as its caller makes it, "
                "so there is no wait time to report")


def run(workload: str, seed: int, seconds: float, trace: bool, scale: Scale,
        out_dir: Path) -> tuple[dict, dict]:
    """Returns (result, report); ``result`` is the benchmark's last output line."""
    if trace:
        # A traced run reports only per-layer metrics, which are per record
        # processed. Its two sections run fixed counts with a quarter of the
        # scoring, so every version of the program is divided by the same mix
        # of records; score-stream leaves train() out, so that its figures
        # are forward-only.
        scale = replace(scale, min_requests=scale.min_requests // 4,
                        train_reps={**scale.train_reps, "score-stream": 0})
        seconds = 0.0
    load_start = os.getloadavg()
    work_dir = out_dir / f"{workload}-{seed}-{os.getpid()}"
    try:
        inputs, setup_s = timed_setup(workload, seed, scale, work_dir)
        warm_up(inputs, scale)
        base = run_phases(inputs, scale, seconds)
        check_against_batch(inputs, scale, base)
        if (len(base.train_walls) < scale.train_reps[workload] or not base.latencies
                or not base.batch_records):
            raise RuntimeError("the timed section did not finish:\n" + "\n".join(base.errors))
        e2e = end_to_end(base, setup_s)
        outcomes = [base]
        report = {
            "workload": workload, "seed": seed, "seconds": seconds, "inputs": inputs.digest,
            "predict_samples": len(base.latencies),
            # p95 and p99 are reported here but are not end-to-end metrics:
            # host stalls of a few hundred ms move them by up to a third
            # between runs on a small shared VM
            "predict_tail_ms": {f"p{q}": percentile_ms(base.latencies, q) for q in (95, 99)},
            "train_runs": len(base.train_walls),
            "batch_records": base.batch_records,
            "end_to_end": e2e,
            "waiting": NO_WAIT_NOTE,
        }
        if trace:
            tracer = Tracer()
            shutil.rmtree(work_dir, ignore_errors=True)
            with tracer:
                traced_inputs = setup(workload, seed, scale, work_dir)
                traced = run_phases(traced_inputs, scale, seconds, tracer)
            check_against_batch(traced_inputs, scale, traced)
            outcomes.append(traced)
            summary = tracer.summary(traced.records_processed)
            overhead = _overhead_pct(base, traced)
            metrics, not_found = per_layer_metrics(summary, overhead, tracer)
            traced_e2e = end_to_end(traced, setup_s) if not traced.failed else {}
            report["trace"] = {
                "end_to_end_traced": traced_e2e,
                # traced minus untraced; set-up and peak RSS are not re-measured
                "overhead_by_metric": {k: v - e2e[k] for k, v in traced_e2e.items()
                                       if k not in ("setup_s", "peak_rss_mb")},
                "overhead_pct": overhead,
                "coverage": summary["coverage"],
                "records_processed": summary["records"],
                "predict_calls": len(traced.latencies),
                "batch_records": traced.batch_records,
                "spans": summary["spans"],
                "not_found": not_found,
                "functions": summary["functions"],
                "encoders": summary["encoders"],
                "lstm": summary["lstm"],
            }
            out_dir.mkdir(parents=True, exist_ok=True)
            span_file = out_dir / f"spans-{workload}-seed{seed}.jsonl.gz"
            tracer.write(span_file)
            report["trace"]["span_file"] = str(span_file)
        else:
            metrics = e2e
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    units = spec.PER_LAYER if trace else spec.END_TO_END
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    report["failed_ratio"] = failed / attempted
    report["errors"] = [e for o in outcomes for e in o.errors][:20]
    report["machine"] = machine(load_start)
    for err in report["errors"]:
        print(err, file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    return result, report


def _overhead_pct(base: Outcome, traced: Outcome) -> float:
    """Relative increase, in %, of timed wall time per record processed."""
    per_base = base.wall / base.records_processed
    per_traced = traced.wall / traced.records_processed
    return (per_traced / per_base - 1.0) * 100.0


def per_layer_metrics(summary: dict, overhead_pct: float, tracer: Tracer):
    """The per-layer metrics named in ``spec.PER_LAYER``, and the listed
    functions the tracer did not find in the program. A function that was
    not called reads 0."""
    not_found = [fn for fn in spec.LAYER_FUNCTIONS if fn not in tracer.wrapped_names]
    values: dict[str, float] = {}
    for fn in spec.LAYER_FUNCTIONS:
        f = summary["functions"].get(fn, {"self_us": 0.0, "calls": 0.0})
        values[f"{fn}.self_us"] = f["self_us"]
        values[f"{fn}.calls"] = f["calls"]
    for m in spec.ENCODER_MODALITIES:
        enc = summary["encoders"].get(m, {})
        for key in ("forward_us", "backward_us", "rows_per_call"):
            values[f"encoders.{m}.{key}"] = enc.get(key, 0.0)
    lstm = summary["lstm"]
    values["nncore.lstm_forward.live_row_ratio"] = lstm.get("all", {}).get("live_row_ratio", 0.0)
    for m in spec.TEXT_MODALITIES:
        for key in ("rows_per_call", "steps_per_call", "max_steps", "live_row_ratio"):
            values[f"nncore.lstm_forward.{m}.{key}"] = lstm.get(m, {}).get(key, 0.0)
    values["untraced.self_us"] = summary["untraced_self_us"]
    values["trace.coverage"] = summary["coverage"]
    values["trace.overhead_pct"] = overhead_pct
    return values, not_found


def machine(load_start) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _blas_threads() -> int | None:
    """Ask the loaded OpenBLAS how many threads it uses; None if it is not
    OpenBLAS or does not say."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None
