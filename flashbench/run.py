#!/usr/bin/env python3
"""flashgen benchmark: builds the benchmark program from source, runs one
workload (or all of them) and prints its metrics.

    python3 flashbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is table1_cvaegan, serve_generate, serve_thresholds, characterize, or
all. Run it from the repository root. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: with
--trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics (from a traced run, plus outside-in timing). Lines before
it stamp the run and print the workload's own metrics by name.

Everything the benchmark writes goes under the build directory
($CARGO_TARGET_DIR, default .bench_build): the CMake build, one temporary
working directory per run (removed afterwards), the result documents, and
the output fingerprints that later runs at the same seed must reproduce.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # write nothing next to the sources
sys.path.insert(0, HERE)
import trace_summary  # noqa: E402

# FLASHGEN_THREADS per workload (capped at the host's CPUs). The serve
# workloads run single-threaded replicas so that the two replicas, the
# server's event loop and the driver thread fit in four CPUs.
THREADS = {"table1_cvaegan": 4, "serve_generate": 1, "serve_thresholds": 1, "characterize": 4}
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

TENSOR_OPS = ["gemm", "conv2d", "conv2d_backward", "conv_transpose2d",
              "conv_transpose2d_backward", "im2col", "col2im", "batch_norm2d", "autograd"]
EVAL_TENSOR_OPS = ["gemm", "conv2d", "conv_transpose2d", "im2col", "col2im", "batch_norm2d"]


def load_metric_units():
    """Names and units of the end-to-end and per-layer metrics, as
    BENCHMARK.json lists them: the one list of metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


E2E_UNITS, PER_LAYER_UNITS = load_metric_units()
UNITS = dict(PER_LAYER_UNITS, **E2E_UNITS)


def fail(message, code=1):
    print(f"flashbench: {message}", file=sys.stderr)
    sys.exit(code)


def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, q):
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(len(v) - 1, lo + 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def source_hash():
    """sha256 over the library sources and the benchmark itself."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(build_dir):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the flashgen sources (src/) are missing next to the benchmark", 2)
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "flashbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(cmake_dir, "flashbench")


def run_binary(binary, build_dir, workload, seed, seconds, trace):
    """Runs one workload in a fresh working directory; returns its result
    document and the trace path (or None)."""
    run_dir = os.path.join(build_dir, "runs", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = dict(os.environ)
    for var in ("FLASHGEN_CACHE_DIR", "FLASHGEN_TRACE", "FLASHGEN_FAULTS"):
        env.pop(var, None)
    env["FLASHGEN_THREADS"] = str(threads_for(workload))
    env["TMPDIR"] = run_dir
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    trace_path = os.path.join(run_dir, "trace.json") if trace else None
    if trace_path:
        cmd += ["--trace", trace_path]
    try:
        proc = subprocess.run(cmd, cwd=run_dir, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(run_dir, ignore_errors=True)
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if proc.returncode != 0 or result is None:
        shutil.rmtree(run_dir, ignore_errors=True)
        fail(f"{workload} exited with code {proc.returncode}")
    return result, run_dir, trace_path


def threads_for(workload):
    return max(1, min(THREADS[workload], os.cpu_count() or 1))


# ---- workload metrics ------------------------------------------------------

def phase(w, name):
    for p in w["phases"]:
        if p["name"] == name:
            return p
    return None


def stage_delta(before, after, stage):
    """Mean of one server stage over the requests between two stats reads."""
    a = after["stages"].get(stage, {"count": 0, "mean_us": 0.0})
    b = (before or {"stages": {}})["stages"].get(stage, {"count": 0, "mean_us": 0.0})
    n = a["count"] - b["count"]
    if n <= 0:
        return 0.0
    return (a["mean_us"] * a["count"] - b["mean_us"] * b["count"]) / n


def serve_point(w, name):
    """Server-side numbers of one load point: the stats read after it minus
    the stats read after the phase before it."""
    i = next(i for i, p in enumerate(w["phases"]) if p["name"] == name)
    p = w["phases"][i]
    before = w["phases"][i - 1]["server"] if i > 0 else None
    after = p["server"]
    m = {f"{s}_mean_us": stage_delta(before, after, s)
         for s in ("decode", "queue_wait", "infer_wait", "write")}
    batches = after["batches"] - (before["batches"] if before else 0)
    rows = after["batched_rows"] - (before["batched_rows"] if before else 0)
    m["batch_mean_size"] = rows / batches if batches else 0.0
    cap = after["batch_capacity"]
    m["batch_occupancy"] = m["batch_mean_size"] / cap if cap else 0.0
    server_ms = (m["decode_mean_us"] + m["infer_wait_mean_us"] + m["write_mean_us"]) / 1000.0
    m["client_gap_ms.p50"] = p["client"]["latency_ms"]["p50"] - server_ms
    return m


def table1_metrics(w):
    rows = w["rows"]
    steps = [ms for r in rows for ms in r["step_ms"]]
    named = {
        "setup_s": median(w["setup_s"] + [r["setup_s"] for r in rows]),
        "train_samples_per_s": median([r["steps"] * r["batch"] / r["fit_s"] for r in rows]),
        "train_step_p50_ms": quantile(steps, 0.5),
        "train_step_p90_ms": quantile(steps, 0.9),
        "eval_rows_per_s": median([r["eval_rows"] / r["eval_s"] for r in rows]),
        "eval_tv_overall": rows[0]["tv_overall"],
    }
    generic = {
        "work_per_s": named["train_samples_per_s"],
        "op_p50_ms": named["train_step_p50_ms"],
    }
    return named, generic


def serve_named(w):
    """The metrics both serve workloads report."""
    light, heavy = phase(w, "light")["client"], phase(w, "heavy")["client"]
    return {
        "setup_s": median(w["setup_s"]),
        "gen_p50_ms.light": light["latency_ms"]["p50"],
        "gen_p99_ms.light": light["latency_ms"]["p99"],
        "gen_p50_ms.heavy": heavy["latency_ms"]["p50"],
        "gen_p99_ms.heavy": heavy["latency_ms"]["p99"],
        "gen_saturated_rps": w["gen_saturated_rps"],
    }


def serve_generate_metrics(w):
    named = dict(serve_named(w), gen_max_rps=w["gen_max_rps"])
    generic = {
        "work_per_s": named["gen_saturated_rps"],
        "op_p50_ms": named["gen_p50_ms.light"],
    }
    return named, generic


def serve_thresholds_metrics(w):
    named = dict(serve_named(w), thr_cold_p50_ms=w["thr_cold_ms"]["p50"],
                 thr_warm_p50_ms=w["thr_warm_ms"]["p50"])
    generic = {
        "work_per_s": named["gen_saturated_rps"],
        "op_p50_ms": named["thr_cold_p50_ms"],
    }
    return named, generic


def characterize_metrics(w):
    named = {
        "setup_s": median(w["setup_s"]),
        "char_cells_per_s": w["cells"] / w["elapsed_s"],
    }
    generic = {
        "work_per_s": named["char_cells_per_s"],
        "op_p50_ms": quantile(w["block_ms"], 0.5),
    }
    return named, generic


NAMED = {
    "table1_cvaegan": table1_metrics,
    "serve_generate": serve_generate_metrics,
    "serve_thresholds": serve_thresholds_metrics,
    "characterize": characterize_metrics,
}

def untraced(doc, trace):
    """The document without the traced part of a traced Table I run (its
    last row), so workload metrics always come from untraced work."""
    if not trace or doc["workload"] != "table1_cvaegan":
        return doc
    w = doc["workload_result"]
    return dict(doc, workload_result=dict(w, rows=w["rows"][:-1]))


def end_to_end(doc):
    w = doc["workload_result"]
    named, generic = NAMED[doc["workload"]](w)
    named["peak_rss_mb"] = doc["peak_rss_mb"]
    named["failed_frac"] = doc["failed"] / doc["attempted"] if doc["attempted"] else 0.0
    generic["setup_s"] = named["setup_s"]
    generic["peak_rss_mb"] = doc["peak_rss_mb"]
    return named, generic


# ---- per-layer metrics (traced run) ----------------------------------------

def per_layer(doc, trace_path):
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    w = doc["workload_result"]
    workload = doc["workload"]
    named, _ = end_to_end(untraced(doc, True))
    m.update({k: v for k, v in named.items() if k in m})
    spans = trace_summary.load_spans(trace_path)
    tables = []
    for parent in trace_summary.DEFAULT_PARENTS:
        instances, total, rows = trace_summary.summarize(spans, parent)
        if instances:
            tables.append(trace_summary.format_table(parent, instances, total, rows))
    if workload == "table1_cvaegan":
        base, traced = w["rows"][-2], w["rows"][-1]
        m["models.step_ms.p50"] = quantile(base["step_ms"], 0.5)
        m["models.step_ms.p90"] = quantile(base["step_ms"], 0.9)
        m["pipeline.wait_ms_per_step"] = sum(base["wait_ms"]) / base["steps"]
        _, total, rows = trace_summary.summarize(spans, "bench.setup")
        flash_us = sum(v[0] for k, v in rows.items() if k.startswith("flash."))
        m["core.setup.flash_s"] = flash_us / 1e6
        m["core.setup.other_s"] = (total - flash_us) / 1e6
        n, _, rows = trace_summary.summarize(spans, "train.step")
        for op in TENSOR_OPS:
            m[f"tensor.{op}.self_ms_per_step"] = rows.get(f"tensor.{op}", [0, 0])[0] / 1000 / n
        m["tensor.gemm.calls_per_step"] = rows.get("tensor.gemm", [0, 0])[1] / n
        for part in ("d_step", "g_step", "encoder", "generator"):
            m[f"models.{part}_ms"] = rows.get(f"models.{part}", [0, 0])[0] / 1000 / n
        m["models.train_step_self_ms"] = rows.get("train.step (self)", [0, 0])[0] / 1000 / n
        _, total, rows = trace_summary.summarize(spans, "bench.evaluate")
        eval_rows = traced["eval_rows"]
        for op in EVAL_TENSOR_OPS:
            m[f"tensor.{op}.self_us_per_eval_row"] = rows.get(f"tensor.{op}", [0, 0])[0] / eval_rows
        tensor_us = sum(v[0] for k, v in rows.items() if k.startswith("tensor."))
        m["eval.score_ms"] = (total - tensor_us) / 1000
        base_s = base["setup_s"] + base["fit_s"] + base["eval_s"]
        m["trace.overhead_pct"] = 100.0 * ((traced["setup_s"] + traced["fit_s"]
                                            + traced["eval_s"]) / base_s - 1.0)
    elif workload == "characterize":
        blocks = len(w["block_ms"])
        m["flash.cells_per_s"] = w["cells"] / (sum(w["block_ms"]) / 1000.0)
        m["flash.block_ms.p50"] = quantile(w["block_ms"], 0.5)
        m["eval.histogram_add_ms"] = w["histogram_ms"] / blocks
        m["eval.thresholds_ms"] = w["thresholds_ms"] / blocks
        m["eval.ici_ms"] = w["ici_ms"] / blocks
        m["trace.overhead_pct"] = 100.0 * (w["traced_s"] / w["elapsed_s"] - 1.0)
    else:
        m["engine.batch1_ms"] = w["engine"]["batch1_ms"]
        m["engine.batch8_ms_per_row"] = w["engine"]["batch8_ms_per_row"]
        for point in ("light", "heavy"):
            for name, value in serve_point(w, point).items():
                m[f"serve.{name}.{point}"] = value
        last = w["phases"][-1]["server"]
        m["serve.queue_depth_peak"] = last["queue_depth_peak"]
        m["serve.shed"] = last["shed"]
        m["serve.errors"] = last["errors"]
        lates = [p["client"]["late_ms"] for p in w["phases"]]
        m["driver.late_ms.p99"] = max(x["p99"] for x in lates)
        m["driver.late_ms.max"] = max(x["max"] for x in lates)
        heavy = phase(w, "heavy")["client"]["latency_ms"]["p50"]
        traced = phase(w, "heavy_traced")["client"]["latency_ms"]["p50"]
        m["trace.overhead_pct"] = 100.0 * (traced / heavy - 1.0) if heavy else 0.0
        if workload == "serve_thresholds":
            m["thresholds.sample_ms_per_query"] = w["thr_sample_ms_per_query"]
            m["thresholds.fit_ms_per_query"] = w["thr_fit_ms_per_query"]
            m["thresholds.rows_per_cold_query"] = w["thr_rows_per_cold_query"]
            m["thresholds.cache_queries"] = w["thr_answered"]
            m["thresholds.cache_hit_ratio"] = (w["thr_from_cache"] / w["thr_answered"]
                                               if w["thr_answered"] else 0.0)
    return m, tables


# ---- output ----------------------------------------------------------------

def check_fingerprint(build_dir, doc, src_hash):
    """Outputs that must not change between runs at one seed, one source
    tree, one GEMM backend and one ISA (backends need not agree bit for bit):
    the Table I row and the characterization pass."""
    fingerprint = doc["workload_result"].get("fingerprint")
    if fingerprint is None:
        return True
    refs = os.path.join(build_dir, "refs")
    os.makedirs(refs, exist_ok=True)
    key = "-".join(str(part) for part in (doc["workload"], doc["seed"], src_hash[:16],
                                            doc["gemm_backend"], doc["isa"]))
    path = os.path.join(refs, "".join(c if c.isalnum() or c in "-_." else "_" for c in key))
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip() == fingerprint
    with open(path, "w") as f:
        f.write(fingerprint + "\n")
    return True


def run_one(binary, build_dir, src_hash, workload, seed, seconds, trace):
    doc, run_dir, trace_path = run_binary(binary, build_dir, workload, seed, seconds, trace)
    try:
        if not check_fingerprint(build_dir, doc, src_hash):
            doc["correct"] = False
            doc["problems"].append("output fingerprint differs from an earlier run at this seed")
        correct = doc["correct"]
        stamp = {
            "workload": workload, "seed": seed, "trace": int(trace),
            "host_cpus": doc["host_cpus"], "isa": doc["isa"],
            "FLASHGEN_GEMM_BACKEND": os.environ.get("FLASHGEN_GEMM_BACKEND", "(unset)"),
            "gemm_backend": doc["gemm_backend"],
            "FLASHGEN_THREADS": threads_for(workload),
            "git_sha": git_sha(), "source_sha256": src_hash,
        }
        print("stamp " + json.dumps(stamp))
        for problem in doc["problems"]:
            print(f"CHECK FAILED: {problem}")
        named, generic = end_to_end(untraced(doc, trace))
        for name, value in named.items():
            print(f"  {workload:17s} {name:22s} {value:14.6g} {UNITS[name]}")
        if trace:
            layers, tables = per_layer(doc, trace_path)
            unlisted = sorted(set(layers) - set(PER_LAYER_UNITS))
            if unlisted:
                fail(f"per-layer metrics missing from BENCHMARK.json: {', '.join(unlisted)}")
            for table in tables:
                print(table)
            for name, value in layers.items():
                print(f"  {workload:17s} {name:40s} {value:14.6g} {PER_LAYER_UNITS[name]}")
            metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layers.items()}
        else:
            metrics = {k: {"value": generic[k], "unit": u} for k, u in E2E_UNITS.items()}
        results = os.path.join(build_dir, "results")
        os.makedirs(results, exist_ok=True)
        with open(os.path.join(results, f"{workload}-{seed}-trace{int(trace)}.json"), "w") as f:
            json.dump({"stamp": stamp, "named": named, "metrics": metrics, "raw": doc}, f)
        return correct, doc["attempted"], doc["failed"], named, metrics
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(THREADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    src_hash = source_hash()
    workloads = sorted(THREADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics, by_workload = True, 0, 0, {}, {}
    for workload in workloads:
        ok, n, bad, named, metrics = run_one(binary, build_dir, src_hash, workload, args.seed,
                                             args.seconds, bool(args.trace))
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
        by_workload[workload] = named
    if args.workload == "all":
        # One line for the whole suite: every workload's metrics by name, a
        # name that several workloads report suffixed with the workload.
        counts = {}
        for named in by_workload.values():
            for name in named:
                counts[name] = counts.get(name, 0) + 1
        metrics = {name if counts[name] == 1 else f"{name}.{workload}":
                   {"value": value, "unit": UNITS[name]}
                   for workload, named in by_workload.items() for name, value in named.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
