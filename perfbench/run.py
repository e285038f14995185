#!/usr/bin/env python3
"""The GEAttack benchmark: build, run one workload, check it, report it.

    python3 perfbench/run.py --workload paper_campaign --seed 1 --seconds 10
    python3 perfbench/run.py --workload service_live --trace 1
    python3 perfbench/run.py --workload all          # every workload
    python3 perfbench/run.py --selftest              # the arithmetic tests

Run from the root of a checkout.  The first run builds perfbench/ (the
library from src/ plus the geabench driver) into .bench_build/.  Each
workload runs in a fresh geabench process, so its peak RSS is its own.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  Any failed correctness check exits with status 1.  The full
record (host block, figures, checks, sample counts) and, for the traced run,
the Chrome trace and the self-time table land in .bench_build/results/.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # Leave no __pycache__ in the checkout.

import metrics  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ("paper_campaign", "sparse_20k", "service_live")
RUN_TIMEOUT_S = 170.0  # geabench must finish well inside 180 s.


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    # CARGO_TARGET_DIR, when set, overrides the build directory.
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out):
    """Configures (once) and builds geabench; returns its path or None."""
    if not (ROOT / "src").is_dir():
        log("run.py: no src/ next to perfbench/: nothing to build")
        return None
    cmds = []
    if not (out / "CMakeCache.txt").exists():
        cmds.append(["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", str(out), "-j",
                 str(len(os.sched_getaffinity(0)))])
    for cmd in cmds:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("run.py: build failed:", " ".join(cmd))
            return None
    binary = out / "geabench"
    return binary if binary.exists() else None


def host_block(raw, seed):
    def read(path, key):
        try:
            for line in open(path):
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(HERE.rglob("*")):
        if path.is_file() and path.suffix in (".h", ".cc", ".py", ".txt"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": read("/proc/cpuinfo", "model name"),
        "mem_total": read("/proc/meminfo", "MemTotal"),
        "kernel": platform.release(),
        "compiler": raw["build"]["compiler"],
        "cxx_flags": raw["build"]["cxx_flags"].strip(),
        "build_type": raw["build"]["build_type"],
        "openmp_linked": raw["build"]["openmp"],
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith(("OMP_", "GEATTACK_"))},
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns its result line, or None when the run
    produced no usable record."""
    results = build_dir() / "results"
    tmp = build_dir() / "tmp"
    results.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    stem = results / f"{workload}-seed{seed}-trace{trace}"
    raw_path = stem.with_suffix(".raw.json")
    if raw_path.exists():
        raw_path.unlink()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(raw_path), "--tmp", str(tmp)]
    log(f"run.py: {workload} seed={seed} seconds={seconds} trace={trace}")
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
        return None
    if done.returncode not in (0, 1) or not raw_path.exists():
        log(f"run.py: geabench exited {done.returncode} without a record")
        return None
    raw = json.loads(raw_path.read_text())
    checks = list(raw["checks"])

    if trace:
        values, reached = metrics.per_layer(raw)
        table = {name: (values[name], unit, better)
                 for name, (unit, better) in metrics.PER_LAYER.items()}
        figures, counts = {}, {}
        attempted, failed = _traced_counts(raw)
    else:
        values, figures, counts, attempted, failed = metrics.end_to_end(raw)
        reached = {name: True for name in values}
        table = {name: (values[name], unit, better)
                 for name, (unit, better) in metrics.END_TO_END.items()}
        checks += _figure_checks(raw, values, figures, counts)

    correct = all(c["ok"] for c in checks)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "correct": correct,
        "wall_s": time.monotonic() - started,
        "host": host_block(raw, seed),
        "world": raw["world"], "setup": raw["setup"],
        "metrics": {k: {"value": v, "unit": u, "better": b}
                    for k, (v, u, b) in table.items()},
        "figures": {k: {"value": v, "unit": metrics.FIGURES[k][0],
                        "better": metrics.FIGURES[k][1]}
                    for k, v in figures.items()},
        "percentile_samples": counts,
        "checks": checks,
    }
    if trace:
        record["reached"] = reached
        record["tracing_overhead"] = _tracing_overhead(raw, stem)
        spans = metrics.spans_from_raw(raw["spans"])
        trace_path = stem.with_suffix(".trace.json")
        trace_path.write_text(json.dumps(metrics.chrome_trace(spans)))
        rows = metrics.self_time_table(spans)
        record["self_time"] = [
            {"span": n, "count": c, "total_ms": t, "self_ms": s}
            for n, c, t, s in rows]
        _print_self_time(rows)
        log(f"run.py: spans -> {trace_path}")
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))

    _print_table(workload, trace, table, reached, figures, counts, checks)
    line = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in
                    table.items()},
    }
    return line


def _traced_counts(raw):
    if raw["workload"] == "service_live":
        stats = raw["stats"]
        return stats["submitted"], (stats["rejected"] + stats["shed"] +
                                    stats["failed"] + stats["timed_out"] +
                                    stats["skipped"])
    evals = raw["evaluations"]
    return (sum(e["targets"] for e in evals),
            sum(e["failed"] + e["timed_out"] + e["skipped"] + e["shed"]
                for e in evals))


def _figure_checks(raw, values, figures, counts):
    """Checks on the derived figures: validity of percentiles, generator
    lateness, and every gated metric finite and non-zero."""
    checks = []
    for name, value in values.items():
        checks.append({"name": f"metric_positive.{name}",
                       "ok": math.isfinite(value) and value > 0,
                       "detail": fmt(value)})
    if raw["workload"] == "service_live":
        for name, entry in counts.items():
            checks.append({"name": f"percentile_reportable.{name}",
                           "ok": entry["valid"],
                           "detail": f"{entry['n']} samples"})
        checks.append({"name": "churn_samples",
                       "ok": len(raw["churn"]) >= metrics.MIN_CHURN_SAMPLES,
                       "detail": f"{len(raw['churn'])} UpdateGraph calls"})
        late = figures["gen.late_p99_ms"]
        checks.append({"name": "generator_on_schedule",
                       "ok": late <= metrics.GEN_LATE_BOUND_MS,
                       "detail": f"gen.late_p99_ms {late:.3f} <= "
                                 f"{metrics.GEN_LATE_BOUND_MS}"})
    return checks


def _tracing_overhead(raw, stem):
    """Traced minus untraced end-to-end figures.

    The campaigns measure both in one process (an undecorated pass, then the
    decorated one).  For every workload, the untraced run's record of the
    same seed, when present, gives the difference in each metric too."""
    out = {}
    if raw["workload"] != "service_live":
        plain = metrics.campaign_figures(raw, traced_pass=False)
        traced = metrics.campaign_figures(raw, traced_pass=True)
        out["in_process.targets_per_s"] = (traced["targets_per_s"] -
                                           plain["targets_per_s"])
    untraced = pathlib.Path(str(stem).replace("-trace1", "-trace0") + ".json")
    if untraced.exists():
        base = json.loads(untraced.read_text())
        if raw["workload"] == "service_live":
            traced_e2e, traced_fig, _, _, _ = metrics.end_to_end(raw)
            values = {**traced_e2e, **traced_fig}
        else:
            values = metrics.campaign_figures(raw, traced_pass=True)
            values["setup_s"] = metrics.setup_seconds(raw)
            values["peak_rss_mb"] = metrics.peak_rss_mb(raw)
        for name, value in values.items():
            ref = base["metrics"].get(name) or base["figures"].get(name)
            if ref is not None:
                out[f"vs_untraced_run.{name}"] = value - ref["value"]
    return out


def _print_table(workload, trace, table, reached, figures, counts, checks):
    kind = "per-layer (traced)" if trace else "end-to-end"
    print(f"== {workload}: {kind} metrics")
    for name, (value, unit, better) in table.items():
        note = "" if reached.get(name, True) else "   (layer not reached)"
        print(f"  {name:32s} {fmt(value):>14s} {unit:6s} {better}-is-better"
              f"{note}")
    if figures:
        print(f"== {workload}: workload figures (recorded, not gated)")
        for name, value in figures.items():
            unit, better = metrics.FIGURES[name]
            entry = counts.get(name)
            n = f"   n={entry['n']}" if entry else ""
            print(f"  {name:32s} {fmt(value):>14s} {unit:6s} "
                  f"{better}-is-better{n}")
    failed = [c for c in checks if not c["ok"]]
    print(f"== {workload}: {len(checks) - len(failed)}/{len(checks)} checks "
          "passed")
    for c in failed:
        print(f"  FAILED {c['name']}: {c['detail']}")


def _print_self_time(rows):
    print("== self time by span (ms)")
    print(f"  {'span':28s} {'count':>7s} {'total':>12s} {'self':>12s}")
    for name, count, total, own in rows:
        print(f"  {name:28s} {count:7d} {total:12.2f} {own:12.2f}")


def main():
    # On SIGTERM, unwind through subprocess.run, which kills and waits for
    # the child (build or geabench) before re-raising.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's arithmetic self-tests")
    args = parser.parse_args()

    if args.selftest:
        import unittest
        suite = unittest.defaultTestLoader.discover(str(HERE / "tests"))
        ok = unittest.TextTestRunner(stream=sys.stderr).run(suite)
        return 0 if ok.wasSuccessful() else 1

    binary = build(build_dir())
    if binary is None:
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    # All workloads with --trace 1 also run each untraced first, so the
    # traced record can report the tracing overhead against it.
    modes = (0, 1) if args.workload == "all" and args.trace else (args.trace,)
    lines = {}
    for name in names:
        for trace in modes:
            line = run_workload(binary, name, args.seed, args.seconds, trace)
            if line is None:
                return 1
            lines[f"{name}-trace{trace}"] = line
    if len(lines) == 1:
        line = next(iter(lines.values()))
    else:
        line = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{w.rsplit('-trace', 1)[0]}/{k}": v
                        for w, l in lines.items()
                        for k, v in l["metrics"].items()},
        }
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
