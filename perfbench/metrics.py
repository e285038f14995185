"""Metric arithmetic of the GEAttack benchmark.

geabench (the C++ driver) writes a raw run record: set-up timings, one entry
per EvaluateAttack call or service request, counters, checks and, in the
traced run, spans.  Everything derived from those records lives here, so
the self-tests in perfbench/tests exercise exactly the arithmetic the
benchmark reports.  No function here touches a clock.
"""

import math
import statistics

# End-to-end metrics: every workload reports every one of them, and
# BENCHMARK.json bounds each on every workload.  name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "targets_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

# Workload-specific end-to-end figures.  Printed and recorded by the
# untraced run of the workloads they apply to; not gated (see README).
FIGURES = {
    "asr_t": ("ratio", "higher"),
    "f1_gap": ("ratio", "higher"),
    "svc_lo.p50_ms": ("ms", "lower"),
    "svc_lo.p99_ms": ("ms", "lower"),
    "svc_hi.p50_ms": ("ms", "lower"),
    "svc_hi.p99_ms": ("ms", "lower"),
    "svc_hi.goodput_tps": ("1/s", "higher"),
    "svc.miss_frac": ("ratio", "lower"),
    "churn.p50_ms": ("ms", "lower"),
    "churn.p90_ms": ("ms", "lower"),
    "recover_s": ("s", "lower"),
    "gen.late_p99_ms": ("ms", "lower"),
}

# Per-layer metrics of the traced run.  name -> (unit, better).
PER_LAYER = {
    "graph.build_ms": ("ms", "lower"),
    "nn.train_ms": ("ms", "lower"),
    "nn.train_epochs": ("count", "lower"),
    "nn.forward_ms": ("ms", "lower"),
    "tensor.spmm_ms": ("ms", "lower"),
    "tensor.spmm_bytes": ("B", "lower"),
    "eval.context_ms": ("ms", "lower"),
    "eval.prepare_ms": ("ms", "lower"),
    "eval.prepare_kept_frac": ("ratio", "higher"),
    "eval.inspect_p50_ms": ("ms", "lower"),
    "driver.busy_frac": ("ratio", "higher"),
    "driver.queue_wait_p50_ms": ("ms", "lower"),
    "driver.tail_ms": ("ms", "lower"),
    "attack.geattack.p50_ms": ("ms", "lower"),
    "attack.geattack.max_ms": ("ms", "lower"),
    "attack.geattack.ms_per_edge": ("ms", "lower"),
    "attack.geattack_pg.p50_ms": ("ms", "lower"),
    "attack.fga_t.p50_ms": ("ms", "lower"),
    "attack.failed": ("count", "lower"),
    "attack.timed_out": ("count", "lower"),
    "explain.gnn.calls": ("count", "lower"),
    "explain.gnn.p50_ms": ("ms", "lower"),
    "explain.pg.train_ms": ("ms", "lower"),
    "explain.pg.p50_ms": ("ms", "lower"),
    "defense.p50_ms": ("ms", "lower"),
    "defense.pruned_edges": ("count", "lower"),
    "defense.hit_frac": ("ratio", "higher"),
    "service.submit_p50_ms": ("ms", "lower"),
    "service.attempt_p50_ms": ("ms", "lower"),
    "service.queue_wait_p50_ms": ("ms", "lower"),
    "service.queue_wait_p99_ms": ("ms", "lower"),
    "service.max_queue_depth": ("count", "lower"),
    "service.rejected": ("count", "lower"),
    "service.shed": ("count", "lower"),
    "service.retried": ("count", "lower"),
    "service.requeued_stale": ("count", "lower"),
    "snapshot.apply_churn_ms": ("ms", "lower"),
    "snapshot.epoch_bytes": ("B", "lower"),
    "journal.wal_bytes": ("B", "lower"),
    "journal.records": ("count", "lower"),
    "gen.late_p99_ms": ("ms", "lower"),
}

# The service workload's fixed limits (mirrored in the README).
LATENCY_LIMIT_MS = 250.0  # A completed request slower than this is a miss.
GEN_LATE_BOUND_MS = 20.0  # A run whose generator ran later is invalid.
MIN_CHURN_SAMPLES = 100  # churn.p90_ms needs this many batches.

PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_SAMPLES_BEYOND = 10


# ---------------------------------------------------------------------------
# Percentiles.
# ---------------------------------------------------------------------------


def _rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples.  Rounded
    before the ceiling so 99.9% of 10000 is rank 9990, not 9991."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def highest_percentile(n, ladder=PERCENTILE_LADDER):
    """The highest percentile of `ladder` with at least ten samples beyond
    it, or None when even the lowest has fewer."""
    best = None
    for p in ladder:
        if samples_beyond(n, p) >= MIN_SAMPLES_BEYOND:
            best = p
    return best


def percentile_entry(values, p):
    """{value, n, valid}: `valid` when p is reportable for len(values)."""
    n = len(values)
    if n == 0:
        return {"value": float("nan"), "n": 0, "valid": False}
    top = highest_percentile(n)
    return {"value": percentile(values, p), "n": n,
            "valid": top is not None and p <= top}


# ---------------------------------------------------------------------------
# Open-loop latency.
# ---------------------------------------------------------------------------


def due_latency_ms(due_us, send_start_us, service_latency_ms):
    """Latency of one request timed from when it was due, not when it was
    sent: generator lateness plus the service's admission-to-result time."""
    return (send_start_us - due_us) / 1000.0 + service_latency_ms


def generator_lateness_ms(sends):
    """How far the generator itself ran behind the schedule, per request.

    `sends` are (due_us, send_start_us, send_end_us) in schedule order, all
    from one generator thread.  A send is late by the time between the
    moment the generator was free to make it -- its due time, or the end of
    the previous send if that returned after it -- and the moment it did.
    Time the previous Submit spent blocked inside the service is not
    generator lateness: the due-time latency of every request already
    charges it to the service.
    """
    late = []
    prev_end = float("-inf")
    for due, start, end in sends:
        late.append(max(0.0, (start - max(due, prev_end)) / 1000.0))
        prev_end = end
    return late


# ---------------------------------------------------------------------------
# Spans: self time, driver utilisation, Chrome trace export.
# ---------------------------------------------------------------------------


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "request", "thread")

    def __init__(self, id, parent, name, start, end, request=-1, thread=0):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start  # Microseconds.
        self.end = end
        self.request = request
        self.thread = thread

    @property
    def ms(self):
        return (self.end - self.start) / 1000.0


def spans_from_raw(rows):
    return [Span(*row) for row in rows]


def covered_us(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if min(b, end) > max(a, start))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times_us(spans):
    """{span id: self time}: duration minus the part of the span's interval
    its child spans cover.  Children running in parallel on other threads
    cover the interval once, not once per child."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) -
            covered_us(s.start, s.end, children.get(s.id, []))
            for s in spans}


def self_time_table(spans):
    """Rows (name, count, total_ms, self_ms) sorted by self time."""
    selfs = self_times_us(spans)
    rows = {}
    for s in spans:
        count, total, own = rows.get(s.name, (0, 0.0, 0.0))
        rows[s.name] = (count + 1, total + (s.end - s.start) / 1000.0,
                        own + selfs[s.id] / 1000.0)
    return sorted(((name, c, t, o) for name, (c, t, o) in rows.items()),
                  key=lambda r: -r[3])


def driver_phase_metrics(phase, tasks, workers):
    """Driver utilisation of one fan-out phase.

    `phase` is the span of the call that fanned out (EvaluateAttack); its
    attack phase runs from the phase start to the end of the last task.
    `tasks` are the per-target attack spans, tagged by worker thread.
    Returns (busy_us, capacity_us, queue_waits_us, tail_us): busy time over
    `workers` x attack-phase length, each task's wait from the phase start,
    and the tail: attack-phase end minus the moment the first worker ran out
    of tasks.
    """
    if not tasks:
        return 0.0, 0.0, [], 0.0
    end = max(t.end for t in tasks)
    busy = sum(t.end - t.start for t in tasks)
    capacity = workers * (end - phase.start)
    waits = [t.start - phase.start for t in tasks]
    last_by_worker = {}
    for t in tasks:
        last_by_worker[t.thread] = max(last_by_worker.get(t.thread, 0.0), t.end)
    # A worker that never got a task ran out at the phase start.
    idle_workers = workers - len(last_by_worker)
    first_out = phase.start if idle_workers > 0 else min(last_by_worker.values())
    return busy, capacity, waits, end - first_out


def chrome_trace(spans, pid=1):
    """Chrome Trace Event Format ("X" complete events), openable in Perfetto."""
    events = []
    for s in spans:
        events.append({
            "name": s.name, "ph": "X", "ts": s.start, "dur": s.end - s.start,
            "pid": pid, "tid": s.thread,
            "args": {"id": s.id, "parent": s.parent, "request": s.request},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# Raw record -> metrics.
# ---------------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else float("nan")


def setup_seconds(raw):
    """The run's set-up time (the median over runs is the repetition)."""
    return raw["setup"]["total_s"]


def peak_rss_mb(raw):
    return raw["vmhwm_kb"] / 1024.0


def campaign_figures(raw, traced_pass=False):
    """targets_per_s and the paper's quality figures from the evaluations
    of one kind of pass (untraced, or the traced pass of a traced run)."""
    evals = [e for e in raw["evaluations"] if e["traced"] == traced_pass]
    targets = sum(e["targets"] for e in evals)
    wall_s = sum(e["wall_ms"] for e in evals) / 1000.0
    first = {e["column"]: e for e in evals if e["pass"] == evals[0]["pass"]}
    return {
        "targets_per_s": targets / wall_s if wall_s > 0 else float("nan"),
        "asr_t": first["geattack"]["asr_t"],
        "f1_gap": first["fga_t"]["f1"] - first["geattack"]["f1"],
        "targets_evaluated": targets,
        "failed": sum(e["failed"] + e["timed_out"] + e["skipped"] + e["shed"]
                      for e in evals),
    }


def service_figures(raw):
    """Open-loop latency, goodput, misses, churn and recovery figures."""
    out = {}
    counts = {}
    misses = 0
    sent = 0
    late = []
    for phase, label in ((0, "svc_lo"), (1, "svc_hi")):
        rows = [r for r in raw["requests"] if r[0] == phase]
        late += generator_lateness_ms([(r[1], r[2], r[3]) for r in rows])
        lat = []
        good = 0
        origin = min(r[1] for r in rows)
        last_done = origin
        for _, due, start, _end, service_ms, status, _ticket, _epoch in rows:
            sent += 1
            if status != 0:  # Rejected, shed or failed: a miss.
                misses += 1
                continue
            latency = due_latency_ms(due, start, service_ms)
            lat.append(latency)
            last_done = max(last_done, due + latency * 1000.0)
            if latency <= LATENCY_LIMIT_MS:
                good += 1
            else:
                misses += 1
        for p in (50, 99):
            entry = percentile_entry(lat, p)
            out[f"{label}.p{p}_ms"] = entry["value"]
            counts[f"{label}.p{p}_ms"] = entry
        if phase == 1:
            out["svc_hi.goodput_tps"] = good / ((last_done - origin) / 1e6)
    out["svc.miss_frac"] = misses / sent
    churn = [c[3] for c in raw["churn"]]
    for p in (50, 90):
        entry = percentile_entry(churn, p)
        out[f"churn.p{p}_ms"] = entry["value"]
        counts[f"churn.p{p}_ms"] = entry
    out["recover_s"] = raw["recover_s"]
    late_entry = percentile_entry(late, 99)
    out["gen.late_p99_ms"] = late_entry["value"]
    counts["gen.late_p99_ms"] = late_entry
    out["targets_per_s"] = out["svc_hi.goodput_tps"]
    return out, counts, sent


def end_to_end(raw):
    """(metrics, figures, counts, attempted, failed) of an untraced run."""
    metrics = {"setup_s": setup_seconds(raw), "peak_rss_mb": peak_rss_mb(raw)}
    counts = {}
    if raw["workload"] == "service_live":
        figures, counts, attempted = service_figures(raw)
        stats = raw["stats"]
        failed = (stats["rejected"] + stats["shed"] + stats["failed"] +
                  stats["timed_out"] + stats["skipped"])
    else:
        figures = campaign_figures(raw)
        attempted = figures.pop("targets_evaluated")
        failed = figures.pop("failed")
    metrics["targets_per_s"] = figures.pop("targets_per_s")
    return metrics, figures, counts, attempted, failed


def _p50(spans, name):
    values = [s.ms for s in spans if s.name == name]
    return median(values), len(values)


def _under(spans, by_id, ancestor_name):
    """Spans with an ancestor named `ancestor_name`."""
    out = []
    for s in spans:
        p = s.parent
        while p >= 0:
            if by_id[p].name == ancestor_name:
                out.append(s)
                break
            p = by_id[p].parent
    return out


def per_layer(raw):
    """(metrics, reached) of a traced run: every PER_LAYER metric, 0 where
    the workload does not reach the layer (listed in `reached` = False)."""
    spans = spans_from_raw(raw["spans"])
    by_id = {s.id: s for s in spans}
    m = {name: 0.0 for name in PER_LAYER}
    reached = {name: False for name in PER_LAYER}

    def put(name, value):
        if value is None or (isinstance(value, float) and math.isnan(value)):
            return
        m[name] = value
        reached[name] = True

    setup = raw["setup"]
    for name in ("graph.build", "nn.train", "nn.forward", "eval.context",
                 "eval.prepare", "explain.pg.train"):
        if f"{name}_ms" in setup:
            put(f"{name}_ms", setup[f"{name}_ms"])
    world = raw["world"]
    put("nn.train_epochs", world["train_epochs"])
    put("eval.prepare_kept_frac", world["prepared"] / world["selected"])

    probes = raw.get("probes", {})
    if any(s.name == "tensor.spmm" for s in spans):
        put("tensor.spmm_ms", _p50(spans, "tensor.spmm")[0])
        put("tensor.spmm_bytes", probes["spmm_bytes"])
    if any(s.name == "eval.inspect" for s in spans):
        put("eval.inspect_p50_ms", _p50(spans, "eval.inspect")[0])

    attack_names = ("attack.fga_t", "attack.geattack", "attack.geattack_pg")
    evaluate = [s for s in spans if s.name == "eval.evaluate"]
    if evaluate:
        busy = capacity = tail = 0.0
        waits = []
        for phase in evaluate:
            tasks = [s for s in spans
                     if s.parent == phase.id and s.name in attack_names]
            b, c, w, t = driver_phase_metrics(phase, tasks, raw["nproc"])
            busy += b
            capacity += c
            waits += w
            tail += t
        put("driver.busy_frac", busy / capacity if capacity else None)
        put("driver.queue_wait_p50_ms", median(waits) / 1000.0)
        put("driver.tail_ms", tail / 1000.0)

    for key in ("geattack", "geattack_pg", "fga_t"):
        values = [s.ms for s in spans if s.name == f"attack.{key}"]
        if values:
            put(f"attack.{key}.p50_ms", median(values))
    gea = [s for s in spans if s.name == "attack.geattack"]
    if gea:
        put("attack.geattack.max_ms", max(s.ms for s in gea))
        edges = {p[4]: p[3] for p in raw.get("picks", [])}
        total_edges = sum(edges.get(s.id, 0) for s in gea)
        if total_edges:
            put("attack.geattack.ms_per_edge",
                sum(s.ms for s in gea) / total_edges)
    if "picks" in raw:
        put("attack.failed", sum(1 for p in raw["picks"] if p[2] not in (0, 2)))
        put("attack.timed_out", sum(1 for p in raw["picks"] if p[2] == 2))

    if evaluate:
        inside = _under(spans, by_id, "eval.evaluate")
        calls = sum(1 for s in inside if s.name == "explain.gnn")
        if calls:
            put("explain.gnn.calls", calls)
    for key in ("gnn", "pg"):
        p50, n = _p50(spans, f"explain.{key}")
        if n:
            put(f"explain.{key}.p50_ms", p50)
    steps = raw.get("protocol_steps", [])
    if steps:
        put("defense.p50_ms", _p50(spans, "defense.inspect_prune")[0])
        pruned = sum(s["pruned_edges"] for s in steps)
        hits = sum(s["true_adversarial_pruned"] for s in steps)
        put("defense.pruned_edges", pruned)
        put("defense.hit_frac", hits / pruned if pruned else 0.0)

    if raw["workload"] == "service_live":
        stats = raw["stats"]
        put("service.submit_p50_ms", _p50(spans, "service.submit")[0])
        attempts = {}
        for s in spans:
            if s.name == "attack.fga_t" and s.request >= 0:
                attempts[s.request] = attempts.get(s.request, 0.0) + s.ms
        put("service.attempt_p50_ms", median(list(attempts.values())))
        waits = []
        for _, due, start, _end, service_ms, status, ticket, _ in raw["requests"]:
            if status == 0 and ticket in attempts:
                waits.append(service_ms - attempts[ticket])
        put("service.queue_wait_p50_ms", percentile(waits, 50))
        put("service.queue_wait_p99_ms", percentile(waits, 99))
        for name in ("max_queue_depth", "rejected", "shed", "retried",
                     "requeued_stale"):
            put(f"service.{name}", stats[name])
        put("snapshot.apply_churn_ms", median(probes["apply_churn_ms"]))
        put("snapshot.epoch_bytes", probes["epoch_bytes"])
        put("journal.wal_bytes", probes["wal_bytes"])
        put("journal.records", probes["wal_records"])
        put("gen.late_p99_ms", service_figures(raw)[0]["gen.late_p99_ms"])
        put("attack.failed", stats["failed"])
        put("attack.timed_out", stats["timed_out"])
    return m, reached
