#!/usr/bin/env python3
"""Training-step benchmark for xflow.

  python3 perfbench/run.py --workload bert_base --seed 1 --seconds 35 --trace 0

Builds the library and the benchmark child (perfbench/step_runner.cpp) in
.bench_build/perfbench, generates the workload's inputs from --seed, runs
child processes that each train the workload for a fixed number of steps
through the whole-stack executor, checks the losses, and prints every
metric by name and unit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
one untraced and one traced child (the traced one also runs single-kernel
probes after training), reports the per-layer metrics and writes a Chrome
trace-event file. See perfbench/NOTES.md for the workloads, the metrics and
the known autotune deadlock the watchdog exists for.
"""

import argparse
import hashlib
import json
import math
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD_DIR, "step_runner")

DEV_SEED = 1        # the seed the benchmark was developed on
HELD_OUT_SEED = 7   # re-check performance claims on this seed too

# A child that prints no span event for this long is stalled: the slowest
# single span seen during development (the autotune priming of bert_base)
# is ~4 s, and about twice that in a slow phase of a shared host.
STALL_S = 30.0
# A run stops launching children once this much wall time has passed, so
# it exits well inside the 180 s a run may take.
RUN_BUDGET_S = 150.0
# At most this many replacement children after stalls or crashes.
MAX_REPLACEMENTS = 3
# A percentile needs at least this many samples beyond it.
MIN_TAIL = 10


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# steps: steps per child (step 0 is the cold step, the rest are timed).
# children: the minimum number of children a run launches; a run keeps
# launching children until it has measured --seconds.
WORKLOADS = {
    "bert_base": dict(layers=1, i=768, h=12, p=64, u=3072, b=8, j=128,
                      vocab=4096, budget_mib=0, threads=_nproc(),
                      steps=10, children=3),
    "deep_narrow": dict(layers=12, i=128, h=2, p=64, u=512, b=2, j=64,
                        vocab=4096, budget_mib=7, threads=_nproc(),
                        steps=40, children=3),
}


# ------------------------------------------------------------ statistics

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, pct):
    """The pct-th percentile (nearest rank), refused when fewer than
    MIN_TAIL samples lie beyond it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_TAIL:
        raise ValueError(
            "p%g of %d samples has %d beyond it (< %d)"
            % (pct, len(ordered), beyond, MIN_TAIL))
    return ordered[rank - 1]


# ---------------------------------------------------------------- build

def source_digest():
    """sha256 over the library sources and the benchmark's own files: the
    "same code" key for the cross-run loss-digest check."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if not f.endswith((".pyc",)) and "__pycache__" not in d)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def build():
    """Configures (once) and builds the benchmark; build output goes to
    stderr so stdout stays the benchmark's own."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("no xflow source tree next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(_nproc())],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


# --------------------------------------------------------------- inputs

def make_inputs(workload, seed):
    """Token ids and the three init seeds, all from (workload, seed)."""
    w = WORKLOADS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    tokens = [rng.randrange(w["vocab"]) for _ in range(w["b"] * w["j"])]
    seeds = {k: rng.randrange(1, 2 ** 31)
             for k in ("init-seed", "target-seed", "dropout-seed")}
    os.makedirs(os.path.join(BUILD_DIR, "inputs"), exist_ok=True)
    path = os.path.join(BUILD_DIR, "inputs", "%s-%d.txt" % (workload, seed))
    with open(path, "w") as fh:
        fh.write(" ".join(map(str, tokens)) + "\n")
    return path, seeds


def child_command(workload, tokens_path, seeds, trace=False):
    w = WORKLOADS[workload]
    cmd = [RUNNER]
    for key in ("layers", "i", "h", "p", "u", "b", "j", "vocab", "threads",
                "steps"):
        cmd.append("--%s=%d" % (key, w[key]))
    cmd.append("--budget-mib=%g" % w["budget_mib"])
    cmd.append("--tokens=" + tokens_path)
    cmd += ["--%s=%d" % kv for kv in sorted(seeds.items())]
    if trace:
        cmd.append("--trace")
    return cmd


def child_env():
    """The caller's environment without any XFLOW_* knob: the benchmark
    runs the library's defaults (threads come from --threads)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("XFLOW_")}


# ------------------------------------------------------------- watchdog

class ChildOutcome:
    def __init__(self):
        self.spans = []        # (name, step, t_begin, t_end, depth)
        self.losses = {}       # step -> (hex bits, float)
        self.errors = []       # (step, message) from X lines
        self.result = None     # the R line's JSON
        self.stalled = ""      # why the watchdog killed it, if it did
        self.cut = False       # killed at the run budget while progressing
        self.returncode = None
        self.open_spans = []   # spans still open when the child ended
        self.stderr = ""
        self.wall_s = 0.0
        self.traced = False

    @property
    def finished(self):
        return (not self.stalled and not self.cut and self.returncode == 0
                and self.result is not None)

    def last_open(self):
        return " > ".join("%s[%d]" % (n, s) for n, s, _ in self.open_spans)


def run_child(cmd, env, stall_s, deadline):
    """Runs one child, reading its span events as a heartbeat. A child that
    prints nothing for stall_s seconds is stalled and killed; one still
    running at `deadline` (a time.monotonic() value) is cut and killed.
    Always waits for the child."""
    out = ChildOutcome()
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True, bufsize=1)
    lines = queue.Queue()
    err_chunks = []

    def pump_stdout():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    def pump_stderr():
        for line in proc.stderr:
            err_chunks.append(line)

    readers = [threading.Thread(target=pump_stdout, daemon=True),
               threading.Thread(target=pump_stderr, daemon=True)]
    for r in readers:
        r.start()
    last_event = time.monotonic()
    try:
        while True:
            now = time.monotonic()
            if now >= deadline:
                out.cut = True
                break
            if now - last_event >= stall_s:
                out.stalled = "no span event for %.0f s" % stall_s
                break
            try:
                line = lines.get(timeout=min(stall_s - (now - last_event),
                                             deadline - now))
            except queue.Empty:
                continue
            if line is None:
                break
            last_event = time.monotonic()
            _parse_line(line.rstrip("\n"), out)
    finally:
        if proc.poll() is None:
            proc.kill()
        out.returncode = proc.wait()
        for r in readers:
            r.join(timeout=5)
        proc.stdout.close()
        proc.stderr.close()
    out.stderr = "".join(err_chunks)
    out.wall_s = time.monotonic() - t0
    return out


def _parse_line(line, out):
    tag, _, rest = line.partition(" ")
    if tag == "B":
        name, step, t = rest.split()
        out.open_spans.append((name, int(step), float(t)))
    elif tag == "E":
        name, step, t = rest.split()
        if not out.open_spans or out.open_spans[-1][0] != name:
            raise ValueError("unbalanced span event: " + line)
        _, _, t0 = out.open_spans.pop()
        out.spans.append((name, int(step), t0, float(t),
                          len(out.open_spans)))
    elif tag == "L":
        step, bits, value = rest.split()
        out.losses[int(step)] = (bits, float(value))
    elif tag == "X":
        step, _, msg = rest.partition(" ")
        out.errors.append((int(step), msg))
    elif tag == "R":
        out.result = json.loads(rest)


# ------------------------------------------------------------ one child

def span_times(outcome, name):
    """step -> duration of the span `name` in that step."""
    return {s: t1 - t0 for n, s, t0, t1, _ in outcome.spans if n == name}


def step_health(outcome, steps):
    """(steps that completed with a finite loss, failed steps)."""
    good = 0
    for s in range(steps):
        entry = outcome.losses.get(s)
        if entry is not None and math.isfinite(entry[1]) and not any(
                e[0] == s for e in outcome.errors):
            good += 1
    return good, steps - good


def loss_digest(outcome, steps):
    return hashlib.sha256(",".join(
        outcome.losses[s][0] for s in range(steps)).encode()).hexdigest()


# ------------------------------------------------------------------ run

class RunState:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.children = []        # ChildOutcome, in launch order
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = []


def check_child(state, outcome, digests):
    """The correctness gate for one finished child: every loss finite, the
    last below the first, and the loss digest equal to every other run's
    with the same code, seed and threads."""
    steps = state.w["steps"]
    good, bad = step_health(outcome, steps)
    if bad:
        state.notes.append("%d steps failed: %s" % (bad, outcome.errors[:1]))
        return False
    first, last = outcome.losses[0][1], outcome.losses[steps - 1][1]
    if not last < first:
        state.notes.append("loss did not decrease: %r -> %r" % (first, last))
        return False
    digest = loss_digest(outcome, steps)
    if digests.setdefault("run", digest) != digest:
        state.notes.append("loss digest differs between children of a run")
        return False
    if digests.get("stored", digest) != digest:
        state.notes.append("loss digest differs from an earlier run of the "
                           "same code, seed and threads")
        return False
    return True


def run_children(state, tokens_path, seeds, plan, stall_s=STALL_S):
    """Runs the children `plan` lists (True for a traced child), then more
    untraced ones while less than --seconds has been measured, replacing
    children that stall or crash. Returns the children that ran every step;
    the correctness gate decides state.correct and state.failed, and a child
    that fails it still has its timings reported."""
    t_start = time.monotonic()
    deadline = t_start + RUN_BUDGET_S
    env = child_env()
    key = "%s|%s|seed=%d|threads=%d|steps=%d" % (
        source_digest(), state.workload, state.seed, state.w["threads"],
        state.w["steps"])
    store_path = os.path.join(BUILD_DIR, "loss_digests.json")
    try:
        with open(store_path) as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    digests = {}
    if key in store:
        digests["stored"] = store[key]
    finished = []
    replacements = 0
    pending = list(plan)
    measured = 0.0
    while True:
        if not pending:
            if measured >= state.seconds:
                break
            pending.append(False)
        if time.monotonic() >= deadline - 5:
            state.notes.append("run budget exhausted")
            break
        trace = pending.pop(0)
        cmd = child_command(state.workload, tokens_path, seeds, trace)
        outcome = run_child(cmd, env, stall_s, deadline)
        outcome.traced = trace
        state.children.append(outcome)
        steps = state.w["steps"]
        good, _ = step_health(outcome, steps)
        if outcome.cut:
            # Cut at the run budget while still making progress: a slow
            # host, not a hang, so only its completed steps count.
            state.attempted += good
            state.notes.append("child %d cut at the run budget in %s after "
                               "%d of %d steps; its unfinished steps are not "
                               "counted" % (len(state.children),
                                            outcome.last_open() or "-",
                                            good, steps))
            break
        state.attempted += steps
        if outcome.finished:
            measured += outcome.wall_s
            finished.append(outcome)
            if not check_child(state, outcome, digests):
                state.correct = False
                state.failed += steps
            continue
        state.failed += steps - good
        why = ("stalled (%s) in %s" % (outcome.stalled, outcome.last_open())
               if outcome.stalled else
               "exited with code %s in %s: %s" % (
                   outcome.returncode, outcome.last_open() or "-",
                   outcome.stderr.strip().splitlines()[-1:]))
        state.notes.append("child %d %s" % (len(state.children), why))
        if replacements < MAX_REPLACEMENTS:
            replacements += 1
            pending.insert(0, trace)
    if "stored" not in digests and "run" in digests and state.correct:
        store[key] = digests["run"]
        with open(store_path, "w") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
    return finished


def warm(outcome, name):
    """Durations of span `name` over the timed (warm) steps."""
    return [t for s, t in sorted(span_times(outcome, name).items()) if s > 0]


def end_to_end_metrics(state, finished):
    steps = state.w["steps"]
    tokens = state.w["b"] * state.w["j"]
    step_s = [t for o in finished for t in warm(o, "step")]
    if len(step_s) < 2 * MIN_TAIL:
        raise RuntimeError("only %d timed steps finished; the median needs "
                           "%d" % (len(step_s), 2 * MIN_TAIL))
    setup = [span_times(o, "setup")[0] for o in finished]
    m = {
        "tokens_per_s": tokens * len(step_s) / sum(step_s),
        "step_s.p50": percentile(step_s, 50),
        "setup_s": median(setup),
        "peak_rss_mib": median(o.result["peak_rss_mib"] for o in finished),
        "loss_final": finished[0].losses[steps - 1][1],
    }
    q1, _, q3 = quartiles(step_s)
    info = ["step_s samples: %d timed steps over %d children (%d steps "
            "each, step 0 is the cold step); quartiles %.6f .. %.6f s"
            % (len(step_s), len(finished), steps, q1, q3),
            "setup_s samples: %d children" % len(setup)]
    try:
        info.append("step_s.p90: %.6f s" % percentile(step_s, 90))
    except ValueError as e:
        info.append("step_s.p90 omitted: %s" % e)
    return m, info


def per_layer_metrics(state, finished):
    untraced = [o for o in finished if not o.traced]
    traced = [o for o in finished if o.traced]
    if not untraced or not traced:
        raise RuntimeError("trace run needs a finished untraced and a "
                           "finished traced child")
    o = traced[-1]
    r = o.result
    tokens = state.w["b"] * state.w["j"]

    def tps(children):
        xs = [t for c in children for t in warm(c, "step")]
        return tokens * len(xs) / sum(xs)

    hits, measures = r["warm_autotune_hits"], r["warm_autotune_measures"]
    m = {
        "transformer.init_s": span_times(o, "transformer.init")[0],
        "transformer.optimizer_s": median(warm(o, "transformer.optimizer")),
        "graph.plan_s": span_times(o, "graph.plan")[0],
        "graph.executor_build_s": span_times(o, "graph.executor_build")[0],
        "graph.forward_s": median(warm(o, "graph.forward")),
        "graph.backward_s": median(warm(o, "graph.backward")),
        "graph.cold_forward_s": span_times(o, "graph.forward")[0],
        "graph.cold_backward_s": span_times(o, "graph.backward")[0],
        "graph.plan_peak_mib": r["plan_peak_mib"],
        "graph.plan_naive_mib": r["plan_naive_mib"],
        "graph.recompute_layers": r["recompute_layers"],
        "graph.ops": r["graph_ops"],
        "fusion.kernel_launches": r["kernel_launches"],
        "config.autotune_prime_s":
            span_times(o, "config.autotune_prime").get(0, 0.0),
        "config.autotune_buckets": r["cold_autotune_measures"],
        "config.autotune_hit_ratio":
            hits / (hits + measures) if hits + measures else 1.0,
        "tensor.allocs_per_step": r["warm_tensor_allocs_per_step"],
        "tensor.table_builds_per_step": r["warm_table_builds_per_step"],
        "trace.overhead_ratio": tps(traced) / tps(untraced),
    }
    probes = r["probes"]
    for name in ("tensor.gemm_fwd_gflops", "tensor.gemm_dw_gflops",
                 "tensor.attn_bgemm_gflops", "ops.softmax_gbs",
                 "ops.bdrln_gbs", "common.half_cvt_ns",
                 "common.dropout_keep_ns"):
        m[name] = probes[name]
    info = ["probe rates use computed flop/bytes, not measured traffic",
            "common.half_cvt_ns buffer: %.0f MiB (LLC %.0f MiB)"
            % (probes["common.half_cvt_buffer_mib"], probes["common.llc_mib"]),
            "per-span memstats deltas: %s" % json.dumps(r["span_counters"],
                                                        sort_keys=True)]
    path, coverage = write_trace(state, o)
    info.append("trace: %s" % os.path.relpath(path, ROOT))
    info.append("step span coverage by its children: min %.4f, median %.4f"
                % (min(coverage), median(coverage)))
    return m, info


def write_trace(state, o):
    """Chrome trace-event JSON of one traced child; returns its path and,
    per step, the share of the step span its child spans cover."""
    events = []
    for name, step, t0, t1, depth in o.spans:
        events.append({"name": name, "cat": name.split(".")[0], "ph": "X",
                       "ts": t0 * 1e6, "dur": (t1 - t0) * 1e6, "pid": 1,
                       "tid": 1, "args": {"step": step, "depth": depth}})
    coverage = []
    for name, step, t0, t1, depth in o.spans:
        if name != "step":
            continue
        inner = sum(c1 - c0 for n, s, c0, c1, d in o.spans
                    if s == step and d == depth + 1 and c0 >= t0 and c1 <= t1)
        coverage.append(inner / (t1 - t0))
    os.makedirs(os.path.join(BUILD_DIR, "traces"), exist_ok=True)
    path = os.path.join(BUILD_DIR, "traces", "%s-seed%d.json" % (
        state.workload, state.seed))
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": provenance(state, o)}, fh)
    return path, coverage


def provenance(state, o):
    """Where a result came from, recorded with every report and trace."""
    r = o.result
    return {"commit": git_commit(), "source_sha256": source_digest()[:16],
            "compiler": r.get("compiler"), "flags": r.get("flags"),
            "cpu": r.get("cpu"), "nproc": r.get("nproc"),
            "threads": r.get("threads"), "workload": state.workload,
            "seed": state.seed, "dev_seed": DEV_SEED,
            "held_out_seed": HELD_OUT_SEED}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def format_result(spec, trace, correct, attempted, failed, values):
    """The final JSON line: every metric of the chosen list, by name and
    unit, and nothing else."""
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [d["name"] for d in declared]
    if sorted(names) != sorted(values):
        raise RuntimeError("metrics %s do not match BENCHMARK.json %s"
                           % (sorted(values), sorted(names)))
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
               for d in declared}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = load_spec()
    build()
    state = RunState(args.workload, args.seed, args.seconds)
    tokens_path, seeds = make_inputs(args.workload, args.seed)
    if args.trace:
        plan = [False, True]
        state.seconds = 0
    else:
        plan = [False] * state.w["children"]
    finished = run_children(state, tokens_path, seeds, plan)
    if not finished:
        raise RuntimeError("no child finished: " + "; ".join(state.notes))
    if args.trace:
        values, info = per_layer_metrics(state, finished)
    else:
        values, info = end_to_end_metrics(state, finished)

    prov = provenance(state, finished[0])
    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed,
                                              args.trace))
    for k in ("commit", "source_sha256", "compiler", "flags", "cpu", "nproc",
              "threads", "dev_seed", "held_out_seed"):
        print("  %-16s %s" % (k, prov[k]))
    units = {d["name"]: d["unit"]
             for d in spec["per_layer" if args.trace else "end_to_end"]}
    for name in sorted(values):
        print("  %-30s %.6g %s" % (name, values[name], units[name]))
    print("  %-30s %.4f (%d of %d training steps failed)" % (
        "fail_rate", state.failed / state.attempted, state.failed,
        state.attempted))
    for line in info + state.notes:
        print("  " + line)
    print(format_result(spec, args.trace, state.correct, state.attempted,
                        state.failed, values))
    return 0


if __name__ == "__main__":
    # On SIGTERM unwind normally, so run_child's cleanup kills and reaps
    # the running child instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.CalledProcessError,
            KeyError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(2)
