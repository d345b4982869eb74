"""Run one funalg benchmark workload and print its metrics.

    python3 bench/run.py --workload pr_stack --seed 1 --seconds 20 --trace 0

Run from the repository root; funalg is imported from ./src.  The run sets
up the workload (import, corpus parse, input generation) and builds its
derivations, then one client runs passes over the workload's checked cases
in a closed loop until --seconds have passed, at least one pass.  Set-up
and build are repeated between passes and reported as medians.  A case's
latency is its median over the passes; exact counts come from the first
pass.  Times are scaled to a reference machine speed (see REFERENCE_S).

With --trace 0 the last line of output is the JSON result holding every
end-to-end metric.  With --trace 1 untraced and traced passes alternate,
the result holds the per-layer metrics of the traced set-up, build and
first traced pass and the tracing overhead, and the spans are written to
bench/out/.  The line before the result describes the run: Python
version, nproc, seed, commit, failures with their base, and the tail
percentile with its sample count.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Set-up and build run once before the passes, for about GAP_S each
# between passes, and then again until there are at least this many
# samples; their metrics are the medians.  Spreading the samples over the
# run keeps a slow spell of a shared machine from setting them all.
SETUP_REPS = 7
BUILD_REPS = 7
GAP_S = 0.3
# A case still running after this many seconds is stopped and counts as
# failed, so one slow operation cannot hold the run past its time limit.
CASE_LIMIT_S = 15.0
# case_ms_tail is the highest percentile with this many cases beyond it
TAIL_BEYOND = 10
# Times are reported at a reference machine speed: each duration is scaled
# by REFERENCE_S over the duration of a fixed pure-Python kernel measured
# next to it (at least every KERNEL_EVERY_S within a pass).  A shared
# machine's speed drifts by up to 1.7x within minutes; the kernel, whose
# mix of generator sends, dict and tuple traffic and integer arithmetic
# resembles funalg's, drifts with it, so scaled times compare between
# runs.  REFERENCE_S is the kernel's median on the 2-core machine the
# bounds were set on; raw times are printed in the run line.
REFERENCE_S = 0.0025
KERNEL_EVERY_S = 0.25


class CaseTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CaseTimeout(f"case ran over {CASE_LIMIT_S} s")


def setup(name: str, seed: int, tr):
    """Import funalg and the workloads afresh, parse, generate inputs."""
    for mod in list(sys.modules):
        if mod in ("funalg", "workloads") or mod.startswith("funalg."):
            del sys.modules[mod]
    import workloads
    return workloads, workloads.WORKLOADS[name](seed, tr)


def _kernel_step(x):
    y = yield (x, x + 1)
    return y * 2


def _kernel() -> int:
    cache, acc = {}, 1
    for i in range(2000):
        g = _kernel_step(i)
        a, b = next(g)
        try:
            g.send(a + b)
        except StopIteration as stop:
            r = stop.value
        s = r + acc % 1013
        acc = (s * (s + 1) // 2 + i) % 1000003
        cache[i & 255, acc & 15] = acc
    return acc


def kernel_s() -> float:
    """Median duration of three runs of the reference kernel."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(cases, tr, wl):
    """Run every case once; returns (seconds per case, the same scaled to
    the reference speed, outcomes, counts)."""
    times, outcomes, counts = [], [], wl.Counts()
    kernels, marks = [kernel_s()], []
    last = time.perf_counter()
    for cid, fn in cases:
        if time.perf_counter() - last > KERNEL_EVERY_S:
            kernels.append(kernel_s())
            last = time.perf_counter()
        marks.append(len(kernels) - 1)
        cnt = wl.Counts()
        tr.case = cid
        signal.setitimer(signal.ITIMER_REAL, CASE_LIMIT_S)
        t0 = time.perf_counter()
        try:
            with tr.span("bench", "case"):
                fn(tr, cnt)
            outcome = "ok"
        except wl.Wrong as e:
            outcome = f"wrong: {e}"
        except Exception as e:  # any raised error is a failed case
            outcome = type(e).__name__
        finally:
            t = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        times.append(t)
        outcomes.append(outcome)
        counts.merge(cnt)
    tr.case = None
    kernels.append(kernel_s())
    scaled = [t * 2 * REFERENCE_S / (kernels[m] + kernels[m + 1])
              for t, m in zip(times, marks)]
    return times, scaled, outcomes, counts


def commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = git / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "funalg").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def metric(value, unit):
    return {"value": value, "unit": unit}


# Which end-to-end metric each layer metric should move, and the workloads
# where its layer does the most and the least work.
LAYER_MOVES = {
    "evaluator.steps_per_s, evaluator.busy_s": [
        "cases_per_s, case_ms_*", "snr_nested, pr_stack", "syntax_dag"],
    "evaluator.steps, .memo_hits, .memo_hits_per_step, .peak_bits, "
    ".max_depth": ["eval_steps, peak_rss_mb", "pr_stack", "compile_grid"],
    "reduction.steps_per_clausal_step": [
        "eval_steps, case_ms_tail", "pr_stack", "snr_nested"],
    "reduction.busy_s": ["build_s", "snr_nested", "compile_grid"],
    "clausal.steps, .steps_per_s, .busy_s": [
        "cases_per_s", "compile_grid", "snr_nested"],
    "compiler.busy_s, .oracle_busy_s": [
        "build_s, cases_per_s", "compile_grid", "pr_stack"],
    "derivation.d_print_s, .d_parse_s, .poly_bound_s, .index_of_s, "
    ".validate_s": ["cases_per_s, code_dag_nodes", "syntax_dag",
                    "snr_nested"],
    "harness.busy_s, .steps": ["cases_per_s", "compile_grid", "others"],
    "codec.busy_s, .max_bits": ["setup_s", "pr_stack", "syntax_dag"],
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, spans, counts) -> dict:
    """Per-layer metrics from the spans and the counters of one pass."""
    from tracing import LAYERS
    times = tracer.layer_times(spans)
    out = {}
    for layer in LAYERS:
        t = times[layer]
        out[f"{layer}.calls"] = metric(t["calls"], "count")
        out[f"{layer}.busy_s"] = metric(t["busy_s"], "s")
        out[f"{layer}.self_s"] = metric(t["self_s"], "s")
        out[f"{layer}.failed"] = metric(t["failed"], "count")
    steps = counts.get("evaluator.steps", 0)
    hits = counts.get("evaluator.memo_hits", 0)
    out["evaluator.steps"] = metric(steps, "count")
    out["evaluator.steps_per_s"] = metric(
        _ratio(steps, times["evaluator"]["busy_s"]), "1/s")
    out["evaluator.memo_hits"] = metric(hits, "count")
    out["evaluator.memo_hits_per_step"] = metric(_ratio(hits, steps), "ratio")
    out["evaluator.peak_bits"] = metric(
        counts.get("evaluator.peak_bits", 0), "bits")
    out["evaluator.max_depth"] = metric(
        counts.get("evaluator.max_depth", 0), "count")
    out["reduction.steps_per_clausal_step"] = metric(_ratio(
        counts.get("reduction.steps", 0),
        counts.get("reduction.clausal_steps", 0)), "ratio")
    csteps = counts.get("clausal.steps", 0)
    out["clausal.steps"] = metric(csteps, "count")
    out["clausal.steps_per_s"] = metric(_ratio(
        csteps, tracer.name_times("clausal", spans).get("eval_clausal", 0)),
        "1/s")
    comp = tracer.name_times("compiler", spans)
    out["compiler.oracle_busy_s"] = metric(
        comp.get("eval_term_direct", 0.0)
        + comp.get("eval_formula_direct", 0.0), "s")
    der = tracer.name_times("derivation", spans)
    for name in ("d_print", "d_parse", "poly_bound", "index_of",
                 "validate"):
        out[f"derivation.{name}_s"] = metric(der.get(name, 0.0), "s")
    out["harness.steps"] = metric(counts.get("harness.steps", 0), "count")
    out["codec.max_bits"] = metric(counts.get("codec.max_bits", 0), "bits")
    return out


def timed(samples: list, fn, tr):
    """Run fn(tr) in a span named after it; append its duration, raw and
    scaled to the reference speed, to samples."""
    gc.collect()
    k0 = kernel_s()
    t0 = time.perf_counter()
    with tr.span("bench", fn.__name__):
        result = fn(tr)
    t = time.perf_counter() - t0
    samples.append((t, t * 2 * REFERENCE_S / (k0 + kernel_s())))
    return result


def run(name: str, seed: int, seconds: float, trace: bool, keep=None):
    """Set up, build and measure one workload; returns (info, result).

    keep, if given, selects the cases to run by case id."""
    sys.path[:0] = [p for p in (str(SRC), str(BENCH)) if p not in sys.path]
    from tracing import Tracer

    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = Tracer(enabled=trace)
    off = Tracer(enabled=False)

    def set_up(tr):
        return setup(name, seed, tr)

    setup_times, build_times = [], []
    wl, w = timed(setup_times, set_up, tracer)
    import funalg
    if Path(funalg.__file__).resolve().parent != SRC / "funalg":
        raise ImportError(f"funalg imported from {funalg.__file__}, "
                          f"not from {SRC}")
    timed(build_times, w.build, tracer)

    cases = [c for c in w.cases() if keep is None or keep(c[0])]
    n = len(cases)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{name} has only {n} cases")
    deadline = time.perf_counter() + seconds
    passes, walls, traced_walls = [], [], []
    first_traced = None
    while True:
        if passes:
            for samples, fn in ((setup_times, set_up),
                                (build_times, w.build)):
                raw = statistics.median(t for t, _ in samples)
                reps = max(1, int(GAP_S / raw))
                for _ in range(reps):
                    timed(samples, fn, off)
        traced = trace and len(passes) % 2 == 1
        gc.collect()
        t0 = time.perf_counter()
        times, scaled, outcomes, counts = run_pass(
            cases, tracer if traced else off, wl)
        wall = time.perf_counter() - t0
        if traced:
            traced_walls.append(wall)
            if first_traced is None:
                first_traced = (len(tracer.spans), counts)
        else:
            walls.append(wall)
        passes.append((times, scaled, outcomes, counts))
        if time.perf_counter() >= deadline and (not trace or traced_walls):
            break
    while len(setup_times) < SETUP_REPS:
        timed(setup_times, set_up, off)
    while len(build_times) < BUILD_REPS:
        timed(build_times, w.build, off)

    _, _, outcomes, counts = passes[0]
    attempted = n * len(passes)
    failed = sum(o != "ok" for *_, outs, _ in passes for o in outs)
    wrong = sorted({f"{cid}: {o}" for *_, outs, _ in passes
                    for (cid, _), o in zip(cases, outs)
                    if o.startswith("wrong")})
    errors: dict[str, int] = {}
    for o in outcomes:
        if o != "ok":
            kind = o.split(":")[0]
            errors[kind] = errors.get(kind, 0) + 1
    def timing(k: int):
        """Timing metrics from the raw (k = 0) or scaled (k = 1) samples."""
        lat = sorted(statistics.median(p[k][i] for p in passes)
                     for i in range(n))
        return {
            "setup_s": metric(statistics.median(
                s[k] for s in setup_times), "s"),
            "build_s": metric(statistics.median(
                s[k] for s in build_times), "s"),
            "cases_per_s": metric(n / sum(lat), "1/s"),
            "case_ms_p50": metric(1000 * statistics.median(lat), "ms"),
            "case_ms_tail": metric(1000 * lat[n - 1 - TAIL_BEYOND], "ms"),
        }

    info = {
        "workload": name, "seed": seed, "trace": int(trace),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit(), "src_sha256": source_digest(),
        "cases_per_pass": n, "passes": len(passes),
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "failures_per_pass": errors,
        "outcomes_same_every_pass": all(outs == outcomes
                                        for *_, outs, _ in passes),
        "wrong": wrong[:10],
        "tail_percentile": 100 * (n - TAIL_BEYOND) / n,
        "latency_samples": n,
        "setup_reps": len(setup_times), "build_reps": len(build_times),
        "budget": {"max_steps": wl.BUDGET.max_steps,
                   "max_bits": wl.BUDGET.max_bits},
        "counts": dict(sorted(counts.items())),
    }
    if not trace:
        info["raw_times"] = {k: v["value"] for k, v in timing(0).items()}
        metrics = {
            **timing(1),
            "eval_steps": metric(counts.get("evaluator.steps", 0)
                                 + counts.get("harness.steps", 0), "count"),
            "code_dag_nodes": metric(sum(map(wl.dag_size, w.code)), "count"),
            "code_tree_nodes": metric(sum(map(wl.tree_size, w.code)),
                                      "count"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
        }
    else:
        end, tcounts = first_traced
        metrics = layer_metrics(tracer, tracer.spans[:end], tcounts)
        untraced, traced = (statistics.median(walls),
                            statistics.median(traced_walls))
        metrics["trace.overhead_s"] = metric(traced - untraced, "s")
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{name}-{seed}.jsonl"
        tracer.write(path)
        info.update(spans_file=str(path.relative_to(ROOT)),
                    untraced_pass_s=untraced, traced_pass_s=traced,
                    layer_moves=LAYER_MOVES)
    result = {"correct": not wrong, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return info, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "funalg" / "__init__.py").is_file():
        print(f"no funalg source under {SRC}", file=sys.stderr)
        return 2
    info, result = run(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print(json.dumps({"run": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
