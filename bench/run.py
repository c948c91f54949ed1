"""Benchmark of seqbase: one workload per run, checked against an independent oracle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports seqbase from src/.
One caller drives the program in a closed loop, and at most one
subprocess runs at a time.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 its per-layer
ones.  Results and trace summaries are also written under bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
MIN_OPS = 100  # so that p90 has at least ten timings beyond it


class Phase:
    """Timings, failures and oracle findings of one measured phase."""

    def __init__(self):
        self.times: list[float] = []  # operations that succeeded
        self.busy = 0.0  # wall time of every operation attempted
        self.round_rates: list[float] = []  # per round: operations that succeeded / wall time of all
        self.attempted = 0
        self.failed = 0
        self.failures: Counter[str] = Counter()
        self.problems: list[str] = []
        self.chars = 0  # digit characters handled in the window rounds
        self.window_end = 0  # span index after the window rounds

    @property
    def ops_per_s(self) -> float:
        """The rate that three quarters of the rounds reach (first quartile of the round rates).

        The machine runs now and then for tens of seconds up to a third
        faster; a median of the rounds moves with such a burst once it holds
        half a run, the first quartile only once it holds three quarters.
        """
        rates = self.round_rates
        return statistics.quantiles(rates, n=4)[0] if len(rates) > 1 else rates[0]


def measure(round_fn, seconds: float, min_ops: int = 0, min_rounds: int = 0, tracer=None) -> Phase:
    """Run whole rounds until `seconds` of operation time and the minimums are reached.

    Only `op.run` is timed; the oracle check of its output runs between
    operations with the clock stopped.  Every round of a workload holds the
    same kinds of operation on inputs of like sizes, so its rounds' rates
    can be compared.
    """
    phase = Phase()
    rounds = 0
    while phase.busy < seconds or phase.attempted < min_ops or rounds < min_rounds:
        round_busy, round_ok = phase.busy, len(phase.times)
        for op in round_fn():
            run = op.run if tracer is None else tracer.wrap("bench.op", op.run)
            t0 = perf_counter()
            try:
                out = run()
            except Exception as e:  # a failed operation is counted, and the run goes on
                phase.busy += perf_counter() - t0
                phase.attempted += 1
                phase.failed += 1
                phase.failures[f"{op.kind}: {type(e).__name__}"] += 1
                continue
            dt = perf_counter() - t0
            phase.busy += dt
            phase.attempted += 1
            phase.times.append(dt)
            problem = op.check(out)
            if problem:
                phase.problems.append(f"{op.kind}: {problem}")
            if rounds < min_rounds:
                phase.chars += op.chars
        phase.round_rates.append((len(phase.times) - round_ok) / (phase.busy - round_busy))
        rounds += 1
        if tracer is not None and rounds == min_rounds:
            phase.window_end = tracer.mark()
    return phase


def require_timings(phase: Phase) -> Phase:
    """Stop the run, without a result, when too few operations succeeded to time."""
    if len(phase.times) < 2:
        sys.exit(f"bench: {phase.failed} of {phase.attempted} operations failed {dict(phase.failures)}; nothing to time")
    return phase


def timed_setups(wl) -> tuple[float, list[str]]:
    """Median of the workload's repeated set-ups, and what the oracle found in their outputs."""
    times, problems = [], []
    for _ in range(wl.setup_repeats):
        gc.collect()
        t0 = perf_counter()
        wl.setup()
        times.append(perf_counter() - t0)
        problem = wl.check_setup()
        if problem:
            problems.append(f"setup: {problem}")
    return statistics.median(times), problems


def plain_run(name: str, seed: int, seconds: float) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, ROOT)
    setup_s, problems = timed_setups(wl)
    phase = require_timings(measure(wl.round, seconds, min_ops=MIN_OPS))
    who = resource.RUSAGE_CHILDREN if wl.rss_of_children else resource.RUSAGE_SELF
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": phase.ops_per_s,
        "op_p75_ms": statistics.quantiles(phase.times, n=4)[2] * 1e3,
        "op_p90_ms": statistics.quantiles(phase.times, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    return _result([phase], problems, metrics, {"timed_ops": len(phase.times)})


def traced_run(selected: str, seed: int, seconds: float) -> dict:
    """Every workload's traced slice; each per-layer metric comes from the workload it belongs to.

    A slice runs the workload's operations in this process, first without
    and then with the tracer, for seconds/8 each, so the whole run measures
    about `seconds`.
    """
    import tracing
    from workloads import WORKLOADS

    slice_s = seconds / 8
    metrics, summaries, problems = {}, {}, []
    counted = []
    for name, cls in WORKLOADS.items():
        wl = cls(seed, ROOT)
        wl.setup()
        measure(wl.in_process_round, 0, min_rounds=1)  # warm-up, so that neither phase pays the first rounds' costs
        plain = require_timings(measure(wl.in_process_round, slice_s, min_rounds=1))
        wl = cls(seed, ROOT)  # afresh, so that the traced rounds draw the same inputs on every run
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.wrap("bench.setup", wl.setup)()
            phase_start = tracer.mark()
            traced = require_timings(measure(wl.in_process_round, slice_s, min_rounds=wl.window_rounds, tracer=tracer))
        finally:
            tracer.uninstall()
        window = tracer.summary(0, traced.window_end)
        full = tracer.summary(phase_start)
        del tracer
        metrics.update(wl.layer_metrics(window, full, traced))
        summaries[name] = {
            "window_rounds": wl.window_rounds,
            "window": window.as_dict(),
            "all_ops": full.as_dict(),
            "plain_ops_per_s": plain.ops_per_s,
            "traced_ops_per_s": traced.ops_per_s,
        }
        problems += [f"{name}: {p}" for p in plain.problems + traced.problems]
        if name == selected:
            metrics["tracing.overhead_ratio"] = traced.ops_per_s / plain.ops_per_s
            counted = [plain, traced]
        del window, full, wl
        gc.collect()
    return _result(counted, problems, metrics, {"slices": summaries})


def _result(phases: list[Phase], problems: list[str], metrics: dict, detail: dict) -> dict:
    problems = problems + [p for ph in phases for p in ph.problems]
    failures = sum((ph.failures for ph in phases), Counter())
    for line in problems[:5]:
        print(f"bench: wrong output: {line}", file=sys.stderr)
    for kind, n in sorted(failures.items()):
        print(f"bench: {n} failed: {kind}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": metrics,
        "detail": {"failures": dict(failures), "problems": problems[:20], **detail},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "seqbase" / "__init__.py").is_file():
        print(f"bench: no seqbase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if sys.get_int_max_str_digits() != sys.int_info.default_max_str_digits:
        print("bench: the int/str digit limit must be the interpreter's default", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    import oracle

    try:
        oracle.self_test()
    except oracle.OracleBroken as e:
        print(f"bench: oracle self-test failed: {e}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    run = traced_run if args.trace else plain_run
    result = run(args.workload, args.seed, args.seconds)

    measured = result["metrics"]
    if set(measured) != set(declared):
        print(f"bench: metrics {sorted(set(measured) ^ set(declared))} differ from BENCHMARK.json", file=sys.stderr)
        return 2
    result["metrics"] = {k: {"value": float(measured[k]), "unit": declared[k]} for k in declared}
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")
    del result["detail"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
