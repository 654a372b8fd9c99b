"""Repository benchmark: host throughput, paper fidelity and per-layer ledgers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload core-long --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the same untraced passes (their median wall time is
the tracing-overhead reference), then one pass with spans around every
layer's entry points, then the traced-run correctness extras, and reports
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when every cell passed its checks.

``--seed`` picks the benchmark's own input choices: the mutation seeds of
``fleet-short``'s mutated workloads, ``core-long``'s cell order and the
cells the traced run cross-checks.  ``--profile-seed`` rewrites every
profile's and phased workload's generator seed (a held-out-seed check of
the paper claims); by default the profiles keep their own seeds, so
``paper-figs`` fidelity equals ``svw-repro fig5``..``fig7`` at the same
budget.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

HERE = Path(__file__).resolve().parent

END_TO_END = {
    "sim_kips": "kinst/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "paper_rate_err_pp": "pp",
    "paper_speedup_err_pp": "pp",
    "paper_sign_miss": "count",
}

#: Per-layer metrics: unit, and the end-to-end metric (and workload) each
#: should move.
PER_LAYER = {
    "workloads.generate_s": ("s", "setup_s on core-long/fleet-short; sim_kips on paper-figs"),
    "workloads.generate_kips": ("kinst/s", "as workloads.generate_s"),
    "isa.encode_s": ("s", "sim_kips on paper-figs; setup_s on fleet-short"),
    "isa.decode_s": ("s", "sim_kips on paper-figs and fleet-short (replayed, see README)"),
    "isa.trace_mb": ("MB", "sim_kips on paper-figs; setup_s on fleet-short"),
    "trace_cache.save_s": ("s", "sim_kips on paper-figs; setup_s on fleet-short"),
    "trace_cache.load_s": ("s", "sim_kips on paper-figs and fleet-short"),
    "traces.generations": ("count", "sim_kips on paper-figs"),
    "traces.disk_hits": ("count", "sim_kips on paper-figs and fleet-short"),
    "transport.publish_s": ("s", "sim_kips on paper-figs"),
    "batch.busy_s": ("s", "sim_kips on paper-figs"),
    "batch.idle_s": ("s", "sim_kips on paper-figs"),
    "batch.busy_frac": ("ratio", "sim_kips on paper-figs"),
    "remote.busy_s": ("s", "sim_kips on fleet-short"),
    "remote.idle_s": ("s", "sim_kips on fleet-short"),
    "remote.trace_sends": ("count", "sim_kips on fleet-short"),
    "remote.trace_sends_per_pair": ("ratio", "sim_kips on fleet-short (1.0 is ideal)"),
    "remote.prefetch_hit_frac": ("ratio", "sim_kips on fleet-short"),
    "remote.stragglers": ("count", "sim_kips on fleet-short"),
    "store.save_s": ("s", "sim_kips on paper-figs"),
    "store.load_s": ("s", "sim_kips on paper-figs"),
    "processor.init_s": ("s", "sim_kips on core-long; fleet-short if large"),
    "processor.run_s": ("s", "sim_kips on core-long; via busy_s elsewhere"),
    "processor.kips": ("kinst/s", "sim_kips on core-long"),
    "processor.us_per_cycle": ("us", "sim_kips on core-long (host cost per stepped cycle)"),
    "processor.skip_share": ("ratio", "sim_kips on core-long"),
    "sim.ipc": ("inst/cycle", "paper_* on paper-figs; simulated events on core-long"),
    "sim.reexec_rate": ("ratio", "paper_rate_err_pp"),
    "sim.svw_filter_frac": ("ratio", "paper_rate_err_pp"),
    "sim.rex_failures": ("count", "paper_speedup_err_pp"),
    "sim.flushes_per_kinst": ("1/kinst", "paper_speedup_err_pp"),
    "sim.rex_port_stall_frac": ("ratio", "paper_speedup_err_pp"),
    "sim.serialization_stall_frac": ("ratio", "paper_speedup_err_pp"),
    "sim.fsq_load_frac": ("ratio", "paper_speedup_err_pp (SSQ)"),
    "sim.elimination_rate": ("ratio", "paper_rate_err_pp (RLE)"),
    "trace.overhead_s": ("s", "none: traced wall minus untraced median pass wall"),
    "trace.overhead_frac": ("ratio", "none: trace.overhead_s over the untraced median"),
}

#: Layers each workload runs; the others report 0 and are named as not
#: run in the traced report.
LAYERS_RUN = {
    "core-long": ("workloads", "processor", "sim", "trace"),
    "paper-figs": ("workloads", "isa", "trace_cache", "traces", "transport", "batch",
                   "store", "sim", "trace"),
    "fleet-short": ("workloads", "isa", "trace_cache", "traces", "remote", "sim", "trace"),
}

NOT_OBSERVABLE = {
    "processor.*": "on paper-figs and fleet-short the Processor runs in worker "
                   "processes; its time is the workers' busy_s",
    "isa.decode_s": "on paper-figs and fleet-short workers decode; the figure is a "
                    "replay of one decode per distinct trace in the benchmark process",
}

#: Set-ups per run; ``setup_s`` is the median import time plus the median
#: workload set-up time over them.
SETUP_REPEATS = 5

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.experiments, repro.harness.configs, repro.harness.report; "
    "print(time.perf_counter() - t)"
)


def _median(values):
    return statistics.median(values) if values else 0.0


def import_seconds(src: Path) -> float:
    """Seconds to import the benchmark's entry modules in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return float(out.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def paper_metrics(figures):
    """Mean |measured - paper| for rate (pp) and speedup (pp) claims, the
    sign-miss count, and the claim-by-claim table."""
    from repro.harness.report import check_claims

    rate_err, speed_err, misses, table = [], [], 0, []
    for result in figures:
        try:
            checks = check_claims(result)
        except (KeyError, ZeroDivisionError, ValueError) as exc:
            table.append(f"== {result.name}: claims not evaluable ({exc!r}) ==")
            continue
        table.append(f"== {result.name} ({len(result.benchmarks)} benchmarks): "
                     "paper vs measured ==")
        for item in checks:
            table.append(item.render())
            if item.measured is None:
                continue
            if item.claim.metric == "reexec_rate":
                rate_err.append(abs(item.measured - item.claim.value) * 100.0)
            elif item.claim.metric == "speedup_pct":
                speed_err.append(abs(item.measured - item.claim.value))
            else:
                continue
            if (item.claim.value >= 0) != (item.measured >= 0):
                misses += 1
    metrics = {
        "paper_rate_err_pp": statistics.fmean(rate_err) if rate_err else 0.0,
        "paper_speedup_err_pp": statistics.fmean(speed_err) if speed_err else 0.0,
        "paper_sign_miss": float(misses),
    }
    table.append(f"evaluated {len(rate_err)} reexec_rate and {len(speed_err)} "
                 f"speedup_pct claims; {misses} sign misses")
    return metrics, table


def sim_metrics(stats) -> dict[str, float]:
    total = lambda name: float(sum(getattr(s, name) for s in stats))  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    loads, cycles = total("committed_loads"), total("cycles")
    return {
        "sim.ipc": ratio(total("committed"), cycles),
        "sim.reexec_rate": ratio(total("reexecuted_loads"), loads),
        "sim.svw_filter_frac": ratio(total("filtered_loads"), total("marked_loads")),
        "sim.rex_failures": total("rex_failures"),
        "sim.flushes_per_kinst": ratio(total("flushes") * 1000.0, total("committed")),
        "sim.rex_port_stall_frac": ratio(total("rex_port_stalls"), cycles),
        "sim.serialization_stall_frac": ratio(total("serialization_stalls"), cycles),
        "sim.fsq_load_frac": ratio(total("fsq_loads"), loads),
        "sim.elimination_rate": ratio(total("eliminated_reuse") + total("eliminated_bypass"),
                                      loads),
    }


def layer_metrics(ledger, traced, untraced_wall, replay_decode_s) -> dict[str, float]:
    """Per-layer metrics of the traced pass."""
    c = traced.counters
    stats = list(traced.stats.values())
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    generated = ledger.count("workloads.generate", "insts")
    generate_s = ledger.self_seconds("workloads.generate")
    metrics = {
        "workloads.generate_s": generate_s,
        "workloads.generate_kips": ratio(generated, generate_s) / 1000.0,
        "isa.encode_s": ledger.self_seconds("isa.encode"),
        "isa.decode_s": ledger.self_seconds("isa.decode") + replay_decode_s,
        "isa.trace_mb": ledger.count("isa.encode", "bytes") / 1e6,
        "trace_cache.save_s": ledger.self_seconds("trace_cache.save"),
        "trace_cache.load_s": ledger.self_seconds("trace_cache.load"),
        "traces.generations": c.get("traces.generations", 0.0),
        "traces.disk_hits": c.get("traces.disk_hits", 0.0),
        "transport.publish_s": ledger.self_seconds("transport.publish"),
        "store.save_s": ledger.self_seconds("store.save"),
        "store.load_s": ledger.self_seconds("store.load"),
    }
    if "batch.wall_s" in c:
        capacity = c["batch.workers"] * c["batch.wall_s"]
        metrics.update({"batch.busy_s": c["batch.busy_s"],
                        "batch.idle_s": capacity - c["batch.busy_s"],
                        "batch.busy_frac": ratio(c["batch.busy_s"], capacity)})
    else:
        metrics.update({"batch.busy_s": 0.0, "batch.idle_s": 0.0, "batch.busy_frac": 0.0})
    if "remote.wall_s" in c:
        capacity = c["remote.workers"] * c["remote.wall_s"]
        sends = float(len(ledger.named("remote.send_trace")))
        metrics.update({
            "remote.busy_s": c["remote.busy_s"],
            "remote.idle_s": capacity - c["remote.busy_s"],
            "remote.trace_sends": sends,
            "remote.trace_sends_per_pair": ratio(sends, c["remote.pairs"]),
            "remote.prefetch_hit_frac": ratio(c["remote.prefetch_hits"], sends),
            "remote.stragglers": c["remote.stragglers"],
        })
    else:
        metrics.update({name: 0.0 for name in PER_LAYER if name.startswith("remote.")})
    if "processor.run_s" in c:
        cycles = sum(s.cycles for s in stats)
        skipped = sum(s.skipped_cycles for s in stats)
        committed = sum(s.committed for s in stats)
        metrics.update({
            "processor.init_s": c["processor.init_s"],
            "processor.run_s": c["processor.run_s"],
            "processor.kips": ratio(committed, c["processor.run_s"]) / 1000.0,
            "processor.us_per_cycle": ratio(c["processor.run_s"] * 1e6, cycles - skipped),
            "processor.skip_share": ratio(skipped, cycles),
        })
    else:
        metrics.update({name: 0.0 for name in PER_LAYER if name.startswith("processor.")})
    metrics.update(sim_metrics(stats))
    metrics["trace.overhead_s"] = traced.wall_s - untraced_wall
    metrics["trace.overhead_frac"] = ratio(traced.wall_s - untraced_wall, untraced_wall)
    return metrics


def replay_decodes(root: Path | None) -> float:
    """Decode each distinct encoded trace of a pass once, in-process."""
    if root is None:
        return 0.0
    from repro.isa.codec import decode_trace

    seconds = 0.0
    for path in sorted((root / "traces").glob("*.svwt")):
        data = path.read_bytes()
        started = time.perf_counter()
        decode_trace(data)
        seconds += time.perf_counter() - started
    return seconds


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, which the first
    shared-memory trace publish starts; left alone it outlives the run."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def fingerprint_digest(passes) -> tuple[str, dict[str, str]]:
    cells = {key: stats.fingerprint() for key, stats in sorted(passes[0].stats.items())}
    return hashlib.sha256(json.dumps(sorted(cells.items())).encode()).hexdigest(), cells


def run(args, root: Path) -> tuple[dict, list[str]]:
    """Run one benchmark invocation; returns (result JSON, report lines)."""
    from cells import WORKLOADS, Sizes
    from hostspeed import HostSpeed
    from ledger import Ledger, instrumented

    out_dir = HERE / "out"
    workdir = out_dir / "work" / f"{args.workload}-{os.getpid()}"
    sizes = Sizes(**args.sizes) if args.sizes else Sizes()
    bench = WORKLOADS[args.workload](sizes, args.seed, args.profile_seed,
                                     args.plant_failure, workdir)
    report: list[str] = []
    with ExitStack() as stack:
        stack.callback(stop_resource_tracker)
        stack.callback(shutil.rmtree, workdir, ignore_errors=True)
        # One host-speed probe for the whole run: set-up and every pass
        # sample it, and all host-time metrics are scaled by its mean rate.
        probe = stack.enter_context(HostSpeed())
        imports: list[float] = []
        setups: list[float] = []
        for _ in range(SETUP_REPEATS):
            with probe.watching():
                imports.append(import_seconds(root / "src"))
                seconds = bench.setup()
            if seconds is not None:
                setups.append(seconds)

        passes = []
        started = time.perf_counter()
        while True:
            one = bench.run_pass(probe)
            passes.append(one)
            if one.setup_s is not None:
                setups.append(one.setup_s)
            elapsed = time.perf_counter() - started
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        speed = probe.factor()

        # Failures are keyed by (pass, cell): attempted counts every cell
        # of every pass, the traced one included.
        failures: dict[str, str] = {}
        digest, cells = fingerprint_digest(passes)
        for index, one in enumerate(passes):
            failures.update({f"pass {index}: {k}": v for k, v in one.failures.items()})
            for key, stats in one.stats.items():
                if stats.fingerprint() != cells.get(key, stats.fingerprint()):
                    failures[f"pass {index}: {key}"] = "fingerprint differs from pass 0"
        problems = []
        expected = getattr(bench, "workload_count", None)
        if expected is not None:
            for index, one in enumerate(passes):
                if one.counters["traces.generations"] != expected:
                    problems.append(f"pass {index}: traces.generations="
                                    f"{one.counters['traces.generations']:g}, expected "
                                    f"{expected} (one per workload)")

        # Throughput: the instructions a pass commits over the sum of each
        # timed unit's median seconds across passes, so one disturbed unit
        # in one pass does not move the figure.  Host-time metrics are
        # scaled to nominal host speed (hostspeed.py).
        committed = sum(s.committed for s in passes[0].stats.values())
        unit_s = sum(_median([one.units[u] for one in passes if u in one.units])
                     for u in passes[0].units)
        raw_kips = committed / unit_s / 1000.0 if unit_s else 0.0
        raw_setup = _median(imports) + _median(setups)
        paper, table = paper_metrics(bench.figures(passes[0].stats))
        metrics = {
            "sim_kips": raw_kips / speed,
            "setup_s": raw_setup * speed,
            "peak_rss_mb": 0.0,
            **paper,
        }
        report.append(f"workload {args.workload}: {len(passes)} pass(es), "
                      f"{len(bench.requests)} cells each, pass walls "
                      + ", ".join(f"{one.wall_s:.2f}s" for one in passes)
                      + f", host speed {speed:.3f} of nominal ({probe.samples} samples)")
        report.append(f"unscaled: sim_kips {raw_kips:.4f} kinst/s, setup_s "
                      f"{raw_setup:.4f} s (imports median of {len(imports)}, "
                      f"workload set-up median of {len(setups)})")
        report.append(f"cell fingerprint set sha256 {digest}")

        layers = None
        if args.trace:
            ledger = Ledger()
            with instrumented(ledger), ledger.span("pass") as root_span:
                ledger.root = root_span.id
                bench.setup()
                traced = bench.run_pass(probe, ledger)
            failures.update({f"traced: {k}": v for k, v in traced.failures.items()})
            for key, stats in traced.stats.items():
                if stats.fingerprint() != cells.get(key, stats.fingerprint()):
                    failures[f"traced: {key}"] = "fingerprint differs from pass 0"
            replay = replay_decodes(getattr(bench, "last_root", None))
            extra = bench.verify(passes[0])
            failures.update({f"traced: {k}": v for k, v in extra.items()})
            untraced = _median([one.wall_s for one in passes])
            layers = layer_metrics(ledger, traced, untraced, replay)
            ledger.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
            report += layer_report(args.workload, layers, bench, extra)
            report += table

        (out_dir / f"cells-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"digest": digest, "cells": cells}, indent=1))
    metrics["peak_rss_mb"] = peak_rss_mb()

    attempted = len(bench.requests) * (len(passes) + args.trace)
    failed = len(failures)
    report.append("end-to-end metrics:")
    for name, unit in END_TO_END.items():
        report.append(f"  {name:22s} {metrics[name]:14.4f} {unit}")
    report.append(f"  {'failed_frac':22s} {failed / attempted:14.4f} ratio "
                  f"({failed} of {attempted} cells)")
    report += [f"FAILED {key}: {why}" for key, why in sorted(failures.items())]
    report += [f"FAILED check: {problem}" for problem in problems]
    if not args.trace:
        report += table
    chosen = layers if args.trace else metrics
    units = {n: u for n, (u, _) in PER_LAYER.items()} if args.trace else END_TO_END
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": chosen[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, report


def layer_report(workload: str, layers: dict, bench, extra: dict) -> list[str]:
    run_here = LAYERS_RUN[workload]
    lines = ["per-layer metrics (traced pass):"]
    for name, (unit, moves) in PER_LAYER.items():
        layer = name.split(".")[0]
        note = "" if layer in run_here else "  [layer not run on this workload: 0]"
        lines.append(f"  {name:30s} {layers[name]:14.6f} {unit:10s} -> {moves}{note}")
    lines.append("not observable from the benchmark process:")
    lines += [f"  {name}: {why}" for name, why in NOT_OBSERVABLE.items()]
    checked = "every cell re-run with validate=True" if workload == "core-long" else (
        f"{bench.serial_sample} sampled cells re-run on SerialBackend")
    lines.append(f"traced correctness extras: {checked}; {len(extra)} mismatches")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("core-long", "paper-figs", "fleet-short"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile-seed", type=int, default=None,
                        help="rewrite every profile's and phased workload's seed")
    args = parser.parse_args(argv)
    args.sizes = None
    args.plant_failure = False
    # A terminated run still tears down its worker fleet and scratch dirs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not prepare(root):
        return 2
    result, report = run(args, root)
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def prepare(root: Path) -> bool:
    """Put the checkout's ``src`` on the path and keep temporary files
    inside the checkout; False when ``root`` holds no program source."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {root / 'src' / 'repro'}; run from the "
              "repository root", file=sys.stderr)
        return False
    sys.path[:0] = [str(root / "src"), str(HERE)]
    tmp = HERE / "out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    return True


if __name__ == "__main__":
    sys.exit(main())
