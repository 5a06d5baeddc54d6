"""egregium benchmark: end-to-end metrics, and per-module metrics from a traced run.

Run from the repository root:

    python3 bench/run.py --workload grid_surface --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload metric_ode --seed 1 --seconds 30 --trace 1

Each run starts fresh child interpreters (bench/child.py) with one BLAS
thread each, one after the other, so the load is one single-threaded
process.  With `--trace 0` it spawns SETUP_SPAWNS children that only import
the CLI, then two workload children.  Child A runs passes 0, 1, ... of the
seeded workload until half of `--seconds` has gone by; child B then runs
the same passes, so every argv is repeated in a second process.  With
`--trace 1`, child B runs with spans installed at egregium's module
boundaries and the run reports per-module metrics and the tracing overhead
instead.

After the children exit, every output is checked against an independent
reference (bench/reference.py); that time is not measured.  The run prints
a readable report, writes it to .bench_out/<workload>-seed<seed>-trace<t>.json
(with `--trace 1` the span aggregates of every traced pass go to
.bench_out/<workload>-seed<seed>-spans.json), and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shlex
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 9
# A correct run takes about --seconds plus two passes, the set-up spawns and
# verification.  Its deadline, 2 x --seconds plus this slack, only stops a
# hung child, and it grows with --seconds.
DEADLINE_SLACK_S = 120.0
OUT_DIR = ".bench_out"

END_TO_END = (  # name, unit
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
    ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"), ("peak_rss_mb", "MB"),
)

# Per-module metrics: name, unit, the end-to-end metric it should move.
# Counts are exact counts over pass 0; self times are per pass, median over
# the traced passes.
PER_LAYER = (
    ("exprlang.evaluate_jet.calls", "count", "wall_s, latency_* on metric_ode and grid_surface; flat on one_shot"),
    ("exprlang.evaluate_jet.self_s", "s", "wall_s, latency_* on metric_ode and grid_surface; flat on one_shot"),
    ("exprlang.evaluate_float.calls", "count", "wall_s, latency_* on metric_ode and grid_surface; flat on one_shot"),
    ("exprlang.evaluate_float.self_s", "s", "wall_s, latency_* on metric_ode and grid_surface; flat on one_shot"),
    ("jets.apply_function.calls", "count", "wall_s on grid_surface"),
    ("exprlang.parse.calls", "count", "latency_p50_ms on one_shot; setup_s"),
    ("exprlang.parse.self_s", "s", "latency_p50_ms on one_shot; setup_s"),
    ("cli.build_parser.self_s", "s", "latency_p50_ms on one_shot; setup_s"),
    ("catalog.build.self_s", "s", "latency_p50_ms on one_shot; setup_s"),
    ("surfaces.embedding_jets.calls", "count", "wall_s on grid_surface; zero on metric_ode"),
    ("surfaces.embedding_jets_per_point", "calls/point", "wall_s on grid_surface; zero on metric_ode"),
    ("surfaces.kernel.self_s", "s", "wall_s on grid_surface; zero on metric_ode"),
    ("cli.emit.self_s", "s", "wall_s, peak_rss_mb on grid_surface"),
    ("cli.output_bytes", "B", "wall_s, peak_rss_mb on grid_surface"),
    ("intrinsic.metric_at.calls", "count", "wall_s, latency_tail_ms on metric_ode"),
    ("intrinsic.metric_at.self_s", "s", "wall_s, latency_tail_ms on metric_ode"),
    ("intrinsic.formula_egregia.calls", "count", "wall_s, latency_tail_ms on metric_ode"),
    ("intrinsic.flatness_residual.calls", "count", "wall_s, latency_tail_ms on metric_ode"),
    ("geodesics.integrate_geodesic.calls", "count", "wall_s, peak_rss_mb on metric_ode"),
    ("geodesics.integrate_geodesic.self_s", "s", "wall_s, peak_rss_mb on metric_ode"),
    ("geodesics.rk4_steps", "count", "wall_s, peak_rss_mb on metric_ode"),
    ("geodesics.connect_geodesic.calls", "count", "wall_s, peak_rss_mb on metric_ode"),
    ("geodesics.shots_per_side", "shots/side", "wall_s, peak_rss_mb on metric_ode"),
    ("quad.integrate.calls", "count", "wall_s on metric_ode"),
    ("quad.integrate.self_s", "s", "wall_s on metric_ode"),
    ("quad.field_evals", "count", "wall_s on metric_ode"),
    ("curves.calls", "count", "latency_p50_ms on one_shot"),
    ("curves.self_s", "s", "latency_p50_ms on one_shot"),
    ("trace.overhead_s", "s", "traced minus untraced wall_s, per pass"),
    ("trace.isolation_violations", "count", "predicted-idle layers that were called"),
)

# Self times of layers that some workload leaves idle, where they read
# exactly 0 on every run: printed in the report, left out of the result line.
REPORT_ONLY = frozenset({
    "exprlang.evaluate_float.self_s", "catalog.build.self_s", "surfaces.kernel.self_s",
    "geodesics.integrate_geodesic.self_s", "quad.integrate.self_s", "curves.self_s",
})

# span names summed into one metric
GROUPS = {
    "catalog.build": ("catalog.build_curve", "catalog.build_surface", "catalog.build_metric"),
    "surfaces.kernel": ("surfaces.normal_parametric", "surfaces.first_fundamental_form",
                        "surfaces.second_order_scalars", "surfaces.gauss_curvature_parametric",
                        "surfaces.principal_curvatures"),
    "curves": ("curves.curvature_graph", "curves.curvature_parametric",
               "curves.curvature_implicit", "curves.frame_graph", "curves.frame_parametric"),
}

# layers each workload must leave idle (span and counter name prefixes)
IDLE = {
    "grid_surface": ("geodesics.", "quad."),
    "metric_ode": ("surfaces.",),
    "one_shot": ("geodesics.", "quad."),
}


class BenchError(Exception):
    pass


def percentile(values, p):
    """(value, count beyond) of the p-th percentile by nearest rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def spawn(root, deadline, *args):
    """Run bench/child.py to completion; return its summary and setup_s."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), *map(str, args)],
                            cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("child process overran the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"child process exited {proc.returncode}:\n"
                         f"{err.decode('utf-8', 'replace')[-3000:]}")
    summary = json.loads(out.decode("utf-8").splitlines()[-1])
    summary["setup_s"] = summary["ready"] - spawned
    return summary


def read_records(path):
    with open(path, "rb") as handle:
        while True:
            line = handle.readline()
            if not line:
                return
            header = json.loads(line)
            yield header, handle.read(header["bytes"])


class Verifier:
    """Checks every execution; identical executions are checked once."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.checker = reference.Checker(workload, seed)
        self.passes = {}
        self.verdicts = {}
        self.first_digest = {}
        self.attempted = self.failed = self.repeats = self.mismatches = 0
        self.failures = []

    def invocation(self, k, i):
        if k not in self.passes:
            self.passes[k] = workloads.generate(self.workload, self.seed, k)
        return self.passes[k][i]

    def run(self, label, path):
        """Check one child's records; return its latencies and bytes per pass."""
        latencies, per_pass_bytes = [], defaultdict(int)
        for header, out in read_records(path):
            latencies.append(header["wall"])
            key = (header["pass"], header["index"])
            inv = self.invocation(*key)
            signature = (key, header["sha256"], header["rc"], header["stderr"])
            if signature not in self.verdicts:
                self.verdicts[signature] = self.checker.check(
                    inv, header["rc"], out.decode("utf-8", "replace"), header["stderr"])
            reason = self.verdicts[signature]
            if key in self.first_digest:
                self.repeats += 1
                if self.first_digest[key] != header["sha256"]:
                    self.mismatches += 1
                    reason = reason or "stdout differs between two runs of this argv"
            else:
                self.first_digest[key] = header["sha256"]
            self.attempted += 1
            per_pass_bytes[header["pass"]] += header["bytes"]
            if reason:
                self.failed += 1
                self.failures.append({"child": label, "pass": key[0], "index": key[1],
                                      "argv": shlex.join(inv.argv), "reason": reason})
        return latencies, per_pass_bytes


def run_context(root, seed):
    sha = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                                  capture_output=True, text=True)
            sha = done.stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, "rb") as handle:
            src_lines += sum(1 for _ in handle)
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg_start": list(os.getloadavg()),
            "seed": seed, "src_lines": src_lines}


def end_to_end(setups, children, tail_p):
    walls = [p["wall"] for c in children for p in c["passes"]]
    cpus = [p["cpu"] for c in children for p in c["passes"]]
    lat = [x * 1000.0 for c in children for x in c["latencies"]]
    tail_ms, beyond = percentile(lat, tail_p)
    return {
        "setup_s": (median(setups), f"median of {len(setups)} spawns"),
        "wall_s": (median(walls), f"median of {len(walls)} passes"),
        "cpu_s": (median(cpus), f"median of {len(cpus)} passes"),
        "latency_p50_ms": (median(lat), f"median of {len(lat)} invocations"),
        "latency_tail_ms": (tail_ms, f"p{tail_p} of {len(lat)} invocations, {beyond} beyond"),
        "peak_rss_mb": (max(c["peak_rss_mb"] for c in children),
                        f"max of {len(children)} children"),
    }


def layer_metrics(workload, dump, traced, untraced, pass_bytes):
    calls = defaultdict(lambda: defaultdict(int))
    self_s = defaultdict(lambda: defaultdict(float))
    counts = defaultdict(lambda: defaultdict(int))
    for k, _i, _parent, name, n, _total, own in dump["spans"]:
        calls[k][name] += n
        self_s[k][name] += own
    for k, _i, name, value in dump["counts"]:
        counts[k][name] += value
    passes = range(len(traced["passes"]))

    def names(name):
        return GROUPS.get(name, (name,))

    def n_calls(name):  # spans and counters alike
        return sum(calls[0][n] + counts[0][n] for n in names(name))

    def own(name):
        return median([sum(self_s[k][n] for n in names(name)) for k in passes])

    def ratio(num, den):
        return num / den if den else 0.0

    idle = IDLE[workload]
    busy = sorted({n for k in passes for n in list(calls[k]) + list(counts[k])
                   if n.startswith(idle) and (calls[k][n] or counts[k][n])})
    common = range(min(len(traced["passes"]), len(untraced["passes"])))
    values = {}
    for name, _unit, _moves in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = (n_calls(base), "pass 0")
        elif field == "self_s":
            values[name] = (own(base), f"median of {len(passes)} traced passes")
        elif name == "surfaces.embedding_jets_per_point":
            points = counts[0]["intrinsic.grid_points"]
            values[name] = (ratio(n_calls("surfaces.embedding_jets"), points),
                            f"base {points} grid points, pass 0")
        elif name == "geodesics.shots_per_side":
            sides = n_calls("geodesics.connect_geodesic")
            values[name] = (ratio(counts[0]["geodesics.shots"], sides),
                            f"base {sides} connected sides, pass 0")
        elif name == "cli.output_bytes":
            values[name] = (pass_bytes[0], "pass 0")
        elif name == "trace.overhead_s":
            gaps = [traced["passes"][k]["wall"] - untraced["passes"][k]["wall"] for k in common]
            base = median([untraced["passes"][k]["wall"] for k in common])
            values[name] = (median(gaps), f"median over {len(gaps)} passes; "
                            f"{100.0 * ratio(median(gaps), base):.1f}% of untraced wall_s")
        elif name == "trace.isolation_violations":
            values[name] = (len(busy), "idle: " + ", ".join(p + "*" for p in idle)
                            + ("; called: " + ", ".join(busy) if busy else ""))
        else:
            values[name] = (counts[0][name], "pass 0")
    return values


def pass0_spans(dump):
    return [{"invocation": i, "parent": parent, "name": name, "calls": n,
             "total_s": total, "self_s": own}
            for k, i, parent, name, n, total, own in dump["spans"] if k == 0]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    deadline = started + 2.0 * args.seconds + DEADLINE_SLACK_S
    root = Path.cwd()
    if not (root / "src" / "egregium" / "cli.py").is_file():
        print(f"error: no egregium sources under {root / 'src'}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    context = run_context(root, args.seed)
    work = root / OUT_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SPAWNS):
                setups.append(spawn(root, deadline, "--setup-only")["setup_s"])
        common = ("--workload", args.workload, "--seed", args.seed)
        children = {"A": spawn(root, deadline, *common, "--budget", args.seconds / 2,
                               "--records", work / "A.records")}
        spans_path = root / OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        extra = ("--trace", spans_path) if args.trace else ()
        children["B"] = spawn(root, deadline, *common,
                              "--passes", len(children["A"]["passes"]),
                              "--records", work / "B.records", *extra)
        verifier = Verifier(args.workload, args.seed)
        pass_bytes = {}
        for label, child in children.items():
            child["latencies"], pass_bytes[label] = verifier.run(label, work / f"{label}.records")
        dump = None
        if args.trace:
            with open(spans_path, encoding="utf-8") as handle:
                dump = json.load(handle)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    context["numpy"] = children["A"]["numpy"]
    untimed = [children["A"]] if args.trace else list(children.values())
    setups += [c["setup_s"] for c in untimed]
    e2e = end_to_end(setups, untimed, workloads.TAIL_PERCENTILE[args.workload])
    error_rate = verifier.failed / verifier.attempted

    lines = [f"egregium benchmark  workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}",
             "context  " + "  ".join(f"{k}={v}" for k, v in context.items()),
             "", "end to end" + (" (child A, untraced)" if args.trace else ""),
             f"  {'metric':<18}{'value':>14}  {'unit':<6}samples"]
    for name, unit in END_TO_END:
        value, samples = e2e[name]
        lines.append(f"  {name:<18}{value:>14.6g}  {unit:<6}{samples}")
    lines.append(f"  {'error_rate':<18}{error_rate:>14.6g}  {'1':<6}"
                 f"{verifier.failed} failed of {verifier.attempted} invocations")
    lines.append(f"determinism: {verifier.repeats} repeated invocations compared across two "
                 f"processes{' (traced against untraced)' if args.trace else ''}, "
                 f"{verifier.mismatches} stdout digest mismatches")
    for failure in verifier.failures[:20]:
        lines.append(f"  FAILED [{failure['child']} pass {failure['pass']} "
                     f"#{failure['index']}] {failure['reason']}\n    argv: {failure['argv']}")
    if len(verifier.failures) > 20:
        lines.append(f"  ... {len(verifier.failures) - 20} more in the report file")

    report = {"context": context, "workload": args.workload, "seconds": args.seconds,
              "trace": args.trace,
              "end_to_end": {k: {"value": v, "samples": s} for k, (v, s) in e2e.items()},
              "error_rate": error_rate, "attempted": verifier.attempted,
              "failed": verifier.failed, "failures": verifier.failures,
              "repeats_compared": verifier.repeats, "digest_mismatches": verifier.mismatches,
              "setup_samples_s": setups,
              "passes": {k: c["passes"] for k, c in children.items()}}
    if args.trace:
        layers = layer_metrics(args.workload, dump, children["B"], children["A"],
                               pass_bytes["B"])
        lines += ["", f"per module (child B, traced; {len(children['B']['passes'])} passes)",
                  f"  {'metric':<38}{'value':>14}  {'unit':<12}base / samples"]
        for name, unit, moves in PER_LAYER:
            value, base = layers[name]
            lines.append(f"  {name:<38}{value:>14.6g}  {unit:<12}{base}")
            lines.append(f"  {'':<38}{'':>14}  {'':<12}should move: {moves}")
        status = "PASS" if layers["trace.isolation_violations"][0] == 0 else "FAIL"
        lines.append(f"layer isolation self-check: {status} "
                     f"({layers['trace.isolation_violations'][1]})")
        report["per_layer"] = {k: {"value": v, "base": b} for k, (v, b) in layers.items()}
        report["spans_pass0"] = pass0_spans(dump)
        metrics = {name: {"value": layers[name][0], "unit": unit}
                   for name, unit, _ in PER_LAYER if name not in REPORT_ONLY}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END}

    out = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    lines.append(f"report: {out.relative_to(root)}  "
                 f"(run took {time.monotonic() - started:.1f} s)")
    print("\n".join(lines))
    print(json.dumps({"correct": verifier.failed == 0, "attempted": verifier.attempted,
                      "failed": verifier.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
