"""One fresh interpreter that imports the CLI and runs workload passes.

Started by run.py with `src/` on PYTHONPATH.  The first statements import
`egregium.cli` and build its parser, which is the set-up every CLI user pays;
the moment that finishes is reported as `ready` on the monotonic clock that
the parent also reads, so the parent can compute set-up time from spawn.

Then, unless `--setup-only`, the child runs passes 0, 1, 2, ... of the
workload, calling `cli.main(argv)` in process with stdout and stderr
captured: `--passes N` passes, or with `--budget S` at least MIN_PASSES
passes and more until S seconds have gone by (a started pass is finished).  For each invocation it appends to `--records` a
JSON header line (exit code, wall and CPU seconds, stdout digest, stderr)
followed by the raw stdout bytes.  The last line on its own stdout is a JSON
summary: ready time, per-pass totals, peak RSS, versions.
"""

import time

import egregium.cli as cli

cli.build_parser()
READY = time.monotonic()

import argparse  # noqa: E402  (everything below is outside set-up)
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402  (already imported by egregium; read its version)

import workloads  # noqa: E402

MAX_PASSES = 10_000
MIN_PASSES = 2  # keeps the sample count of the slowest workload fixed


def run_one(argv, entry):
    # A CLI user's process exits after one invocation; here the previous
    # invocation's cyclic garbage (argparse builds cycles) is collected
    # before the clock starts, so no invocation pays for another's.
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        rc = entry(list(argv))
    except SystemExit as exc:  # argparse rejects argv this way
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # an escaped exception is a CLI contract failure
        traceback.print_exc()
        rc = 1
    finally:
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        sys.stdout, sys.stderr = saved
    return rc, out.getvalue().encode("utf-8"), err.getvalue(), wall, cpu


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--budget", type=float, default=math.inf)
    parser.add_argument("--passes", type=int, default=MAX_PASSES)
    parser.add_argument("--trace", default=None, help="write spans to this path")
    parser.add_argument("--records", default=None)
    args = parser.parse_args()
    summary = {"ready": READY, "python": platform.python_version(),
               "numpy": numpy.__version__}
    if args.setup_only:
        print(json.dumps(summary))
        return

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    passes = []
    start = time.perf_counter()
    with open(args.records, "wb") as records:
        for k in range(args.passes):
            wall = cpu = 0.0
            for i, inv in enumerate(workloads.generate(args.workload, args.seed, k)):
                entry = cli.main if tracer is None else tracer.root((k, i), cli.main)
                rc, out, err, dt, dc = run_one(inv.argv, entry)
                wall += dt
                cpu += dc
                header = {"pass": k, "index": i, "rc": rc, "wall": dt, "cpu": dc,
                          "sha256": hashlib.sha256(out).hexdigest(),
                          "bytes": len(out), "stderr": err}
                records.write(json.dumps(header).encode("utf-8") + b"\n")
                records.write(out)
            passes.append({"wall": wall, "cpu": cpu})
            if len(passes) >= MIN_PASSES and time.perf_counter() - start >= args.budget:
                break

    if tracer is not None:
        tracer.uninstall()
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    summary["passes"] = passes
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
