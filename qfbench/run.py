"""quiverflow benchmark: one workload per run, one closed-loop caller in one
process and one thread.

    python3 qfbench/run.py --workload flow-ensemble --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; quiverflow is imported from ./src.
The run builds its inputs from --seed, sets up (import, input generation and
an untimed warm-up op, the last two repeated), then runs whole rounds of ops
until the ops have taken --seconds of wall time. Every op's output is checked
outside the timed region. The last line of stdout is one JSON object:
correct, attempted, failed and the metrics (end-to-end with --trace 0,
per-layer with --trace 1). Details go to qfbench/results/.
"""

import os

# every matrix is at most 5x5: threaded BLAS would only add contention
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# the keys of workloads.WORKLOADS; that module imports quiverflow, which is
# timed as set-up, so the arguments are parsed before it is loaded
WORKLOAD_NAMES = ("flow-ensemble", "hn-typing", "poincare-exact", "paired-sigma")


def seed_arg(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return seed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=seed_arg, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def op_p50_ms(op_ns, round_len) -> float:
    """Median over the positions of a round of each position's mean op time
    across the run's rounds. The host's speed flips between a fast and a slow
    state every few seconds; a plain median over all op times falls between
    the two states when a run is split between them, while each position's
    mean averages them."""
    means = [statistics.mean(op_ns[i::round_len]) for i in range(round_len)]
    return statistics.median(means) / 1e6


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    package = ROOT / "src" / "quiverflow"
    if not (package / "__init__.py").is_file():
        print(f"qfbench: no quiverflow source at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import quiverflow

    if Path(quiverflow.__file__).resolve().parent != package.resolve():
        print(f"qfbench: imported quiverflow from {quiverflow.__file__}, not {package}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    import_s = time.perf_counter() - t_start

    build = workloads.WORKLOADS[args.workload]
    setup_reps = []
    warmup_failures = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        plan = build(args.seed)
        try:
            out = plan.warmup.run()
            reason = None
        except Exception as exc:  # reported through `correct`; the run goes on
            reason = type(exc).__name__
        setup_reps.append(time.perf_counter() - t0)
        reason = reason or plan.warmup.check(out)
        if reason:
            warmup_failures.append(reason)
    setup_s = import_s + statistics.median(setup_reps)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    op_ns = []
    timed_ns = 0
    budget_ns = int(args.seconds * 1e9)
    reasons = Counter()
    unexpected = []
    n_rounds = 0
    while n_rounds == 0 or timed_ns < budget_ns:
        for op in plan.rounds(n_rounds):
            t0 = time.perf_counter_ns()
            try:
                if tracer is not None:
                    tracer.op = len(op_ns)
                    out = tracer.span("op", op.run)
                else:
                    out = op.run()
                reason = None
            except Exception as exc:  # a raising op is a failed op; the run goes on
                reason = type(exc).__name__
            dt = time.perf_counter_ns() - t0
            op_ns.append(dt)
            timed_ns += dt
            if reason is None:
                try:
                    reason = op.check(out)
                except Exception as exc:  # a check that cannot run fails the op
                    reason = f"check_raised_{type(exc).__name__}"
            if reason:
                reasons[reason] += 1
                if reason != op.known_fault:
                    unexpected.append(f"{op.label}: {reason}")
        n_rounds += 1

    attempted = len(op_ns)
    failed = sum(reasons.values())
    correct = not unexpected and not warmup_failures
    if tracer is not None:
        metrics = tracer.layer_metrics(attempted)
    else:
        metrics = {
            "ops_per_s": {"value": attempted / (timed_ns / 1e9), "unit": "ops/s"},
            "op_p50_ms": {"value": op_p50_ms(op_ns, len(op_ns) // n_rounds), "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.csv")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": n_rounds,
        "failed_by_reason": dict(reasons),
        "unexpected_failures": unexpected,
        "warmup_failures": warmup_failures,
        "setup_repeats_s": setup_reps,
        "import_s": import_s,
        "op_ms": [x / 1e6 for x in op_ns],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(f"{args.workload}: {n_rounds} rounds, {attempted} ops, {failed} failed "
          f"{dict(reasons)}, {len(unexpected)} unexpected")
    for line in unexpected[:20]:
        print(f"  unexpected failure: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
