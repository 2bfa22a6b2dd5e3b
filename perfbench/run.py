"""rdmlab benchmark: seeded sweeps through ``run_experiment``, plus a traced replica.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

Run from the repository root, or anywhere: paths are resolved from this
file.  The package is imported from ``src/`` of the same checkout; without
it the run exits with code 2 and prints no result.

``--trace 0`` measures the end-to-end metrics with tracing off: rounds of
``run_experiment`` (one instance each) one after another for ``--seconds``
seconds, with set-up timings in fresh interpreters between rounds, then the
checks.
``--trace 1`` runs the same untraced rounds, then replays the workload's
fixed rounds through the traced replica and reports the per-layer metrics.
Either way the outputs are checked before any number is reported; a failed
check prints ``"correct": false`` and exits with code 1.  The last line of
standard output is the JSON result; the full record, the CSVs and the spans
go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 9

#: Per-layer metrics read from a span field other than their own last name part.
SPAN_FIELDS = {
    "rskt.lp_variables": ("rskt.rs_kt", "lp_variables", sum),
    "rskt.lp_constraints": ("rskt.rs_kt", "lp_constraints", sum),
    "rskt.lp_iterations": ("rskt.rs_kt", "lp_iterations", sum),
    "rskt.duality_gap.max": ("rskt.rs_kt", "duality_gap", max),
    "rskt.eta_mass_drift.max": ("rskt.rs_kt", "eta_mass_drift", max),
    "mdp.reachable_cells": ("mdp.build_augmented_mdp", "reachable_cells", sum),
    "lp.iterations": ("lp.solve", "iterations", sum),
    "lp.tableau_bytes": ("lp.solve", "tableau_bytes", max),
}
COUNTERS = ("policies.mc_fallback.count", "policies.enumeration.trajectories")


def cap_blas_threads(nproc: int) -> None:
    """Limit BLAS/OpenMP pools to ``nproc``; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        limit = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(limit)


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(nproc: int, args) -> dict:
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def run_window(workload, seed: int, seconds: float, setup_probes: int) -> tuple[list, list]:
    """Closed loop, one client: ``run_experiment`` rounds until time is up.

    The ``setup_probes`` fresh-interpreter set-up timings are spread over the
    window, between rounds, so their median samples the whole run rather
    than one moment of a noisy machine.
    """
    from rdmlab import run_experiment

    rounds, setup = [], []
    start = time.perf_counter()
    while len(rounds) < workload.fixed_rounds or time.perf_counter() - start < seconds:
        due = min(setup_probes, int((time.perf_counter() - start) * setup_probes / seconds) + 1)
        while len(setup) < due:
            setup.append(measure_setup(workload.name, seed))
        cfg = workload.experiment(seed, len(rounds))
        t0 = time.perf_counter()
        rows = run_experiment(cfg)
        rounds.append((cfg, rows, time.perf_counter() - t0))
    while len(setup) < setup_probes:
        setup.append(measure_setup(workload.name, seed))
    return rounds, setup


def measure_setup(workload_name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload_name, str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def quality(workload, rounds) -> dict[str, float]:
    """Mean W1 to the expert truth at the largest N over the fixed rounds.

    Algorithms a workload does not run report 0.
    """
    from rdmlab.bench import KNOWN_ALGORITHMS

    largest = workload.config["n_sweep"][-1]
    out = {f"w1.{alg}": 0.0 for alg in KNOWN_ALGORITHMS}
    for alg in workload.config["algorithms"]:
        values = [
            v
            for _, rows, _ in rounds[: workload.fixed_rounds]
            for row in rows
            if row.algorithm == alg and row.n == largest
            for v in row.per_instance
        ]
        out[f"w1.{alg}"] = statistics.fmean(values)
    return out


def layer_metrics(names, tracer, overhead_frac: float, w1: dict) -> dict[str, float]:
    out = {}
    for name in names:
        if name == "trace.overhead_frac":
            out[name] = overhead_frac
        elif name in w1:
            out[name] = w1[name]
        elif name in COUNTERS:
            out[name] = tracer.counters.get(name, 0)
        elif name.endswith(".failed"):
            layer = name[: -len(".failed")]
            out[name] = sum(1 for sp in tracer.spans if sp.layer == layer and sp.error)
        else:
            span, field, reduce = SPAN_FIELDS.get(name, (*name.rsplit(".", 1), sum))
            if field == "s":
                values = [sp.seconds for sp in tracer.spans if sp.name == span]
            elif field == "calls":
                values = [1 for sp in tracer.spans if sp.name == span]
            else:
                values = [
                    sp.counts[field]
                    for sp in tracer.spans
                    if sp.name == span and sp.counts.get(field) is not None
                ]
            out[name] = reduce(values) if values else 0
    return out


def layer_shares(tracer, wall: float) -> dict[str, float]:
    """Busy time of each layer call (phases and paused probes excluded) over wall time."""
    busy: dict[str, float] = {}
    for sp in tracer.spans:
        if (not sp.paused and sp.layer != "bench") or sp.name == "bench.generate_instance":
            busy[sp.name] = busy.get(sp.name, 0.0) + sp.seconds
    return dict(sorted(((k, v / wall) for k, v in busy.items()), key=lambda kv: -kv[1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    cap_blas_threads(nproc)
    if not (SRC / "rdmlab" / "__init__.py").is_file():
        print(f"perfbench: no rdmlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rdmlab

    if not Path(rdmlab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: rdmlab imported from {rdmlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from checks import OutputChecks, check_round
    from replica import replicate
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    facts = machine_facts(nproc, args)

    rounds, setup = run_window(
        workload, args.seed, args.seconds, 0 if args.trace else SETUP_REPEATS
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    round_seconds = [secs for _, _, secs in rounds]
    attempted = workload.tasks_per_round * len(rounds)
    failed = sum(row.failures for _, rows, _ in rounds for row in rows)
    w1 = quality(workload, rounds)

    tracer = Tracer()
    checks = OutputChecks(workload.joint_dp_oracle, probe=bool(args.trace))
    replayed = rounds[: workload.fixed_rounds] if args.trace else rounds[:1]
    problems: list[str] = []
    replica_seconds = 0.0
    csv_sha256 = None
    for r, (cfg, rows, _) in enumerate(replayed):
        replica = replicate(cfg, r, tracer, checks)
        replica_seconds += replica.seconds
        found, sha = check_round(rows, replica, f"{label}-round{r}", OUT)
        problems += found
        csv_sha256 = csv_sha256 or sha
        for task, kind, message in replica.errors:
            print(f"task {task} failed: {kind}: {message}")
    problems += checks.problems

    record = {
        "facts": facts,
        "rounds": len(rounds),
        "round_seconds": round_seconds,
        "csv_sha256_round0": csv_sha256,
        "rskt_checked": checks.rskt_checked,
        "rskt_objective_dev_max": checks.rskt_objective_dev,
        "joint_dp_oracle": checks.oracle,
        "w1": w1,
        "problems": problems,
    }
    if args.trace:
        untraced = sum(round_seconds[: workload.fixed_rounds])
        names = [m["name"] for m in specs]
        metrics = layer_metrics(names, tracer, replica_seconds / untraced - 1.0, w1)
        record["shares"] = layer_shares(tracer, replica_seconds)
        tracer.write_jsonl(OUT / f"{label}.spans.jsonl")
    else:
        metrics = {
            "tasks_per_s": statistics.median(
                workload.tasks_per_round / secs for secs in round_seconds
            ),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        record["setup_seconds"] = setup
    record["metrics"] = metrics
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=2) + "\n")

    for key, value in facts.items():
        print(f"fact {key} = {value}")
    print(f"csv sha256 (round 0) = {csv_sha256}")
    # the highest percentile with at least ten rounds beyond it, else the max
    ordered = sorted(round_seconds)
    k = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    print(
        f"rounds = {len(rounds)}, round seconds median {statistics.median(ordered):.4f}, "
        f"p{100 * (k + 1) // len(ordered)} {ordered[k]:.4f}; "
        f"{attempted} tasks, {failed} failed"
    )
    for alg in workload.config["algorithms"]:
        print(f"quality w1.{alg} = {w1['w1.' + alg]!r}")
    if checks.oracle:
        print(f"joint-DP oracle W1 = {checks.oracle[0]!r} (bound {checks.oracle[1]!r})")
    if checks.rskt_checked:
        print(
            f"rs-kt check: {checks.rskt_checked} tasks, max |W1 - objective| = "
            f"{checks.rskt_objective_dev!r}"
        )
    for name, share in record.get("shares", {}).items():
        print(f"share {name} = {share:.4f}")
    result_metrics = {}
    for m in specs:
        value = metrics[m["name"]]
        print(f"metric {m['name']} = {value!r} {m['unit']}")
        result_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": result_metrics,
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
