"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train-reduced --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; catl is imported from ``src/``.
With ``--trace 0`` the workload runs untraced and the last line of stdout
is a JSON object whose metrics are the end-to-end metrics of
``BENCHMARK.json``. With ``--trace 1`` the same units run first untraced,
then again with spans recorded, and outputs of the two passes must be
bitwise equal; the first unit then runs once more with the tensor counters
on, its deterministic counts must repeat, and the metrics are the
per-layer ones.
The line before the result holds the environment. Scratch files go to
``.bench_work/`` and span dumps to ``.bench_out/``, both in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 2  # extra fresh processes timed for setup_s, besides this one

# single-threaded numpy, like the program in normal use
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time one set-up in this process, print it and exit")
    return p.parse_args(argv)


def timed_setup(name: str, seed: int, work_dir: Path):
    """Import catl, then run the workload's set-up; returns (workload, seconds)."""
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(ROOT / "bench")]
    import workloads

    if name not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {name!r} (have: {', '.join(workloads.WORKLOADS)})")
    work = workloads.WORKLOADS[name](seed, work_dir)
    work.setup()
    return work, time.perf_counter() - t0


def probe_setups(name: str, seed: int) -> list[float]:
    """Set-up seconds measured in fresh processes, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_for(work, budget: float) -> list:
    """Closed loop: units k = 0, 1, ... one after another, in whole cycles of
    the workload's pool, while another cycle of the average length still
    fits in ``budget`` seconds; at least one cycle."""
    results = []
    t0 = time.perf_counter()
    while not results or (time.perf_counter() - t0) * (1 + work.pool / len(results)) <= budget:
        results += [work.unit(len(results) + i) for i in range(work.pool)]
    return results


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    sources = hashlib.sha256()  # the program and the benchmark together
    for path in sorted((SRC / "catl").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        sources.update(path.name.encode() + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
        "seed": seed,
    }


def end_to_end(work, results, setups: list[float]) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        "items_per_s": {"value": work.items_per_s(results), "unit": "1/s"},
    }


def traced(work, plain, env: dict) -> tuple[dict, list[str]]:
    """Replay the units of ``plain`` under the tracer; per-layer metrics and problems.

    The replay records spans only. Unit 0 then runs once more with the
    tensor and cell-step counters on as well; those wrap ``Tensor.__init__``
    and ``RecurrentCell.step``, the hottest calls, so they stay out of the
    timed replay."""
    import tracing
    import workloads

    problems = []
    dnf_before = (work.dnf.clause_count, work.dnf.atom_count())
    tracer = tracing.Tracer().install()
    try:
        begin = tracer.mark()
        work.setup_spec()  # once more under the tracer, for the parse and DNF layers
        start = tracer.mark()
        runs = [work.unit(0)]
        after_first = tracer.mark()
        runs += [work.unit(k) for k in range(1, len(plain))]
        end = tracer.mark()
        tracer.count_tensors()
        again = work.unit(0)
        after_again = tracer.mark()
    finally:
        tracer.remove()

    for k, (a, b) in enumerate(zip(plain, runs)):
        if a.digest != b.digest:
            problems.append(f"unit {k}: traced outputs differ from untraced outputs")
    if again.digest != plain[0].digest:
        problems.append("unit 0: outputs changed when it ran again")
    first_counts = tracer.counts(start, after_first)
    counts = tracer.counts(end, after_again)
    drifted = {name: (first_counts[name], counts[name])
               for name in tracing.SPAN_COUNTS if first_counts[name] != counts[name]}
    if drifted:
        problems.append(f"unit 0: deterministic counts drifted (first, again): {drifted}")
    dnf_after = (work.dnf.clause_count, work.dnf.atom_count())
    if dnf_after != dnf_before:
        problems.append(f"DNF size drifted: {dnf_before} vs {dnf_after}")
    for team, outcome in tracer.repairs:
        problems += workloads.check_repair_outcome(team, outcome, work.sc, work.phi)

    units = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())["per_layer"]}
    layer = dict.fromkeys(units, 0.0)  # 0 where the workload never enters the layer
    layer.update(tracer.layer_metrics(start, end, len(runs)))
    layer.update(counts)
    layer.update(work.extra_layer_metrics(plain))
    spec = tracer.layer_metrics(begin, start, 1)  # the one traced set-up
    for name in ("parsing.parse_spec_s", "dnf.to_dnf_s"):
        layer[name] = spec[name]
    layer["dnf.clauses"], layer["dnf.atoms"] = map(float, dnf_after)
    layer["trace.overhead"] = sum(r.seconds for r in runs) / sum(r.seconds for r in plain)
    dump = OUT / f"trace-{work.name}-{env['seed']}.json"
    if dump.is_file():  # an earlier traced run of the same sources and seed
        earlier = json.loads(dump.read_text())
        if earlier["environment"]["source_sha256"] == env["source_sha256"] \
                and earlier["counts"] != counts:
            problems.append(f"deterministic counts drifted from the previous run: "
                            f"{earlier['counts']} vs {counts}")
    tracer.dump(dump, {"environment": env, "counts": counts, "metrics": layer,
                       "problems": problems})
    metrics = {name: {"value": layer[name], "unit": unit} for name, unit in units.items()}
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "catl" / "__init__.py").is_file():
        sys.exit(f"no catl sources under {SRC}; run from the root of a source checkout")
    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        work, own_setup = timed_setup(args.workload, args.seed, work_dir)
        if args.setup_probe:
            print(own_setup)
            return 0
        env = environment(args.seed)
        if args.trace:
            results = run_for(work, args.seconds / 2)
            metrics, problems = traced(work, results, env)
        else:
            setups = [own_setup] + probe_setups(args.workload, args.seed)
            results = run_for(work, args.seconds)
            metrics, problems = end_to_end(work, results, setups), []
        problems += [f for r in results for f in r.failures] + work.final_checks(results)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    # a failed check also counts as a failed item
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.items for r in results),
        "failed": sum(r.failed_items for r in results) + len(problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
