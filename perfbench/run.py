"""cvsheet benchmark: one workload per fresh process, metrics with units.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload evolve-trivial-256 --seed 3 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans go to ``perfbench/out/``).  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every repetition runs in a fresh worker process (see ``worker.py`` for
why), one at a time, until ``--seconds`` have passed.  ``run_s`` is the
median wall time of the timed call and ``peak_rss_mb`` the median peak
resident memory of the worker processes.  ``setup_s`` runs from the start
of a worker's interpreter to its first timed call; runs with fewer than
``SETUP_SAMPLES`` repetitions add workers that only set up, and the median
over all of them is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORKLOAD_NAMES = ("evolve-trivial-256", "nash-moser-32", "norms-smoothing")
DEFAULT_SEED = 3
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170          # a run must end within 180 s
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    """A child process failed; no result can be reported."""


def _child(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run the worker; return (monotonic spawn time, its JSON record)."""
    env = {**os.environ, **THREAD_PINS}
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=env,
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    return spawned, json.loads(lines[-1])


def _load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]]}


def _repeat(base: list[str], seconds: float, tracer: str, deadline: float,
            spans_out=None):
    """Start one repetition after another until ``seconds`` have passed."""
    reps = []
    began = time.monotonic()
    while not reps or time.monotonic() - began < seconds:
        args = base + ["--tracer", tracer]
        if spans_out:
            args += ["--spans-out", str(spans_out)]
        spawned, rec = _child(args, deadline)
        rec["setup_s"] = rec.pop("setup_mark") - spawned
        rec["tracer"] = tracer
        reps.append(rec)
    return reps


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; return the result record with every metric.

    Untraced, the whole time goes to repetitions without wrappers.
    Traced, a third goes to reference repetitions, whose wrappers are
    installed but do not record, and a third to recording ones, so that
    a traced run costs no more than an untraced one.  The reference
    shares the traced process's allocation history up to set-up, which
    the norms-smoothing call counts depend on (see ``worker.py``);
    comparing against it isolates what recording spans does.
    """
    base = ["--workload", name, "--seed", str(seed)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        reps = _repeat(base, seconds / 3, "idle", deadline)
        traced = _repeat(base, seconds / 3, "on", deadline,
                         OUT / f"spans-{name}-seed{seed}.npz")
    else:
        reps, traced = _repeat(base, seconds, "off", deadline), []
    setups = [r["setup_s"] for r in reps]
    for _ in range(SETUP_SAMPLES - len(setups)):
        spawned, rec = _child(base + ["--setup-only"], deadline)
        setups.append(rec["setup_mark"] - spawned)

    timed = [r for r in reps if "wall" in r]
    if not timed:
        raise BenchError("no repetition completed")
    checks = [c for r in reps + traced for c in r["checks"]]
    # one seed, one answer: every repetition must give the same physics,
    # bit for bit, and the span wrappers must not change a single bit;
    # outputs that depend on the heap (ROADMAP 5b) are only counted
    ref = timed[0]["digest"]
    checks += [("repeatable", r["digest"] == ref) for r in timed[1:]]
    checks += [("traced_equals_reference", r.get("digest") == ref)
               for r in traced]
    heap = [r["heap_digest"] for r in reps + traced if "heap_digest" in r]
    failed = sum(1 for _, ok in checks if not ok)
    run_s = statistics.median(r["wall"] for r in timed)
    layers = None
    traced_ok = [r for r in traced if "layers" in r]
    if traced_ok:
        for r in traced_ok:
            r["layers"]["trace.overhead_frac"] = r["wall"] / run_s - 1.0
        layers = {k: statistics.median(r["layers"][k] for r in traced_ok)
                  for k in traced_ok[0]["layers"]}
    elif trace:
        raise BenchError("no traced repetition completed")
    return {
        "workload": name, "seed": seed, "trace": trace,
        "env": timed[0]["env"], "reps": reps + traced, "checks": checks,
        "attempted": len(checks), "failed": failed,
        "failed_frac": failed / len(checks),
        "setup_samples": setups, "layers": layers,
        "heap_variants": len(set(heap)), "heap_reps": len(heap),
        "e2e": {"setup_s": statistics.median(setups), "run_s": run_s,
                "peak_rss_mb": statistics.median(
                    r["peak_rss_mb"] for r in timed)},
    }


def _report(rec: dict, spec: dict) -> dict:
    """Print the human-readable record; return the result for the JSON line."""
    name, env = rec["workload"], rec["env"]
    ws = env["working_set"]
    print(f"== {name} seed={rec['seed']} trace={rec['trace']}")
    print(f"   env: nproc={env['nproc']} L3={env['l3_bytes']} B "
          f"python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']} "
          f"threads={env['threads']} commit={env['commit']}")
    print(f"   working set (computed): {json.dumps(ws)}")
    for i, r in enumerate(rec["reps"]):
        if "wall" not in r:
            print(f"   rep {i} (tracer {r['tracer']}): raised")
            continue
        print(f"   rep {i} (tracer {r['tracer']}): {r['wall']:.4f} s wall, "
              f"{r['cpu']:.4f} s cpu, {r['peak_rss_mb']:.1f} MB peak, "
              f"physics {json.dumps(r['physics'])}")
    bad = sorted({c for c, ok in rec["checks"] if not ok})
    print(f"   checks: {rec['attempted']} attempted, {rec['failed']} failed"
          + (f" ({', '.join(bad)})" if bad else ""))
    print(f"   failed_frac = {rec['failed_frac']:.4g} frac")
    if rec["heap_reps"]:
        print(f"   heap-dependent outputs (ROADMAP 5b, not gated): "
              f"{rec['heap_variants']} distinct over {rec['heap_reps']} "
              f"repetitions")
    units = dict(spec["end_to_end"])
    for k, v in rec["e2e"].items():
        print(f"   {k} = {v:.6g} {units[k]}")

    if rec["trace"]:
        metrics = {n: {"value": rec["layers"][n], "unit": u}
                   for n, u in spec["per_layer"]}
        for n, m in metrics.items():
            print(f"   {n} = {m['value']:.6g} {m['unit']}")
    else:
        metrics = {n: {"value": rec["e2e"][n], "unit": u}
                   for n, u in spec["end_to_end"]}
    return {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cvsheet" / "__init__.py").is_file():
        print(f"error: no cvsheet sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = _load_spec()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    results = {}
    try:
        for name in names:
            rec = run_workload(name, args.seed, args.seconds, args.trace)
            results[name] = _report(rec, spec)
            (OUT / f"run-{name}-seed{args.seed}-trace{args.trace}.json"
             ).write_text(json.dumps(rec, indent=1))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
