"""One repetition of one workload in a fresh process; prints one JSON line.

Started by ``run.py``.  The BLAS and OpenMP pools are pinned to one thread
before numpy loads, so the process never runs more threads than cores.
Every repetition gets its own process: cvsheet's smoothing harness memoizes
norms by ``id()`` of temporary arrays, so a second harness in one process
would reuse the first one's stale norms.  Even across fresh processes the
as1 table depends on the heap's history (the length of the checkout's path
moves it), so it is digested apart from the rest (see ``workloads.py``).

  --setup-only   build the inputs, record the set-up mark, exit;
  --tracer off   no wrappers (the end-to-end runs);
  --tracer idle  wrappers installed but not recording: the reference of a
                 traced run, with the same allocation history up to set-up;
  --tracer on    record the spans of the set-up and the timed call and
                 derive the per-layer metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import cvsheet  # noqa: E402  (after the path and thread pins)

from layers import layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _environment(wl, ctx) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = None
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        if (idx / "level").read_text().strip() == "3":
            size = (idx / "size").read_text().strip()
            l3 = int(size[:-1]) * 1024 if size.endswith("K") else None
    ws = wl.working_set(ctx)
    if l3:
        ws["coeff_vs_l3"] = ws["coeff_bytes"] / l3
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "commit": _git_commit(),
        "working_set": ws,
    }


def _git_commit() -> str:
    """HEAD of the checkout, read without starting git; 'unknown' if none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tracer", choices=("off", "idle", "on"), default="off")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    src = Path(cvsheet.__file__).resolve().parent
    if src != ROOT / "src" / "cvsheet":
        raise SystemExit(f"cvsheet imported from {src}, not this checkout")

    wl = WORKLOADS[args.workload]()
    tracer = Tracer().install() if args.tracer != "off" else None
    if args.tracer == "on":
        tracer.__enter__()
    ctx = wl.setup(args.seed)
    record = {"setup_mark": time.monotonic()}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    try:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        result = wl.run(ctx)
        record["wall"] = time.perf_counter() - t0
        record["cpu"] = time.process_time() - cpu0
    except Exception:
        # a raised run is a failed check, reported, not a crash
        traceback.print_exc()
        record["checks"] = [("run_raised", False)]
    if tracer:
        tracer.__exit__()
        tracer.uninstall()
    if "wall" in record:
        try:
            record["checks"] = [(n, bool(ok))
                                for n, ok in wl.checks(ctx, result)]
        except Exception:
            traceback.print_exc()
            record["checks"] = [("checks_raised", False)]
        record["digest"] = wl.digest(result)
        if hasattr(wl, "heap_digest"):
            record["heap_digest"] = wl.heap_digest(result)
        record["physics"] = wl.physics(result)
        if args.tracer == "on":
            spans = tracer.spans()
            record["layers"] = layer_metrics(spans, record["cpu"])
            if args.spans_out:
                spans.save(args.spans_out)
    record["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024)
    record["env"] = _environment(wl, ctx)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
