"""Self-tests of the benchmark: tracer arithmetic, bindings, non-interference.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402  (imports cvsheet)
from layers import PER_LAYER, layer_metrics  # noqa: E402
from tracer import LAYERS, Spans, Tracer, discover_targets  # noqa: E402


# -- self-time arithmetic --------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # root [0, 100) > a [10, 40) > b [15, 25); root > c [50, 90)
    spans = Spans(["root", "a", "b", "c"], np.array([0, 1, 2, 3]),
                  np.array([0, 10, 15, 50]), np.array([100, 40, 25, 90]),
                  np.array([-1, 0, 1, 0]), np.zeros(4, dtype=np.int64))
    assert spans.self_ns.tolist() == [100 - 30 - 40, 30 - 10, 10, 40]
    assert spans.self_ns.sum() == 100          # self times tile the root
    assert spans.within("a").tolist() == [False, False, True, False]
    assert spans.count_within(["b", "c"], "root") == 2


def _fake_package(monkeypatch):
    """pkg.a defines f and g; pkg.b re-binds f by ``from .a import f``."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    exec(textwrap.dedent("""
        def f(x, *, scale=2):
            return x * scale

        def g(x):
            return f(x) + f(x + 1)

        class K:
            def __init__(self, v):
                self.v = v

            def twice(self, y=1):
                return g(self.v) * y

            @classmethod
            def make(cls, v):
                return cls(v)

            def _private(self):
                return 0
    """), a.__dict__)
    a.__dict__["__name__"] = "fakepkg.a"
    for obj in (a.f, a.g, a.K):
        obj.__module__ = "fakepkg.a"
    b = types.ModuleType("fakepkg.b")
    b.f = a.f

    def h(x):
        return b.f(x, scale=3)

    h.__module__ = "fakepkg.b"
    b.h = h
    for name, mod in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, mod)
    return a, b


def test_synthetic_nesting_and_counts(monkeypatch):
    a, b = _fake_package(monkeypatch)
    tracer = Tracer(package="fakepkg", layers=("a", "b")).install()
    with tracer:
        assert a.K.make(3).twice(y=2) == 2 * (6 + 8)
    tracer.uninstall()
    spans = tracer.spans()
    assert spans.calls("a.K.make") == 1
    assert spans.calls("a.K.__init__") == 1
    assert spans.calls("a.K.twice") == 1
    assert spans.calls("a.g") == 1
    assert spans.calls("a.f") == 2
    assert spans.calls("a.K._private") == 0
    names = [spans.names[i] for i in spans.name_id]
    parents = [names[p] if p >= 0 else None for p in spans.parent]
    assert dict(zip(names, parents))["a.f"] == "a.g"
    assert spans.within("a.K.twice")[spans.mask("a.f")].all()
    assert (spans.self_ns >= 0).all()
    roots = spans.parent < 0
    assert spans.self_ns.sum() == (spans.end - spans.start)[roots].sum()


def test_every_binding_of_a_reimported_function_is_counted(monkeypatch):
    a, b = _fake_package(monkeypatch)
    tracer = Tracer(package="fakepkg", layers=("a", "b")).install()
    assert b.f is a.f and b.f.__wrapped__ is not None
    with tracer:
        a.f(1)
        b.h(1)                 # reaches f through b's own binding
    tracer.uninstall()
    assert tracer.spans().calls("a.f") == 2
    assert tracer.spans().calls("b.h") == 1
    assert not hasattr(a.f, "__wrapped__") and b.f is a.f


def test_cvsheet_reimports_share_one_wrapper():
    import cvsheet.evolve as ev
    import cvsheet.grid as grid
    import cvsheet.linearized as lin
    import cvsheet.nashmoser as nm
    import cvsheet.norms as norms
    raw = (lin.c_matrix, grid.diff_time, lin.assemble_effective,
           grid.Grid.d1)
    tracer = Tracer().install()
    try:
        assert nm.c_matrix is lin.c_matrix is not raw[0]
        assert nm.diff_time is norms.diff_time is grid.diff_time
        assert ev.assemble_effective is lin.assemble_effective
        assert grid.Grid.d1 is not raw[3]          # frozen dataclass
    finally:
        tracer.uninstall()
    assert (lin.c_matrix, grid.diff_time, lin.assemble_effective,
            grid.Grid.d1) == raw
    assert nm.c_matrix is raw[0] and norms.diff_time is raw[1]


# -- metric names ----------------------------------------------------------

def test_benchmark_json_lists_exactly_the_derived_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    empty = Spans([], *(np.zeros(0, dtype=np.int64),) * 5)
    derived = layer_metrics(empty, 0.0)
    assert set(derived) | {"trace.overhead_frac"} == {n for n, _ in
                                                      PER_LAYER}


def test_every_named_layer_target_exists_in_cvsheet():
    qualnames = {q for q, *_ in discover_targets()}
    for name, _ in PER_LAYER:
        target, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s") and target not in LAYERS:
            assert target in qualnames, name


# -- the wrappers change no bit of the physics ------------------------------

_SMALL = {
    "evolve": "workloads.EvolveTrivial(n=32, t_final=0.05)",
    "nash-moser": "workloads.NashMoser(n=16, nt=9, iterations=2)",
    "norms": "workloads.NormsSmoothing(sizes=((32, 13),), sobolev=(32, 9, 2))",
}

_RUN_ONE = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
import workloads
from tracer import Tracer
wl = {make}
tracer = Tracer().install() if {mode!r} != "off" else None
if {mode!r} == "on":
    tracer.__enter__()
ctx = wl.setup(5)
result = wl.run(ctx)
assert all(ok for _, ok in wl.checks(ctx, result))
print(wl.digest(result))
"""


def _digest(kind: str, mode: str) -> str:
    # a fresh process each, as in a run
    code = _RUN_ONE.format(src=str(ROOT / "src"), here=str(HERE),
                           make=_SMALL[kind], mode=mode)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    return out.stdout.split()[-1]


@pytest.mark.parametrize("kind", sorted(_SMALL))
def test_recording_spans_changes_no_bit_of_the_physics(kind):
    assert _digest(kind, "on") == _digest(kind, "idle")


@pytest.mark.parametrize("kind", sorted(_SMALL))
def test_installed_wrappers_change_no_bit_of_the_physics(kind):
    assert _digest(kind, "on") == _digest(kind, "off")


def test_norms_digest_leaves_out_only_the_heap_dependent_table():
    # as1 can read stale memoized norms (ROADMAP 5b); the rest cannot
    wl = workloads.NormsSmoothing()

    def out(as1, as2):
        rep = types.SimpleNamespace(as1={(1, 1, 2.0): as1}, as2={(1, 1, 2.0): as2},
                              as3={(1, 1, 2.0): 0.5})
        return {"reports": [rep], "sobolev2": types.SimpleNamespace(
            ratios=np.array([0.1, 0.2]))}

    assert wl.digest(out(0.391, 0.7)) == wl.digest(out(0.506, 0.7))
    assert wl.heap_digest(out(0.391, 0.7)) != wl.heap_digest(out(0.506, 0.7))
    assert wl.digest(out(0.391, 0.7)) != wl.digest(out(0.391, 0.8))


# -- without the program --------------------------------------------------

def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "norms-smoothing",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
