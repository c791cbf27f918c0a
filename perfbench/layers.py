"""Per-layer metrics: their names, units and derivation from spans.

Every metric is derived from the spans of one traced repetition (its input
construction and its timed call), except ``process.cpu_s``, the CPU time of
the traced call, and ``trace.overhead_frac``, which ``run.py`` adds from the
wall times of the traced and reference repetitions.  A metric whose layer a
workload never enters reads 0.
"""

from __future__ import annotations

from tracer import LAYERS, STENCILS, Spans

_TIMED = "s"
_COUNT = "count"


def _both(name):
    return [(f"{name}.calls", _COUNT), (f"{name}.self_s", _TIMED)]


def _self(name):
    return [(f"{name}.self_s", _TIMED)]


# (metric name, unit), in report order
PER_LAYER = [
    *_both("grid.Grid.d1"), *_both("grid.Grid.d2"),
    *_both("grid.Grid.integrate"), *_both("grid.diff_time"),
    ("grid.stencil_bytes", "bytes-computed"),
    *_self("evolve.evolve"),
    ("evolve.steps", _COUNT),
    *_self("evolve.LinearizedStepper.step"),
    *_both("evolve.LinearizedStepper.rhs"),
    *_self("evolve.LinearizedStepper.apply_bc"),
    *_both("evolve._CoeffCache.at"),
    *_self("evolve._LedgerAccumulator.advance_flux"),
    *_self("evolve._LedgerAccumulator.row"),
    ("evolve.coeff_lookups_per_step", "1/step"),
    ("evolve.stencils_per_step", "1/step"),
    *_both("linearized.assemble_effective"), *_both("linearized.c_matrix"),
    *_both("linearized.j_matrix"), *_both("linearized.BasicState.frame"),
    *_self("linearized.validate_basic_state"),
    ("mhd.assemble_a0.calls", _COUNT),
    ("mhd.coefficient_jacobians.calls", _COUNT),
    *_both("front.lift_front"),
    *_self("stability.build_lambda"), *_self("stability.symmetrizer_matrices"),
    *_both("scenarios.ManufacturedForcing.__call__"),
    ("scenarios.forcing_evals_per_step", "1/step"),
    *_self("compat.time_jet"),
    *_both("nashmoser.NashMoserDriver.step"),
    *_both("nashmoser.NashMoserDriver.smooth_field"),
    *_self("nashmoser.NashMoserDriver.modified_state"),
    *_self("nashmoser.NashMoserDriver.calL"),
    *_self("nashmoser.NashMoserDriver.__init__"),
    *_both("nashmoser.SheetOperators.nonlinear_L"),
    *_both("nashmoser.SheetOperators.linearized_L"),
    ("nashmoser.c_matrix_per_step", "1/step"),
    *_both("smoothing.Smoother.__call__"),
    *_self("smoothing.Smoother.__post_init__"),
    *_self("smoothing.smoothing_harness"),
    ("smoothing.norm_evals_per_harness", "1/harness"),
    *_both("norms.hm_star_norm"), *_both("norms.conormal_derivative"),
    ("norms.lift.calls", _COUNT),
    ("norms.stencils_per_multiindex", "1/index"),
    *[(f"{layer}.self_s", _TIMED) for layer in LAYERS],
    ("process.cpu_s", _TIMED),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", _COUNT),
]

# derived ratios: name -> (counted spans, enclosing span, denominator span)
_RATIOS = {
    "evolve.coeff_lookups_per_step": (
        ("evolve._CoeffCache.at",), "evolve.evolve",
        "evolve.LinearizedStepper.step"),
    "evolve.stencils_per_step": (
        STENCILS, "evolve.evolve", "evolve.LinearizedStepper.step"),
    "scenarios.forcing_evals_per_step": (
        ("scenarios.ManufacturedForcing.__call__",), "evolve.evolve",
        "evolve.LinearizedStepper.step"),
    "nashmoser.c_matrix_per_step": (
        ("linearized.c_matrix",), "nashmoser.NashMoserDriver.step",
        "nashmoser.NashMoserDriver.step"),
    "smoothing.norm_evals_per_harness": (
        ("norms.hm_star_norm",), "smoothing.smoothing_harness",
        "smoothing.smoothing_harness"),
    "norms.stencils_per_multiindex": (
        STENCILS, "norms.conormal_derivative", "norms.conormal_derivative"),
}


def layer_metrics(spans: Spans, cpu_s: float) -> dict:
    """Every per-layer metric but the overhead, for one traced repetition."""
    out = {}
    for name, _unit in PER_LAYER:
        target, _, stat = name.rpartition(".")
        if name in _RATIOS:
            counted, ancestor, denom = _RATIOS[name]
            calls = spans.calls(denom)
            out[name] = (spans.count_within(counted, ancestor) / calls
                         if calls else 0.0)
        elif stat == "calls":
            out[name] = spans.calls(target)
        elif stat == "self_s" and target in LAYERS:
            out[name] = spans.module_self_s(target)
        elif stat == "self_s":
            out[name] = spans.self_s(target)
    out["grid.stencil_bytes"] = int(sum(
        int(spans.nbytes[spans.mask(s)].sum()) for s in STENCILS))
    out["evolve.steps"] = spans.calls("evolve.LinearizedStepper.step")
    out["process.cpu_s"] = cpu_s
    out["trace.spans"] = len(spans)
    return out
