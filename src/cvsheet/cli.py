"""Batch front-end: config-driven experiments with machine-readable output.

Configs are flat INI-style key-value text with sections.  An unknown
section or key, or a value outside its key's domain (``_DOMAINS``: every
number finite, some bounded below), is a config error.  Every run writes
``manifest.json``: the experiment, the effective seed, the config text and
its SHA-256, the package and numpy versions and the keys of the run's
summary.  Identical config and seed produce byte-identical artifacts.

Every artifact is written and read here: CSV tables (a header line, then
``repr`` floats), strict JSON reports with sorted keys (an undefined,
non-finite value as null), and ``evolve``'s checkpoints, one
(2, 6, n1, n2) ``checkpoint_kkk.npy`` per snapshot time, listed with
their grid, state and EOS in ``checkpoints.json``.

Exit codes: 0 success, 1 config/validation failure (a missed smallness
budget included), 2 numerical abort (a modified state that loses
stability and a degenerate front Jacobian included).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import __version__
from .compat import (SmallnessError, build_approximate, check_compatibility,
                     forcing_fa, manufactured_initial_data, time_jet)
from .evolve import NumericsError, energy_integrals, evolve
from .front import DegenerateJacobianError
from .grid import Grid
from .mhd import IdealGasEos, contact_states
from .nashmoser import ModifiedStateError, NashMoserConfig, NashMoserDriver
from .stability import StabilityError, check_stability, wang_yu_compare


class ConfigError(ValueError):
    pass


_GRID = {"n1": 48, "n2": 48, "L1": 2 * np.pi, "L2": 2 * np.pi}
_EOS = {"gamma": 5.0 / 3.0}
# the manufactured data of compat and nash-moser-demo carry no entropy
_PAIR_ISENTROPIC = {"p_plus": 0.8, "u2_jump": 0.1, "H2_plus": 0.7,
                    "H2_minus": 0.6}
_PAIR = {**_PAIR_ISENTROPIC, "S_plus": 0.0, "S_minus": 0.0}

#: experiment -> section -> key -> default: the one list of config keys.  A
#: given value is parsed to the type of its default; ``_DOMAINS`` bounds it.
SCHEMAS = {
    "stability-map": {
        "map": {"p_plus": 1.0, "S": 0.0, "u2_jump_max": 3.0, "u2_jump_n": 61,
                "H2_max": 2.0, "H2_n": 61, "k_margin": 1e-3},
        "eos": _EOS,
    },
    "symmetrize": {
        "state": _PAIR,
        "eos": _EOS,
        "symmetrize": {"k_margin": 1e-3, "collar_eps": 0.25, "n_collar": 33},
    },
    "evolve": {
        "grid": _GRID,
        "eos": _EOS,
        "state": _PAIR,
        "evolve": {"t_final": 0.4, "cfl": 0.4, "forcing_amplitude": 1.0,
                   "forcing_k2": 2, "forcing_ramp": 0.2,
                   "boundary_amplitude": 0.0, "boundary_k2": 2,
                   "checkpoint_count": 0},
    },
    "energy-report": {
        "energy-report": {"run_dir": "."},
    },
    "compat": {
        "grid": _GRID,
        "eos": _EOS,
        "state": _PAIR_ISENTROPIC,
        "compat": {"amplitude": 0.05, "k2": 1, "order": 2, "T": 1.0,
                   "delta": 10.0, "fit_t_min": 1e-3, "fit_t_max": 1e-1,
                   "fit_points": 11},
    },
    "nash-moser-demo": {
        "grid": _GRID,
        "eos": _EOS,
        "state": _PAIR_ISENTROPIC,
        "nash-moser": {"amplitude": 8e-6, "k2": 1, "T": 2.0, "nt": 65,
                       "theta0": 2.0, "iterations": 5, "delta": 1e-3},
    },
}

EXPERIMENTS = tuple(SCHEMAS)

#: key -> (least value, whether it is allowed) for the keys bounded below,
#: one meaning per key name in every schema; every number must be finite
_DOMAINS = {
    **dict.fromkeys(("n1", "n2", "nt"), (5, True)),   # five-node stencils
    "fit_points": (2, True),
    **dict.fromkeys(("gamma", "theta0", "u2_jump_n", "H2_n", "n_collar",
                     "iterations"), (1, True)),
    **dict.fromkeys(("amplitude", "order", "checkpoint_count", "u2_jump_max",
                     "H2_max"), (0, True)),
    **dict.fromkeys(("L1", "L2", "p_plus", "k_margin", "collar_eps",
                     "t_final", "cfl", "forcing_ramp", "T", "delta",
                     "fit_t_min", "fit_t_max"), (0, False)),
}


def _check(section: str, values: dict) -> None:
    """``ConfigError`` unless each value but a string is in its domain."""
    for key, value in values.items():
        least, allowed = _DOMAINS.get(key, (-np.inf, False))
        if isinstance(value, str) or (
                isinstance(value, (int, float)) and np.isfinite(value)
                and (value > least or allowed and value == least)):
            continue
        bound = (f" and {'>=' if allowed else '>'} {least}"
                 if key in _DOMAINS else "")
        raise ConfigError(f"[{section}] {key} must be finite{bound}, "
                          f"got {value!r}")


def parse_config(text: str):
    """(experiment, seed, cfg): cfg holds every section of the experiment's
    schema with every key, the given values laid over the defaults."""
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keys are case-sensitive
    cp.read_string(text)
    if "run" not in cp:
        raise ConfigError("missing [run] section")
    run = dict(cp["run"])
    exp = run.pop("experiment", None)
    seed = int(run.pop("seed", "0"))
    if run:
        raise ConfigError(f"unknown keys in [run]: {sorted(run)}")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp!r}; "
                          f"choose from {EXPERIMENTS}")
    schema = SCHEMAS[exp]
    cfg = {section: dict(keys) for section, keys in schema.items()}
    for section in cp.sections():
        if section == "run":
            continue
        if section not in schema:
            raise ConfigError(f"unknown section [{section}] for {exp}")
        for key, raw in cp[section].items():
            if key not in schema[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            cfg[section][key] = type(schema[section][key])(raw)
    for section, values in cfg.items():
        _check(section, values)
    return exp, seed, cfg


def _write_manifest(out: Path, experiment: str, seed: int, text: str,
                    extra: dict | None = None) -> None:
    manifest = {
        "experiment": experiment,
        "seed": seed,
        "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "config_text": text,
        "package_version": __version__,
        "numpy_version": np.__version__,
    }
    manifest.update(extra or {})
    _write_json(out / "manifest.json", manifest)


def _csv(path: Path, header: str, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# -- experiments --------------------------------------------------------------


def run_stability_map(cfg, seed, out: Path, verbosity: int) -> dict:
    eos = IdealGasEos(**cfg["eos"])
    m = cfg["map"]
    jumps = np.linspace(0.0, m["u2_jump_max"], m["u2_jump_n"])
    fields = np.linspace(0.0, m["H2_max"], m["H2_n"])
    rows = []
    from .mhd import alfven_speed, sound_speed
    for ju in jumps:
        for H2 in fields:
            plus, minus = contact_states(m["p_plus"], ju, H2, H2, m["S"],
                                         m["S"])
            rep = check_stability(plus, minus, eos, k=m["k_margin"])
            c = float(sound_speed(plus, eos))
            cA = float(alfven_speed(plus, eos))
            if 0.0 < cA < c:
                ours, sub, sup = wang_yu_compare(c, cA)
            else:
                ours = sub = sup = float("nan")
            rows.append((ju, H2, rep.margin_min, ours, sub, sup))
    _csv(out / "stability_map.csv",
         "param1,param2,margin,ours,wy_subsonic,wy_supersonic", rows)
    return {"rows": len(rows)}


def run_symmetrize(cfg, seed, out: Path, verbosity: int) -> dict:
    from .stability import (build_lambda, check_b0_positive,
                            extend_lambda, leading_coefficient)
    eos = IdealGasEos(**cfg["eos"])
    sc = cfg["symmetrize"]
    plus, minus = contact_states(**cfg["state"])
    lam = build_lambda(plus, minus, eos, k=sc["k_margin"])
    rep = check_stability(plus, minus, eos, k=sc["k_margin"])
    certs = [check_b0_positive(st, lv, eos)
             for st, lv in ((plus, lam.lam_plus), (minus, lam.lam_minus))]
    x1 = np.linspace(0.0, 4 * sc["collar_eps"], sc["n_collar"])
    field = extend_lambda(lam, x1, eps=sc["collar_eps"],
                          states=(plus, minus), eos=eos)
    coeff = leading_coefficient(lam, {"u2p": plus.u2, "H2p": plus.H2,
                                      "u2m": minus.u2, "H2m": minus.H2})
    payload = {
        "lambda_plus": float(lam.lam_plus),
        "lambda_minus": float(lam.lam_minus),
        "stability_margin": rep.margin_min,
        "b0_min_eig_plus": certs[0].min_eig,
        "b0_min_eig_minus": certs[1].min_eig,
        "b0_positive": bool(certs[0].positive and certs[1].positive),
        "leading_coefficient": float(coeff),
        "collar_eps": sc["collar_eps"],
        "collar_max_abs_lambda": float(np.max(np.abs(field))),
    }
    _write_json(out / "symmetrizer.json", payload)
    return payload


def run_evolve(cfg, seed, out: Path, verbosity: int) -> dict:
    from .linearized import trivial_sheet_state
    from .scenarios import ManufacturedBoundaryData, ManufacturedForcing
    eos = IdealGasEos(**cfg["eos"])
    grid = Grid(**cfg["grid"])
    basic = trivial_sheet_state(grid, eos, **cfg["state"])
    ev = cfg["evolve"]
    count = ev["checkpoint_count"]
    forcing = None
    if ev["forcing_amplitude"] != 0.0:
        forcing = ManufacturedForcing(grid, amplitude=ev["forcing_amplitude"],
                                      k2=ev["forcing_k2"],
                                      ramp=ev["forcing_ramp"])
    bdata = None
    if ev["boundary_amplitude"] != 0.0:
        bdata = ManufacturedBoundaryData(grid,
                                         amplitude=ev["boundary_amplitude"],
                                         k2=ev["boundary_k2"])
    traj = evolve(basic, t_final=ev["t_final"], forcing=forcing, bdata=bdata,
                  cfl=ev["cfl"],
                  snapshot_times=np.linspace(0.0, ev["t_final"], count))
    _csv(out / "energy_ledger.csv",
         "t,I,I0,I1n,Isigma,I2,phiL2,identity_residual",
         map(astuple, traj.ledger.rows))
    _csv(out / "boundary_energy.csv", "t,boundary_energy,div_residual,"
         "hn_residual",
         zip(traj.times, traj.boundary_energy, traj.div_residual,
             traj.hn_residual))
    if count:
        for k, snap in enumerate(traj.snapshots):
            np.save(out / f"checkpoint_{k:03d}.npy", snap)
        _write_json(out / "checkpoints.json", {
            "times": [float(t) for t in traj.snapshot_times],
            "count": len(traj.snapshot_times),
            "state": cfg["state"],
            "grid": cfg["grid"],
            "eos": cfg["eos"],
        })
    return {"steps": len(traj.times) - 1,
            "final_I": traj.ledger.rows[-1].I,
            "cstar": traj.cstar, "lambda_fallback": traj.lambda_fallback}


def _read_checkpoints(path: Path):
    """(grid, times) of an ``evolve`` run's ``checkpoints.json``, which is
    outside input: ``ConfigError`` unless its grid gives every key of
    ``_GRID``, the sizes as integers, each in its domain, and ``times``
    lists ``count`` finite times."""
    meta = json.loads(path.read_text())
    if not isinstance(meta, dict) or not {"grid", "times",
                                          "count"} <= meta.keys():
        raise ConfigError(f"{path}: an object with grid, times and count "
                          f"is expected")
    grid, times, count = meta["grid"], meta["times"], meta["count"]
    if not isinstance(grid, dict) or grid.keys() != _GRID.keys():
        raise ConfigError(f"{path}: grid must give {sorted(_GRID)}")
    for key, value in grid.items():
        kind = int if isinstance(_GRID[key], int) else (int, float)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"{path}: grid {key} must be "
                              f"{'an integer' if kind is int else 'a number'}"
                              f", got {value!r}")
    _check("grid", grid)
    if (type(count) is not int or not isinstance(times, list)
            or len(times) != count
            or not all(type(t) in (int, float) and np.isfinite(t)
                       for t in times)):
        raise ConfigError(f"{path}: times must list count = {count!r} "
                          f"finite times")
    return Grid(**grid), times


def run_energy_report(cfg, seed, out: Path, verbosity: int) -> dict:
    """Recompute the norm ledger of checkpointed trajectory snapshots."""
    run_dir = Path(cfg["energy-report"]["run_dir"])
    grid, times = _read_checkpoints(run_dir / "checkpoints.json")
    rows = []
    shape = (2, 6, grid.n1, grid.n2)
    for k, t in enumerate(times):
        path = run_dir / f"checkpoint_{k:03d}.npy"
        V = np.load(path)
        if V.shape != shape or V.dtype != np.float64:
            raise ConfigError(f"{path}: a {V.dtype} array of shape "
                              f"{V.shape}; the grid of checkpoints.json "
                              f"gives float64 {shape}")
        if not np.all(np.isfinite(V)):
            raise ConfigError(f"{path}: values must be finite")
        rows.append((t, *energy_integrals(grid, V)))
    _csv(out / "energy_report.csv", "t,I,I1n,Isigma,I2", rows)
    return {"snapshots": len(rows)}


def run_compat(cfg, seed, out: Path, verbosity: int) -> dict:
    eos = IdealGasEos(**cfg["eos"])
    grid = Grid(**cfg["grid"])
    cc = cfg["compat"]
    data = manufactured_initial_data(grid, eos, amplitude=cc["amplitude"],
                                     k2=cc["k2"], seed=seed, **cfg["state"])
    jet = time_jet(data, order=cc["order"])
    rep = check_compatibility(jet, order=cc["order"])
    approx = build_approximate(jet, T=cc["T"], delta=cc["delta"])
    F = forcing_fa(approx)
    ts = np.geomspace(cc["fit_t_min"], cc["fit_t_max"], cc["fit_points"])
    norms = [float(np.sqrt(grid.integrate((F(t) ** 2).sum(axis=(0, 1)))))
             for t in ts]
    slope = float(np.polyfit(np.log(ts), np.log(norms), 1)[0]) \
        if max(norms) > 0 else float("nan")
    _csv(out / "fa_scaling.csv", "t,fa_l2", zip(ts, norms))
    payload = {
        "compatible_up_to": rep.compatible_up_to(),
        "velocity_residuals": rep.velocity_residuals,
        "pressure_residuals": rep.pressure_residuals,
        "fa_slope": slope,
        "smallness": approx.smallness,
        "eos_gamma": eos.gamma,
    }
    _write_json(out / "compat_report.json", payload)
    return payload


def run_nash_moser_demo(cfg, seed, out: Path, verbosity: int) -> dict:
    eos = IdealGasEos(**cfg["eos"])
    grid = Grid(**cfg["grid"])
    nm = cfg["nash-moser"]
    data = manufactured_initial_data(grid, eos, amplitude=nm["amplitude"],
                                     k2=nm["k2"], seed=seed, **cfg["state"])
    jet = time_jet(data, order=2)
    approx = build_approximate(jet, T=nm["T"], delta=nm["delta"])
    tgrid = np.linspace(0.0, nm["T"], nm["nt"])
    driver = NashMoserDriver(approx, tgrid,
                             NashMoserConfig(theta0=nm["theta0"],
                                             iterations=nm["iterations"]))
    report = driver.run()
    with open(out / "iterates.jsonl", "w", newline="\n") as fh:
        for h in report["history"]:
            fh.write(_json(h) + "\n")
    payload = {
        "initial_residual": report["initial_residual"],
        "final_residual": report["final_residual"],
        "residuals": report["residuals"],
        "stopped_early": report["stopped_early"],
    }
    _write_json(out / "nash_moser_report.json", payload)
    return payload


RUNNERS = {
    "stability-map": run_stability_map,
    "symmetrize": run_symmetrize,
    "evolve": run_evolve,
    "energy-report": run_energy_report,
    "compat": run_compat,
    "nash-moser-demo": run_nash_moser_demo,
}


def run_experiment(config_path, out_dir, seed=None, verbosity=1) -> int:
    """Parse, validate, dispatch, and write artifacts; returns exit status."""
    out = Path(out_dir)
    try:
        text = Path(config_path).read_text()
        experiment, cfg_seed, cfg = parse_config(text)
        seed = cfg_seed if seed is None else int(seed)
        out.mkdir(parents=True, exist_ok=True)
        summary = RUNNERS[experiment](cfg, seed, out, verbosity)
    except (NumericsError, StabilityError, ModifiedStateError,
            DegenerateJacobianError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, configparser.Error, SmallnessError) as exc:
        # a ConfigError, a state that the config makes inadmissible, a
        # missed smallness budget, or a file that cannot be read
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    _write_manifest(out, experiment, seed, text,
                    {"summary_keys": sorted(k for k in summary)})
    if verbosity >= 1:
        print(_json({"experiment": experiment, "out": str(out),
                     "summary": summary}))
    return 0


def _json(obj, indent=None) -> str:
    """``obj`` as strict JSON with sorted keys, the one encoding of every
    JSON artifact, JSONL line and summary: numpy scalars as numbers, and a
    float that is not finite (an undefined value) as null."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=indent,
                      allow_nan=False)


def _write_json(path: Path, obj) -> None:
    path.write_text(_json(obj, indent=1) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="cvsheet",
        description="current-vortex-sheet numerical laboratory")
    ap.add_argument("--config", required=True, help="experiment config file")
    ap.add_argument("--out", required=True, help="artifact output directory")
    ap.add_argument("--seed", type=int, default=None,
                    help="override the config seed")
    ap.add_argument("--verbosity", type=int, choices=(0, 1, 2), default=1)
    args = ap.parse_args(argv)
    return run_experiment(args.config, args.out, seed=args.seed,
                          verbosity=args.verbosity)


if __name__ == "__main__":
    sys.exit(main())
