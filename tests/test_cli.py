import ast
import importlib
import inspect
import json
import pkgutil
import textwrap

import numpy as np
import pytest

import cvsheet
import cvsheet.cli as cli
from cvsheet.cli import (SCHEMAS, ConfigError, main, parse_config,
                         run_experiment)

STABILITY_CFG = """[run]
experiment = stability-map
seed = 1

[map]
u2_jump_max = 2.0
u2_jump_n = 25
H2_max = 1.5
H2_n = 25
"""


def test_parse_config_roundtrip():
    exp, seed, cfg = parse_config(STABILITY_CFG)
    assert exp == "stability-map"
    assert seed == 1
    assert cfg["map"]["u2_jump_n"] == 25


@pytest.mark.parametrize("exp", sorted(SCHEMAS))
def test_every_default_parses_back_to_itself(exp):
    for section, keys in SCHEMAS[exp].items():
        for key, default in keys.items():
            _, _, cfg = parse_config(f"[run]\nexperiment = {exp}\n"
                                     f"[{section}]\n{key} = {default}\n")
            got = cfg[section][key]
            assert type(got) is type(default) and got == default, (section,
                                                                   key)


@pytest.mark.parametrize("exp", sorted(SCHEMAS))
def test_bare_run_config_gives_every_key_at_its_default(exp):
    _, seed, cfg = parse_config(f"[run]\nexperiment = {exp}\n")
    assert seed == 0
    assert cfg == SCHEMAS[exp]
    for section, keys in cfg.items():
        assert keys is not SCHEMAS[exp][section]   # runners get copies


def test_parse_rejects_unknowns():
    with pytest.raises(ConfigError):
        parse_config("[run]\nexperiment = nope\n")
    with pytest.raises(ConfigError):
        parse_config("[run]\nexperiment = symmetrize\n[state]\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[run]\nexperiment = symmetrize\n[wat]\np_plus = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[grid]\nn1 = 4\n")
    # compat and nash-moser-demo build isentropic data: S would be ignored
    for exp in ("compat", "nash-moser-demo"):
        with pytest.raises(ConfigError):
            parse_config(f"[run]\nexperiment = {exp}\n[state]\nS_plus = 0.7\n")


EVOLVE_CHECKPOINTS = """[run]
experiment = evolve

[grid]
n1 = 16
n2 = 16

[evolve]
t_final = 0.05
boundary_amplitude = 0.01
write_checkpoint = true
checkpoint_count = {count}
"""


#: small runs of the other experiments: compat data with no perturbation
#: (its fa slope is fitted to zero norms) and a two-iterate Nash-Moser run,
#: both on a 16^2 grid, and symmetrize at its defaults
SMALL_RUNS = {
    "compat": "[grid]\nn1 = 16\nn2 = 16\n\n[compat]\namplitude = 0.0\n",
    "nash-moser-demo": "[grid]\nn1 = 16\nn2 = 16\n\n[nash-moser]\nnt = 9\n"
                       "iterations = 2\n",
    "symmetrize": "",
}


def _strict_json(text):
    """``json.loads`` that refuses NaN and +-Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _report_config(tmp_path, run_dir):
    report = tmp_path / "report.ini"
    report.write_text("[run]\nexperiment = energy-report\n\n"
                      f"[energy-report]\nrun_dir = {run_dir}\n")
    return report


def test_determinism_byte_identical(tmp_path):
    stability = tmp_path / "stability.ini"
    stability.write_text(STABILITY_CFG)
    run = tmp_path / "run.ini"
    run.write_text(EVOLVE_CHECKPOINTS.format(count=3))
    report = _report_config(tmp_path, tmp_path / "run_a")
    configs = [(stability, "map"), (run, "run"), (report, "report")]
    for exp, body in SMALL_RUNS.items():
        path = tmp_path / f"{exp}.ini"
        path.write_text(f"[run]\nexperiment = {exp}\n\n{body}")
        configs.append((path, exp))
    for cfg, name in configs:
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert run_experiment(cfg, a, verbosity=0) == 0
        assert run_experiment(cfg, b, verbosity=0) == 0
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for f in files:
            assert (a / f).read_bytes() == (b / f).read_bytes(), (name, f)
            # every JSON artifact parses strictly, line by line for JSONL
            if f.endswith(".json"):
                _strict_json((a / f).read_text())
            elif f.endswith(".jsonl"):
                for line in (a / f).read_text().splitlines():
                    _strict_json(line)
    assert _strict_json((tmp_path / "compat_a" / "compat_report.json")
                        .read_text())["fa_slope"] is None
    assert (tmp_path / "nash-moser-demo_a" / "iterates.jsonl").exists()
    assert {p.suffix for p in (tmp_path / "run_a").iterdir()} == {
        ".csv", ".json", ".npy"}
    assert len(list((tmp_path / "run_a").glob("checkpoint_*.npy"))) == 3


def test_stability_map_sign_change_on_boundary_curve(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(STABILITY_CFG)
    run_experiment(cfg, tmp_path / "out", verbosity=0)
    rows = np.loadtxt(tmp_path / "out" / "stability_map.csv", delimiter=",",
                      skiprows=1)
    ju, H2, margin = rows[:, 0], rows[:, 1], rows[:, 2]
    # closed-form boundary: margin = 2 a(H2) H2 - ju with both sides equal
    from cvsheet.mhd import IdealGasEos, PhysState
    from cvsheet.mhd import alfven_speed, sound_speed
    eos = IdealGasEos()
    for h in np.unique(H2)[5::6]:
        st = PhysState(p=1.0, u1=0, u2=0, H1=0.0, H2=h, S=0.0)
        rho = eos.density(1.0, 0.0)
        a = np.sqrt(1.0 / (rho * (1.0 + (alfven_speed(st, eos)
                                         / sound_speed(st, eos)) ** 2)))
        crit = 2 * a * h
        sel = H2 == h
        below = ju[sel] < crit - 1e-9
        assert np.all((margin[sel] > 0) == below) or h == 0.0


def test_manifest_records_reproduction_data(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(STABILITY_CFG)
    run_experiment(cfg, tmp_path / "out", verbosity=0)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["experiment"] == "stability-map"
    assert manifest["seed"] == 1
    assert manifest["config_text"] == STABILITY_CFG
    assert len(manifest["config_sha256"]) == 64
    assert "package_version" in manifest


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nexperiment = bogus\n")
    assert run_experiment(bad, tmp_path / "o", verbosity=0) == 1
    missing = tmp_path / "missing.ini"
    assert run_experiment(missing, tmp_path / "o", verbosity=0) == 1
    negative = tmp_path / "negative.ini"
    negative.write_text("[run]\nexperiment = evolve\n\n[evolve]\n"
                        "t_final = -0.5\n")
    assert run_experiment(negative, tmp_path / "o", verbosity=0) == 1
    # a grid below the five-node stencil footprint (at n2 = 3 the periodic
    # stencil wraps j +- 2 onto j -+ 1) or of no extent, a compat slope
    # fitted to one point, a jet of negative order, a compat horizon of no
    # length (its smallness would be NaN), a symmetrizer
    # collar of no positive width (-0.25 once reported x1 in [0, -1]) or
    # with no nodes, the ledger switch evolve no longer has (the ledger
    # runs with the monitors), a stability map with no rows on either
    # axis (it once wrote a header-only table and exited 0), a forcing ramp
    # that is not finite and > 0 (0 once ended in a ZeroDivisionError, and
    # -0.2 in a forcing that never switched on) and a negative data
    # amplitude (once taken as 0)
    for k, (exp, section, body) in enumerate((
            ("evolve", "grid", "n2 = 3"), ("evolve", "grid", "n1 = 3"),
            ("evolve", "grid", "n1 = 1"), ("evolve", "grid", "n2 = 0"),
            ("evolve", "grid", "L1 = 0"), ("compat", "grid", "L2 = -1.0"),
            ("nash-moser-demo", "grid", "n1 = 4"),
            ("compat", "compat", "fit_points = 1"),
            ("compat", "compat", "order = -1"),
            ("compat", "compat", "T = 0"),
            ("symmetrize", "symmetrize", "collar_eps = -0.25"),
            ("symmetrize", "symmetrize", "collar_eps = 0"),
            ("symmetrize", "symmetrize", "n_collar = 0"),
            ("evolve", "evolve", "ledger = false"),
            ("stability-map", "map", "u2_jump_n = 0"),
            ("stability-map", "map", "H2_n = 0"),
            ("evolve", "evolve", "forcing_ramp = 0"),
            ("evolve", "evolve", "forcing_ramp = -0.2"),
            ("evolve", "evolve", "forcing_ramp = inf"),
            ("compat", "compat", "amplitude = -0.05"),
            ("nash-moser-demo", "nash-moser", "amplitude = -8e-6"))):
        cfg = tmp_path / f"small_{k}.ini"
        cfg.write_text(f"[run]\nexperiment = {exp}\n\n[{section}]\n{body}\n")
        capsys.readouterr()
        assert run_experiment(cfg, tmp_path / f"s{k}", verbosity=0) == 1, body
        assert "config error:" in capsys.readouterr().err, body
    # numerical abort: an unstable symmetrize request (stability violated)
    cfg = tmp_path / "viol.ini"
    cfg.write_text("[run]\nexperiment = symmetrize\n\n[state]\n"
                   "u2_jump = 5.0\nH2_plus = 0.2\nH2_minus = 0.2\n")
    assert run_experiment(cfg, tmp_path / "o2", verbosity=0) == 2
    # on a 16^2 grid: a missed smallness budget is a config error, and so
    # is a NaN theta0 (it once ran into a diverged transport solve, exit
    # 2); a modified state that loses stability is a numerical abort (the
    # budget and the modified state once ended in a traceback)
    for k, (exp, body, code, prefix) in enumerate((
            ("compat", "[compat]\ndelta = 1e-9\n", 1, "config error:"),
            ("nash-moser-demo", "[nash-moser]\ntheta0 = nan\n", 1,
             "config error:"),
            ("nash-moser-demo", "[state]\nu2_jump = 1.2\n\n[nash-moser]\n"
             "amplitude = 0.01\ndelta = 1000.0\nnt = 9\niterations = 1\n", 2,
             "numerical abort:"))):
        cfg = tmp_path / f"run_{k}.ini"
        cfg.write_text(f"[run]\nexperiment = {exp}\n\n[grid]\nn1 = 16\n"
                       f"n2 = 16\n\n{body}")
        capsys.readouterr()
        assert run_experiment(cfg, tmp_path / f"r{k}", verbosity=0) == code
        assert prefix in capsys.readouterr().err, body


def _handled_by_run_experiment():
    """The exception classes of the except clauses around
    ``run_experiment``'s dispatch to a runner."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cli.run_experiment)))
    handled = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and "RUNNERS" in ast.unparse(node.body):
            for handler in node.handlers:
                caught = eval(compile(ast.Expression(handler.type),
                                      "<except>", "eval"), vars(cli))
                handled += caught if isinstance(caught, tuple) else [caught]
    return tuple(handled)


def test_every_package_exception_maps_to_an_exit_code():
    # a run ends in exit 1 or 2, never in a traceback: every exception
    # class a cvsheet module defines is one that the dispatch handles
    handled = _handled_by_run_experiment()
    assert handled
    unhandled = sorted(
        f"{mod.__name__}.{name}"
        for info in pkgutil.iter_modules(cvsheet.__path__)
        for mod in [importlib.import_module(f"cvsheet.{info.name}")]
        for name, obj in vars(mod).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
        and obj.__module__ == mod.__name__ and not issubclass(obj, handled))
    assert not unhandled, f"exceptions a run would raise: {unhandled}"


def test_seed_override(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("""[run]
experiment = compat
seed = 1

[grid]
n1 = 24
n2 = 24

[compat]
amplitude = 0.04
order = 1
""")
    assert run_experiment(cfg, tmp_path / "s1", verbosity=0) == 0
    assert run_experiment(cfg, tmp_path / "s9", seed=9, verbosity=0) == 0
    m1 = json.loads((tmp_path / "s1" / "manifest.json").read_text())
    m9 = json.loads((tmp_path / "s9" / "manifest.json").read_text())
    assert m1["seed"] == 1 and m9["seed"] == 9
    # different seeds draw different data
    assert ((tmp_path / "s1" / "fa_scaling.csv").read_bytes()
            != (tmp_path / "s9" / "fa_scaling.csv").read_bytes())


def test_main_entry(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(STABILITY_CFG)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out"),
               "--verbosity", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert json.loads(out)["experiment"] == "stability-map"


def test_evolve_zero_forcing_zero_ledger(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("""[run]
experiment = evolve
seed = 0

[grid]
n1 = 24
n2 = 24

[state]
u2_jump = 0.4
H2_plus = 1.4
H2_minus = 1.1

[evolve]
t_final = 0.1
forcing_amplitude = 0.0
""")
    assert run_experiment(cfg, tmp_path / "out", verbosity=1) == 0
    rows = np.loadtxt(tmp_path / "out" / "energy_ledger.csv", delimiter=",",
                      skiprows=1)
    assert np.all(rows[:, 1:] == 0.0)
    # no interior forcing to measure cstar against: undefined, so null
    summary = _strict_json(capsys.readouterr().out)["summary"]
    assert summary["cstar"] is None


def test_shipped_configs_parse_and_name_a_runner():
    from pathlib import Path

    from cvsheet.cli import RUNNERS
    configs = sorted((Path(__file__).parents[1] / "configs").glob("*"))
    assert configs
    for path in configs:
        exp, _, _ = parse_config(path.read_text())
        assert exp in RUNNERS, path.name


EVOLVE_TINY = """[run]
experiment = evolve

[grid]
n1 = 16
n2 = 16

[state]
p_plus = {p_plus}
u2_jump = {u2_jump}
H2_plus = {H2_plus}
H2_minus = {H2_minus}

[evolve]
t_final = 0.02
forcing_amplitude = 0.0
"""


def test_inadmissible_state_exits_1_with_message(tmp_path, capsys):
    cfg = tmp_path / "neg.ini"
    cfg.write_text(EVOLVE_TINY.format(p_plus=0.1, u2_jump=0.0, H2_plus=0.5,
                                      H2_minus=1.5))
    assert run_experiment(cfg, tmp_path / "o", verbosity=0) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "p- <= 0" in err
    assert len(err.strip().splitlines()) == 1


def test_evolve_summary_reports_multiplier_fallback(tmp_path, capsys):
    cfg = tmp_path / "unstable.ini"
    cfg.write_text(EVOLVE_TINY.format(p_plus=1.0, u2_jump=3.0, H2_plus=0.2,
                                      H2_minus=0.2))
    assert run_experiment(cfg, tmp_path / "o", verbosity=1) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert "stability condition violated" in summary["lambda_fallback"]


def test_energy_report_equals_ledger_rows(tmp_path):
    run = tmp_path / "run.ini"
    run.write_text("""[run]
experiment = evolve

[grid]
n1 = 16
n2 = 16

[evolve]
t_final = 0.05
write_checkpoint = true
checkpoint_count = 3
""")
    assert run_experiment(run, tmp_path / "run", verbosity=0) == 0
    report = tmp_path / "report.ini"
    report.write_text("[run]\nexperiment = energy-report\n\n"
                      f"[energy-report]\nrun_dir = {tmp_path / 'run'}\n")
    assert run_experiment(report, tmp_path / "report", verbosity=0) == 0

    def table(name):
        lines = (tmp_path / name).read_text().splitlines()
        cols = lines[0].split(",")
        return [dict(zip(cols, map(float, ln.split(",")))) for ln in lines[1:]]

    ledger = {row["t"]: row for row in table("run/energy_ledger.csv")}
    rows = table("report/energy_report.csv")
    assert len(rows) == 3
    for row in rows:
        for key in ("I", "I1n", "Isigma", "I2"):
            assert row[key] == ledger[row["t"]][key], (row["t"], key)
    assert rows[-1]["I"] > 0.0


def test_write_checkpoint_without_a_count_exits_1(tmp_path, capsys):
    run = tmp_path / "run.ini"
    run.write_text(EVOLVE_CHECKPOINTS.format(count=0))
    assert run_experiment(run, tmp_path / "run", verbosity=0) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "checkpoint_count" in err


def test_energy_report_without_checkpoints_exits_1(tmp_path, capsys):
    report = _report_config(tmp_path, tmp_path / "empty")
    (tmp_path / "empty").mkdir()
    assert run_experiment(report, tmp_path / "report", verbosity=0) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "checkpoints.json" in err


@pytest.mark.parametrize("bad", ["shape", "nan"])
def test_energy_report_refuses_a_bad_checkpoint(tmp_path, capsys, bad):
    run = tmp_path / "run.ini"
    run.write_text(EVOLVE_CHECKPOINTS.format(count=1))
    assert run_experiment(run, tmp_path / "run", verbosity=0) == 0
    path = tmp_path / "run" / "checkpoint_000.npy"
    V = np.load(path)
    assert V.shape == (2, 6, 16, 16)
    if bad == "shape":
        V = V[:, :, :15]
    else:
        V[1, 3, 4, 5] = np.nan
    np.save(path, V)
    report = _report_config(tmp_path, tmp_path / "run")
    assert run_experiment(report, tmp_path / "report", verbosity=0) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "checkpoint_000.npy" in err
    assert ("shape" if bad == "shape" else "finite") in err
