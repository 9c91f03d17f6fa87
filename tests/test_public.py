"""The public surface: the package's re-exports, the README's examples and
the names the benchmark's in-process workers import."""
import ast
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import dobkit
from dobkit.cli import build_dob_config, build_gains, build_scenario, main, parse_config

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


@pytest.mark.parametrize("module", ["zalg", "loops", "robustness", "stability", "sim"])
def test_every_public_name_is_re_exported(module):
    mod = importlib.import_module(f"dobkit.{module}")
    for name in mod.__all__:
        assert getattr(dobkit, name) is getattr(mod, name), name


def test_all_lists_every_public_name_of_the_layers():
    layers = ["zalg", "loops", "robustness", "stability", "sim"]
    names = [n for m in layers for n in importlib.import_module(f"dobkit.{m}").__all__]
    assert sorted(dobkit.__all__) == sorted(names)
    namespace = {}
    exec("from dobkit import *", namespace)
    assert {n: namespace[n] for n in dobkit.__all__} == {n: getattr(dobkit, n) for n in names}


def _imports(cwd, *args) -> set:
    """The modules a cold ``python -X importtime`` process imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.rsplit("|", 1)[-1].strip()
            for line in proc.stderr.splitlines() if line.startswith("import time:")}


def _dobkit_imports(cwd, *args) -> set:
    """The dobkit modules a cold ``python -X importtime`` process imports."""
    return {name for name in _imports(cwd, *args) if name.split(".")[0] == "dobkit"}


def test_bare_import_loads_no_layer(tmp_path):
    assert _dobkit_imports(tmp_path, "-c", "import dobkit") == {"dobkit"}
    # a name loads its layer, by an import that -X importtime reports
    assert _dobkit_imports(tmp_path, "-c", "import dobkit; dobkit.simulate") == {
        "dobkit", "dobkit.sim", "dobkit.loops", "dobkit.zalg"}


@pytest.mark.parametrize("argv, runs, skips", [
    (["analyze", "case.cfg"], {"robustness", "stability"}, {"sim"}),
    (["sweep", "case.cfg", "--param", "alpha", "--from", "0.5", "--to", "2", "--points", "3",
      "--out", "sweep.csv"], {"robustness", "stability"}, {"sim"}),
    (["bode", "case.cfg", "--points", "16", "--out", "bode.csv"], {"robustness"}, {"sim"}),
    (["simulate", "case.cfg", "--out", "trace.csv"], {"sim"}, {"robustness", "stability"}),
], ids=["analyze", "sweep", "bode", "simulate"])
def test_each_command_loads_only_its_layers(tmp_path, argv, runs, skips):
    (tmp_path / "case.cfg").write_text(_block("ini"), encoding="utf-8")
    imported = _imports(tmp_path, "-m", "dobkit.cli", *argv)
    assert {f"dobkit.{m}" for m in {"zalg", "loops", *runs}} <= imported
    assert imported.isdisjoint(f"dobkit.{m}" for m in skips)
    # exact arithmetic runs on ints: fractions and decimal would add about
    # 2.5 ms of imports to every cold command
    assert imported.isdisjoint({"fractions", "decimal"})


def test_benchmark_worker_imports_resolve():
    # a name the workers import but the package lacks kills the worker
    # process outside any benchmark op
    tree = ast.parse((ROOT / "bench" / "inprocess.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "dobkit"
             for alias in node.names]
    assert names
    assert [name for name in names if not hasattr(dobkit, name)] == []


def _blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def _block(lang: str) -> str:
    (block,) = _blocks(lang)
    return block


def test_python_quickstart_runs(capsys):
    namespace = {}
    exec(compile(_block("python"), "README.md", "exec"), namespace)
    assert not namespace["trace"].diverged
    assert "stable=True" in capsys.readouterr().out


def test_ini_config_builds_a_scenario():
    pc = parse_config(_block("ini"))
    cfg = build_dob_config(pc)
    gains = build_gains(pc)
    scenario = build_scenario(pc, cfg, gains)
    assert cfg.kind is dobkit.MeasurementKind.VELOCITY
    assert cfg.g_v == 2000.0
    assert gains == dobkit.OuterGains(K_p=4000.0, K_d=200.0)
    assert scenario.duration == 10.0 and scenario.seed == 7
    assert scenario.disturbances == (dobkit.DisturbancePulse(4.0, 6.0, 4.0),)


def test_cli_examples_run(tmp_path, monkeypatch):
    # every `dobkit` line of the README's bash blocks, on its ini block as case.cfg
    monkeypatch.chdir(tmp_path)
    (tmp_path / "case.cfg").write_text(_block("ini"), encoding="utf-8")
    commands = [shlex.split(line, comments=True)
                for block in _blocks("bash") for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv[1:] for argv in commands if argv[:1] == ["dobkit"]]
    assert [argv[0] for argv in commands] == ["analyze", "sweep", "simulate", "bode"]
    for argv in commands:
        assert main(argv) == 0, argv
        if "--out" in argv:
            out = tmp_path / argv[argv.index("--out") + 1]
            assert out.read_text(encoding="utf-8").strip(), argv
