"""The public surface: the package's re-exports, the README's examples and
the names the benchmark's in-process workers import."""
import ast
import importlib
import re
import shlex
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
