import io
import math
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dobkit import cli
from dobkit.cli import (
    _fmt,
    _write_csv,
    MAX_POINTS,
    ConfigError,
    build_dob_config,
    build_gains,
    build_scenario,
    main,
    parse_config,
)

BASE = """\
plant.J_m = 0.003
plant.K_t = 0.25
plant.J_mn = 0.003
plant.K_tn = 0.25
dob.kind = velocity
dob.g_dob = 500
dob.Ts = 0.001
outer.Kp = 5000
outer.Kd = 25
"""

SCENARIO = """\
scenario.duration = 1.0
scenario.reference.type = step
scenario.reference.amplitude = 0.1
scenario.disturbance.1.start = 0.3
scenario.disturbance.1.end = 0.6
scenario.disturbance.1.force = 4
scenario.noise.eta_p = 0
scenario.seed = 3
"""


def _write(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_and_build():
    pc = parse_config(BASE + SCENARIO)
    cfg = build_dob_config(pc)
    assert cfg.alpha == pytest.approx(1.0)
    gains = build_gains(pc)
    sc = build_scenario(pc, cfg, gains)
    assert sc.duration == 1.0
    assert sc.disturbances[0].force == 4.0
    assert sc.seed == 3


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config(BASE + "dob.bandwidth = 1\n")
    assert err.value.line == 10
    assert "dob.bandwidth" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(BASE + "dob.g_dob = 600\n")
    assert err.value.line == 10


def test_malformed_line_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("plant.J_m 0.003\n")
    assert err.value.line == 1


def test_non_numeric_value_rejected():
    pc = parse_config(BASE.replace("dob.g_dob = 500", "dob.g_dob = fast"))
    with pytest.raises(ConfigError) as err:
        build_dob_config(pc)
    assert "dob.g_dob" in str(err.value)


def test_position_without_gv_rejected():
    pc = parse_config(BASE.replace("dob.kind = velocity", "dob.kind = position"))
    with pytest.raises(ConfigError):
        build_dob_config(pc)


def test_unknown_kind_rejected():
    pc = parse_config(BASE.replace("dob.kind = velocity", "dob.kind = torque"))
    with pytest.raises(ConfigError) as err:
        build_dob_config(pc)
    assert err.value.line == 5


def test_sinusoid_scenario_built():
    text = BASE + ("scenario.duration = 0.5\nscenario.reference.type = sinusoid\n"
                   "scenario.reference.amplitude = 0.05\nscenario.reference.freq = 12\n")
    pc = parse_config(text)
    sc = build_scenario(pc, build_dob_config(pc), build_gains(pc))
    assert sc.reference.kind == "sinusoid" and sc.reference.freq == 12.0


def test_comments_and_blank_lines_ignored():
    pc = parse_config("# heading\n\n" + BASE)
    assert build_dob_config(pc).g_dob == 500.0


# ---------------------------------------------------------------------------
# commands and exit statuses
# ---------------------------------------------------------------------------

def test_analyze_stable_exit_zero(tmp_path, capsys):
    code = main(["analyze", _write(tmp_path, BASE)])
    out = capsys.readouterr().out
    assert code == 0
    assert "stable            : True" in out
    assert "lead" in out


def test_analyze_unstable_exit_two(tmp_path, capsys):
    # nominal inertia five times the true one: alpha*g_dob = 2500 > 2/Ts
    text = BASE.replace("plant.J_mn = 0.003", "plant.J_mn = 0.015")
    code = main(["analyze", _write(tmp_path, text)])
    assert code == 2
    assert "stable            : False" in capsys.readouterr().out


def test_analyze_missing_gv_exit_one(tmp_path, capsys):
    text = BASE.replace("dob.kind = velocity", "dob.kind = position")
    code = main(["analyze", _write(tmp_path, text)])
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ("plant.J_m = 0.003", "plant.J_m = nan"),
    ("dob.g_dob = 500", "dob.g_dob = inf"),
    ("dob.Ts = 0.001", "dob.Ts = -inf"),
    ("outer.Kp = 5000", "outer.Kp = nan"),
])
def test_analyze_non_finite_exit_one(tmp_path, capsys, old, new):
    code = main(["analyze", _write(tmp_path, BASE.replace(old, new))])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_analyze_missing_file_exit_one(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.cfg")]) == 1


def test_exit_status_contract_on_fixture_set(tmp_path, capsys):
    fixtures = [
        (BASE, 0),
        (BASE.replace("dob.kind = velocity", "dob.kind = acceleration"), 0),
        (BASE.replace("dob.kind = velocity", "dob.kind = position\ndob.g_v = 750").replace(
            "dob.g_dob = 500", "dob.g_dob = 100"), 0),
        (BASE.replace("plant.J_mn = 0.003", "plant.J_mn = 0.015"), 2),
        (BASE.replace("dob.kind = velocity", "dob.kind = position\ndob.g_v = 750").replace(
            "dob.g_dob = 500", "dob.g_dob = 2500"), 2),
        (BASE + "mystery.key = 1\n", 1),
    ]
    for i, (text, expected) in enumerate(fixtures):
        code = main(["analyze", _write(tmp_path, text, f"f{i}.cfg")])
        capsys.readouterr()
        assert code == expected, f"fixture {i}"


def test_analyze_summary_csv(tmp_path, capsys):
    out = tmp_path / "summary.csv"
    assert main(["analyze", _write(tmp_path, BASE), "--out", str(out)]) == 0
    capsys.readouterr()
    header, row = out.read_text().strip().splitlines()
    assert header.split(",")[0] == "alpha"
    values = row.split(",")
    assert float(values[0]) == 1.0


def test_csv_writer_matches_per_cell_format(tmp_path):
    # reference: the per-cell writer it replaced, one _fmt call per value
    floats = np.array([0.1, -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324,
                       1.7976931348623157e308, -123456789.125, 1e16, 2.5])
    ints = np.array([0, 1, -1, 7, 2**40, 0, 1, 0, 1, 0, 3])
    columns = [floats, ints, floats[::-1], [float(v) for v in ints]]
    out = tmp_path / "t.csv"
    _write_csv(str(out), ["a", "b", "c", "d"], columns, footer_comments=["end"])
    expected = "a,b,c,d\n" + "".join(
        ",".join(_fmt(v) for v in row) + "\n" for row in zip(*columns)) + "# end\n"
    assert out.read_text() == expected


def test_csv_writer_blocks_join_without_seams(tmp_path, monkeypatch):
    # rows split over blocks of 4 (4 + 4 + 3) read as one block would
    column = np.arange(11) / 3.0
    whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
    _write_csv(str(whole), ["x", "k"], [column, np.arange(11)], footer_comments=["end"])
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 4)
    _write_csv(str(blocked), ["x", "k"], [column, np.arange(11)], footer_comments=["end"])
    assert blocked.read_bytes() == whole.read_bytes()
    assert len(whole.read_text().splitlines()) == 1 + 11 + 1


def test_simulate_memory_per_sample(tmp_path, capsys):
    # The traced peak of a whole noisy simulate command, CSV included, stays
    # under 200 B per sample: the step loop reads its inputs without list
    # copies and the CSV is formatted in blocks (with whole-column lists it
    # read about 370 B per sample).
    n = 100_000
    text = BASE.replace("dob.Ts = 0.001", "dob.Ts = 0.0005") + SCENARIO.replace(
        "scenario.duration = 1.0", f"scenario.duration = {n * 0.0005!r}").replace(
        "scenario.noise.eta_p = 0", "scenario.noise.eta_p = 1e-7")
    argv = ["simulate", _write(tmp_path, text), "--out", str(tmp_path / "trace.csv")]
    # An untraced run first loads what the command uses; without it the traced
    # run was measured at two to three times as long.
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak / (n + 1) < 200


def test_simulate_row_count_and_metrics(tmp_path, capsys):
    text = BASE + "scenario.duration = 0.001\nscenario.reference.type = hold_zero\n"
    text = text.replace("dob.Ts = 0.001", "dob.Ts = 0.0005")
    out = tmp_path / "trace.csv"
    assert main(["simulate", _write(tmp_path, text), "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert lines[0].split(",") == ["t", "q_ref", "q", "qdot", "qddot", "I",
                                   "tau_d", "tau_dis_hat", "diverged"]
    assert len(lines) == 1 + 3  # header + k = 0, 1, 2
    assert "max_abs_error" in capsys.readouterr().out


def test_simulate_csv_roundtrip_17_digits(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["simulate", _write(tmp_path, BASE + SCENARIO), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = np.genfromtxt(str(out), delimiter=",", names=True)
    from dobkit.cli import load_config

    pc = load_config(_write(tmp_path, BASE + SCENARIO, "again.cfg"))
    cfg = build_dob_config(pc)
    from dobkit.sim import simulate

    trace = simulate(build_scenario(pc, cfg, build_gains(pc)))
    assert np.array_equal(rows["q"], trace.q)          # exact round-trip
    assert np.array_equal(rows["tau_dis_hat"], trace.tau_dis_hat)


def test_simulate_divergence_column(tmp_path, capsys):
    text = BASE.replace("plant.J_mn = 0.003", "plant.J_mn = 0.0126")  # alpha=4.2
    text += ("scenario.duration = 3.0\nscenario.reference.type = step\n"
             "scenario.reference.amplitude = 0.1\n")
    out = tmp_path / "trace.csv"
    assert main(["simulate", _write(tmp_path, text), "--out", str(out)]) == 0
    capsys.readouterr()
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert lines[-1].split(",")[-1] == "1"
    # truncated well before the nominal end
    assert float(lines[-1].split(",")[0]) < 3.0


def test_bode_csv_nyquist_row(tmp_path, capsys):
    out = tmp_path / "bode.csv"
    assert main(["bode", _write(tmp_path, BASE), "--points", "64",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "omega_rad_s,mag_S_i_dB,mag_T_i_dB,mag_S_o_dB,mag_T_o_dB"
    data = [l for l in lines[1:] if not l.startswith("#")]
    first = [float(v) for v in data[0].split(",")]
    last = [float(v) for v in data[-1].split(",")]
    assert last[0] == pytest.approx(math.pi / 1e-3, rel=1e-12)
    assert last[1] == pytest.approx(20 * math.log10(4.0 / 3.0), abs=1e-6)
    assert first[1] < -40.0           # strong low-frequency rejection
    assert abs(first[2]) < 0.1        # |T| ~ 0 dB at DC
    footers = [l for l in lines if l.startswith("#")]
    assert any("inner" in f for f in footers) and any("outer" in f for f in footers)
    for footer in footers:
        # the trapezoid rule converged: last doubling agreed to 1e-12 relative
        fields = dict(item.split("=") for item in footer.split(": ", 1)[1].split())
        assert int(fields["points"]) <= 2**20
        assert float(fields["last_difference"]) <= 1e-12 * max(1.0, abs(float(fields["numeric"])))


def test_bode_points_validation(tmp_path, capsys):
    assert main(["bode", _write(tmp_path, BASE), "--points", "8",
                 "--out", str(tmp_path / "x.csv")]) == 1


def test_bode_acceleration_sensitivity_never_positive(tmp_path, capsys):
    text = BASE.replace("dob.kind = velocity", "dob.kind = acceleration")
    out = tmp_path / "bode.csv"
    assert main(["bode", _write(tmp_path, text), "--points", "64",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    data = [l for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
    mags = [float(l.split(",")[1]) for l in data]
    assert all(m <= 1e-12 for m in mags)


def test_sweep_csv_columns_and_exit_line(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", _write(tmp_path, BASE), "--param", "alpha",
                 "--from", "3", "--to", "5", "--points", "5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "param_value"
    n_poles = sum(1 for h in header if h.startswith("pole_re_"))
    assert n_poles == sum(1 for h in header if h.startswith("pole_im_"))
    assert header[-3:] == ["peak_S", "bode_numeric", "bode_analytic"]
    assert "unit-circle exit at alpha" in captured.err
    assert len(lines) == 1 + 5


def test_sweep_two_points(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", _write(tmp_path, BASE), "--param", "g_dob",
                 "--from", "100", "--to", "200", "--points", "2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(out.read_text().splitlines()) == 3


def test_sweep_acceleration_stays_inside(tmp_path, capsys):
    text = BASE.replace("dob.kind = velocity", "dob.kind = acceleration")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", _write(tmp_path, text), "--param", "alpha",
                 "--from", "0.5", "--to", "50", "--points", "12",
                 "--spacing", "log", "--out", str(out)]) == 0
    assert "no unit-circle exit" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    idx = lines[0].split(",").index("max_pole_mag")
    for line in lines[1:]:
        assert float(line.split(",")[idx]) < 1.0


def test_sweep_invalid_range(tmp_path, capsys):
    assert main(["sweep", _write(tmp_path, BASE), "--param", "alpha",
                 "--from", "5", "--to", "3", "--points", "4",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["sweep", _write(tmp_path, BASE), "--param", "alpha",
                 "--from", "1", "--to", "2", "--points", "1",
                 "--out", str(tmp_path / "x.csv")]) == 1
    # finite ends whose difference overflows
    assert main(["sweep", _write(tmp_path, BASE), "--param", "alpha",
                 "--from=-1e308", "--to=1e308", "--points", "4",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert "Warning" not in capsys.readouterr().err


@pytest.mark.parametrize("points", [MAX_POINTS + 1, 10**12])
@pytest.mark.parametrize("command, options", [
    ("bode", []),
    ("sweep", ["--param", "alpha", "--from", "1", "--to", "2"]),
])
def test_points_capped(tmp_path, capsys, command, options, points):
    code = main([command, _write(tmp_path, BASE), *options, "--points", str(points),
                 "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_sweep_grid_with_repeated_values_is_a_config_error(tmp_path, capsys):
    # 100 points between neighbouring floats: linspace repeats values
    code = main(["sweep", _write(tmp_path, BASE), "--param", "alpha",
                 "--from", "1", "--to", "1.0000000000000002", "--points", "100",
                 "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:")
    assert "repeat" in err


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(BASE.replace("dob.kind = velocity", "# Tr\xe4gheit\ndob.kind = velocity")
                     .encode("latin-1"))
    code = main(["analyze", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: cannot read config")
    assert "Traceback" not in err


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["sweep", _write(tmp_path, BASE), "--param", "inertia",
                 "--from", "1", "--to", "2", "--points", "4",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0


# ---------------------------------------------------------------------------
# input boundary: every input ends in exit 0, 1 or 2, never in a traceback
# ---------------------------------------------------------------------------

SIM = BASE + """\
scenario.duration = 0.05
scenario.reference.type = step
scenario.reference.amplitude = 0.1
scenario.disturbance.1.start = 0.01
scenario.disturbance.1.end = 0.03
scenario.disturbance.1.force = 4
scenario.noise.eta_p = 0
scenario.seed = 3
"""


@pytest.mark.parametrize("old, new", [
    ("disturbance.1.start = 0.01", "disturbance.1.start = nan"),
    ("disturbance.1.start = 0.01", "disturbance.1.start = 0.04"),   # reversed window
    ("disturbance.1.force = 4", "disturbance.1.force = inf"),
    ("reference.type = step", "reference.type = sinusoid\nscenario.reference.freq = -10"),
    ("reference.type = step", "reference.type = sinusoid\nscenario.reference.freq = 1e300"),
    ("reference.amplitude = 0.1", "reference.amplitude = nan"),
    ("reference.amplitude = 0.1", "reference.amplitude = -inf"),
    ("scenario.seed = 3", "scenario.seed = -1"),
    ("scenario.duration = 0.05", "scenario.duration = 1e13"),
    ("noise.eta_p = 0", "noise.eta_p = -1e-6"),
    ("noise.eta_p = 0", "noise.eta_p = nan"),
    # keys the chosen kind or reference type does not read are still checked
    ("reference.type = step\nscenario.reference.amplitude = 0.1",
     "reference.type = hold_zero\nscenario.reference.amplitude = abc"),
    ("reference.amplitude = 0.1", "reference.amplitude = 0.1\nscenario.reference.freq = abc"),
    ("dob.kind = velocity", "dob.kind = velocity\ndob.g_v = -1"),
    ("dob.kind = velocity", "dob.kind = acceleration\ndob.g_v = 0"),
])
def test_simulate_invalid_scenario_exit_one(tmp_path, capsys, old, new):
    text = SIM.replace(old, new)
    assert text != SIM
    code = main(["simulate", _write(tmp_path, text), "--out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("param, start, stop", [("g_dob", "0", "10"), ("alpha", "-1", "2")])
def test_sweep_value_the_library_rejects_is_a_config_error(tmp_path, capsys, param, start, stop):
    # the grid's first value is no valid g_dob or alpha
    code = main(["sweep", _write(tmp_path, BASE), "--param", param, "--from", start,
                 "--to", stop, "--points", "4", "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:")
    assert not (tmp_path / "x.csv").exists()


def test_numerical_failure_exit_one(tmp_path, capsys):
    # finite and positive, yet the position-loop coefficients overflow
    text = BASE.replace("dob.kind = velocity", "dob.kind = position\ndob.g_v = 750")
    code = main(["analyze", _write(tmp_path, text.replace("dob.Ts = 0.001", "dob.Ts = 1e300"))])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("numerical error:")


def test_sweep_numerical_failure_exit_one(tmp_path, capsys):
    # the same overflow reaches the root locus's pencil
    text = BASE.replace("dob.kind = velocity", "dob.kind = position\ndob.g_v = 750")
    code = main(["sweep", _write(tmp_path, text.replace("dob.Ts = 0.001", "dob.Ts = 1e300")),
                 "--param", "alpha", "--from", "0.5", "--to", "2", "--points", "3",
                 "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("numerical error:")
    assert not (tmp_path / "x.csv").exists()


def test_unwritable_output_exit_one(tmp_path, capsys):
    code = main(["simulate", _write(tmp_path, SIM), "--out", str(tmp_path / "no" / "t.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


_VALID = {
    "plant.J_m": ("0.003", "0.01"),
    "plant.K_t": ("0.25", "1"),
    "plant.J_mn": ("0.003", "0.006"),
    "plant.K_tn": ("0.25", "0.3"),
    "dob.g_dob": ("500", "1000"),
    "dob.Ts": ("0.001", "0.0005"),
    "dob.g_v": ("1000", "2000"),
    "outer.Kp": ("4000", "5000"),
    "outer.Kd": ("25", "200"),
}
_VALID_SCENARIO = {
    "scenario.duration": ("0.01", "0.05"),
    "scenario.seed": ("0", "3"),
    "scenario.reference.amplitude": ("0.1", "-0.05"),
    "scenario.reference.freq": ("10", "60"),
    "scenario.disturbance.1.start": ("0", "0.005"),
    "scenario.disturbance.1.end": ("0.01", "0.02"),
    "scenario.disturbance.1.force": ("4", "-2"),
    "scenario.noise.eta_p": ("0", "1e-6"),
    "scenario.noise.eta_v": ("0", "1e-4"),
    "scenario.noise.eta_a": ("0", "1e-2"),
}
_ABSURD = ("0", "-1", "-1e-3", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300",
           "abc", "1.2.3", "0x10")


@st.composite
def _command_and_config(draw):
    command = draw(st.sampled_from(["analyze", "simulate"]))
    menu = dict(_VALID, **(_VALID_SCENARIO if command == "simulate" else {}))
    values = {key: draw(st.sampled_from(options)) for key, options in menu.items()}
    # one to three keys at a time, so that the rest of the config stays valid
    for key in draw(st.lists(st.sampled_from(sorted(menu)), min_size=1, max_size=3, unique=True)):
        values[key] = draw(st.sampled_from(_ABSURD))
    lines = [f"dob.kind = {draw(st.sampled_from(['acceleration', 'velocity', 'position']))}"]
    if command == "simulate":
        ref = draw(st.sampled_from(["step", "sinusoid", "hold_zero"]))
        lines.append(f"scenario.reference.type = {ref}")
    lines += [f"{key} = {value}" for key, value in values.items()]
    return command, "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(_command_and_config())
def test_exit_contract_on_generated_configs(tmp_path_factory, case):
    command, text = case
    workdir = tmp_path_factory.getbasetemp()
    path = workdir / "fuzz.cfg"
    path.write_text(text)
    argv = [command, str(path)]
    if command == "simulate":
        argv += ["--out", str(workdir / "fuzz.csv")]
    assert main(argv) in (0, 1, 2)


_SWEEP_VALID = {
    "--param": ("alpha", "g_dob"),
    "--from": ("0.5", "2", "3.5"),
    "--to": ("5", "20", "1e4"),
    "--points": ("2", "3", "6"),
    "--spacing": ("linear", "log"),
}
_SWEEP_ABSURD = {
    "--param": ("inertia", ""),
    "--from": ("0", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "abc", "30"),
    "--to": ("0", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "abc", "0.25"),
    "--points": ("1", "0", "-3", "2.5", "x", str(MAX_POINTS + 1)),
    "--spacing": ("cubic", ""),
}


@st.composite
def _sweep_argv(draw):
    """Mostly valid sweeps, each option absurd or left out one time in four."""
    kind = draw(st.sampled_from(["acceleration", "velocity", "position"]))
    argv = []
    for option, valid in _SWEEP_VALID.items():
        choice = draw(st.sampled_from(("valid",) * 6 + ("absurd", "omitted")))
        if choice != "omitted":
            menu = valid if choice == "valid" else _SWEEP_ABSURD[option]
            argv += [option, draw(st.sampled_from(menu))]
    return kind, argv


@settings(max_examples=80, deadline=None)
@given(_sweep_argv())
def test_sweep_exit_contract_on_generated_argv(tmp_path_factory, case):
    kind, options = case
    workdir = tmp_path_factory.getbasetemp()
    path = workdir / "sweep.cfg"
    path.write_text(BASE.replace("dob.kind = velocity", f"dob.kind = {kind}")
                    + "dob.g_v = 1000\n")
    out = workdir / "sweep.csv"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(["sweep", str(path), *options, "--out", str(out)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    # the library rejects a value with ValueError, which is a config error
    assert "numerical error: ValueError" not in err.getvalue()
    if code == 0:
        points = int(options[options.index("--points") + 1])
        assert len(out.read_text().splitlines()) == 1 + points
    else:
        assert not out.exists()
