import io
import os
import pathlib
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import sqzbudget
from sqzbudget import chain, cli
from sqzbudget.cli import _csv_array, _csv_lines, build_parser, entry

from conftest import bundled_scenario_path


def run(argv):
    out = io.StringIO()
    code = entry(argv, out=out)
    return code, out.getvalue()


def _csv_array_of_lists(columns):
    return _csv_array([np.array(c, dtype=float) for c in columns])


CSV_NUMBERS = [
    (2.798822566307789, "2.798823"),
    (-1.5, "-1.500000"),
    (0.0, "0.000000"),
    # tiny negatives must not print a minus-zero
    (-1e-9, "0.000000"),
    (-4e-7, "0.000000"),
    (-0.0, "0.000000"),
    # 1/128 and 3/128 lie exactly halfway in the sixth decimal: half to even
    (0.0078125, "0.007812"),
    (-0.0234375, "-0.023438"),
]


def test_csv_number_formatting():
    # the % formatter and the buffer formatter of long grids print each case alike
    for csv in (_csv_lines, _csv_array_of_lists):
        assert [csv([[x]]) for x, _ in CSV_NUMBERS] == [text + "\n" for _, text in CSV_NUMBERS]
        assert csv([[1.0, -4e-7], [-10.0, 0.5]]) == "1.000000,-10.000000\n0.000000,0.500000\n"


@pytest.mark.parametrize("name", ["tabletop", "geo600"])
def test_budget_matches_golden(name, golden_dir):
    code, text = run(["budget", bundled_scenario_path(name)])
    assert code == 0
    assert text == (golden_dir / f"{name}_budget.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["tabletop", "geo600", "vacuum"])
def test_spectrum_matches_golden(name, golden_dir):
    code, text = run(["spectrum", bundled_scenario_path(name)])
    assert code == 0
    assert text == (golden_dir / f"{name}_spectrum.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["tabletop", "geo600", "vacuum"])
def test_chunked_spectrum_matches_golden(name, golden_dir, monkeypatch):
    # 7 leaves a short last chunk on both the 201- and the 10-point grids
    monkeypatch.setattr(cli, "CHUNK_POINTS", 7)
    code, text = run(["spectrum", bundled_scenario_path(name)])
    assert code == 0
    assert text == (golden_dir / f"{name}_spectrum.csv").read_text(encoding="utf-8")


def test_refused_chunk_after_a_good_one_prints_nothing(capsys):
    # the filter cavity's fsr/4 bound falls at row 2283 of 5000, in the second
    # chunk: the rows of the first chunk, already computed, are not written
    assert 2 * cli.CHUNK_POINTS > 2283 > cli.CHUNK_POINTS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(["spectrum", bundled_scenario_path("tabletop"),
                          "--fmax-mhz", "40", "--points", "5000"])
    assert (code, text) == (3, "")
    assert _only_error_line(capsys) == (
        "error: filter_cavity: 20977195.439087816 Hz plus |detuning| is past fsr/4")


def _module_command(argv):
    """Command line and environment of ``python -W error -m sqzbudget``, as a user starts it."""
    src = str(pathlib.Path(sqzbudget.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return [sys.executable, "-W", "error", "-m", "sqzbudget", *argv], env


def _run_module(argv):
    """A fresh ``python -W error -m sqzbudget`` process, run to its end."""
    command, env = _module_command(argv)
    return subprocess.run(command, capture_output=True, env=env, timeout=60)


@pytest.mark.parametrize("argv,golden", [
    (["budget", bundled_scenario_path("tabletop")], "tabletop_budget.txt"),
    (["spectrum", bundled_scenario_path("geo600")], "geo600_spectrum.csv"),
    (["sweep", "--input-db", "10"], "sweep_input_10.csv"),
], ids=["budget-tabletop", "spectrum-geo600", "sweep-10"])
def test_module_entry_point_matches_golden(argv, golden, golden_dir):
    proc = _run_module(argv)
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout == (golden_dir / golden).read_bytes()


def test_closed_stdout_exits_1_without_a_message():
    # `sqzbudget sweep ... | head -1`: the reader closes the pipe after one line, while
    # ~0.4 MB of rows, far more than a pipe holds, are still to be written (a numpy-free
    # command, so the process starts fast; every command writes through the same entry)
    command, env = _module_command(["sweep", "--input-db", "10", "--points", "20000"])
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline() == b"eta,observed_db\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


@pytest.mark.parametrize("input_db", ["5.7", "10", "13"])
def test_sweep_matches_golden(input_db, golden_dir):
    code, text = run(["sweep", "--input-db", input_db])
    assert code == 0
    assert text == (golden_dir / f"sweep_input_{input_db}.csv").read_text(encoding="utf-8")


def test_output_is_deterministic():
    argv = ["spectrum", bundled_scenario_path("tabletop"), "--points", "31"]
    assert run(argv) == run(argv)


def test_spectrum_header_and_override():
    code, text = run(["spectrum", bundled_scenario_path("tabletop"),
                      "--fmin-mhz", "5", "--fmax-mhz", "6", "--points", "11"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "frequency_mhz,noise_db,signal_db,snr_improvement_db"
    assert len(lines) == 12
    assert lines[1].startswith("5.000000,")
    assert lines[-1].startswith("6.000000,")


def test_vacuum_spectrum_is_all_zero(golden_dir):
    text = (golden_dir / "vacuum_spectrum.csv").read_text(encoding="utf-8")
    for line in text.splitlines()[1:]:
        _, noise, _, improvement = line.split(",")
        assert noise == "0.000000"
        assert improvement == "0.000000"
    assert "-0.000000" not in text


def test_goldens_never_contain_minus_zero(golden_dir):
    for path in golden_dir.iterdir():
        assert "-0.000000" not in path.read_text(encoding="utf-8"), path.name


def test_budget_with_no_losses(tmp_path):
    scn = tmp_path / "bare.scn"
    scn.write_text(textwrap.dedent("""\
        [source]
        mode = direct
        gen_db_at_dc = 3
        bandwidth_mhz = 20
        escape_eta = 1
        """), encoding="utf-8")
    code, text = run(["budget", str(scn)])
    assert code == 0
    assert "total efficiency  1.0000" in text
    assert "output squeezing  3.00 dB" in text


def test_missing_file_exits_2(capsys):
    code, _ = run(["budget", "/no/such/file.scn"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_parse_error_exits_2(tmp_path, capsys):
    scn = tmp_path / "broken.scn"
    scn.write_text("[source]\nmode = direct\nbandwidth_mhz = twenty\n", encoding="utf-8")
    code, _ = run(["budget", str(scn)])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_unphysical_scenario_exits_3(tmp_path, capsys):
    scn = tmp_path / "impossible.scn"
    scn.write_text(textwrap.dedent("""\
        [source]
        mode = direct
        gen_db_at_dc = 5.7
        bandwidth_mhz = 20
        escape_eta = 0.9

        [losses]
        mirror = 1.2 @ other
        """), encoding="utf-8")
    for command in (["budget", str(scn)], ["spectrum", str(scn)]):
        code, _ = run(command)
        assert code == 3
    assert "error:" in capsys.readouterr().err


def _direct_scenario(tmp_path, rest):
    """Path of a file with a direct-mode [source] section followed by ``rest``."""
    scn = tmp_path / "scenario.scn"
    scn.write_text(textwrap.dedent("""\
        [source]
        mode = direct
        gen_db_at_dc = 5.7
        bandwidth_mhz = 20
        """) + rest, encoding="utf-8")
    return str(scn)


def _only_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


def test_lossy_cavity_without_t_in_is_refused_at_load(tmp_path, capsys):
    # hwhm fixes the rates but not the coupling ratio of a lossy cavity;
    # budget, which never reflects off the cavity, refuses the file as well
    scn = _direct_scenario(tmp_path, "escape_eta = 0.9\n" + textwrap.dedent("""
        [src]
        loss_rt = 0.003
        detuning_mhz = 10
        hwhm_mhz = 1.0

        [losses]
        src = @cavity
        """))
    for command in ("budget", "spectrum"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run([command, scn])
        assert code == 2
        assert text == ""
        assert _only_error_line(capsys) == (
            "error: a lossy cavity needs t_in to fix the coupling ratio")


@pytest.mark.parametrize("escape,message", [
    ("escape_eta = 1.3\n", "error: escape_eta must lie in [0, 1], got 1.3"),
    ("t_out = 0.0\nloss_rt = 0.01\n", "error: t_out = 0 means nothing escapes the cavity"),
])
def test_invalid_escape_exits_3(escape, message, tmp_path, capsys):
    scn = _direct_scenario(tmp_path, escape)
    for command in ("budget", "spectrum"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run([command, scn])
        assert code == 3
        assert text == ""
        assert _only_error_line(capsys) == message


def test_unread_source_key_exits_2(tmp_path, capsys):
    # a key that the source's form would not read is no silent number
    text = pathlib.Path(bundled_scenario_path("tabletop")).read_text(encoding="utf-8")
    scn = tmp_path / "tabletop.scn"
    scn.write_text(text.replace("escape_eta = 0.9\n", "escape_eta = 0.9\nclassical_gain = 1e9\n"),
                   encoding="utf-8")
    for command in ("budget", "spectrum"):
        assert run([command, str(scn)]) == (2, "")
        assert _only_error_line(capsys) == (
            "error: line 11: classical_gain is not read by a direct source with escape_eta")


def test_cavity_length_beside_fsr_exits_2(tmp_path, capsys):
    # fsr_mhz beside length_m would leave the length unread and move the spectrum
    text = pathlib.Path(bundled_scenario_path("tabletop")).read_text(encoding="utf-8")
    assert text.count("length_m = 1.21\n") == 2
    scn = tmp_path / "tabletop.scn"
    scn.write_text(text.replace("length_m = 1.21\n", "length_m = 1.21\nfsr_mhz = 5000\n"),
                   encoding="utf-8")
    for command in ("budget", "spectrum"):
        assert run([command, str(scn)]) == (2, "")
        assert _only_error_line(capsys) == (
            "error: line 15: length_m is not read by a cavity whose fsr is given")


def test_loss_name_that_cannot_be_read_back_exits_2_at_its_line(tmp_path, capsys):
    # a key that starts with "[" is no section header; its line is named like any other
    # refusal in [losses], and an eta outside [0, 1] still exits 3 first
    text = pathlib.Path(bundled_scenario_path("tabletop")).read_text(encoding="utf-8")
    scn = tmp_path / "tabletop.scn"
    for line, code, message in [
        ("[isolator = 0.94 @ isolator_rotator",
         2, "line 24: loss element name '[isolator' cannot be read back from a scenario"),
        ("isolator = 0.94 @ rotator",
         2, "line 24: unknown category 'rotator'; expected one of escape, mode_matching, "
            "isolator_rotator, photodiode, intra_cavity, other"),
        ("[isolator = 1.5 @ isolator_rotator",
         3, "loss element '[isolator' must lie in [0, 1], got 1.5"),
    ]:
        scn.write_text(text.replace("isolator = 0.94 @ isolator_rotator", line), encoding="utf-8")
        for command in ("budget", "spectrum"):
            assert run([command, str(scn)]) == (code, "")
            assert _only_error_line(capsys) == "error: " + message


@pytest.mark.parametrize("fmax", ["200", "1e300"])
def test_band_past_quarter_fsr_exits_3(fmax, capsys):
    # the 1.21 m tabletop cavities, 10 MHz detuned, hold up to ~21 MHz; past
    # that the band is refused once, with the first bad frequency, not warned about
    argv = ["spectrum", bundled_scenario_path("tabletop"), "--fmin-mhz", "1", "--fmax-mhz", fmax]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(argv)
    assert code == 3
    assert text == ""
    line = _only_error_line(capsys)
    assert line.startswith("error: filter_cavity: ")
    assert line.endswith(" Hz plus |detuning| is past fsr/4")
    proc = _run_module(argv)
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert proc.stderr.decode().splitlines() == [line]


def _tabletop_with(tmp_path, old, new):
    """Path of a copy of the tabletop scenario with one line replaced."""
    text = pathlib.Path(bundled_scenario_path("tabletop")).read_text(encoding="utf-8")
    assert text.count(old) == 1
    scn = tmp_path / "tabletop_variant.scn"
    scn.write_text(text.replace(old, new), encoding="utf-8")
    return str(scn)


def _depth_exits_3_everywhere(tmp_path, capsys, db, message):
    """budget and spectrum of tabletop at gen_db_at_dc = db and sweep at db exit 3 with message."""
    scn = _tabletop_with(tmp_path, "gen_db_at_dc = 5.7", f"gen_db_at_dc = {db}")
    for argv in (["budget", scn], ["spectrum", scn], ["sweep", f"--input-db={db}"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(argv)
        assert code == 3
        assert text == ""
        assert _only_error_line(capsys) == message


def test_squeezing_depth_without_finite_variance_exits_3(tmp_path, capsys):
    # -1e5 dB is 1e10000 in variance, beyond float range
    _depth_exits_3_everywhere(tmp_path, capsys, "-1e5",
                              "error: squeezing depth -100000.0 dB has no finite variance")


def test_squeezing_depth_without_nonzero_variance_exits_3(tmp_path, capsys):
    # 4000 dB is 1e-400 in variance, below float range: one verdict from all three commands
    message = "error: squeezing depth 4000.0 dB has a variance too small for a float"
    _depth_exits_3_everywhere(tmp_path, capsys, "4000", message)


def test_coupling_below_double_precision_exits_3(tmp_path, capsys):
    # t_in = 1e-17 leaves sqrt(1 - t_in) at 1, an infinite finesse
    scn = _tabletop_with(tmp_path, "t_in = 0.1\nloss_rt = 0.003", "t_in = 1e-17\nloss_rt = 0")
    for command in ("budget", "spectrum"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run([command, scn])
        assert code == 3
        assert text == ""
        assert _only_error_line(capsys) == "error: t_in = 1e-17 leaves the cavity uncoupled"


@pytest.mark.parametrize("rates,message", [
    ("t_in = 0.1\ndetuning_mhz = -10\nlength_m = 5e-324",
     "error: derived fsr must be positive and finite, got inf"),
    ("t_in = 1e-15\ndetuning_mhz = -10\nfsr_mhz = 5e-324",
     "error: derived hwhm must be positive and finite, got 0.0"),
], ids=["fsr-inf", "hwhm-zero"])
def test_degenerate_cavity_rates_exit_3(rates, message, tmp_path, capsys):
    # a length or fsr at the edge of double range derives an fsr or hwhm of inf or 0
    scn = _tabletop_with(tmp_path, "t_in = 0.1\ndetuning_mhz = -10\nlength_m = 1.21", rates)
    for command in ("budget", "spectrum"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run([command, scn])
        assert code == 3
        assert text == ""
        assert _only_error_line(capsys) == message


def test_cavity_past_half_double_range_loads(tmp_path, capsys, golden_dir):
    # 2L overflows at L = 1.7e308 m but c/(2L) ~ 8.8e-301 Hz does not: the file
    # loads, and any band lies past fsr/4
    scn = _tabletop_with(tmp_path, "t_in = 0.1\ndetuning_mhz = -10\nlength_m = 1.21",
                         "t_in = 0.1\ndetuning_mhz = -10\nlength_m = 1.7e308")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(["budget", scn])
        assert code == 0
        golden = (golden_dir / "tabletop_budget.txt").read_text(encoding="utf-8")
        assert text == golden.replace("loss budget: tabletop", "loss budget: tabletop_variant")
        code, text = run(["spectrum", scn])
    assert code == 3
    assert text == ""
    assert _only_error_line(capsys) == (
        "error: filter_cavity: 5000000.0 Hz plus |detuning| is past fsr/4")


def test_grid_too_large_to_allocate_exits_2(tmp_path, capsys):
    # 1e14 points of float64 are 728 TiB, more than a 48-bit address space holds,
    # and 1e17 are 711 PiB, so the allocation fails without reserving memory;
    # numpy refuses the two larger sizes before allocating, in ways of its own
    for points in (10**14, 2**63 - 1, 10**30, 10**17):
        scn = _tabletop_with(tmp_path, "points = 201", f"points = {points}")
        for argv in (["spectrum", bundled_scenario_path("tabletop"), "--points", str(points)],
                     ["spectrum", scn]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, text = run(argv)
            assert (code, text) == (2, "")
            assert _only_error_line(capsys) == (
                f"error: a grid of {points} points is too large to allocate")


@pytest.mark.parametrize("points", [10**14, 2**63 - 1, 10**30])
def test_sweep_too_large_to_allocate_exits_2_at_once(points, capsys):
    # the grid's list is allocated before any point is computed; 10**14 pointers
    # are 728 TiB, more than a 48-bit address space holds, and the list itself
    # refuses the larger sizes, so none of them takes memory
    code, text = run(["sweep", "--input-db", "10", "--points", str(points)])
    assert (code, text) == (2, "")
    assert _only_error_line(capsys) == f"error: a grid of {points} points is too large to allocate"


def test_bare_memory_error_prints_a_message(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(chain, "efficiency_sweep", exhausted)
    assert run(["sweep", "--input-db", "10"]) == (2, "")
    assert _only_error_line(capsys) == "error: out of memory"


def test_bad_spectrum_range_exits_2(capsys):
    code, _ = run(["spectrum", bundled_scenario_path("tabletop"),
                   "--fmin-mhz", "15", "--fmax-mhz", "5"])
    assert code == 2
    code, _ = run(["spectrum", bundled_scenario_path("tabletop"), "--points", "1"])
    assert code == 2
    capsys.readouterr()
    # linspace repeats values on this range; chains with and without a recycling cavity agree
    for name in ("geo600", "tabletop"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(["spectrum", bundled_scenario_path(name), "--fmin-mhz", "1",
                              "--fmax-mhz", "1.000000000000001", "--points", "50"])
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


def test_repeated_grid_exits_2_before_propagating(monkeypatch, capsys):
    # 5 and 5.000000000000001 MHz are one ulp apart in Hz, so the 50-point
    # linspace repeats values; the grid refuses itself before any propagation
    def refuse(*args):
        raise AssertionError("propagate ran on a refused grid")

    monkeypatch.setattr(chain, "propagate", refuse)
    code, text = run(["spectrum", bundled_scenario_path("tabletop"), "--fmin-mhz", "5",
                      "--fmax-mhz", "5.000000000000001", "--points", "50"])
    assert (code, text) == (2, "")
    assert _only_error_line(capsys) == "error: frequency grid must be strictly increasing"


@pytest.mark.parametrize("flag,value", [("--fmax-mhz", "inf"), ("--fmin-mhz", "nan")])
def test_non_finite_spectrum_range_exits_2(flag, value, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(["spectrum", bundled_scenario_path("tabletop"), flag, value])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_bad_sweep_range_exits_2():
    code, _ = run(["sweep", "--input-db", "10", "--eta-min", "0.9", "--eta-max", "0.5"])
    assert code == 2
    code, _ = run(["sweep", "--input-db", "10", "--eta-max", "1.5"])
    assert code == 2


def test_usage_errors_exit_2(capsys):
    # entry returns the code of a usage error, as of any other, and prints one line
    for argv, message in [
        (["sweep"], "sqzbudget sweep: the following arguments are required: --input-db"),
        ([], "sqzbudget: the following arguments are required: command"),
        (["spectrum", bundled_scenario_path("tabletop"), "--points", "abc"],
         "sqzbudget spectrum: argument --points: invalid int value: 'abc'"),
        (["sweep", "--input-db", "10", "--bogus"], "sqzbudget: unrecognized arguments: --bogus"),
        # argparse quotes an unrecognized argument as given; its line break is escaped
        (["sweep", "--input-db", "10", "a\nb"], "sqzbudget: unrecognized arguments: a\\nb"),
    ]:
        assert run(argv) == (2, "")
        assert _only_error_line(capsys) == f"error: {message}"


def test_module_usage_error_prints_one_line():
    proc = _run_module(["sweep"])
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode().splitlines() == [
        "error: sqzbudget sweep: the following arguments are required: --input-db"]


@pytest.mark.parametrize("command", ["budget", "spectrum"])
def test_loss_named_escape_exits_2(command, tmp_path, capsys):
    # the source's escape is the first stage of the chain, so a [losses] line
    # of that name repeats a stage name
    text = pathlib.Path(bundled_scenario_path("tabletop")).read_text(encoding="utf-8")
    assert text.count("isolator = ") == 1
    scn = tmp_path / "escape.scn"
    scn.write_text(text.replace("isolator = ", "escape = "), encoding="utf-8")
    assert run([command, str(scn)]) == (2, "")
    assert _only_error_line(capsys) == "error: stage 'escape' appears twice in the chain"


def test_parser_builds_help(capsys):
    parser = build_parser()
    assert "budget" in parser.format_help()
    # asking for help is no usage error: it prints the help and exits 0
    with pytest.raises(SystemExit) as excinfo:
        entry(["sweep", "--help"])
    assert excinfo.value.code == 0
    assert "--input-db" in capsys.readouterr().out


def test_shared_parser_is_safe_to_reuse(golden_dir, capsys):
    # one parser serves every call in the process; a usage error or an
    # override in one call must not leak into the next
    assert build_parser() is build_parser()
    assert run(["sweep"]) == (2, "")
    assert _only_error_line(capsys).startswith("error: sqzbudget sweep: ")
    code, text = run(["budget", bundled_scenario_path("tabletop")])
    assert code == 0
    assert text == (golden_dir / "tabletop_budget.txt").read_text(encoding="utf-8")
    code, text = run(["spectrum", bundled_scenario_path("tabletop"), "--points", "7"])
    assert code == 0 and len(text.splitlines()) == 8
    code, text = run(["spectrum", bundled_scenario_path("tabletop")])
    assert code == 0
    assert text == (golden_dir / "tabletop_spectrum.csv").read_text(encoding="utf-8")


def test_entry_runs_the_command_bound_when_it_is_called(monkeypatch):
    # the cached parser keeps no command function, so a command patched (or
    # wrapped by a tracer) after the parser is built is the one that runs
    build_parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_budget", lambda args, out: calls.append(args.scenario) or 0)
    assert run(["budget", "some.scn"]) == (0, "")
    assert calls == ["some.scn"]
