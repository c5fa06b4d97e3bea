"""Robustness contract of the CLI, fuzzed.

Any scenario file, any spectrum band and any command line end in exit 0, 2
or 3.  A non-zero exit prints exactly one ``error:`` line on stderr, nothing
leaks a warning or a ``SystemExit``, and exit 0 prints only finite numbers.
The inputs are the tabletop scenario and a physical-mode chain whose
cavities are given by hwhm alone (no FSR, so no fsr/4 bound), with one or
two numeric values replaced by any float, or with one to three whole lines
dropped, duplicated, swapped or truncated; and the options of ``spectrum``
and ``sweep`` with values replaced, left off or dropped, flags added, or the
subcommand misnamed.
"""

import contextlib
import io
import math
import pathlib
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqzbudget.cli import entry

from conftest import bundled_scenario_path

PHYSICAL_HWHM = """\
[source]
mode = physical
classical_gain = 10
bandwidth_mhz = 20
t_out = 0.1
loss_rt = 0.01

[filter_cavity]
detuning_mhz = -10
hwhm_mhz = 1.0

[src]
t_in = 0.1
loss_rt = 0.003
detuning_mhz = 10
hwhm_mhz = 1.0

[losses]
isolator = 0.94 @ isolator_rotator
filter_cavity = @cavity
src = @cavity
photodiode = 0.93 @ photodiode

[detection]
homodyne_angle = 0.3

[grid]
fmin_mhz = 5
fmax_mhz = 15
points = 21
"""

TEXTS = (pathlib.Path(bundled_scenario_path("tabletop")).read_text(encoding="utf-8"),
         PHYSICAL_HWHM)

# the value of a "key = number" or "name = number @ category" line
NUMBER = re.compile(r"^[^=\n]+= *(-?[0-9][0-9.e+-]*)", re.M)

SCN = object()  # stands in an argv for the path of the written scenario file

ANY_FLOAT = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                     1e308, -1e308, 1.7976931348623157e308, -1e5, 1e300]),
)


@st.composite
def cases(draw):
    text = draw(st.sampled_from(TEXTS))
    spans = [m.span(1) for m in NUMBER.finditer(text)]
    picks = draw(st.lists(st.sampled_from(spans), min_size=1, max_size=2, unique=True))
    for start, end in sorted(picks, reverse=True):
        text = text[:start] + repr(draw(ANY_FLOAT)) + text[end:]
    command = draw(st.sampled_from(["budget", "spectrum"]))
    options = []
    if command == "spectrum":
        # the "=" form: argparse would read a bare "-8e-262" as an option
        for flag in ("--fmin-mhz", "--fmax-mhz"):
            if draw(st.booleans()):
                options.append(f"{flag}={draw(ANY_FLOAT)!r}")
        if draw(st.booleans()):
            # linspace allocates the whole grid, so the count stays small
            options.append(f"--points={draw(st.integers(2, 50))}")
    return text, [command, SCN, *options]


@st.composite
def line_edits(draw):
    """A bundled text with one to three whole lines dropped, duplicated, swapped or truncated."""
    lines = draw(st.sampled_from(TEXTS)).splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "duplicate", "swap", "truncate"]))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(j, lines[i])
        elif edit == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i]) - 1))] + "\n"
    return "".join(lines), [draw(st.sampled_from(["budget", "spectrum"])), SCN]


# no decimal digit, so that a drawn value never parses as a grid too large to hold,
# and no "h", so that none asks for --help (which exits 0 through SystemExit)
NOT_A_NUMBER = st.one_of(
    st.sampled_from(["", " ", "abc", "1e", "0x10", "1,5", "--", "-", "5 MHz", "a\nb"]),
    st.text(st.characters(blacklist_categories=("Nd", "Cs"), blacklist_characters="h"),
            max_size=6),
)

GOOD_OPTIONS = {
    "spectrum": [SCN, "--fmin-mhz", "5", "--fmax-mhz", "15", "--points", "21"],
    "sweep": ["--input-db", "10", "--eta-min", "0.5", "--eta-max", "1", "--points", "11"],
}


@st.composite
def command_lines(draw):
    """A good spectrum or sweep command line with one to three options edited."""
    command = draw(st.sampled_from(sorted(GOOD_OPTIONS)))
    argv = [command, *GOOD_OPTIONS[command]]
    for _ in range(draw(st.integers(1, 3))):
        flags = [i for i, a in enumerate(argv) if isinstance(a, str) and a.startswith("--")]
        edit = draw(st.sampled_from(["value", "leave off", "drop", "add flag", "command"]))
        i = draw(st.sampled_from(flags)) if flags else None
        if edit == "value" and i is not None and i + 1 < len(argv):
            argv[i + 1] = draw(NOT_A_NUMBER)
        elif edit == "leave off" and i is not None and i + 1 < len(argv):
            del argv[i + 1]
        elif edit == "drop" and i is not None:  # --input-db among them
            del argv[i:i + 2]
        elif edit == "add flag":
            flag = draw(st.one_of(st.sampled_from(["--bogus", "-x", "--fm", "--points-mhz"]),
                                  NOT_A_NUMBER.map(lambda t: "--" + t)))
            argv.insert(draw(st.integers(1, len(argv))), flag)
        elif edit == "command":
            argv[0] = draw(st.one_of(st.sampled_from(["spectra", "budgets", "Sweep", ""]),
                                     NOT_A_NUMBER))
    return TEXTS[0], argv


def check_contract(scenario_path, text, argv):
    """Run one command line, with text written as its scenario file, and check the contract."""
    scenario_path.write_text(text, encoding="utf-8")
    argv = [str(scenario_path) if a is SCN else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = entry(argv, out=out)
    assert code in (0, 2, 3)
    if code != 0:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        return
    assert err.getvalue() == ""
    if argv[0] in ("spectrum", "sweep"):
        for row in out.getvalue().splitlines()[1:]:
            assert all(math.isfinite(float(x)) for x in row.split(",")), row
    else:
        assert not re.search(r"\b(nan|inf)\b", out.getvalue()), out.getvalue()


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.scn"


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(cases())
def test_any_input_exits_cleanly(scenario_path, case):
    check_contract(scenario_path, *case)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(line_edits())
def test_any_line_edit_exits_cleanly(scenario_path, case):
    check_contract(scenario_path, *case)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(command_lines())
def test_any_command_line_exits_cleanly(scenario_path, case):
    check_contract(scenario_path, *case)
