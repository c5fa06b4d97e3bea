"""Scenario text files: sectioned key = value format, MHz units.

Sections: [source], [filter_cavity], [src], [losses], [detection], [grid].
Section order is free.  Keys are validated per section and unknown keys are
rejected with the offending line number.  All frequencies are MHz in files
and Hz in memory.

The [losses] section is ordered and defines the chain: plain elements are
``name = eta @ category`` lines, and the two cavity sections are placed in
the chain by marker lines ``filter_cavity = @cavity`` and ``src = @cavity``.
A cavity section without its marker (or vice versa) is an error, since the
chain position of a cavity changes the result.

Example::

    [source]
    mode = direct
    gen_db_at_dc = 5.7
    bandwidth_mhz = 20
    escape_eta = 0.9

    [src]
    t_in = 0.1
    loss_rt = 0.003
    detuning_mhz = 10
    length_m = 1.21

    [losses]
    isolator = 0.94 @ isolator_rotator
    src = @cavity
    photodiode = 0.93 @ photodiode

    [grid]
    fmin_mhz = 5
    fmax_mhz = 15
    points = 201
"""

import math
import pathlib

from .cavity import CavityParams
from .chain import CATEGORIES, CavityStage, FrequencyGrid, LossElement, Scenario
from .source import SourceParams

SECTIONS = ("source", "filter_cavity", "src", "losses", "detection", "grid")

_SOURCE_KEYS = (
    "mode", "gen_db_at_dc", "classical_gain", "bandwidth_mhz",
    "t_out", "loss_rt", "escape_eta",
)
_CAVITY_KEYS = ("t_in", "loss_rt", "detuning_mhz", "length_m", "fsr_mhz", "hwhm_mhz")
_DETECTION_KEYS = ("homodyne_angle",)
_GRID_KEYS = ("fmin_mhz", "fmax_mhz", "points")

_MARKER = "@cavity"
_CAVITY_SECTIONS = {"filter_cavity": "filter", "src": "src"}


class ScenarioParseError(ValueError):
    """Malformed scenario text; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _parse_float(text, line):
    try:
        value = float(text)
    except ValueError:
        raise ScenarioParseError(f"expected a number, got {text!r}", line) from None
    if not math.isfinite(value):
        raise ScenarioParseError(f"expected a finite number, got {text!r}", line)
    return value


def _parse_int(text, line):
    try:
        return int(text)
    except ValueError:
        raise ScenarioParseError(f"expected an integer, got {text!r}", line) from None


def _split_sections(text):
    """Raw pass: comments stripped, keys grouped by section, order kept."""
    sections = {}       # name -> {key: (value, line)}
    loss_lines = []     # (name, rhs, line), in file order
    section_lines = {}  # name -> header line
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in SECTIONS:
                raise ScenarioParseError(f"unknown section [{current}]", lineno)
            if current in sections or (current == "losses" and current in section_lines):
                raise ScenarioParseError(f"duplicate section [{current}]", lineno)
            section_lines[current] = lineno
            if current != "losses":
                sections[current] = {}
            continue
        if current is None:
            raise ScenarioParseError("content before the first section header", lineno)
        if "=" not in line:
            raise ScenarioParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ScenarioParseError(f"expected 'key = value', got {line!r}", lineno)
        if current == "losses":
            loss_lines.append((key, value, lineno))
        else:
            if key in sections[current]:
                raise ScenarioParseError(f"duplicate key {key!r} in [{current}]", lineno)
            sections[current][key] = (value, lineno)
    return sections, loss_lines, section_lines


def _num(table, key):
    """The key's value as a finite float, or None when the key is absent."""
    if key not in table:
        return None
    value, lineno = table[key]
    return _parse_float(value, lineno)


def _check_keys(section, table, allowed):
    for key, (_, lineno) in table.items():
        if key not in allowed:
            raise ScenarioParseError(f"unknown key {key!r} in [{section}]", lineno)


def _build_source(table):
    _check_keys("source", table, _SOURCE_KEYS)

    if "mode" not in table:
        raise ScenarioParseError("[source] needs a mode (direct or physical)")
    if "bandwidth_mhz" not in table:
        raise ScenarioParseError("[source] needs bandwidth_mhz")
    bandwidth_mhz = _num(table, "bandwidth_mhz")
    return SourceParams(
        mode=table["mode"][0],
        bandwidth_hz=bandwidth_mhz * 1e6,
        gen_db_at_dc=_num(table, "gen_db_at_dc"),
        classical_gain=_num(table, "classical_gain"),
        t_out=_num(table, "t_out"),
        loss_rt=_num(table, "loss_rt"),
        escape_eta=_num(table, "escape_eta"),
    )


def _build_cavity(section, table):
    _check_keys(section, table, _CAVITY_KEYS)

    def mhz(key):
        value = _num(table, key)
        return None if value is None else value * 1e6

    return CavityParams(
        t_in=_num(table, "t_in"),
        loss_rt=_num(table, "loss_rt") or 0.0,
        detuning_hz=mhz("detuning_mhz") or 0.0,
        length_m=_num(table, "length_m"),
        fsr_hz=mhz("fsr_mhz"),
        hwhm_hz=mhz("hwhm_mhz"),
    )


def _build_losses(loss_lines, cavities, section_lines):
    stages = []
    seen_names = set()
    placed = set()
    for name, rhs, lineno in loss_lines:
        if rhs == _MARKER:
            if name not in _CAVITY_SECTIONS:
                raise ScenarioParseError(
                    f"{_MARKER} markers are only valid for filter_cavity and src, "
                    f"got {name!r}", lineno)
            if name not in cavities:
                raise ScenarioParseError(f"marker references missing section [{name}]", lineno)
            if name in placed:
                raise ScenarioParseError(f"duplicate {_MARKER} marker for {name!r}", lineno)
            placed.add(name)
            stages.append(CavityStage(role=_CAVITY_SECTIONS[name], params=cavities[name]))
            continue
        if name in _CAVITY_SECTIONS:
            raise ScenarioParseError(
                f"{name!r} is reserved for a cavity marker ({name} = {_MARKER})", lineno)
        if name in seen_names:
            raise ScenarioParseError(f"duplicate loss element {name!r}", lineno)
        seen_names.add(name)
        value, _, category = rhs.partition("@")
        eta = _parse_float(value.strip(), lineno)
        category = category.strip() or "other"
        if category not in CATEGORIES:
            raise ScenarioParseError(
                f"unknown category {category!r}; expected one of {', '.join(CATEGORIES)}",
                lineno)
        stages.append(LossElement(name=name, eta=eta, category=category))
    for name in cavities:
        if name not in placed:
            raise ScenarioParseError(
                f"section [{name}] is never placed in [losses] (add '{name} = {_MARKER}')",
                section_lines[name])
    return stages


def parse_scenario(text, name="scenario"):
    """Parse scenario text into a Scenario.

    Raises ScenarioParseError for malformed text and UnphysicalError (via the
    domain types) for well-formed but physically invalid values.  A leading
    UTF-8 byte-order mark is ignored.
    """
    sections, loss_lines, section_lines = _split_sections(text.removeprefix("\ufeff"))
    if "source" not in sections:
        raise ScenarioParseError("missing required section [source]")
    source = _build_source(sections["source"])
    cavities = {
        section: _build_cavity(section, sections[section])
        for section in _CAVITY_SECTIONS if section in sections
    }
    stages = _build_losses(loss_lines, cavities, section_lines)

    homodyne_angle = 0.0
    if "detection" in sections:
        _check_keys("detection", sections["detection"], _DETECTION_KEYS)
        if "homodyne_angle" in sections["detection"]:
            value, lineno = sections["detection"]["homodyne_angle"]
            homodyne_angle = _parse_float(value, lineno)

    grid = None
    if "grid" in sections:
        table = sections["grid"]
        _check_keys("grid", table, _GRID_KEYS)
        for key in _GRID_KEYS:
            if key not in table:
                raise ScenarioParseError(f"[grid] needs {key}", section_lines["grid"])
        grid = FrequencyGrid(
            fmin_hz=_parse_float(*table["fmin_mhz"]) * 1e6,
            fmax_hz=_parse_float(*table["fmax_mhz"]) * 1e6,
            points=_parse_int(*table["points"]),
        )

    kwargs = {"name": name, "source": source, "stages": tuple(stages),
              "homodyne_angle": homodyne_angle}
    if grid is not None:
        kwargs["grid"] = grid
    return Scenario(**kwargs)


def load_scenario(path):
    """Read and parse a scenario file; the scenario name is the file stem."""
    p = pathlib.Path(path)
    return parse_scenario(p.read_text(encoding="utf-8"), name=p.stem)


def _fmt(value):
    """Shortest exact decimal for a float, plain ints unchanged."""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _cavity_lines(params):
    lines = []
    if params.t_in is not None:
        lines.append(f"t_in = {_fmt(params.t_in)}")
    if params.loss_rt != 0.0:
        lines.append(f"loss_rt = {_fmt(params.loss_rt)}")
    lines.append(f"detuning_mhz = {_fmt(params.detuning_hz / 1e6)}")
    if params.length_m is not None:
        lines.append(f"length_m = {_fmt(params.length_m)}")
    elif params.fsr_hz is not None:
        lines.append(f"fsr_mhz = {_fmt(params.fsr_hz / 1e6)}")
    # emit hwhm only when the geometric keys cannot reproduce it exactly
    try:
        implied = CavityParams(
            t_in=params.t_in, loss_rt=params.loss_rt, detuning_hz=params.detuning_hz,
            length_m=params.length_m, fsr_hz=None if params.length_m is not None else params.fsr_hz,
        ).hwhm_hz
    except (ValueError, ArithmeticError):
        implied = None
    if params.hwhm_hz is not None and implied != params.hwhm_hz:
        lines.append(f"hwhm_mhz = {_fmt(params.hwhm_hz / 1e6)}")
    return lines


def format_scenario(sc):
    """Canonical text form; parsing it back yields an identical scenario."""
    out = ["[source]", f"mode = {sc.source.mode}"]
    if sc.source.gen_db_at_dc is not None:
        out.append(f"gen_db_at_dc = {_fmt(sc.source.gen_db_at_dc)}")
    if sc.source.classical_gain is not None:
        out.append(f"classical_gain = {_fmt(sc.source.classical_gain)}")
    out.append(f"bandwidth_mhz = {_fmt(sc.source.bandwidth_hz / 1e6)}")
    if sc.source.t_out is not None:
        out.append(f"t_out = {_fmt(sc.source.t_out)}")
    if sc.source.loss_rt is not None:
        out.append(f"loss_rt = {_fmt(sc.source.loss_rt)}")
    if sc.source.escape_eta is not None:
        out.append(f"escape_eta = {_fmt(sc.source.escape_eta)}")

    for section, role in _CAVITY_SECTIONS.items():
        stage = sc.cavity_stage(role)
        if stage is not None:
            out.append("")
            out.append(f"[{section}]")
            out.extend(_cavity_lines(stage.params))

    out.append("")
    out.append("[losses]")
    roles_to_section = {role: section for section, role in _CAVITY_SECTIONS.items()}
    for stage in sc.stages:
        if isinstance(stage, LossElement):
            out.append(f"{stage.name} = {_fmt(stage.eta)} @ {stage.category}")
        else:
            out.append(f"{roles_to_section[stage.role]} = {_MARKER}")

    out.append("")
    out.append("[detection]")
    out.append(f"homodyne_angle = {_fmt(sc.homodyne_angle)}")

    out.append("")
    out.append("[grid]")
    out.append(f"fmin_mhz = {_fmt(sc.grid.fmin_hz / 1e6)}")
    out.append(f"fmax_mhz = {_fmt(sc.grid.fmax_hz / 1e6)}")
    out.append(f"points = {sc.grid.points}")
    return "\n".join(out) + "\n"


def save_scenario(sc, path):
    pathlib.Path(path).write_text(format_scenario(sc), encoding="utf-8")
