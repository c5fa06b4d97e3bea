"""Scenario text files: sectioned key = value format, MHz units.

Sections: [source], [filter_cavity], [src], [losses], [detection], [grid].
Section order is free.  The parameter classes are the schema: the keys of
[source], [filter_cavity]/[src] and [grid] are the field names of
:class:`SourceParams`, :class:`CavityParams` and :class:`FrequencyGrid`, with
each ``*_hz`` field written as a ``*_mhz`` key (frequencies are MHz in files
and Hz in memory).  Unknown keys are rejected with the offending line number,
and a field without a default must be given.  :func:`format_scenario` writes
back what was given: each field that differs from its default.

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

import dataclasses
import math
import pathlib

from .cavity import CavityParams
from .chain import CATEGORIES, CavityStage, FrequencyGrid, LossElement, Scenario
from .source import SourceParams

SECTIONS = ("source", "filter_cavity", "src", "losses", "detection", "grid")

_DETECTION_KEYS = ("homodyne_angle",)

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


def _parse_mhz(text, line):
    return _parse_float(text, line) * 1e6


def _parse_text(text, line):
    return text


def _key(name):
    """The file key of a params field: a ``*_hz`` field is a ``*_mhz`` key."""
    return name[:-3] + "_mhz" if name.endswith("_hz") else name


def _schema(cls):
    """File key -> (field name, value parser, required) for each field of cls."""
    parsers = {str: _parse_text, int: _parse_int}
    return {
        _key(f.name): (
            f.name,
            _parse_mhz if f.name.endswith("_hz") else parsers.get(f.type, _parse_float),
            f.default is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    }


_SCHEMAS = {cls: _schema(cls) for cls in (SourceParams, CavityParams, FrequencyGrid)}


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


def _check_keys(section, table, allowed):
    for key, (_, lineno) in table.items():
        if key not in allowed:
            raise ScenarioParseError(f"unknown key {key!r} in [{section}]", lineno)


def _read_section(cls, section, sections, section_lines):
    """Build a params object from a section whose keys are the field names of cls."""
    schema = _SCHEMAS[cls]
    table = sections[section]
    _check_keys(section, table, schema)
    for key, (_, _, required) in schema.items():
        if required and key not in table:
            raise ScenarioParseError(f"[{section}] needs {key}", section_lines[section])
    return cls(**{name: parse(*table[key])
                  for key, (name, parse, _) in schema.items() if key in table})


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
    source = _read_section(SourceParams, "source", sections, section_lines)
    cavities = {
        section: _read_section(CavityParams, section, sections, section_lines)
        for section in _CAVITY_SECTIONS if section in sections
    }
    stages = _build_losses(loss_lines, cavities, section_lines)

    homodyne_angle = 0.0
    if "detection" in sections:
        _check_keys("detection", sections["detection"], _DETECTION_KEYS)
        if "homodyne_angle" in sections["detection"]:
            value, lineno = sections["detection"]["homodyne_angle"]
            homodyne_angle = _parse_float(value, lineno)

    kwargs = {"name": name, "source": source, "stages": tuple(stages),
              "homodyne_angle": homodyne_angle}
    if "grid" in sections:
        kwargs["grid"] = _read_section(FrequencyGrid, "grid", sections, section_lines)
    return Scenario(**kwargs)


def load_scenario(path):
    """Read and parse a scenario file; the scenario name is the file stem."""
    p = pathlib.Path(path)
    return parse_scenario(p.read_text(encoding="utf-8"), name=p.stem)


def _fmt(value):
    """Shortest exact decimal for a float; plain ints and text unchanged."""
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def _section(section, params):
    """Lines of a section holding each field of params that differs from its default."""
    lines = [f"[{section}]"]
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if value != f.default:
            if f.name.endswith("_hz"):
                value = value / 1e6
            lines.append(f"{_key(f.name)} = {_fmt(value)}")
    return lines + [""]


def format_scenario(sc):
    """Canonical text form of what was given; parsing it back yields an identical scenario."""
    out = _section("source", sc.source)
    for section, role in _CAVITY_SECTIONS.items():
        stage = sc.cavity_stage(role)
        if stage is not None:
            out += _section(section, stage.params)

    out.append("[losses]")
    roles_to_section = {role: section for section, role in _CAVITY_SECTIONS.items()}
    for stage in sc.stages:
        if isinstance(stage, LossElement):
            out.append(f"{stage.name} = {_fmt(stage.eta)} @ {stage.category}")
        else:
            out.append(f"{roles_to_section[stage.role]} = {_MARKER}")

    out += ["", "[detection]", f"homodyne_angle = {_fmt(sc.homodyne_angle)}", ""]
    out += _section("grid", sc.grid)
    return "\n".join(out)
