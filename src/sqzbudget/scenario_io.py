"""Scenario text files: sectioned key = value format, MHz units.

Sections: [source], [filter_cavity], [src], [losses], [detection], [grid].
Section order is free.  One table of schemas, built from the parameter
classes, reads and writes every section but [losses]: the keys of [source],
[filter_cavity]/[src] and [grid] are the field names of
:class:`SourceParams`, :class:`CavityParams` and :class:`FrequencyGrid`, and
the one key of [detection] is the ``homodyne_angle`` field of
:class:`Scenario`.  Each ``*_hz`` field is written as a ``*_mhz`` key
(frequencies are MHz in files and Hz in memory).  Unknown keys are rejected
with the offending line number, and a field without a default must be given.
A key given twice in any section, [losses] included, is rejected at its
second line.  :func:`format_scenario` writes back what was given: each field
that differs from its default.

The [losses] section is ordered and defines the chain: plain elements are
``name = eta @ category`` lines, and each cavity section is placed in the
chain by a marker line with its name, ``filter_cavity = @cavity`` or
``src = @cavity``; the section name is the cavity's stage name in
:class:`CavityStage`.  A cavity section without its marker (or vice versa)
is an error, since the marker places the cavity in :meth:`Scenario.chain`.

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
from .chain import CATEGORIES, CAVITY_ROLES, CavityStage, FrequencyGrid, LossElement, Scenario
from .source import SourceParams, _UnreadField

_MARKER = "@cavity"


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


def _schema(cls, names=None):
    """File key -> (field name, value parser, default) for the fields of cls, or those named."""
    parsers = {str: _parse_text, int: _parse_int}
    return {
        _key(f.name): (
            f.name,
            _parse_mhz if f.name.endswith("_hz") else parsers.get(f.type, _parse_float),
            f.default,
        )
        for f in dataclasses.fields(cls)
        if names is None or f.name in names
    }


# every section but [losses], whose keys are the names of the chain's stages
_SCHEMAS = {
    "source": _schema(SourceParams),
    **dict.fromkeys(CAVITY_ROLES, _schema(CavityParams)),
    "detection": _schema(Scenario, ("homodyne_angle",)),
    "grid": _schema(FrequencyGrid),
}


def _split_sections(text):
    """Raw pass: section -> (header line, {key: (value, line)}), comments stripped, order kept."""
    sections = {}
    table = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMAS and current != "losses":
                raise ScenarioParseError(f"unknown section [{current}]", lineno)
            if current in sections:
                raise ScenarioParseError(f"duplicate section [{current}]", lineno)
            table = {}
            sections[current] = (lineno, table)
            continue
        if table is None:
            raise ScenarioParseError("content before the first section header", lineno)
        key, equals, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not (equals and key and value):
            raise ScenarioParseError(f"expected 'key = value', got {line!r}", lineno)
        if key in table:
            raise ScenarioParseError(f"duplicate key {key!r} in [{current}]", lineno)
        table[key] = (value, lineno)
    return sections


def _read_section(section, sections):
    """Keyword arguments of the fields given in a section, by its schema; {} if it is absent."""
    schema = _SCHEMAS[section]
    header, table = sections.get(section, (None, {}))
    for key, (_, lineno) in table.items():
        if key not in schema:
            raise ScenarioParseError(f"unknown key {key!r} in [{section}]", lineno)
    for key, (_, _, default) in schema.items():
        if default is dataclasses.MISSING and key not in table:
            raise ScenarioParseError(f"[{section}] needs {key}", header)
    return {name: parse(*table[key]) for key, (name, parse, _) in schema.items() if key in table}


def _build_losses(sections, cavities):
    """The chain in [losses] order: loss elements, and each cavity at its marker."""
    _, table = sections.get("losses", (None, {}))
    stages = []
    for name, (rhs, lineno) in table.items():
        if rhs == _MARKER:
            if name not in CAVITY_ROLES:
                raise ScenarioParseError(
                    f"{_MARKER} markers are only valid for {' and '.join(CAVITY_ROLES)}, "
                    f"got {name!r}", lineno)
            if name not in cavities:
                raise ScenarioParseError(f"marker references missing section [{name}]", lineno)
            stages.append(CavityStage(name, cavities[name]))
            continue
        if name in CAVITY_ROLES:
            raise ScenarioParseError(
                f"{name!r} is reserved for a cavity marker ({name} = {_MARKER})", lineno)
        value, _, category = rhs.partition("@")
        eta = _parse_float(value.strip(), lineno)
        category = category.strip() or "other"
        if category not in CATEGORIES:
            raise ScenarioParseError(
                f"unknown category {category!r}; expected one of {', '.join(CATEGORIES)}",
                lineno)
        stages.append(LossElement(name=name, eta=eta, category=category))
    for name in cavities:
        if name not in table:
            raise ScenarioParseError(
                f"section [{name}] is never placed in [losses] (add '{name} = {_MARKER}')",
                sections[name][0])
    return stages


def parse_scenario(text, name="scenario"):
    """Parse scenario text into a Scenario.

    Raises ScenarioParseError for malformed text and UnphysicalError (via the
    domain types) for well-formed but physically invalid values.  A leading
    UTF-8 byte-order mark is ignored.
    """
    sections = _split_sections(text.removeprefix("\ufeff"))
    if "source" not in sections:
        raise ScenarioParseError("missing required section [source]")
    try:
        source = SourceParams(**_read_section("source", sections))
    except _UnreadField as exc:  # refused at the key's line
        raise ScenarioParseError(str(exc), sections["source"][1][exc.field][1]) from None
    cavities = {name: CavityParams(**_read_section(name, sections))
                for name in CAVITY_ROLES if name in sections}
    stages = _build_losses(sections, cavities)
    kwargs = _read_section("detection", sections)
    if "grid" in sections:
        kwargs["grid"] = FrequencyGrid(**_read_section("grid", sections))
    return Scenario(name=name, source=source, stages=tuple(stages), **kwargs)


def load_scenario(path):
    """Read and parse a scenario file; the scenario name is the file stem."""
    p = pathlib.Path(path)
    return parse_scenario(p.read_text(encoding="utf-8"), name=p.stem)


def _fmt(value):
    """Shortest exact decimal for a float; plain ints and text unchanged."""
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def _section(section, obj):
    """Lines of a section holding each of its fields in obj that differs from its default."""
    lines = [f"[{section}]"]
    for key, (name, _, default) in _SCHEMAS[section].items():
        value = getattr(obj, name)
        if value != default:
            if name.endswith("_hz"):
                value = value / 1e6
            lines.append(f"{key} = {_fmt(value)}")
    return lines + [""]


def format_scenario(sc):
    """Canonical text form of what was given; parsing it back yields an identical scenario."""
    out, losses = _section("source", sc.source), ["[losses]"]
    for stage in sc.stages:
        if isinstance(stage, CavityStage):
            out += _section(stage.name, stage.params)
            losses.append(f"{stage.name} = {_MARKER}")
        else:
            losses.append(f"{stage.name} = {_fmt(stage.eta)} @ {stage.category}")
    return "\n".join(out + losses + [""] + _section("detection", sc) + _section("grid", sc.grid))
