import math
import pathlib
import textwrap

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqzbudget.cavity import CavityParams
from sqzbudget.chain import CavityStage, FrequencyGrid, LossElement, Scenario
from sqzbudget.quadcore import UnphysicalError
from sqzbudget.scenario_io import (
    ScenarioParseError,
    format_scenario,
    load_scenario,
    parse_scenario,
)
from sqzbudget.source import SourceParams

MHZ = 1e6

MINIMAL = textwrap.dedent("""\
    [source]
    mode = direct
    gen_db_at_dc = 5.7
    bandwidth_mhz = 20
    escape_eta = 0.9
    """)

# a source of each mode, with escape_eta, and fields that such a source does not read
SOURCE_FORMS = {
    "direct": dict(mode="direct", gen_db_at_dc=5.7, bandwidth_hz=20 * MHZ, escape_eta=0.9),
    "physical": dict(mode="physical", classical_gain=5.0, bandwidth_hz=20 * MHZ, escape_eta=0.9),
}
UNREAD_SOURCE_FIELDS = [
    ("direct", {"classical_gain": 1e9}),
    ("physical", {"gen_db_at_dc": 5.7}),
    ("direct", {"t_out": 0.5}),
    ("direct", {"loss_rt": 0.9}),
    ("physical", {"t_out": 0.5, "loss_rt": 0.9}),
]


def test_readme_example_is_the_tabletop_scenario(tabletop):
    # the ini block under "Scenario files" parses, and says what tabletop.scn says
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("\n## Scenario files\n", 1)[1]
    example = section.split("```ini\n", 1)[1].split("```", 1)[0]
    assert parse_scenario(example, name="tabletop") == tabletop


def test_parse_bundled_tabletop(tabletop):
    assert tabletop.name == "tabletop"
    assert tabletop.source.mode == "direct"
    assert tabletop.source.gen_db_at_dc == 5.7
    assert tabletop.source.bandwidth_hz == 20 * MHZ
    assert tabletop.source.escape_eta == 0.9
    assert len(tabletop.stages) == 8
    kinds = ["loss", "loss", "filter_cavity", "loss", "loss", "src", "loss", "loss"]
    for stage, kind in zip(tabletop.stages, kinds):
        if kind == "loss":
            assert isinstance(stage, LossElement)
        else:
            assert isinstance(stage, CavityStage) and stage.name == kind
    fc = tabletop.cavity_stage("filter_cavity").params
    src = tabletop.cavity_stage("src").params
    assert fc.detuning_hz == -10 * MHZ
    assert src.detuning_hz == 10 * MHZ
    assert fc.hwhm() == pytest.approx(1038779.9974564468, rel=1e-13)
    assert src.hwhm() == pytest.approx(1068409.4727756338, rel=1e-13)
    assert tabletop.homodyne_angle == 0.0
    assert (tabletop.grid.fmin_hz, tabletop.grid.fmax_hz, tabletop.grid.points) == (
        5 * MHZ, 15 * MHZ, 201)


def test_parse_minimal_defaults():
    sc = parse_scenario(MINIMAL)
    assert sc.name == "scenario"
    assert sc.stages == ()
    assert sc.homodyne_angle == 0.0
    assert sc.grid.points == 201  # library default grid


def test_parse_physical_source():
    sc = parse_scenario(MINIMAL.replace("mode = direct", "mode = physical")
                        .replace("gen_db_at_dc = 5.7", "classical_gain = 5"))
    assert sc.source.mode == "physical"
    assert sc.source.classical_gain == 5.0


def test_bundled_files_round_trip(tabletop, geo600, vacuum_scenario):
    for sc in (tabletop, geo600, vacuum_scenario):
        text = format_scenario(sc)
        again = parse_scenario(text, name=sc.name)
        assert again == sc
        assert format_scenario(again) == text


def test_save_and_load(tmp_path, geo600):
    path = tmp_path / "copy.scn"
    path.write_text(format_scenario(geo600), encoding="utf-8")
    loaded = load_scenario(path)
    assert loaded.name == "copy"
    assert loaded.source == geo600.source
    assert loaded.stages == geo600.stages


etas_2dp = st.integers(min_value=30, max_value=100).map(lambda k: k / 100)
mhz_1dp = st.integers(min_value=1, max_value=300).map(lambda k: k / 10)
names = st.sampled_from(["isolator", "rotator", "mode_match", "photodiode", "window"])
couplings = st.integers(min_value=1, max_value=30).map(lambda k: k / 100)
round_trip_losses = st.integers(min_value=1, max_value=20).map(lambda k: k / 1000)
lengths = st.integers(min_value=30, max_value=300).map(lambda k: k / 100)


@st.composite
def sources(draw):
    mode = draw(st.sampled_from(("direct", "physical")))
    if mode == "direct":
        strength = {"gen_db_at_dc": draw(st.integers(min_value=0, max_value=130)) / 10}
    else:
        strength = {"classical_gain": draw(st.integers(min_value=10, max_value=400)) / 10}
    if draw(st.booleans()):
        escape = {"escape_eta": draw(etas_2dp)}
    else:
        escape = {"t_out": draw(couplings), "loss_rt": draw(round_trip_losses)}
    return SourceParams(mode=mode, bandwidth_hz=draw(mhz_1dp) * MHZ, **strength, **escape)


@st.composite
def cavities(draw):
    """A cavity given by length, by fsr, by both, or by hwhm with or without a length."""
    given = draw(st.sampled_from(("length", "fsr", "length+fsr", "hwhm", "length+hwhm")))
    kwargs = {"detuning_hz": draw(st.sampled_from((-1, 1))) * draw(mhz_1dp) * MHZ}
    if "length" in given:
        kwargs["length_m"] = draw(lengths)
    if "fsr" in given:
        kwargs["fsr_hz"] = draw(st.integers(min_value=100, max_value=400)) * MHZ
    if "hwhm" in given:
        kwargs["hwhm_hz"] = draw(st.integers(min_value=1, max_value=50)) / 10 * MHZ
    # the rates need t_in unless hwhm is given, and a lossy cavity always needs it
    if "hwhm" not in given or draw(st.booleans()):
        kwargs["t_in"] = draw(couplings)
        if draw(st.booleans()):
            kwargs["loss_rt"] = draw(round_trip_losses)
    return CavityParams(**kwargs)


@st.composite
def scenarios(draw):
    source = draw(sources())
    stages = []
    used = set()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        name = draw(names.filter(lambda n: n not in used))
        used.add(name)
        stages.append(LossElement(name, draw(etas_2dp),
                                  draw(st.sampled_from(("mode_matching", "other")))))
    for name in ("filter_cavity", "src"):
        if draw(st.booleans()):
            at = draw(st.integers(min_value=0, max_value=len(stages)))
            stages.insert(at, CavityStage(name, draw(cavities())))
    kmin = draw(st.integers(min_value=1, max_value=500))
    kspan = draw(st.integers(min_value=1, max_value=100))
    grid = FrequencyGrid(kmin / 10 * MHZ, (kmin + kspan) / 10 * MHZ,
                         draw(st.integers(2, 300)))
    return Scenario(name="generated", source=source, stages=tuple(stages),
                    homodyne_angle=draw(st.sampled_from((0.0, 0.25, 1.5))), grid=grid)


@given(scenarios())
def test_round_trip_is_identity(sc):
    text = format_scenario(sc)
    again = parse_scenario(text, name="generated")
    assert again == sc


@pytest.mark.parametrize("build", [
    lambda: SourceParams(mode="direct", gen_db_at_dc=5.7, bandwidth_hz=math.inf, escape_eta=0.9),
    lambda: SourceParams(mode="direct", gen_db_at_dc=5.7, bandwidth_hz=math.nan, escape_eta=0.9),
    lambda: CavityParams(t_in=0.1, length_m=1.21, detuning_hz=math.nan),
    lambda: CavityParams(t_in=0.1, length_m=1.21, detuning_hz=-math.inf),
    lambda: CavityParams(t_in=0.1, length_m=math.inf),
    lambda: CavityParams(hwhm_hz=math.nan),
    lambda: CavityParams(t_in=0.1, length_m=5e-324),
    lambda: CavityParams(t_in=0.9, fsr_hz=5e-324),
    lambda: Scenario("s", SourceParams(mode="direct", gen_db_at_dc=5.7, bandwidth_hz=20 * MHZ,
                                       escape_eta=0.9), homodyne_angle=math.nan),
    lambda: Scenario("s", SourceParams(mode="direct", gen_db_at_dc=5.7, bandwidth_hz=20 * MHZ,
                                       escape_eta=0.9), homodyne_angle=math.inf),
    *[lambda unread=unread: SourceParams(**{**SOURCE_FORMS[unread[0]], **unread[1]})
      for unread in UNREAD_SOURCE_FIELDS],
    *[lambda name=name: LossElement(name, 0.9) for name in (
        "", "a=b", "a\nb", "a\rb", "a\u2028b", "#x", "[x", " pad", "pad ", "pad\n",
        "filter_cavity", "src")],
], ids=["bandwidth-inf", "bandwidth-nan", "detuning-nan", "detuning-inf", "length-inf",
        "hwhm-nan", "derived-rates-inf", "derived-hwhm-zero", "angle-nan", "angle-inf",
        *[f"{form}-with-{'-'.join(fields)}" for form, fields in UNREAD_SOURCE_FIELDS],
        "name-empty", "name-equals", "name-newline",
        "name-return", "name-line-separator", "name-comment", "name-bracket",
        "name-leading-space", "name-trailing-space", "name-trailing-newline",
        "name-filter-cavity", "name-src"])
def test_constructors_refuse_what_cannot_be_written_back(build):
    # format_scenario could not write these so that parse_scenario reads them back
    with pytest.raises(ValueError):
        build()


def test_unusual_loss_names_round_trip():
    stages = tuple(LossElement(name, 0.9) for name in ("a#b", "a [b]", "two words", "a@b"))
    sc = Scenario("s", SourceParams(mode="direct", gen_db_at_dc=5.7, bandwidth_hz=20 * MHZ,
                                    escape_eta=0.9), stages=stages)
    assert parse_scenario(format_scenario(sc), name="s") == sc


def _err(text):
    with pytest.raises(ScenarioParseError) as excinfo:
        parse_scenario(text)
    return excinfo.value


def test_unknown_section_line_number():
    err = _err("[sauce]\nkey = 1\n")
    assert err.line == 1
    assert "sauce" in str(err)


def test_unknown_key_line_number():
    err = _err(MINIMAL + "\n[grid]\nfmin_mhz = 5\nfoo = 3\n")
    assert err.line == 9
    assert "foo" in str(err)


@pytest.mark.parametrize("edit,line,message", [
    (("mode = direct\n", "mode = direct\nclassical_gain = 1e9\n"), 3,
     "classical_gain is not read by a direct source with escape_eta"),
    (("mode = direct\n", "mode = physical\nclassical_gain = 5\n"), 4,
     "gen_db_at_dc is not read by a physical source with escape_eta"),
    (("escape_eta = 0.9\n", "escape_eta = 0.9\nt_out = 0.5\nloss_rt = 0.9\n"), 6,
     "t_out is not read by a direct source with escape_eta"),
    (("escape_eta = 0.9\n", "loss_rt = 0.9\nescape_eta = 0.9\n"), 5,
     "loss_rt is not read by a direct source with escape_eta"),
], ids=["direct-gain", "physical-depth", "escape-pair", "escape-loss"])
def test_unread_source_key_is_refused_at_its_line(edit, line, message):
    err = _err(MINIMAL.replace(*edit))
    assert (err.line, str(err)) == (line, f"line {line}: {message}")


def test_duplicate_key_rejected():
    err = _err(MINIMAL + "escape_eta = 0.8\n")
    assert err.line == 6


def test_duplicate_section_rejected():
    err = _err(MINIMAL + "\n[source]\nmode = direct\n")
    assert "duplicate section" in str(err)


def test_missing_equals_sign():
    err = _err(MINIMAL + "justaword\n")
    assert err.line == 6


def test_content_before_section():
    err = _err("mode = direct\n" + MINIMAL)
    assert err.line == 1


def test_byte_order_mark_is_ignored(tmp_path):
    assert parse_scenario("\ufeff" + MINIMAL) == parse_scenario(MINIMAL)
    path = tmp_path / "bom.scn"
    path.write_text(MINIMAL, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_scenario(path) == parse_scenario(MINIMAL, name="bom")


def test_bad_number():
    err = _err(MINIMAL.replace("5.7", "five"))
    assert "five" in str(err)


def test_missing_source_section():
    err = _err("[grid]\nfmin_mhz = 5\nfmax_mhz = 15\npoints = 3\n")
    assert "source" in str(err)


def test_source_needs_mode_and_bandwidth():
    assert "mode" in str(_err("[source]\ngen_db_at_dc = 5\nbandwidth_mhz = 20\n"))
    assert "bandwidth" in str(_err("[source]\nmode = direct\ngen_db_at_dc = 5\n"))


def test_grid_needs_all_keys():
    err = _err(MINIMAL + "\n[grid]\nfmin_mhz = 5\nfmax_mhz = 15\n")
    assert "points" in str(err)


def test_unknown_category():
    err = _err(MINIMAL + "\n[losses]\nwindow = 0.99 @ coating\n")
    assert "coating" in str(err)


def test_reserved_loss_names():
    err = _err(MINIMAL + "\n[losses]\nsrc = 0.9 @ other\n")
    assert "reserved" in str(err)


def test_marker_without_section():
    err = _err(MINIMAL + "\n[losses]\nfilter_cavity = @cavity\n")
    assert "missing section" in str(err)


def test_marker_for_plain_element():
    err = _err(MINIMAL + "\n[losses]\nwindow = @cavity\n")
    assert "marker" in str(err)


def test_duplicate_marker():
    text = MINIMAL + textwrap.dedent("""
        [src]
        detuning_mhz = 10
        hwhm_mhz = 1
        [losses]
        src = @cavity
        src = @cavity
        """)
    assert "duplicate" in str(_err(text))


def test_unplaced_cavity_section():
    text = MINIMAL + textwrap.dedent("""
        [src]
        detuning_mhz = 10
        hwhm_mhz = 1
        """)
    err = _err(text)
    assert "never placed" in str(err)
    assert err.line == 7  # the [src] header


def test_duplicate_loss_name():
    text = MINIMAL + "\n[losses]\nwindow = 0.99 @ other\nwindow = 0.98 @ other\n"
    assert "duplicate" in str(_err(text))


def test_unphysical_values_are_not_parse_errors():
    with pytest.raises(UnphysicalError):
        parse_scenario(MINIMAL + "\n[losses]\nwindow = 1.2 @ other\n")
    with pytest.raises(UnphysicalError):
        parse_scenario(MINIMAL.replace("bandwidth_mhz = 20", "bandwidth_mhz = -1"))


def test_cavity_needs_enough_rate_information():
    text = MINIMAL + textwrap.dedent("""
        [src]
        detuning_mhz = 10
        [losses]
        src = @cavity
        """)
    with pytest.raises(ValueError):
        parse_scenario(text)
