"""The seeded command corpus gives the outputs recorded in tests/golden/corpus.txt.

Each line pins one command's exit code and the sha256 of its stdout and
stderr (see ``tests/corpus.py``).  A change to an output changes its line;
``scripts/make_goldens.py`` rewrites the file when the change is meant.
A digest says only that an output changed, so every budget and spectrum that
exits 0 is also checked against the independent model in ``bench/reference.py``.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

import corpus

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_reference():
    # by path: tests/ does not import bench/ as a package
    spec = importlib.util.spec_from_file_location("bench_reference", ROOT / "bench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("corpus")
    return folder, list(corpus.outputs(folder))


def test_corpus_outputs_are_unchanged(outputs, golden_dir):
    want = (golden_dir / "corpus.txt").read_text(encoding="utf-8").splitlines()
    got = [corpus.line(*output) for output in outputs[1]]
    # the commands are the same, in the same order ...
    assert [line.split(" ", 3)[3] for line in got] == [line.split(" ", 3)[3] for line in want]
    # ... and each gives the recorded exit code, stdout and stderr
    assert [g for g, w in zip(got, want) if g != w] == []


def test_corpus_outputs_match_reference_model(outputs):
    reference = _load_reference()
    folder, results = outputs
    checked, mismatches = 0, []
    for argv, code, out, _ in results:
        if code != 0 or argv[0] == "sweep":
            continue
        sections = reference.read_scn((folder / argv[1]).read_text(encoding="utf-8"))
        # at the extreme values the reference's own (omega/width)**2 overflows to
        # inf, whose limit (vacuum) is what the program prints
        with np.errstate(over="ignore"):
            if argv[0] == "budget":
                why = reference.check_budget(out, sections)
            elif len(argv) == 2:  # the file's own grid
                why = reference.check_csv(out, sections, *reference.grid(sections))
            else:  # a band given by all three options
                band = dict(zip(argv[2::2], argv[3::2]))
                why = reference.check_csv(out, sections, float(band["--fmin-mhz"]) * 1e6,
                                          float(band["--fmax-mhz"]) * 1e6, int(band["--points"]))
        checked += 1
        if why is not None:
            mismatches.append(f"{' '.join(argv)}: {why}")
    assert mismatches == []
    assert checked == 737  # every budget and spectrum of the corpus that exits 0
