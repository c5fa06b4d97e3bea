"""The seeded command corpus gives the outputs recorded in tests/golden/corpus.txt.

Each line pins one command's exit code and the sha256 of its stdout and
stderr (see ``tests/corpus.py``).  A change to an output changes its line;
``scripts/make_goldens.py`` rewrites the file when the change is meant.
"""

import corpus


def test_corpus_outputs_are_unchanged(tmp_path, golden_dir):
    want = (golden_dir / "corpus.txt").read_text(encoding="utf-8").splitlines()
    got = corpus.lines(tmp_path)
    # the commands are the same, in the same order ...
    assert [line.split(" ", 3)[3] for line in got] == [line.split(" ", 3)[3] for line in want]
    # ... and each gives the recorded exit code, stdout and stderr
    assert [g for g, w in zip(got, want) if g != w] == []
