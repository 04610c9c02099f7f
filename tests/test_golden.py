"""Same behaviour as a test: regenerate the golden corpus, compare byte for byte."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "make_corpus", Path(__file__).parent / "golden" / "make_corpus.py"
)
make_corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(make_corpus)


def test_golden_corpus_is_byte_identical(tmp_path):
    committed = make_corpus.CORPUS.read_text()
    fresh = make_corpus.build(tmp_path)
    if make_corpus.dump(fresh) == committed:
        return
    expected = make_corpus.json.loads(committed)
    for name in [*expected, *fresh]:
        if expected.get(name) != fresh.get(name):
            raise AssertionError(
                f"golden artifact {name!r} differs\n"
                f"committed: {expected.get(name)!r:.600}\n"
                f"now:       {fresh.get(name)!r:.600}\n"
                "if the change is intended, rerun "
                "`PYTHONPATH=src python tests/golden/make_corpus.py` and log it"
            )
    raise AssertionError("golden corpus differs only in artifact order")
