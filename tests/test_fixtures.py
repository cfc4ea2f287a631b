"""The committed fixtures are what their generator scripts make.

A9 checks the package against tests/data/golden_eval_report.json; that
check means something only while the file comes from the brute-force
oracles and the corpus from its seeded generator, not from package output.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
sys.path.insert(0, str(ROOT / "scripts"))

import build_golden_report  # noqa: E402
import make_mini_corpus  # noqa: E402


def test_mini_corpus_comes_from_its_generator():
    assert (DATA / "mini_corpus.jsonl").read_bytes() == make_mini_corpus.corpus_text().encode()


def test_golden_report_comes_from_the_oracles():
    golden = (DATA / "golden_eval_report.json").read_bytes()
    assert golden == build_golden_report.report_text().encode()
