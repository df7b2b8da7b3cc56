"""scripts/experiments_doc.py: the writer of EXPERIMENTS.md's measured blocks.

The paper-preset run that feeds the committed file is CI's
``experiments-doc`` job; these tests drive the generator on a small
hand-made ``run-all`` document instead.
"""

import copy
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import list_experiments

REPO_ROOT = Path(__file__).parents[2]
SCRIPT = REPO_ROOT / "scripts" / "experiments_doc.py"


@pytest.fixture(scope="module")
def generator():
    spec = importlib.util.spec_from_file_location("experiments_doc", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fig8_row(megabytes, item_opt):
    return {
        "buffer MB": megabytes,
        "customer (opt)": 0.9 - megabytes / 100,
        "customer (seq)": 0.95 - megabytes / 100,
        "item (opt)": item_opt,
        "item (seq)": 0.3 - megabytes / 100,
        "stock (opt)": 0.5 - megabytes / 100,
        "stock (seq)": 0.7 - megabytes / 100,
    }


#: A run-all document of two experiments.  Optimized packing misses
#: item pages no less than sequential packing at 12 and 16 MB.
DOCUMENT = {
    "failed": [],
    "results": [
        {
            "experiment": "fig8",
            "title": "miss rates",
            "rows": [_fig8_row(4.0, 0.1), _fig8_row(12.0, 0.25), _fig8_row(16.0, 0.2)],
            "headline": {"stock miss gap max (abs)": 0.2, "stock miss gap max (abs) at MB": 4.0},
            "paper_reference": {},
            "notes": "",
        },
        {
            "experiment": "table1",
            "title": "tuples per page",
            "rows": [{"tuples per 4K page": 13, "relation": "stock"}],
            "headline": {"stock tuples/page": 13.0},
            "paper_reference": {"stock tuples/page": 13},
            "notes": "exact",
        },
    ],
}

TEXT = """# Prose before

<!-- generated: fig8 -->
stale fig8 numbers
<!-- end generated: fig8 -->

Prose between, with a hand-written 0.30.

<!-- generated: table1 -->
<!-- end generated: table1 -->
Prose after.
"""


def _outside(generator, text):
    return generator._BLOCK.sub(lambda match: match[1] + match[3], text)


class TestRegenerate:
    def test_only_the_marked_blocks_change(self, generator):
        written = generator.regenerate(TEXT, DOCUMENT)
        assert _outside(generator, written) == _outside(generator, TEXT)
        assert "stale" not in written
        assert "| stock | 13 |" in written  # the label column leads
        assert "| stock tuples/page | 13.0 | 13 |" in written

    def test_second_pass_is_a_no_op(self, generator):
        written = generator.regenerate(TEXT, DOCUMENT)
        assert generator.regenerate(written, DOCUMENT) == written

    def test_a_failing_check_names_its_sizes(self, generator):
        written = generator.regenerate(TEXT, DOCUMENT)
        checks = dict(
            line.split(" | ", 1)
            for line in written.splitlines()
            if line.startswith("| ") and "packing" in line
        )
        assert checks["| optimized packing misses less than sequential: item"] == (
            "no | 12.0, 16.0 MB |"
        )
        assert checks["| optimized packing misses less than sequential: stock"] == (
            "yes |  |"
        )
        assert "| every miss rate falls as the buffer grows | no | 12.0 MB |" in written

    def test_blocks_and_results_must_match(self, generator):
        missing = copy.deepcopy(DOCUMENT)
        missing["results"].pop()
        with pytest.raises(ValueError, match="blocks without a result: \\['table1'\\]"):
            generator.regenerate(TEXT, missing)
        with pytest.raises(ValueError, match="results without a block: \\['table1'\\]"):
            generator.regenerate(TEXT.split("Prose between")[0], DOCUMENT)
        failed = dict(DOCUMENT, failed=["fig9"])
        with pytest.raises(ValueError, match="failed experiments: fig9"):
            generator.regenerate(TEXT, failed)

    def test_script_leaves_the_file_alone_on_a_mismatch(self):
        before = (REPO_ROOT / "EXPERIMENTS.md").read_bytes()
        process = subprocess.run(
            [sys.executable, str(SCRIPT)],
            input=json.dumps({"failed": [], "results": []}),
            capture_output=True,
            text=True,
        )
        assert process.returncode == 1
        assert process.stderr.startswith("experiments_doc: blocks without a result")
        assert (REPO_ROOT / "EXPERIMENTS.md").read_bytes() == before


def test_committed_document_has_one_block_per_experiment(generator):
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    blocks = [match["id"] for match in generator._BLOCK.finditer(text)]
    assert sorted(blocks) == list_experiments()
