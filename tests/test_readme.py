"""README's library example is a doctest: its printed values are what the
library returns."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_as_printed():
    text = README.read_text()
    section = text[text.index("## Library example"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README library example", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert test.examples and runner.summarize(verbose=False) == (0, len(test.examples))
