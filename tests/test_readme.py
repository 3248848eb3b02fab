"""README's library example runs as written, so a signature change cannot
leave it stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The ```python block under README's "Library entry points" heading."""
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_example_runs():
    namespace = {}
    exec(compile(library_example(), f"{README}:Library entry points", "exec"), namespace)
    back, pair = namespace["back"], namespace["pair"]
    assert back.oscillations.shape == (500, 2)
    assert back.likelihood_ratios.shape == (501,)
    assert pair.run_wrong.densities.shape == (501, 2)
