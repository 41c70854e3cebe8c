import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def test_library_example_runs():
    blocks = python_blocks()
    assert len(blocks) == 2
    # the second block continues the first, as the README says
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    trace = np.asarray(namespace["rho"].diagonal()).real.sum()
    assert abs(trace - 1.0) < 1e-12
    assert len(namespace["residuals"]) == 16
    assert max(namespace["residuals"]) < 1e-12
