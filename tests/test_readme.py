import pathlib
import re

import numpy as np

from dqlm.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(language):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text,
                      re.MULTILINE | re.DOTALL)


def test_library_example_runs():
    blocks = fenced_blocks("python")
    assert len(blocks) == 2
    # the second block continues the first, as the README says
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    trace = np.asarray(namespace["rho"].diagonal()).real.sum()
    assert abs(trace - 1.0) < 1e-12
    assert len(namespace["residuals"]) == 16
    assert max(namespace["residuals"]) < 1e-12


def test_config_document_runs(tmp_path):
    blocks = fenced_blocks("json")
    assert len(blocks) == 1
    config = tmp_path / "config.json"
    config.write_text(blocks[0], encoding="utf-8")
    out = tmp_path / "demo"
    assert main(["spectrum", "--config", str(config),
                 "--output-dir", str(out)]) == 0
    assert (out / "spectrum_obc.csv").exists()
