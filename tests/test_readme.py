import json
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


def test_config_document_on_both_boundaries_is_refused_before_output(
        tmp_path, capsys):
    # disorder is defined for open chains only, so the periodic leg's
    # model is refused, before the open leg writes anything
    config = tmp_path / "config.json"
    document = json.loads(fenced_blocks("json")[0])
    document["spectrum"]["boundary"] = "both"
    config.write_text(json.dumps(document), encoding="utf-8")
    out = tmp_path / "demo"
    assert main(["spectrum", "--config", str(config),
                 "--output-dir", str(out)]) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"]["kind"] == "model"
    assert not out.exists()
