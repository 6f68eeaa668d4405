"""The README's examples run as written: the library quick start executes,
every moment-file example passes ``spinmoment check``, the Notes pairing
line evaluates a witness and every module attribute it names exists."""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import numpy as np

import spinmoment
from spinmoment import cli, feasibility, reduction, spinalg

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language, section):
    """Code blocks of one language inside the README section with this heading."""
    body = README.split(f"## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", body, flags=re.S)


def test_library_quick_start_runs():
    (block,) = fenced_blocks("python", "Library quick start")
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["verdict"].status == feasibility.STATUS_QUANTUM
    assert names["verdict"].stage == "inner"
    assert names["witness"].separates


@pytest.mark.parametrize("index", [0, 1])
def test_moment_file_examples_check(tmp_path, capsys, index):
    blocks = fenced_blocks("json", "Moment file format")
    assert len(blocks) == 2
    path = tmp_path / "moments.json"
    path.write_text(blocks[index], encoding="utf-8")
    assert cli.main(["check", "--input", str(path)]) == cli.EXIT_QUANTUM
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["status"] == feasibility.STATUS_QUANTUM


def test_notes_pairing_line_runs():
    notes = README.split("## Notes\n", 1)[1]
    (line,) = re.findall(r"`(witness\.evaluate\([^`]*\))`", notes)
    triple = spinalg.spin_operators(4)
    quantum = spinalg.moment_matrix(np.eye(5, dtype=complex) / 5.0, triple)
    coords = reduction.RenormalizedCoords(u=np.zeros(3), v=np.array([1.2, -0.1, -0.1]), two_j=4)
    bad = reduction.moments_from_coords(coords)
    witness = feasibility.exact_test_direct(bad).witness
    names = {"spinalg": spinalg, "witness": witness}
    assert eval(line, {**names, "m": quantum}) >= -1e-9
    assert eval(line, {**names, "m": bad}) == witness.value


def test_named_module_attributes_exist():
    """Every backticked `module.name` outside code blocks, for a module of the
    package, resolves, so that no deleted name lingers in the docs."""
    modules = [info.name for info in pkgutil.iter_modules(spinmoment.__path__)]
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    pattern = re.compile(rf"({'|'.join(modules)})((?:\.\w+)+)")
    named = {m.group(0) for span in re.findall(r"`([^`]+)`", prose) if (m := pattern.match(span))}
    assert "sdp.DIM_CAP" in named
    missing = []
    for name in sorted(named):
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"spinmoment.{module}")
        try:
            for attr in attrs:
                obj = getattr(obj, attr)
        except AttributeError:
            missing.append(name)
    assert missing == []
