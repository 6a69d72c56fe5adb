"""The package's public names and the README's library example."""

import re
import types
from pathlib import Path

import deltacut

README = Path(__file__).parent.parent / "README.md"


def test_all_lists_every_public_name_and_only_those():
    bound = {name for name, value in vars(deltacut).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(deltacut.__all__) == bound
    assert len(deltacut.__all__) == len(bound)


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library example\n\n```python\n(.*?)^```$", text,
                      re.MULTILINE | re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})
    angles, pose = capsys.readouterr().out.splitlines()
    assert [round(float(v), 4) for v in angles.strip("()").split(",")] == [0.4562] * 3
    assert pose.startswith("Pose(")
