"""Every test node ID the CI workflow names resolves to a test that exists,
so a renamed or deleted test fails here and not only on the runner."""

import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# a test file under tests/ or perfbench/, then one or more ::name parts,
# the last of which may carry a [parameter] suffix
NODE_ID = re.compile(r"(?:tests|perfbench)/\w+\.py(?:::\w+)+(?:\[[^\]\s]*\])?")


def workflow_node_ids():
    return sorted(set(NODE_ID.findall(WORKFLOW.read_text())))


def test_the_workflow_names_node_ids():
    assert len(workflow_node_ids()) >= 20


@pytest.mark.parametrize("node_id", workflow_node_ids())
def test_workflow_node_id_resolves(node_id):
    """Import the node's module as pytest's default import mode does (its
    directory on ``sys.path``, the module named after its file) and look up
    each class and function of the ID, its parameters stripped."""
    path, *names = node_id.split("::")
    names[-1] = names[-1].split("[")[0]
    directory = str(ROOT / Path(path).parent)
    if directory not in sys.path:
        sys.path.insert(0, directory)
    obj = importlib.import_module(Path(path).stem)
    for name in names:
        assert hasattr(obj, name), f"{node_id}: no {name} in {obj.__name__}"
        obj = getattr(obj, name)
    assert callable(obj)
