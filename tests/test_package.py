"""The package's export list and the hygiene of its modules."""

import ast
import dataclasses
import re
import sys
import types
from pathlib import Path

import entclass as ec


def test_all_is_the_public_api():
    assert len(ec.__all__) == len(set(ec.__all__))
    for name in ec.__all__:
        assert not isinstance(getattr(ec, name), types.ModuleType), name
    assert "monotone_trial" in ec.__all__
    assert "__version__" in ec.__all__


def test_pre_pipeline_helpers_are_gone():
    # One route per job: these duplicated the invariant pipeline, the trial
    # engine or a table kept elsewhere.
    for name in (
        "adjust_format",
        "svd",
        "numerical_rank",
        "OutcomeEnsemble",
        "DET_DEGREES",
        "RNG_ALGORITHM",
        "MAX_MATRIX_DIM",
        "EXPECTED_RANK_RTR",
        "SignatureError",
    ):
        assert not hasattr(ec, name), name
    # One decision rule: the rank(R^T R) vote and the second tolerance are gone.
    assert not hasattr(sys.modules["entclass.classify"], "EXPECTED_RANK_RTR")
    assert not hasattr(ec.errors, "SignatureError")
    assert not hasattr(ec.TolerancePolicy, "rank_threshold")
    assert [f.name for f in dataclasses.fields(ec.TolerancePolicy)] == ["distance_eps"]
    # invariant_report is the one entry to the invariants.
    for name in ("local_ranks", "rank_rtr", "RtrResult", "r_matrix", "flatten", "unflatten"):
        for module in (ec, ec.invariants, ec.tensor):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(ec.RandomSource, "substream")
    # The rank rule decides reachability; the order is one read-only mapping
    # of each covering edge to its witness.
    assert isinstance(ec.partial_order(), types.MappingProxyType)
    assert not hasattr(ec.partial_order(), "nodes")
    # One public name per fact: each of these restated a name that stays.
    classify = sys.modules["entclass.classify"]
    for module, name in (
        (classify, "grade"),
        (classify, "hasse_edges"),
        (classify, "witness_chain"),
        (classify, "PartialOrder"),
        (ec.tensor, "reduced_density_pair"),
        (ec.protocols, "two_bell"),
        (ec.invariants, "three_tangle"),
    ):
        assert not hasattr(ec, name), name
        assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(ec.LocalOperation, "all_invertible")


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads (``from __future__`` aside)."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # The package's __init__ imports to re-export: its exports count as used.
    found = []
    for path in sorted(Path(ec.__file__).parent.glob("*.py")):
        unused = _unused_imports(path)
        if path.name == "__init__.py":
            unused = [entry for entry in unused if entry.split()[-1] not in ec.__all__]
        found += unused
    assert found == []


def test_readme_quick_start_runs():
    # README's library quick start is code a reader pastes: it must run.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
