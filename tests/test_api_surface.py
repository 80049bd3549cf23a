"""The row and per-pair names that only perfbench and the tests still call
are referenced by no package module, demo or study other than the module
that defines each, so deleting them touches perfbench and the tests alone."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINED_IN = {"EmbeddingRecord": "store", "ScoreEntry": "store", "Trial": "store",
              "PairScore": "vfnet", "pair_forward": "vfnet",
              "plda_llr": "backend", "score_face_trial": "backend"}


def referenced_names(path):
    """Every name, attribute and imported name in the file's syntax tree."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_row_and_pair_names_stay_in_their_modules():
    files = sorted(path for folder in ("src/avsrkit", "demos", "studies")
                   for path in (ROOT / folder).rglob("*.py"))
    assert len(files) > 12  # the package, its demos and the study were found
    outside = {}
    for path in files:
        names = {name for name in referenced_names(path) if name in DEFINED_IN
                 and path != ROOT / "src" / "avsrkit" / f"{DEFINED_IN[name]}.py"}
        if names:
            outside[str(path.relative_to(ROOT))] = sorted(names)
    assert outside == {}
