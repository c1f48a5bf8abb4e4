"""README's python blocks run as written."""

import re
import textwrap
from pathlib import Path

import numpy as np

from glogtda.vectorize import FeatureVector, features_to_csv, write_feature_bin

README = Path(__file__).parents[1] / "README.md"


def python_blocks() -> list[str]:
    """Each ```python block of the README, dedented, in README order."""
    found = re.findall(r"^( *)```python\n(.*?)^\1```$", README.read_text(), re.M | re.S)
    return [textwrap.dedent(body) for _, body in found]


def test_readme_has_the_recipe_and_the_library_imports():
    recipe, imports = python_blocks()
    assert "read_feature_bin" in recipe
    assert "from glogtda.learn import" in imports


def test_library_imports_block_runs():
    names = {}
    exec(python_blocks()[1], names)
    assert {"compute_glog", "build_features", "train", "run_stability_suite"} <= set(names)


def test_glf1_to_csv_recipe_gives_back_the_csv_text(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run").mkdir()
    feats = [FeatureVector(row) for row in np.random.default_rng(3).random((5, 4))]
    labels = [0, 2, 1, 0, 1]
    write_feature_bin(Path("run/features_train.bin"), feats, labels)
    names = {}
    exec(python_blocks()[0], names)
    assert names["text"] == features_to_csv(feats, labels)
