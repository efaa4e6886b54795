"""The references in ``oracles.py`` stay independent of the code they check."""

import ast
import os

# The parameter layout (theta -> L) and the tree types: all an oracle may
# take from the package.
ALLOWED = {
    ("mvboost.distributions", "param_count"),
    ("mvboost.distributions", "ThetaVector"),
    ("mvboost.distributions", "scale_matrices"),
    ("mvboost.trees", "Split"),
    ("mvboost.trees", "RegressionTree"),
}


def package_imports(source):
    """(module, name) for every name ``source`` imports from mvboost; a plain
    ``import mvboost...`` counts as importing the whole module ("*")."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mvboost":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, "*") for alias in node.names
                      if alias.name.split(".")[0] == "mvboost"]
    return found


def test_oracles_import_only_the_parameter_layout_and_tree_types():
    path = os.path.join(os.path.dirname(__file__), "oracles.py")
    with open(path) as fh:
        imported = package_imports(fh.read())
    assert imported  # the parse found the imports at all
    assert sorted(set(imported) - ALLOWED) == []


def test_guard_sees_every_form_of_import():
    source = ("from mvboost.distributions import covariance_batch, param_count\n"
              "from mvboost import distributions\n"
              "import mvboost.metrics\n"
              "def f():\n    from mvboost.trees import predict_tree_batch\n")
    assert sorted(set(package_imports(source)) - ALLOWED) == [
        ("mvboost", "distributions"),
        ("mvboost.distributions", "covariance_batch"),
        ("mvboost.metrics", "*"),
        ("mvboost.trees", "predict_tree_batch"),
    ]
