"""Every top-level function and class in src/qndspin has a reader in src/."""

import ast
from pathlib import Path

import qndspin

SRC = Path(qndspin.__file__).parent

# definitions that only tests read for now, each with what would give it a
# reader or take it out (ROADMAP items)
ALLOWED = {
    "fit_noise_model": "item 6: fig3's four-term fit",
    "integrate_sigma2": "item 16: one measurement strength",
    "ideal_sigma2": "item 16: one measurement strength",
    "ramsey_damping_envelope": "item 16: one contrast law",
    "spinflip_covariance_exact": "a test oracle by design (rule 1); item 22 moves it",
}


def _names(node):
    """Every name, attribute and string constant read under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def test_every_definition_has_a_reader_in_src():
    reads = {}  # name -> the (module, definition) of each place that reads it
    definitions = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            own = node if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if own is not None:
                definitions.add((path.name, own.name))
            for name in _names(node):
                reads.setdefault(name, set()).add((path.name, own and own.name))
    # read nowhere but inside itself, as a recursive function reads itself
    unread = {name for module, name in definitions
              if reads.get(name, set()) <= {(module, name)}}
    assert sorted(unread - ALLOWED.keys()) == [], "use it, remove it, or allow it with its item"
    # an entry whose definition gained a reader, or went, is stale
    assert sorted(ALLOWED.keys() - unread) == [], "read in src/ or gone: drop it from ALLOWED"
