"""Every top-level function and class, dataclass field and property in
src/qndspin has a reader in src/."""

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
}

# the same for a dataclass field or a property, keyed "Class.name"
ALLOWED_MEMBERS = {
    "TrialSet.true_szf": "item 6, slice 1: the state's own sigma^2 in fig3",
    "NoiseBudget.provenance": "item 6, slice 2: fig3's four-term fit",
    "NoiseBudget.covariance": "item 6, slice 2: fig3's four-term fit",
    "VarianceReport.var_prep_se": "item 4: each column's z-score",
    "VarianceReport.cov_m1_m2_se": "item 4: each column's z-score",
    "VarianceReport.n_excluded_saturated": "item 4: the saturated fraction per point",
    "SqueezingReport.zeta_e": "item 6, slice 1: errors on the dB columns",
}


def _read(sub, names=True):
    """The name that one node reads: a loaded attribute, a string, or with
    names, a loaded name."""
    if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
        return sub.attr
    if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
        return sub.value
    if names and isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
        return sub.id
    return None


def _names(node):
    """Every name read under node."""
    return filter(None, map(_read, ast.walk(node)))


def _modules():
    return [(path.name, ast.parse(path.read_text())) for path in SRC.glob("*.py")]


def test_every_definition_has_a_reader_in_src():
    reads = {}  # name -> the (module, definition) of each place that reads it
    definitions = set()
    for module, tree in _modules():
        for node in tree.body:
            own = node if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if own is not None:
                definitions.add((module, own.name))
            for name in _names(node):
                reads.setdefault(name, set()).add((module, own and own.name))
    # read nowhere but inside itself, as a recursive function reads itself
    unread = {name for module, name in definitions
              if reads.get(name, set()) <= {(module, name)}}
    assert sorted(unread - ALLOWED.keys()) == [], "use it, remove it, or allow it with its item"
    # an entry whose definition gained a reader, or went, is stale
    assert sorted(ALLOWED.keys() - unread) == [], "read in src/ or gone: drop it from ALLOWED"


def _is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _member(cls, node):
    """The name of a dataclass field or a property, or None."""
    if isinstance(node, ast.AnnAssign) and _is_dataclass(cls):
        return node.target.id
    if isinstance(node, ast.FunctionDef) and any(
            getattr(d, "id", None) == "property" for d in node.decorator_list):
        return node.name
    return None


def test_every_field_and_property_has_a_reader_in_src():
    # a field that only its own __post_init__ reads is set and checked,
    # never used.  A member is read as an attribute or by its name in a
    # string (getattr); a bare name is a local of the same name
    reads = {}  # name -> the class whose __post_init__ reads it, or None
    members = set()  # (class, name)
    for _, tree in _modules():
        classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
        check = {}  # id of each node in a __post_init__ -> its class
        for cls in classes:
            members |= {(cls.name, name) for name in
                        (_member(cls, node) for node in cls.body) if name}
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
                    check |= {id(sub): cls.name for sub in ast.walk(node)}
        for sub in ast.walk(tree):
            name = _read(sub, names=False)
            if name is not None:
                reads.setdefault(name, set()).add(check.get(id(sub)))
    unread = {f"{cls}.{name}" for cls, name in members
              if reads.get(name, set()) <= {cls}}
    assert sorted(unread - ALLOWED_MEMBERS.keys()) == [], \
        "use it, remove it, or allow it with its item"
    assert sorted(ALLOWED_MEMBERS.keys() - unread) == [], \
        "read in src/ or gone: drop it from ALLOWED_MEMBERS"
