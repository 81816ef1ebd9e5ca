"""Every public function, class and method of `src/opuckit` has a caller in `src/`.

A name that only tests call either earns a record or leaves the package.  The
few that stay, because a test oracle, the bench or an open ROADMAP item needs
them, are listed in KEPT with the reason; a new test-only name, or a kept one
that gains a caller, fails here until KEPT says so.  Options follow the same
rule: a defaulted parameter that no `src/` call passes leaves, or KEPT_OPTIONS
says why it stays.
"""

import ast
import pathlib

import opuckit

SRC = pathlib.Path(opuckit.__file__).parent

KEPT = {
    "grid.riesz_project": "bench/test_bench.py traces it; the GridFunction form of P+",
    "weights.poisson_characteristics": "harmonic16 times it; ROADMAP item 8 gives it a record",
    "weights.bmo_norm": "harmonic16 times it; ROADMAP item 10 gives it a record",
    "weights.bmo_norm_bruteforce": "harmonic16's oracle for bmo_norm",
    "opuc.cd_kernel": "ROADMAP item 6's bound extends it",
    "clark.ClarkData.F_boundary": "harmonic16 reads it",
    "clark.schur_from_caratheodory": "the Schur-invariance oracle of the Clark tests",
    "operators.build_Q": "criterion 9's acceptance test builds Q with it",
    "operators.compress_band": "criterion 9's acceptance test compresses Q with it",
}


def _public_names():
    """The public definitions as (module.name or module.Class.method, bare name)
    pairs, and the names that the modules other than `__init__` refer to."""
    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((f"{path.stem}.{node.name}", node.name))
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        defined.append((f"{path.stem}.{node.name}.{sub.name}", sub.name))
        if path.stem != "__init__":  # an export is not a caller
            referenced |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            referenced |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return defined, referenced


def test_every_public_name_has_a_caller_in_src():
    defined, referenced = _public_names()
    uncalled = sorted(full for full, name in defined if name not in referenced)
    assert uncalled == sorted(KEPT)


KEPT_OPTIONS = {
    "cli.main.argv": "tests drive the CLI through it",
    "weights.poisson_characteristics.z_samples": "a KEPT name: harmonic16 times it",
    "weights.bmo_norm.arcs": "a KEPT name: harmonic16 times it",
}


def _options():
    """Every defaulted parameter of a `src/` function or method, nested ones too, as
    (module.qualified.name.param, bare function name, param, position or None), and every
    call in `src/`.  A method's positions do not count `self`."""
    options = []

    def visit(node, prefix, in_class):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.ClassDef):
                visit(sub, f"{prefix}.{sub.name}", True)
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = sub.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                method = in_class and not any(getattr(d, "id", None) == "staticmethod"
                                              for d in sub.decorator_list)
                for i, arg in enumerate(positional[first:], first):
                    options.append((f"{prefix}.{sub.name}.{arg.arg}", sub.name, arg.arg,
                                    i - method))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        options.append((f"{prefix}.{sub.name}.{arg.arg}", sub.name, arg.arg,
                                        None))
                visit(sub, f"{prefix}.{sub.name}", False)
            else:
                visit(sub, prefix, in_class)

    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        visit(tree, path.stem, False)
        calls += [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    return options, calls


def _passes(call, name, position):
    """Whether `call` passes the parameter `name` (at `position`, if it has one)."""
    if any(kw.arg in (name, None) for kw in call.keywords):  # None: a ** mapping
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(arg, ast.Starred) for arg in call.args[:position + 1]))


def test_every_option_has_a_caller_in_src():
    # by bare name, as above: a call of any function or method named f counts for
    # every f; an option that no `src/` call sets is a branch that no record runs
    options, calls = _options()
    by_name = {}
    for call in calls:
        fn = call.func
        bare = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
        by_name.setdefault(bare, []).append(call)
    unset = sorted(full for full, fname, param, position in options
                   if not any(_passes(c, param, position) for c in by_name.get(fname, ())))
    assert unset == sorted(KEPT_OPTIONS)
