"""Every public function, class and method of `src/opuckit` has a caller in `src/`.

A name that only tests call either earns a record or leaves the package.  The
few that stay, because a test oracle, the bench or an open ROADMAP item needs
them, are listed in KEPT with the reason; a new test-only name, or a kept one
that gains a caller, fails here until KEPT says so.
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
    "opuc.OPUCSystem.monic_coeffs": "the path the steklov_norms tests compare against bitwise",
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

