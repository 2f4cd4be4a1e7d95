"""Pins of the public surface and the code size: the package's exported names,
the CLI options, a ceiling on the lines of ``src/weaksep/*.py``, the one
module that lists candidate sets and caches grids, and no unused imports or
parameters.

The first three should only shrink.  A change that adds or removes a name or an
option, or grows the source past the ceiling, edits the pin here on purpose
and says so in CHANGES.md.
"""

import argparse
import ast
import types
from pathlib import Path

import weaksep
from weaksep.cli import build_parser

EXPORTS = [
    "BigInstance",
    "ChainNotFound",
    "Collection",
    "CompatGraph",
    "DecoratedPermutation",
    "GrassmannNecklace",
    "GroundSetMismatch",
    "NotMaximal",
    "SquareMove",
    "Subset",
    "apply_square_move",
    "block_reversal_permutation",
    "boundary_intervals",
    "build_compat_graph",
    "build_domain_AIJ",
    "canonical_permutation",
    "check_no_interior",
    "chord_chain",
    "circle_partition",
    "cluster_distance",
    "complete_to_maximal",
    "cyclic_interval",
    "cyclically_ordered",
    "domain_in_for_necklace",
    "enumerate_maximal_cliques",
    "explore_mutation_graph",
    "find_square_moves",
    "gale_leq",
    "is_balanced",
    "is_chord_separated",
    "is_cyclic_interval",
    "is_weakly_separated",
    "length_of",
    "lr_chain",
    "lr_domain",
    "max_clique_size",
    "move_projection_effect",
    "mutation_distance",
    "necklace_from_perm",
    "normalize_p4",
    "p4_counts",
    "perm_from_necklace",
    "phi",
    "phi_subset",
    "positroid_contains",
    "purity_report",
    "rank_formula",
    "reduce_pair",
    "surrounds",
    "tau_kn",
    "unbalanced_witness",
]

SOURCE_LINES = 2768

OPTIONS = {
    "check": ["--a", "--b", "--n"],
    "chord": ["--n", "--u", "--v"],
    "distance": ["--i", "--j", "--method", "--n"],
    "domain": ["--format", "--i", "--j", "--n"],
    "explore": ["--budget", "--format", "--k", "--n", "--seed", "--split"],
    "lr": ["--chains", "--n"],
    "mutdist": ["--big", "--budget", "--i", "--j", "--n"],
    "necklace": ["--a", "--colors", "--k", "--n", "--perm"],
    "octahedron": ["--a", "--n", "--p"],
    "purity": ["--format", "--i", "--j", "--k", "--n", "--powerset"],
}


def test_exports_are_pinned():
    names = sorted(
        name
        for name in dir(weaksep)
        if not name.startswith("_") and not isinstance(getattr(weaksep, name), types.ModuleType)
    )
    assert names == EXPORTS
    assert len(EXPORTS) == 51


def test_cli_options_are_pinned():
    verbs = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    options = {
        verb: sorted(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
        for verb, p in verbs.items()
    }
    assert options == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 41


def test_source_lines_are_capped():
    source = Path(weaksep.__file__).parent.glob("*.py")
    assert sum(len(p.read_text().splitlines()) for p in source) <= SOURCE_LINES


def test_only_ground_lists_masks():
    # every domain lists through ground._whole_grid or ground._power_set, which hold the cap,
    # and every filtered domain walks ground's cached grid rather than the grid's masks one by one
    listing = ("range(1 <<", "range(2 <<", "_k_subset_masks", "_check_power_set")
    for path in sorted(Path(weaksep.__file__).parent.glob("*.py")):
        if path.name != "ground.py":
            text = path.read_text()
            assert not [s for s in listing if s in text], path.name
            assert path.name not in ("domains.py", "necklaces.py") or "_whole_grid" not in text, path.name


def test_only_ground_numbers_and_caches_grids():
    # one module numbers the grid and one cache holds it: ground._grid, which mutations reads
    root = Path(weaksep.__file__).parent
    assert [p.name for p in sorted(root.glob("*.py")) if "lru_cache" in p.read_text()] == ["ground.py"]
    tree = ast.parse((root / "mutations.py").read_text())
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    named |= {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "comb" not in named


def test_only_ground_rotates_masks():
    # Subset.rotate and ground._arc are the only modular rotations of a mask
    for path in sorted(Path(weaksep.__file__).parent.glob("*.py")):
        if path.name != "ground.py":
            assert ">> (n -" not in path.read_text(), path.name


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # the package's __init__ imports are its exports, so it is left out
    root = Path(weaksep.__file__).parent
    paths = [p for p in root.glob("*.py") if p.name != "__init__.py"]
    for folder in (Path(__file__).parent, root.parent.parent / "demos"):
        paths += folder.glob("*.py")
    assert [bad for path in sorted(paths) for bad in _unused_imports(path)] == []


def _unused_parameters(path: Path) -> list[str]:
    bad = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            body = node.body if isinstance(node.body, list) else [node.body]
            names = (n for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name))
            read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
            bad += [f"{path.name}:{node.lineno}: {p.arg}" for p in params if p.arg not in read | {"self", "cls"}]
    return bad


def test_no_unused_parameters():
    # a parameter no body reads is a dead input every caller still has to pass
    paths = sorted(Path(weaksep.__file__).parent.glob("*.py"))
    assert [bad for path in paths for bad in _unused_parameters(path)] == []
