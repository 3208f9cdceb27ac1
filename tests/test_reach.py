"""Every public function and method of ``semtrack`` is reached by a run, or
it is kept below with the reason.

A public function or method, one whose name does not start with ``_``,
defined at the top level of a module in ``src/semtrack`` or in one of its
top-level classes, must be named by the program: somewhere in
``src/semtrack``, or in the benchmark, ``perfbench`` outside its tests. A
name counts wherever the code reads it, as a bare name, an attribute or a
string (the benchmark's tracer names the methods it wraps as strings), but
not in an import or in ``__all__``, which only bind or list it. Tests never
count: what only a test reaches goes, or stays in :data:`KEPT` with the test
oracle that calls it or the ROADMAP item that will.

The match is by name alone, so a function whose name the program also uses
for something else (``TrackSet.write`` and a file's ``write``) passes
whether or not a run reaches it. The guard finds the names nothing mentions,
not every path no run takes.

A module that has an ``__all__`` lists in it exactly what the module offers,
so a function that moves out cannot stay listed and a new one cannot be left
out.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ROOT / "src" / "semtrack"

# qualified name -> why it stays although no run reaches it
KEPT = {
    "scenes.crossing_preset": "ROADMAP item 1: its association-hard workloads",
    "experiment.run_sweep": "ROADMAP items 1 and 10: the seed sweep and the CLI's sweep",
    "experiment.ablation_trend": "ROADMAP item 10: the CLI's sweep command",
    "experiment.alpha_sweep": "ROADMAP item 10: the CLI's sweep command",
    "experiment.ratio_sweep": "ROADMAP items 2 and 10: the clean-video ratio sweep",
    "config.ExperimentConfig.save": "ROADMAP item 10: a run directory's config snapshot",
    "config.ExperimentConfig.load": "ROADMAP item 10: a run directory's config snapshot",
    "tracker.TrackerModel.save": "ROADMAP item 10: a run directory's model file",
    "tracker.TrackerModel.load": "ROADMAP item 10: a run directory's model file",
    "training.write_training_log": "ROADMAP item 10: a run directory's training CSV",
    "tracker.TrackerModel.tracker_parameter_count": "ROADMAP item 10: the metric "
                                                    "report's parameter counts",
    "tracker.TrackerModel.added_parameter_count": "ROADMAP item 10: the metric "
                                                  "report's parameter counts",
}


def public_definitions() -> dict[str, str]:
    """Qualified name (``module.function`` or ``module.Class.method``) ->
    bare name, of every public function and method in ``src/semtrack``."""
    found = {}
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner, members = path.stem, [node]
            if isinstance(node, ast.ClassDef):
                owner, members = f"{path.stem}.{node.name}", node.body
            for member in members:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    found[f"{owner}.{member.name}"] = member.name
    return found


def names_read(tree: ast.Module) -> set[str]:
    """Every name a module reads: bare names, attributes and identifier
    strings, outside ``__all__``."""
    listed = {id(n) for node in ast.walk(tree) if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)
              for n in ast.walk(node.value)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in listed:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def program_reads() -> set[str]:
    """Every name ``src/semtrack`` and the benchmark, without its tests, read."""
    bench = [p for p in (ROOT / "perfbench").rglob("*.py") if "tests" not in p.parts]
    return set().union(*(names_read(ast.parse(p.read_text(encoding="utf-8")))
                         for p in sorted(SOURCES.glob("*.py")) + bench))


def test_the_scan_sees_the_program():
    read = program_reads()
    definitions = public_definitions()
    # a function, a method and a property; and a method the tracer names as a string
    assert {"autodiff.matmul", "tracker.TrackerModel.encode_queries",
            "autodiff.Matrix.rows", "autodiff.Tape.backward"} <= definitions.keys()
    assert {"matmul", "encode_queries", "rows", "backward"} <= read


def test_a_name_in_all_is_not_read():
    # ``__all__`` lists a name and reaches nothing; a name read elsewhere counts
    assert names_read(ast.parse('__all__ = ["listed"]')) == {"__all__"}
    assert names_read(ast.parse('__all__ = ["x"]\nx()')) == {"__all__", "x"}


def exported(tree: ast.Module) -> set[str]:
    """What a module offers: its public top-level functions and classes, and
    the names it imports from ``semtrack``, which it passes on."""
    names = {node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    names |= {alias.asname or alias.name for node in tree.body
              if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("semtrack")
              for alias in node.names}
    return {name for name in names if not name.startswith("_")}


def test_every_all_lists_exactly_what_its_module_offers():
    checked = []
    for path in sorted(SOURCES.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        listed = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
        if listed:
            (names,) = listed
            assert sorted(names) == sorted(set(names)) == sorted(exported(tree)), path.name
            checked.append(path.stem)
    assert {"__init__", "autodiff"} <= set(checked)


def test_every_public_function_and_method_is_reached_by_a_run():
    read = program_reads()
    unreached = {qualified for qualified, name in public_definitions().items()
                 if name not in read}
    assert sorted(unreached - KEPT.keys()) == []
    # a kept name that gains a caller, or is deleted, leaves the list
    assert sorted(KEPT.keys() - unreached) == []
