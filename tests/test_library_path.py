"""Every command runs one library path: sample_phase_block, then
rescale_points, then Accumulator.add_block.  The per-configuration
functions below remain in their modules only because the benchmark's
traced pipeline (bench/tracing.py) calls them, so no other module of the
package may refer to them: once the benchmark stops calling them, they
can be deleted without touching the rest of src/."""

import ast
import pathlib

import kronphase

SRC = pathlib.Path(kronphase.__file__).parent

# name -> the module that defines it
BENCH_ONLY = {
    "estimate_pair_correlation": "estimators",
    "merge": "estimators",
    "circular_gaps": "estimators",
    "interval_counts": "estimators",
    "triple_window_count": "estimators",
    "spacing_histogram_from_gaps": "estimators",
    "rescale_center": "processes",
    "triple_tensor": "processes",
}


def referenced_names(tree):
    """Every name, attribute, imported name and string constant of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_bench_only_names_have_no_caller_in_src():
    callers = {}
    for path in sorted(SRC.glob("*.py")):
        names = set(referenced_names(ast.parse(path.read_text(encoding="utf-8"))))
        for name in sorted(names & set(BENCH_ONLY)):
            if path.stem != BENCH_ONLY[name]:
                callers.setdefault(name, []).append(path.name)
    assert callers == {}


def test_package_root_exports_the_block_path_only():
    assert all(hasattr(kronphase, name) for name in kronphase.__all__)
    dropped = set(BENCH_ONLY) | {"RescaledConfig", "window", "sample_cue_phases"}
    assert not [name for name in dropped if name in kronphase.__all__ or hasattr(kronphase, name)]
