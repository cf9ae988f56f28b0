"""The package surface: the public names, the modules each subcommand loads,
the README's library example, and the module boundaries inside the package."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import shiftchaos

SRC = Path(shiftchaos.__file__).resolve().parents[1]
README = SRC.parent / "README.md"

# The public names by the submodule that defines them.
PUBLIC = {
    "sequences": [
        "BiSequence", "EventuallyPeriodicSeq", "FiniteWord", "FlippedSeq", "SplicedSeq",
        "UniversalSeq", "as_word", "flip", "locate_block", "periodic", "periodic_point",
        "sequence_from_payload", "sequence_to_payload", "splice", "window_padded",
    ],
    "cylinders": [
        "CylinderSet", "future_cylinder", "nesting_check", "past_cylinder",
        "similarity_identity_check", "two_sided_cylinder", "whole_space",
    ],
    "metric": [
        "DistanceBound", "MetricParams", "check_diameter_condition", "check_separation",
        "cylinder_diameter", "distance", "set_distance", "space_diameter",
    ],
    "certify": [
        "UnstableSetId", "li_yorke_pair", "member_with_future",
        "periodic_density_witness", "poisson_recurrence_witness", "sensitivity_witness",
        "stable_set_convergence", "transitivity_witness", "universal_member",
        "unstable_set_convergence", "verify_certificate",
    ],
    "horseshoe": [
        "EscapeError", "HorseshoeParams", "PlanePoint", "conjugacy_check", "horseshoe_inverse",
        "horseshoe_map", "itinerary", "point_from_itinerary", "rectangle_lattice",
        "verify_hyperbolic_conditions",
    ],
}
HOMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_all_is_the_pinned_public_api():
    assert len(shiftchaos.__all__) == 56
    assert shiftchaos.__all__ == sorted([*PUBLIC, *(name for _, name in HOMES)])


@pytest.mark.parametrize("module, name", HOMES, ids=[name for _, name in HOMES])
def test_public_name_is_the_submodule_attribute(module, name):
    assert getattr(shiftchaos, name) is getattr(importlib.import_module(f"shiftchaos.{module}"), name)


@pytest.mark.parametrize("module", list(PUBLIC))
def test_public_submodule_name_is_the_submodule(module):
    assert getattr(shiftchaos, module) is importlib.import_module(f"shiftchaos.{module}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        shiftchaos.no_such_name
    with pytest.raises(ImportError):
        from shiftchaos import no_such_name  # noqa: F401


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from shiftchaos import *", namespace)
    assert set(shiftchaos.__all__) <= namespace.keys()
    assert namespace["distance"] is shiftchaos.metric.distance
    assert set(shiftchaos.__all__) <= set(dir(shiftchaos))


# Heavy standard modules no run may load: `dataclasses` pulls in `inspect`,
# `ast`, `dis` and `tokenize`, and the package's values do without them.
UNLOADED = ("dataclasses", "inspect")


def _loaded(tmp_path, code: str) -> set[str]:
    """The shiftchaos modules a fresh interpreter holds after running `code`
    in `tmp_path`; the run must not have loaded any module of `UNLOADED`."""
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    script = ("import sys\n_start = set(sys.modules)\n" + code + "\n"
              f"print('UNLOADED', *sorted(set({UNLOADED!r}) & (sys.modules.keys() - _start)))\n"
              "print('MODULES', *sorted(m for m in sys.modules if m.startswith('shiftchaos')))")
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)}, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    unloaded, last = (line.split() for line in result.stdout.splitlines()[-2:])
    assert unloaded == ["UNLOADED"], f"the run loaded {unloaded[1:]}"
    assert last[0] == "MODULES"
    return set(last[1:])


def _cli(*argv: str) -> str:
    return f"from shiftchaos.cli import main\nassert main({list(argv)!r}) == 0"


def test_import_loads_no_submodule(tmp_path):
    assert _loaded(tmp_path, "import shiftchaos") == {"shiftchaos"}


def test_symbolic_orbit_loads_neither_certify_nor_horseshoe(tmp_path):
    loaded = _loaded(tmp_path, _cli("orbit", "--start", "universal:3", "--steps", "50"))
    assert {"shiftchaos.cli", "shiftchaos.metric"} <= loaded
    assert not loaded & {"shiftchaos.certify", "shiftchaos.horseshoe"}


def test_planar_orbit_loads_horseshoe_but_not_certify(tmp_path):
    loaded = _loaded(tmp_path, _cli("orbit", "--start", "point:0,0", "--steps", "5"))
    assert "shiftchaos.horseshoe" in loaded and "shiftchaos.certify" not in loaded


def test_certify_and_its_verification_do_not_load_horseshoe(tmp_path):
    (tmp_path / "small.cfg").write_text("sets = 1\ntargets = 1\nhorizon = 20\n")
    loaded = _loaded(tmp_path, _cli("certify", "--config", "small.cfg", "--out", "c")
                     + "\nassert main(['--verify', 'c/li_yorke.json']) == 0")
    assert "shiftchaos.certify" in loaded and "shiftchaos.horseshoe" not in loaded


def test_horseshoe_does_not_load_certify(tmp_path):
    loaded = _loaded(tmp_path, _cli("horseshoe", "--k", "1", "--n", "1", "--out", "h"))
    assert "shiftchaos.horseshoe" in loaded and "shiftchaos.certify" not in loaded


def test_verifying_a_horseshoe_report_loads_horseshoe(tmp_path):
    loaded = _loaded(tmp_path, _cli("horseshoe", "--k", "1", "--n", "1", "--out", "h")
                     + "\nassert main(['--verify', 'h/conjugacy_report.json']) == 0")
    assert {"shiftchaos.certify", "shiftchaos.horseshoe"} <= loaded


def test_readme_library_example_runs(capsys):
    match = re.search(r"## Library example\s+```python\n(.*?)```", README.read_text(), re.S)
    assert match, "README has no library example"
    exec(compile(match.group(1), str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.strip().isdigit()


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_references(path: Path, modules: set[str]) -> list[str]:
    """The private names one package module takes from its siblings: every
    relative ``from .x import _name``, and every ``alias._name`` where
    ``alias`` is a sibling module bound by ``from . import x [as alias]``."""
    tree = ast.parse(path.read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    found = [f"{path.stem}: from .{node.module} import {alias.name}"
             for node in imports if node.module for alias in node.names if _private(alias.name)]
    siblings = {alias.asname or alias.name: alias.name
                for node in imports if not node.module
                for alias in node.names if alias.name in modules}
    found += [f"{path.stem}: {node.value.id}.{node.attr}"
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and _private(node.attr)
              and isinstance(node.value, ast.Name) and node.value.id in siblings]
    return found


def test_no_private_name_crosses_a_module_boundary():
    # each decision lives behind one module: a sibling reads only public names
    paths = sorted((SRC / "shiftchaos").glob("*.py"))
    modules = {path.stem for path in paths}
    assert [ref for path in paths for ref in _private_references(path, modules)] == []
