"""Every field of a configuration object is set by the project — pinned
by walking the source, so an option nothing sets shows up here instead
of lingering as a knob whose one value is its default.

"Set" means written somewhere under ``src/``, ``examples/``,
``darmbench/`` or ``benchmarks/``: a keyword (or positional argument, or
literal ``**{...}`` key) of a call to the class, a keyword of a
``dataclasses.replace`` call, or an assignment to an attribute of that
name on anything but ``self``.  The last two cannot see the receiver's
type, so they count for every gated class with a field of that name.
"""

import ast
import dataclasses
from pathlib import Path

import repro
from repro.core import CFMConfig
from repro.scheduler import RecyclePolicy
from repro.serve import ServerConfig
from repro.simt import MachineConfig

REPO = Path(repro.__file__).parents[2]
SETTERS = tuple(REPO / d for d in ("src", "examples", "darmbench",
                                   "benchmarks"))
CONFIGS = (CFMConfig, MachineConfig, ServerConfig, RecyclePolicy)

#: fields nothing in the project sets, on purpose
UNSET_FIELDS = {
    "CFMConfig.max_iterations":
        "Algorithm 1's iteration bound; stopping after meld k is the "
        "profitability study of the ROADMAP item 'Does the profitability "
        "model predict the machine?', and tests drive it",
    "MachineConfig.latency":
        "the simulator's latency table; darmbench reads it to lower "
        "programs and key stored ones, and tests vary it",
    "MachineConfig.max_warp_steps":
        "non-termination guard; the simulator tests drive it low",
}


def _fields():
    """``{class name: [field name, ...]}`` in declaration order."""
    return {cls.__name__: [f.name for f in dataclasses.fields(cls)]
            for cls in CONFIGS}


def _called_name(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _set_fields(trees, fields):
    """``{"Class.field"}`` set somewhere in ``trees``."""
    by_name = {}
    for cls, names in fields.items():
        for name in names:
            by_name.setdefault(name, []).append(cls)
    found = set()

    def any_class(name):
        found.update(f"{cls}.{name}" for cls in by_name.get(name, ()))

    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called = _called_name(node)
                if called in fields:
                    names = fields[called]
                    found.update(f"{called}.{name}"
                                 for name in names[:len(node.args)])
                    for kw in node.keywords:
                        if kw.arg is not None:
                            found.add(f"{called}.{kw.arg}")
                        elif isinstance(kw.value, ast.Dict):
                            found.update(
                                f"{called}.{key.value}"
                                for key in kw.value.keys
                                if isinstance(key, ast.Constant))
                elif called == "replace":
                    for kw in node.keywords:
                        if kw.arg is not None:
                            any_class(kw.arg)
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute) and not (
                        isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    any_class(target.attr)
    return found


def _trees():
    for root in SETTERS:
        for path in sorted(root.rglob("*.py")):
            yield ast.parse(path.read_text())


def test_every_config_field_is_set_somewhere():
    fields = _fields()
    every = {f"{cls}.{name}" for cls, names in fields.items()
             for name in names}
    unset = every - _set_fields(_trees(), fields)
    assert unset == set(UNSET_FIELDS), (
        "unset and not allowed: "
        f"{sorted(unset - set(UNSET_FIELDS))}; allowed but set (or gone): "
        f"{sorted(set(UNSET_FIELDS) - unset)}")


def test_the_walk_sees_each_spelling():
    fields = {"CFMConfig": ["a", "b", "c", "d", "e", "f"]}
    source = ("CFMConfig(1, b=2)\n"
              "repro.CFMConfig(**{'c': 3})\n"
              "dataclasses.replace(config, d=4)\n"
              "config.e = 5\n"
              "self.f = 6\n")
    assert _set_fields([ast.parse(source)], fields) == {
        "CFMConfig.a", "CFMConfig.b", "CFMConfig.c", "CFMConfig.d",
        "CFMConfig.e"}
