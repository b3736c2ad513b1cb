"""The reach report's allowlist names only functions that exist.

``tools/reach.py`` explains each function no program but a test runs with
a line in its ``KEPT`` table.  A key that no longer names a ``src/``
function (renamed, moved or deleted) would hide nothing and explain
nothing, so it fails here.  Static: no entry point is run or traced.
"""

import ast
import importlib.util
import pathlib


def load_reach():
    path = pathlib.Path(__file__).parent.parent / "tools" / "reach.py"
    spec = importlib.util.spec_from_file_location("reach", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_kept_key_names_a_src_function():
    reach = load_reach()
    names = {f"{module}:{name}" for module, name, _, _ in reach.functions().values()}
    assert sorted(key for key in reach.KEPT if key not in names) == []
    assert all(reason.strip() for reason in reach.KEPT.values())


def test_every_kept_reason_is_one_line():
    reach = load_reach()
    assert [key for key, reason in reach.KEPT.items() if "\n" in reason] == []


def test_kept_functions_print_their_reason():
    reach = load_reach()
    tags = {
        f"{module}:{name}": tag for module, name, _, tag in reach.functions().values()
    }
    assert {key: tags[key] for key in reach.KEPT} == {
        key: f" [kept: {reason}]" for key, reason in reach.KEPT.items()
    }


def test_tag_recognises_stubs_and_dunders():
    reach = load_reach()
    source = '''
def __len__(self):
    return 0

def interface(self):
    """Subclasses answer this."""
    raise NotImplementedError

def hook(self):
    pass

def work(self):
    return 1
'''
    tags = {node.name: reach.tag(node, f"x.py:{node.name}") for node in ast.parse(source).body}
    assert tags == {"__len__": " [dunder]", "interface": " [stub]", "hook": " [stub]", "work": ""}


def test_tier_two_runs_the_ci_tools():
    reach = load_reach()
    labels = [label for label, _ in reach.tiers("scratch")]
    assert labels == ["bench + examples", "+ E-series + tools", "+ tier-1"]
    tools = [command[1:] for command, _ in reach.tiers("scratch")[1][1][1:]]
    assert [(pathlib.Path(command[0]).name, command[1:]) for command in tools] == [
        ("trace2chrome.py", ["--selfcheck"]),
        ("check_fault_plan.py", []),
    ]


def test_every_entry_point_script_exists():
    reach = load_reach()
    scripts = [
        argument
        for _, commands in reach.tiers("scratch")
        for command, _ in commands
        for argument in command
        if argument.endswith(".py")
    ]
    assert scripts
    assert [script for script in scripts if not pathlib.Path(script).is_file()] == []


def test_reached_collects_every_dump(tmp_path):
    reach = load_reach()
    (tmp_path / "1.txt").write_text("a.py:f\nb/c.py:C.g\n")
    (tmp_path / "2.txt").write_text("a.py:f\n")
    assert reach.reached(tmp_path) == {"a.py:f", "b/c.py:C.g"}


def test_keys_are_qualified_names_no_line_shift_moves(tmp_path):
    """The table's keys spell each function as its ``__qualname__`` (what
    the traced ``code.co_qualname`` prints), so an edit that moves lines
    while the entry points run leaves every key in place."""
    reach = load_reach()
    source = """
class Outer:
    class Inner:
        def method(self):
            pass

    @staticmethod
    def helper():
        def local():
            pass

        return local


def top():
    pass
"""
    (tmp_path / "mod.py").write_text(source)
    keys = set(reach.functions(tmp_path))
    namespace = {}
    exec(compile(source, "mod.py", "exec"), namespace)
    outer = namespace["Outer"]
    defined = (outer.Inner.method, outer.helper, outer.helper(), namespace["top"])
    assert keys == {f"mod.py:{function.__qualname__}" for function in defined}
    (tmp_path / "mod.py").write_text("import os\n\n\n" + source)
    assert set(reach.functions(tmp_path)) == keys
