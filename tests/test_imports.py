"""Every imported name is used: no module under src/ or tests/ imports a
name that its code never mentions.  A stdlib stand-in for a linter's
unused-import rule.

Every definition in src/ runs: each function, class and public method
there is named by some code in src/ outside its own body, or is listed in
KEPT with the reason it stays.  Code that only tests call belongs in the
tests.

Every result field is read: each annotated field of a class in src/, and
each attribute its methods store on self, is read as an attribute
somewhere in src/ or tests/, or UNREAD_FIELDS gives the reason it stays.

Every option is read: each command's handler names each of its options as
args.<dest>, or INERT gives the reason it stays.

Every option range lives in the option table: no command's handler raises
a UsageError of its own, unless REFUSALS gives the reason no option row's
range can hold that check.

Each command loads only what it runs: importing the package loads no
submodule, and survival, bound and the torus commands (duality,
bcpp-check) never load numpy; those commands and ode load neither
OpenSSL (_hashlib) nor logging, and importing the CLI loads neither
configparser, json nor bcpp.
These run in a fresh interpreter, since this one has loaded everything."""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

import contact_mf
from contact_mf import cli
from contact_mf.errors import UsageError

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, as 'name (line n)'.  A
    string in __all__ counts as a read; __future__ imports are skipped."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_checker_flags_unread_imports_only():
    source = (
        "import os.path\nimport json as j\nfrom dataclasses import astuple, dataclass\n"
        "from typing import NamedTuple\n__all__ = ['NamedTuple']\nos.path.join(j.dumps(1))\n"
    )
    assert unused_imports(source) == ["astuple (line 3)", "dataclass (line 3)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


SRC = sorted((ROOT / "src" / "contact_mf").glob("*.py"))

# 'module.name' of each definition in src/ that nothing there names, and why it stays
_TRACED = ("bench/tracing.py traces it by name (TARGETS) until ROADMAP item 1 retargets the "
           "tracing, or item 6 retires it")
KEPT = {
    "contact.estimate_survival": _TRACED,
    "contact.duality_check": _TRACED,
    "bcpp.first_moment_check": _TRACED,
    "bcpp.pair_moment_mc": "the bcpp side of acceptance criterion 10",
}


def _mentions(node: ast.AST) -> Counter:
    """How often each name is read below node, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def uncalled_definitions(sources: dict[str, str]) -> list[str]:
    """'module.name' of each top-level function or class, and each public
    method ('module.Class.name'), that no source names outside the
    definition's own body.  By name only: an attribute of the same name on
    any object counts as a use; a string in __all__ or an import does not.
    __init__ is searched, but its one definition, the module __getattr__
    hook, is not checked."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    mentions = sum(map(_mentions, trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if module == "__init__" or not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{item.name}", item) for item in node.body
                         if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
            for name, definition in defs:
                leaf = name.rpartition(".")[2]
                if mentions[leaf] == _mentions(definition)[leaf]:
                    dead.append(f"{module}.{name}")
    return sorted(dead)


def test_checker_flags_definitions_named_only_in_their_own_body():
    sources = {
        "a": "def f(n):\n    return f(n - 1)\nclass C:\n    def used(self): pass\n"
             "    def spare(self): pass\n    def _private(self): pass\n__all__ = ['f']\n",
        "b": "from a import C\nC().used()\n",
    }
    assert uncalled_definitions(sources) == ["a.C.spare", "a.f"]


def test_every_definition_in_src_is_named_in_src():
    sources = {path.stem: path.read_text() for path in SRC}
    assert uncalled_definitions(sources) == sorted(KEPT)


# 'module.Class.field' of each field in src/ that nothing reads, and why it stays
UNREAD_FIELDS = {
    "contact.SurvivalEstimate.threshold_escape_bound":
        "contact must keep calling threshold_error_bound, which bench/tracing.py traces by "
        "name (TARGETS) until ROADMAP item 1 retargets it; item 7 may read the field",
}


def _fields(cls: ast.ClassDef) -> set[str]:
    """The annotated fields of a class body, and the attributes its
    methods store on self."""
    annotated = {item.target.id for item in cls.body
                 if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
    stored = {node.attr for node in ast.walk(cls)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"}
    return annotated | stored


def unread_fields(class_sources: dict[str, str], readers: list[str]) -> list[str]:
    """'module.Class.field' of each field of a top-level class in
    class_sources, annotated or stored on self, that no reader reads as an
    attribute.  By name only: a read of the same name on any object
    counts; a store does not."""
    reads = {node.attr for text in readers for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{module}.{node.name}.{field}"
                  for module, text in class_sources.items()
                  for node in ast.parse(text).body if isinstance(node, ast.ClassDef)
                  for field in _fields(node) - reads)


def test_checker_flags_fields_never_read_as_attributes():
    sources = {"a": "class R:\n    x: int\n    y: int = 0\n    z: int\n    w = 1\n"
                    "def f(r):\n    r.z = 1\n    return r.x\n"
                    "class S:\n    def __init__(self, o):\n        self.kept = self.gone = 1\n"
                    "        o.other = 2\n    def get(self):\n        return self.kept\n"}
    assert unread_fields(sources, [*sources.values(), "print(R(1, 2, 3).y)"]) == [
        "a.R.z", "a.S.gone"]


def test_every_result_field_is_read():
    sources = {path.stem: path.read_text() for path in SRC}
    assert unread_fields(sources, [path.read_text() for path in FILES]) == sorted(UNREAD_FIELDS)


# options that no handler names as args.<dest>, and why each is kept
_BENCH_ARGV = "the benchmark's survival argv passes it; ROADMAP item 1 deletes it"
INERT = {("survival", "h_walks"): _BENCH_ARGV, ("survival", "h_max_steps"): _BENCH_ARGV}


def unread_options(handler, dests) -> list[str]:
    """Each of dests that handler's source never reads as args.<dest>.
    out, format and config count as read: _emit and main read them."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(handler)))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    return sorted(set(dests) - read - {"out", "format", "config"})


def _reads_alpha(args, other):
    return args.alpha + len(args.out) + other.beta


def test_checker_flags_options_their_handler_never_reads():
    assert unread_options(_reads_alpha, ["alpha", "beta", "out", "config"]) == ["beta"]


def test_every_option_is_read_by_its_handler():
    unread = []
    for command, (handler, *_) in cli._COMMANDS.items():
        # the options as the command's parser builds them
        dests = vars(cli._parse([command])).keys() - {"command"}
        unread += [(command, dest) for dest in unread_options(handler, dests)]
    assert sorted(unread) == sorted(INERT)


# each UsageError a handler raises itself, as (command, message with each
# formatted value as {}), and why no option row's range can hold it
_CONFIG_LEVEL = "a refusal of the config file itself, which no option row describes"
REFUSALS = {
    ("campaign", "campaign requires --config with one section per subcommand"): _CONFIG_LEVEL,
    ("campaign", "config file {} has no section to run"): _CONFIG_LEVEL,
    ("campaign", "config section [{}] is not a subcommand"): _CONFIG_LEVEL,
}


def handler_refusals(handler) -> list[str]:
    """The message of each UsageError that handler's own source raises:
    each formatted value, or a message that is no literal, as {}, and a
    bare raise as ''."""
    messages = []
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(handler)))):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        call = node.exc if isinstance(node.exc, ast.Call) else ast.Call(node.exc, [], [])
        if isinstance(call.func, ast.Name) and call.func.id == "UsageError":
            (text,) = call.args or [ast.Constant("")]
            parts = text.values if isinstance(text, ast.JoinedStr) else [text]
            messages.append("".join(p.value if isinstance(p, ast.Constant) else "{}"
                                    for p in parts))
    return messages


def _refuses(args):
    if args.low < args.floor:
        raise UsageError(f"--low must be >= {args.floor}, got {args.low}")
    if args.name:
        raise UsageError(args.name)
    if args.bare:
        raise UsageError
    raise ValueError("not a usage error")


def test_checker_flags_each_usage_error_a_handler_raises():
    assert handler_refusals(_refuses) == ["--low must be >= {}, got {}", "{}", ""]


def test_handlers_hold_no_check_an_option_row_could():
    raised = [(command, message) for command, (handler, *_) in cli._COMMANDS.items()
              for message in handler_refusals(handler)]
    assert sorted(raised) == sorted(REFUSALS)


def _fresh(code: str):
    """The JSON value that `code`, run in a new interpreter, prints last."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_submodule():
    loaded = _fresh("import json, sys, contact_mf\n"
                    "print(json.dumps([m for m in sys.modules if m.startswith('contact_mf.')]))")
    assert loaded == []


def test_every_exported_name_is_its_module_attribute():
    # each name is resolved on first access, to its defining module's object
    wrong = _fresh(
        "import importlib, json, contact_mf\n"
        "early = [n for n in contact_mf.__all__ if n in vars(contact_mf)]\n"
        "home = lambda obj: importlib.import_module(obj.__module__)\n"
        "late = [n for n in contact_mf.__all__\n"
        "        if getattr(contact_mf, n) is not getattr(home(getattr(contact_mf, n)), n)]\n"
        "print(json.dumps([early, late]))"
    )
    assert wrong == [[], []]
    # the README's library example imports only exported names
    readme = (ROOT / "README.md").read_text()
    names = re.findall(r"\w+", re.search(r"from contact_mf import \((.*?)\)", readme, re.S)[1])
    assert names and set(names) <= set(contact_mf.__all__)


def test_survival_bound_and_torus_commands_never_load_numpy():
    # ode is the control: the same check reads True once a command uses numpy
    seen = _fresh(
        "import json, sys\n"
        "import contact_mf.cli as cli\n"
        "seen = ['numpy' in sys.modules]\n"
        "pool = ['--jobs', '1', '--seed', '1']\n"
        "for argv in (['survival', '--d', '4,6', '--trials', '5'] + pool,\n"
        "             ['bound', '--d', '6'], ['duality', '--trials', '20'] + pool,\n"
        "             ['bcpp-check', '--trials', '5'] + pool, ['ode', '--t-end', '1']):\n"
        "    assert cli.main(argv) == 0\n"
        "    seen.append('numpy' in sys.modules)\n"
        "print(json.dumps(seen))"
    )
    assert seen == [False, False, False, False, False, True]


def test_commands_load_no_openssl_logging_or_unused_stdlib():
    # hitting's Monte Carlo is the control: numpy.random imports secrets,
    # which loads _hashlib, so the same check reads True there
    seen = _fresh(
        "import sys\n"
        "import contact_mf.cli as cli\n"
        "bare = [m in sys.modules for m in\n"
        "        ('configparser', 'json', 'contact_mf.bcpp', '_hashlib', 'logging')]\n"
        "seen = []\n"
        "pool = ['--jobs', '1', '--seed', '1']\n"
        "for argv in (['survival', '--d', '4,6', '--trials', '5'] + pool,\n"
        "             ['bound', '--d', '6'], ['duality', '--trials', '20'] + pool,\n"
        "             ['bcpp-check', '--trials', '5'] + pool, ['ode', '--t-end', '1'],\n"
        "             ['hitting', '--method', 'monte-carlo', '--walks', '10',\n"
        "              '--max-steps', '10', '--seed', '1']):\n"
        "    assert cli.main(argv) == 0\n"
        "    seen.append(['_hashlib' in sys.modules, 'logging' in sys.modules])\n"
        "import json\n"
        "print(json.dumps([bare, seen]))"
    )
    assert seen == [[False] * 5, [[False, False]] * 5 + [[True, False]]]
