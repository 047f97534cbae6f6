"""Source layout rules that no single behaviour test would catch."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ssl_lab"


def private_imports(path):
    """(line, name) of every `_name` a module imports from another ssl_lab module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("ssl_lab"):
            continue
        for alias in node.names:
            dunder = alias.name.startswith("__") and alias.name.endswith("__")
            if alias.name.startswith("_") and not dunder:
                found.append((node.lineno, alias.name))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_cross_module_private_imports(path):
    assert private_imports(path) == []


def test_rule_catches_a_private_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from .experiments import _helper, public\nfrom . import __version__\n")
    assert private_imports(module) == [(1, "_helper")]


def node_sites(path, matches):
    """(line, enclosing function) of every node of a module for which matches(node) holds."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if matches(node):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def registry_fits(path):
    """(line, enclosing function) of every `METHODS[...].fit` in a module."""
    return node_sites(path, lambda node: (
        isinstance(node, ast.Attribute)
        and node.attr == "fit"
        and isinstance(node.value, ast.Subscript)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "METHODS"
    ))


def test_only_fit_methods_fits_from_the_registry():
    sites = [(path.name, function) for path in sorted(SRC.glob("*.py"))
             for _, function in registry_fits(path)]
    assert sites == [("experiments.py", "fit_methods")]


def test_rule_catches_a_second_registry_loop(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def fit_methods(ctx, tags):\n"
        "    return [METHODS[tag].fit(ctx) for tag in tags]\n"
        "\n"
        "def own_loop(ctx, tags):\n"
        "    for tag in tags:\n"
        "        theta, extra = METHODS[tag].fit(ctx)\n"
    )
    assert registry_fits(module) == [(2, "fit_methods"), (6, "own_loop")]


def freezes_an_array(node):
    """A `setflags` call, or an assignment to an array's flags (`a.flags.writeable = False`)."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Attribute) and node.func.attr == "setflags"
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(
        isinstance(part, ast.Attribute) and part.attr == "flags"
        for target in targets for part in ast.walk(target)
    )


def test_only_gmm_freeze_freezes_arrays():
    """Producers freeze what they make through gmm.freeze, which readonly trusts."""
    found = [(path.name, function) for path in sorted(SRC.glob("*.py"))
             for _, function in node_sites(path, freezes_an_array)]
    assert found == [("gmm.py", "freeze")]


def test_rule_catches_a_second_freeze(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def freeze(a):\n"
        "    a.setflags(write=False)\n"
        "\n"
        "def by_flags(a):\n"
        "    a.flags.writeable = False\n"
        "    a.flags['WRITEABLE'] = False\n"
        "    return a.flags.writeable, a.setflags\n"
    )
    found = node_sites(module, freezes_an_array)
    assert found == [(2, "freeze"), (5, "by_flags"), (6, "by_flags")]


def linear_solves(node):
    """A reference to numpy's dense solve: `<...>linalg.solve`, or `solve` imported from it."""
    if isinstance(node, ast.Attribute):
        return node.attr == "solve" and ast.unparse(node.value).endswith("linalg")
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").endswith("linalg") and any(
            alias.name == "solve" for alias in node.names
        )
    return False


def test_only_the_newton_kernels_solve():
    """_newton (one problem) and _newton_grid (a stacked ridge grid) are the only
    Newton loops; a third one would show up here as another solve."""
    found = sorted({(path.name, function) for path in sorted(SRC.glob("*.py"))
                    for _, function in node_sites(path, linear_solves)})
    assert found == [("estimators.py", "_newton"), ("estimators.py", "_newton_grid")]


def test_rule_catches_a_second_newton_loop(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import numpy as np\n"
        "from numpy.linalg import solve\n"
        "\n"
        "def _newton(h, g):\n"
        "    return np.linalg.solve(h, -g)\n"
        "\n"
        "def own_loop(h, g):\n"
        "    return numpy.linalg.solve(h, g), np.linalg.norm(g), solve\n"
    )
    found = node_sites(module, linear_solves)
    assert found == [(2, None), (5, "_newton"), (8, "own_loop")]


def is_integrality_test(node):
    """`.is_integer`, `numbers.Integral` (or a bare `Integral`) or `np.integer`."""
    if isinstance(node, ast.Name):
        return node.id == "Integral"
    return isinstance(node, ast.Attribute) and (
        node.attr == "is_integer"
        or ast.unparse(node) in ("numbers.Integral", "np.integer", "numpy.integer")
    )


def integrality_tests(path):
    """(line, function) of each integrality test (is_integrality_test) in a function of a
    module that raises ValidationError: a whole-number check of its own."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def raises_validation(function):
        return any(isinstance(node, ast.Raise) and node.exc is not None
                   and "ValidationError" in ast.unparse(node.exc) for node in ast.walk(function))

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node
        if function is not None and is_integrality_test(node) and raises_validation(function):
            found.append((node.lineno, function.name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_check_whole_tests_for_whole_numbers():
    """Every size, seed, cap and index goes through gmm.check_whole, the one count rule."""
    found = {(path.name, function) for path in sorted(SRC.glob("*.py"))
             for _, function in integrality_tests(path)}
    assert found == {("gmm.py", "check_whole")}


def test_rule_catches_a_second_whole_number_test(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import numbers\n"
        "import numpy as np\n"
        "\n"
        "def check_whole(value):\n"
        "    if not isinstance(value, numbers.Integral):\n"
        "        raise ValidationError('not whole')\n"
        "\n"
        "def own_check(value):\n"
        "    if not (isinstance(value, np.integer) or float(value).is_integer()):\n"
        "        raise ValidationError(f'{value} is not whole')\n"
        "\n"
        "def _jsonable(value):\n"
        "    return int(value) if isinstance(value, np.integer) else value\n"
    )
    found = integrality_tests(module)
    assert found == [(5, "check_whole"), (9, "own_check"), (9, "own_check")]


def is_real_number_test(node):
    """`numbers.Real` (or a bare `Real`); an isinstance call whose classes name `float`; a
    call of math.isfinite, math.isinf or math.isnan; or a comparison with math.inf or
    sys.float_info.max."""
    if isinstance(node, ast.Name):
        return node.id == "Real"
    if isinstance(node, ast.Attribute):
        return ast.unparse(node) == "numbers.Real"
    if isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        return any(ast.unparse(side) in ("math.inf", "sys.float_info.max") for side in sides)
    if not isinstance(node, ast.Call):
        return False
    callee = ast.unparse(node.func)
    if callee == "isinstance" and len(node.args) == 2:
        return any(isinstance(n, ast.Name) and n.id == "float" for n in ast.walk(node.args[1]))
    return callee in ("math.isfinite", "math.isinf", "math.isnan")


def real_number_checks(path):
    """(line, qualified function) of each real-number test (is_real_number_test) in the
    condition of an `if` whose body raises ValidationError: a real-number check of its own.
    A test that only filters values, and a check that raises another error (data_io's
    DataFormatError cell checks), is not one; nor is np.isfinite, the array test."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def raises_validation(statements):
        return any(isinstance(node, ast.Raise) and node.exc is not None
                   and "ValidationError" in ast.unparse(node.exc)
                   for statement in statements for node in ast.walk(statement))

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.If) and raises_validation(node.body):
            found.extend((test.lineno, scope) for test in ast.walk(node.test)
                         if is_real_number_test(test))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


#: The real-number checks besides gmm.check_real's: check_whole's type test, the one count
#: rule; std_normal_cdf's, whose x is any finite real, signed, which no [0, most] states;
#: and CellStats's record invariant (its statistics are NaN together or not at all, and an
#: extra may be +inf), which read_results reports as a malformed row.
REAL_CHECKS_BESIDE_THE_RULE = {("gmm.py", "check_whole"), ("gmm.py", "std_normal_cdf"),
                               ("experiments.py", "CellStats.__post_init__")}


def test_only_check_real_tests_for_real_numbers():
    """Every SNR, ridge, tolerance, threshold, weight and ratio goes through gmm.check_real."""
    found = {(path.name, function) for path in sorted(SRC.glob("*.py"))
             for _, function in real_number_checks(path)}
    assert found == {("gmm.py", "check_real"), *REAL_CHECKS_BESIDE_THE_RULE}


def test_rule_catches_a_second_real_number_test(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import math\n"
        "import numbers\n"
        "import numpy as np\n"
        "\n"
        "def check_real(value):\n"
        "    if isinstance(value, bool) or not isinstance(value, numbers.Real):\n"
        "        raise ValidationError('not real')\n"
        "\n"
        "class Config:\n"
        "    def __post_init__(self):\n"
        "        if not (isinstance(self.tol, (int, float)) and math.isfinite(self.tol)):\n"
        "            raise ValidationError('tol must be finite')\n"
        "        if not 0 < self.ratio < math.inf:\n"
        "            raise ValidationError('ratio must be positive')\n"
        "\n"
        "def quiet(values, cells):\n"
        "    kept = [v for v in values if math.isfinite(v)]\n"
        "    if not np.isfinite(kept).all():\n"
        "        raise ValidationError('the array test is not one')\n"
        "    if math.isnan(cells[0]):\n"
        "        raise DataFormatError('a cell check is not one')\n"
        "    return kept if math.isinf(kept[0]) else values\n"
    )
    found = real_number_checks(module)
    assert found == [(6, "check_real"), (11, "Config.__post_init__"),
                     (11, "Config.__post_init__"), (13, "Config.__post_init__")]


def exit_code_paths(path):
    """(line, qualified function) of each `_fail` call outside `main`, and of each try in a
    `_cmd_*` function (or a function nested in one) other than a catch whose body calls
    nothing but compatibility_score: an exit-code path besides main's one mapping."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def calls(statements):
        return {ast.unparse(node.func) for statement in statements
                for node in ast.walk(statement) if isinstance(node, ast.Call)}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_fail" and scope != "main":
            found.append((node.lineno, scope))
        if (isinstance(node, ast.Try) and (scope or "").startswith("_cmd_")
                and calls(node.body) != {"compatibility_score"}):
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_only_main_maps_errors_to_exit_codes():
    """Each command checks, then returns its run; main alone turns an error into exit 2 or 3."""
    assert exit_code_paths(SRC / "cli.py") == []


def test_rule_catches_a_second_exit_code_path(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def _load(path):\n"
        "    try:\n"
        "        return open(path).read()\n"
        "    except OSError as err:\n"
        "        raise ValidationError(err)\n"
        "\n"
        "def _cmd_fit(args):\n"
        "    def run():\n"
        "        try:\n"
        "            compatibility = compatibility_score(args.table)\n"
        "        except SslLabError as err:\n"
        "            compatibility = str(err)\n"
        "        try:\n"
        "            write(compatibility)\n"
        "        except OSError as err:\n"
        "            return _fail(3, err)\n"
        "    return run\n"
        "\n"
        "def _cmd_report(args):\n"
        "    if not args.results:\n"
        "        return _fail(2, 'no results')\n"
        "\n"
        "def main(argv):\n"
        "    try:\n"
        "        run = handler(argv)\n"
        "    except ValidationError as err:\n"
        "        return _fail(2, err)\n"
        "    run()\n"
    )
    assert exit_code_paths(module) == [(13, "_cmd_fit.run"), (16, "_cmd_fit.run"),
                                       (21, "_cmd_report")]


def names_concurrent_futures(node):
    """An import from the concurrent package, an attribute chain through concurrent.futures,
    or a string naming one of its modules."""
    def inside(name):
        return name == "concurrent" or name.startswith("concurrent.")

    if isinstance(node, ast.ImportFrom):
        return inside(node.module or "")
    if isinstance(node, ast.Import):
        return any(inside(alias.name) for alias in node.names)
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and inside(node.value)
    return isinstance(node, ast.Attribute) and ast.unparse(node) == "concurrent.futures"


def test_only_run_sweep_names_concurrent_futures():
    """The process pool and its failures belong to run_sweep, which raises a lost worker as
    an SslLabError, so no other function of src/ imports or names concurrent.futures."""
    found = {(path.name, function) for path in sorted(SRC.glob("*.py"))
             for _, function in node_sites(path, names_concurrent_futures)}
    assert found == {("experiments.py", "run_sweep")}


def test_rule_catches_a_second_pool_user(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import concurrent.futures\n"
        "from concurrent import futures\n"
        "\n"
        "def run_sweep(jobs):\n"
        "    from concurrent.futures import ProcessPoolExecutor\n"
        "    import concurrency, concurrently\n"
        "\n"
        "def main(argv):\n"
        "    try:\n"
        "        run(argv)\n"
        "    except concurrent.futures.BrokenExecutor:\n"
        "        return 3\n"
        "\n"
        "def load():\n"
        "    return importlib.import_module('concurrent.futures.process'), 'concurrently'\n"
    )
    found = node_sites(module, names_concurrent_futures)
    assert found == [(1, None), (2, None), (5, "run_sweep"), (11, "main"), (15, "load")]


def opens_for_writing(node):
    """A call of the builtin open whose mode can write: one with 'w', 'a', 'x' or '+', or one
    that is not a string literal."""
    if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "open"):
        return False
    modes = node.args[1:2] + [keyword.value for keyword in node.keywords if keyword.arg == "mode"]
    if not modes:
        return False
    mode = modes[0]
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(flag in mode.value for flag in "wax+")


def test_only_atomic_writer_opens_files_for_writing():
    """Outputs are written atomically: each file src/ writes goes through data_io.atomic_writer."""
    found = [(path.name, function) for path in sorted(SRC.glob("*.py"))
             for _, function in node_sites(path, opens_for_writing)]
    assert found == [("data_io.py", "atomic_writer")]


def test_rule_catches_a_second_writer(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def atomic_writer(path):\n"
        "    with open(f'{path}.tmp', 'w', newline='') as handle:\n"
        "        yield handle\n"
        "\n"
        "def save(path, text, mode):\n"
        "    open(path).read(), open(path, 'rb'), open(path, mode='r', newline='')\n"
        "    with open(path, mode='a') as handle:\n"
        "        handle.write(text)\n"
        "    return open(path, 'r+b'), open(path, 'xt'), open(path, mode)\n"
    )
    found = node_sites(module, opens_for_writing)
    assert found == [(2, "atomic_writer"), (7, "save"), (9, "save"), (9, "save"), (9, "save")]


#: The fit settings every method fits under, which experiments.FitProtocol alone declares.
PROTOCOL_FIELDS = ("t_grid", "ridge_grid", "self_train_thresholds", "ul_backend", "em_budget")


def protocol_fields(path):
    """(line, class) of each class-body declaration of a PROTOCOL_FIELDS name in a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            targets = ([item.target] if isinstance(item, ast.AnnAssign)
                       else item.targets if isinstance(item, ast.Assign) else [])
            found += [(item.lineno, node.name) for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name) and name.id in PROTOCOL_FIELDS]
    return found


def test_only_fit_protocol_declares_the_fit_settings():
    """A simulated trial and a real table fit under one protocol, declared and checked once."""
    found = [(path.name, cls) for path in sorted(SRC.glob("*.py"))
             for _, cls in protocol_fields(path)]
    assert found == [("experiments.py", "FitProtocol")] * len(PROTOCOL_FIELDS)


def test_rule_catches_a_second_declaration_of_a_fit_setting(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "class FitProtocol:\n"
        "    t_grid: tuple = ()\n"
        "\n"
        "class TrialConfig:\n"
        "    protocol: FitProtocol = FitProtocol()\n"
        "    em_budget: int = 25\n"
        "\n"
        "class Defaults:\n"
        "    ul_backend = ridge_grid = None\n"
        "    def fit(self, t_grid):\n"
        "        self_train_thresholds = t_grid\n"
        "        return self_train_thresholds\n"
    )
    assert protocol_fields(module) == [(2, "FitProtocol"), (6, "TrialConfig"),
                                       (9, "Defaults"), (9, "Defaults")]


MAX_LINE = 100


def long_lines(path):
    """(line, length) of every line in a module longer than MAX_LINE characters."""
    lines = path.read_text().splitlines()
    return [(number, len(line)) for number, line in enumerate(lines, 1) if len(line) > MAX_LINE]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_line_exceeds_the_limit(path):
    assert long_lines(path) == []


def test_rule_catches_a_long_line(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("x = 1\n" + "y = " + "1" * (MAX_LINE - 4) + "\n" + "z = " + "2" * MAX_LINE + "\n")
    assert long_lines(module) == [(3, MAX_LINE + 4)]


#: Modules that only some runs need, each costing start-up time when loaded: the
#: process pool (a run with workers), charts with xml.etree (report) and theory (theory).
#: numpy.ma no run needs; np.quantile and np.unique load it on their first call.
POOL_MODULES = ("concurrent.futures.process", "multiprocessing")
LAZY_MODULES = (*POOL_MODULES, "xml.etree", "ssl_lab.charts", "ssl_lab.theory", "numpy.ma")


def lazy_modules_after(statements):
    """The LAZY_MODULES loaded once `statements` ran in a fresh interpreter with src on its path."""
    code = (
        f"import sys\nsys.path.insert(0, {str(SRC.parent)!r})\n{statements}\n"
        f"print(' '.join(name for name in {LAZY_MODULES!r} if name in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    return done.stdout.split()


def test_importing_the_cli_loads_no_process_pool():
    assert lazy_modules_after("import ssl_lab.cli") == []


def test_rule_catches_a_pool_import():
    statements = "import ssl_lab.cli\nfrom concurrent.futures import ProcessPoolExecutor"
    assert lazy_modules_after(statements) == list(POOL_MODULES)


def test_rule_catches_a_chart_import():
    statements = "import ssl_lab.cli\nimport ssl_lab.charts"
    assert lazy_modules_after(statements) == ["xml.etree", "ssl_lab.charts"]


def test_fit_and_a_self_training_sweep_load_no_lazy_module(tmp_path):
    data = SRC.parent.parent / "data" / "synthetic_2gmm_200.csv"
    runs = [
        ["fit", str(data), "--nl", "20", "--pca", "2"],
        ["simulate", "--preset", "fig1b", "--replicates", "1", "--threads", "1"],
    ]
    statements = "import contextlib, io\nfrom ssl_lab.cli import main\n" + "".join(
        f"with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv + ['--quiet', '--out', str(tmp_path)]!r}) == 0\n"
        for argv in runs
    )
    assert lazy_modules_after(statements) == []


def test_rule_catches_numpy_ma():
    statements = "import ssl_lab.cli\nimport numpy as np\nnp.quantile([1.0, 2.0], 0.5)"
    assert lazy_modules_after(statements) == ["numpy.ma"]


#: Files outside src/ssl_lab whose use of a public name keeps it in the library: the
#: contract (acceptance tests, oracles, golden pins), the benchmark, and the data recipe.
CALLERS = ("tests/test_acceptance.py", "tests/oracles.py", "tests/test_golden.py", "bench/*.py",
           "data/README.md")


def names_read(nodes):
    """Every name a list of statements reads, imports or takes as an attribute."""
    found = set()
    for node in (child for top in nodes for child in ast.walk(top)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def unused_public_names(src, callers):
    """(module, name) of each public top-level function or class in the modules of `src`
    that neither another module, the rest of its own module, nor a caller file uses.

    `callers` are Python files, or markdown whose fenced blocks hold Python recipes. A
    name that `__init__.py` only re-exports is not used by it: its imports are not read.
    """
    read = {}
    for path in callers:
        text = path.read_text()
        if path.suffix == ".md":
            read[path] = set(re.findall(r"\w+", "\n".join(text.split("```")[1::2])))
        else:
            read[path] = names_read(ast.parse(text).body)
    bodies = {path: ast.parse(path.read_text()).body for path in sorted(src.glob("*.py"))}
    for path, body in bodies.items():
        if path.name == "__init__.py":
            body = [node for node in body if not isinstance(node, (ast.Import, ast.ImportFrom))]
        read[path] = names_read(body)
    unused = []
    for path, body in bodies.items():
        elsewhere = set().union(*(names for other, names in read.items() if other != path))
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in elsewhere:
                continue
            if node.name not in names_read([other for other in body if other is not node]):
                unused.append((path.stem, node.name))
    return unused


def test_every_public_name_has_a_caller():
    root = SRC.parent.parent
    found = {pattern: sorted(root.glob(pattern)) for pattern in CALLERS}
    assert all(found.values())
    assert unused_public_names(SRC, [path for paths in found.values() for path in paths]) == []


def test_rule_catches_a_name_only_its_own_tests_call(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "core.py").write_text(
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "class Record:\n    pass\n\n"
        "def benched():\n    pass\n\n"
        "def recipe():\n    pass\n\n"
        "def reexported():\n    pass\n"
    )
    (src / "cli.py").write_text("from .core import used\n")
    (src / "__init__.py").write_text("from .core import reexported  # noqa: F401\n")
    bench = tmp_path / "bench.py"
    bench.write_text('import pkg.core\n\nSPANNED = (pkg.core.benched, "recursive")\n')
    readme = tmp_path / "README.md"
    readme.write_text("Run:\n\n```\npython -c 'from pkg.core import recipe'\n```\nnot Record\n")
    found = unused_public_names(src, [bench, readme])
    assert found == [("core", "recursive"), ("core", "Record"), ("core", "reexported")]


def defaulted_parameters(module, body):
    """((module, owner, name), position) of each parameter with a default of the public
    functions, public methods and dataclass fields in a module's body. `position` is the
    number of positional arguments a call makes before it, past `self`; None when it is
    keyword-only."""

    def of_function(node, skip):
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        found = [((module, node.name, arg.arg), i - skip)
                 for i, arg in enumerate(positional) if i >= first]
        return found + [((module, node.name, arg.arg), None)
                        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                        if default is not None]

    found = []
    for node in body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found += of_function(node, 0)
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        if any("dataclass" in ast.unparse(decorator) for decorator in node.decorator_list):
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                      and "init=False" not in ast.unparse(item)]
            found += [((module, node.name, item.target.id), i)
                      for i, item in enumerate(fields) if item.value is not None]
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                found += of_function(item, 1)
    return found


def calls_in(tree):
    """(call, name and parameter names of the function making it) of each call in a tree."""
    found = []

    def visit(node, function, params):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
            params = {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
        if isinstance(node, ast.Call):
            found.append((node, function, params))
        for child in ast.iter_child_nodes(node):
            visit(child, function, params)

    visit(tree, None, set())
    return found


def argument_for(call, owner, name, position):
    """The expression a call passes for parameter `name` of `owner`, True when a `*` or
    `**` argument may pass it, else None. Calls match by name, as in unused_public_names,
    and a keyword of `replace(...)` (dataclasses.replace) passes every parameter so named."""
    callee = getattr(call.func, "id", getattr(call.func, "attr", None))
    keywords = {keyword.arg: keyword.value for keyword in call.keywords}
    if callee == "replace" and name in keywords:
        return keywords[name]
    if callee != owner:
        return None
    if None in keywords:
        return True
    if name in keywords:
        return keywords[name]
    if position is None:
        return None
    if any(isinstance(arg, ast.Starred) for arg in call.args[:position + 1]):
        return True
    return call.args[position] if position < len(call.args) else None


def python_of(path):
    """A caller file's Python: the file, or the heredocs in a markdown file's fenced blocks."""
    text = path.read_text()
    if path.suffix == ".md":
        blocks = text.split("```")[1::2]
        text = "\n".join(body for block in blocks
                         for _, body in re.findall(r"<<'(\w+)'\n(.*?)\n\1\n", block, re.S))
    return ast.parse(text)


def unpassed_parameters(src, callers):
    """(module, owner, name) of each defaulted public parameter (defaulted_parameters) in
    the modules of `src` that no call in them or in a caller file passes.

    A call whose argument is only a parameter of its own function that is itself never
    passed does not count, so every link of a chain that forwards a default is found:
    the links found by forwarding follow those found first.
    """
    modules = {path: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    parameters = [entry for path, tree in modules.items()
                  for entry in defaulted_parameters(path.stem, tree.body)]
    calls = [site for tree in [*modules.values(), *map(python_of, callers)]
             for site in calls_in(tree)]
    unpassed = []

    def passed(key, position):
        never = {(owner, name) for _, owner, name in unpassed}
        for call, function, params in calls:
            arg = argument_for(call, key[1], key[2], position)
            forwards = (isinstance(arg, ast.Name) and arg.id in params
                        and (function, arg.id) in never)
            if arg is not None and not forwards:
                return True
        return False

    while True:
        found = [key for key, position in parameters
                 if key not in unpassed and not passed(key, position)]
        if not found:
            return unpassed
        unpassed += found


def test_every_defaulted_parameter_has_a_caller_that_passes_it():
    root = SRC.parent.parent
    callers = [path for pattern in CALLERS for path in sorted(root.glob(pattern))]
    assert unpassed_parameters(SRC, callers) == []


def test_rule_catches_a_parameter_only_its_own_tests_pass(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "core.py").write_text(
        "from dataclasses import dataclass, field, replace\n\n"
        "@dataclass\nclass Config:\n"
        "    size: int\n    scale: float = 1.0\n    tag: str = 'a'\n"
        "    count: int = 0\n    cache: dict = field(default=None, init=False)\n\n"
        "class Model:\n    def fit(self, data, tol=1e-6, *, cap=10):\n        pass\n\n"
        "def report(p, c=1.0):\n    return bound(p, c)\n\n"
        "def bound(p, c=1.0):\n    return p * c\n\n"
        "def spread(p, ratio=10.0):\n    return p * ratio\n\n"
        "def run(cfg, options):\n"
        "    Model().fit(cfg, cap=3)\n    spread(1, **options)\n"
        "    return replace(cfg, tag='b'), report(cfg.size), Config(1, 2.0)\n"
    )
    bench = tmp_path / "bench.py"
    bench.write_text("from pkg.core import Model\n\nModel().fit(None, 1e-3)\n")
    readme = tmp_path / "README.md"
    readme.write_text(
        "```\npython3 - <<'EOF'\nfrom pkg.core import bound\nbound(2.0)\nEOF\n```\n"
    )
    tests = tmp_path / "test_core.py"
    tests.write_text("from pkg.core import Config, report\n\nConfig(1, count=5)\nreport(1, c=2)\n")
    assert unpassed_parameters(src, [bench, readme]) == [
        ("core", "Config", "count"), ("core", "report", "c"), ("core", "bound", "c")
    ]
    assert unpassed_parameters(src, [bench, readme, tests]) == []
