import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import pqgalerkin
from pqgalerkin.operators import ProblemOperator

MODULES = ["mesh", "fespace", "operators", "estimates", "galerkin", "verify",
           "cli"]


def _package_reexports(module: str):
    tree = ast.parse(Path(pqgalerkin.__file__).read_text())
    return [alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module == module
            for alias in node.names]


def test_the_residual_has_no_wrapper_type():
    # a residual is the plain dof array, paired by one dot product
    fespace = importlib.import_module("pqgalerkin.fespace")
    for gone in ("DualVector", "pair"):
        assert not hasattr(fespace, gone) and not hasattr(pqgalerkin, gone)


def test_the_apriori_radius_has_one_formula():
    # one Poincare step, lambda1^{-alpha/p}: no switch selects another
    estimates = importlib.import_module("pqgalerkin.estimates")
    assert not hasattr(estimates, "CONVENTIONS")
    assert not hasattr(pqgalerkin, "CONVENTIONS")
    for name in ("poincare_factor", "coercivity_polynomial", "apriori_radius",
                 "rhs_estimate_constant", "compute_estimates",
                 "run_hierarchy"):
        params = inspect.signature(getattr(pqgalerkin, name)).parameters
        assert "convention" not in params, name


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(f"pqgalerkin.{name}")
    namespace = {}
    exec(f"from pqgalerkin.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    for attr in _package_reexports(name):
        assert getattr(pqgalerkin, attr) is getattr(module, attr)


def _unreferenced(path: Path):
    """Top-level imports and definitions (functions, classes, assigned
    names) that the module never reads and `__all__` does not list."""
    tree = ast.parse(path.read_text())
    imported, defined = [], []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if "__all__" in names:
                exported = set(ast.literal_eval(node.value))
            defined += [n for n in names if not n.startswith("__")]
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return {"imports": sorted(set(imported) - used - exported),
            "definitions": sorted(set(defined) - used - exported)}


MODULE_PATHS = sorted(p for p in Path(pqgalerkin.__file__).parent.glob("*.py")
                      if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULE_PATHS, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    # the package's lint: a top-level import the module never names
    assert _unreferenced(path)["imports"] == []


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_names_the_module_defines(name):
    # a name a module imports is exported by the module that defines it
    module = importlib.import_module(f"pqgalerkin.{name}")
    imported = {attr for attr in module.__all__
                if getattr(getattr(module, attr), "__module__",
                           module.__name__) != module.__name__}
    assert imported == set()


def _private_numeric_imports(source: str):
    """Imports of a private (`_`-prefixed) numpy or scipy module, whether
    named in the module path or as an imported name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        found += [name for name in names
                  if name.split(".")[0] in ("numpy", "scipy")
                  and any(part.startswith("_")
                          for part in name.split(".")[1:])]
    return sorted(set(found))


def test_private_numeric_import_check_flags_each_form():
    source = ("import scipy.sparse._sparsetools\n"
              "from scipy.sparse import _sparsetools, csr_matrix\n"
              "from numpy._core import umath\n"
              "import numpy.linalg\n"
              "from scipy.sparse import linalg\n"
              "from .fespace import _column_order\n")
    assert _private_numeric_imports(source) == [
        "numpy._core", "numpy._core.umath", "scipy.sparse._sparsetools"]


@pytest.mark.parametrize(
    "path", sorted(Path(pqgalerkin.__file__).parent.glob("*.py")),
    ids=lambda p: p.name)
def test_no_private_numpy_or_scipy_imports(path):
    # the package stays on numpy's and scipy's public API
    assert _private_numeric_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULE_PATHS, ids=lambda p: p.name)
def test_no_unreferenced_top_level_definitions(path):
    # dead code: a module-level function, class or constant that nothing in
    # its module reads and that the module does not export
    assert _unreferenced(path)["definitions"] == []


REPO = Path(__file__).resolve().parents[1]


def _dead_methods(class_sources, reader_sources):
    """`Class.name` for every non-dunder method or property of the classes
    in `class_sources` whose name no source in `reader_sources` reads as
    an attribute."""
    trees = [ast.parse(source) for source in reader_sources]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return sorted(
        f"{node.name}.{item.name}"
        for source in class_sources for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body if isinstance(item, ast.FunctionDef)
        and not (item.name.startswith("__") and item.name.endswith("__"))
        and item.name not in read)


def test_dead_method_check_flags_an_unread_method():
    source = ("class A:\n"
              "    def read(self): ...\n"
              "    def written(self): ...\n"
              "    def unread(self): ...\n"
              "    @property\n"
              "    def prop(self): ...\n"
              "    def __neg__(self): ...\n")
    reader = "a.read()\nb.prop\nc.written = 1\n"
    assert _dead_methods([source], [source, reader]) == [
        "A.unread", "A.written"]


def test_no_dead_methods():
    # dead code: a method or property of a package class that nothing in
    # the package, its tests or its benchmark reads
    classes = [p.read_text() for p in MODULE_PATHS]
    readers = [p.read_text() for folder in ("src", "tests", "bench")
               for p in sorted((REPO / folder).rglob("*.py"))]
    assert _dead_methods(classes, readers) == []


def _axis_norm_calls(source: str):
    """Line numbers of `linalg.norm` calls given more than the array: an
    `ord` or an `axis`, by keyword or by position."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "norm"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "linalg"
        and (len(node.args) > 1 or node.keywords))


def test_axis_norm_check_flags_each_form():
    source = ("np.linalg.norm(F)\n"
              "np.linalg.norm(xi, axis=-1)\n"
              "numpy.linalg.norm(g, None, 1)\n"
              "vector_norm(xi)\n")
    assert _axis_norm_calls(source) == [2, 3]


@pytest.mark.parametrize("path", MODULE_PATHS, ids=lambda p: p.name)
def test_per_cell_norms_go_through_vector_norm(path):
    # a whole-vector norm, like the Newton merit, is the only linalg.norm
    assert _axis_norm_calls(path.read_text()) == []


def test_cell_gradients_use_the_gradient_operator():
    tree = ast.parse((Path(pqgalerkin.__file__).parent / "fespace.py")
                     .read_text())
    (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name == "cell_gradients"]
    attrs = {node.attr for node in ast.walk(fn)
             if isinstance(node, ast.Attribute)}
    assert "gradient_operator" in attrs and "einsum" not in attrs


def test_values_at_qp_use_the_incidence_operator():
    tree = ast.parse((Path(pqgalerkin.__file__).parent / "fespace.py")
                     .read_text())
    (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name == "values_at_qp"]
    attrs = {node.attr for node in ast.walk(fn)
             if isinstance(node, ast.Attribute)}
    assert "incidence_operator" in attrs and "cell_dofs" not in attrs


def _cell_map_uses(source: str):
    """Line numbers where a space's cell-to-dof map or assembly plan is
    read, or bincount is named: imported, called or read."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "bincount" for alias in node.names):
                found.add(node.lineno)
        elif (isinstance(node, ast.Attribute)
              and node.attr in ("cell_dofs", "plan", "bincount")) \
                or (isinstance(node, ast.Name) and node.id == "bincount"):
            found.add(node.lineno)
    return sorted(found)


def test_cell_map_check_flags_each_form():
    source = ("idx = space.cell_dofs\n"
              "plan = u.space.plan\n"
              "y = np.bincount(t, weights=w)\n"
              "from numpy import bincount\n"
              "y = space.gradient_transpose @ r\n"
              "planned = space.planned\n")
    assert _cell_map_uses(source) == [1, 2, 3, 4]


@pytest.mark.parametrize("path", MODULE_PATHS, ids=lambda p: p.name)
def test_only_fespace_reads_the_cell_to_dof_map(path):
    # fespace owns the map between dof vectors and cell arrays: every other
    # module goes through the products of its cell operators
    uses = _cell_map_uses(path.read_text())
    assert (uses != []) if path.name == "fespace.py" else (uses == [])


def _spsolve_uses(source: str):
    """Line numbers where `spsolve` is named: imported, called or read."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(alias.name.split(".")[-1] == "spsolve"
                   for alias in node.names):
                found.add(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "spsolve") \
                or (isinstance(node, ast.Name) and node.id == "spsolve"):
            found.add(node.lineno)
    return sorted(found)


def test_spsolve_check_flags_each_form():
    source = ("from scipy.sparse.linalg import spsolve\n"
              "x = spla.spsolve(A, b)\n"
              "solve = scipy.sparse.linalg.spsolve\n"
              "y = spsolve(A, b)\n"
              "z = sparse_solve(space, A, b)\n")
    assert _spsolve_uses(source) == [1, 2, 3, 4]


@pytest.mark.parametrize(
    "path", sorted(Path(pqgalerkin.__file__).parent.glob("*.py")),
    ids=lambda p: p.name)
def test_sparse_solves_share_the_factor_path(path):
    # every sparse solve goes through fespace's one splu path, which
    # factors in each space's factor order
    assert _spsolve_uses(path.read_text()) == []


def _sparse_linalg_imports(source: str):
    """Line numbers of imports of scipy.sparse.linalg, by module path or as
    an imported name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        if any(name.startswith("scipy.sparse.linalg") for name in names):
            found.add(node.lineno)
    return sorted(found)


def test_sparse_linalg_import_check_flags_each_form():
    source = ("import scipy.sparse.linalg as spla\n"
              "from scipy.sparse.linalg import splu\n"
              "from scipy.sparse import linalg\n"
              "import scipy.sparse.linalg\n"
              "import scipy.sparse as sp\n"
              "from scipy.sparse import csr_matrix\n")
    assert _sparse_linalg_imports(source) == [1, 2, 3, 4]


def _recorded_order_uses(source: str):
    """Line numbers where a space's recorded column order, which spaces
    no longer hold, is read or written, under either name it had."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute)
                   and node.attr in ("_recorded_order", "column_order")})


def test_recorded_order_check_flags_each_form():
    source = ("order = space._recorded_order\n"
              "space._recorded_order = None\n"
              "space.column_order = order\n"
              "order = _column_order(plan, inverse)\n")
    assert _recorded_order_uses(source) == [1, 2, 3]


@pytest.mark.parametrize("path", MODULE_PATHS, ids=lambda p: p.name)
def test_only_fespace_factors_sparse_matrices(path):
    # fespace owns each space's sparse matrices: it alone loads SuperLU;
    # a space records no column order, so no module reads or writes one
    source = path.read_text()
    assert (_sparse_linalg_imports(source) != []) \
        == (path.name == "fespace.py")
    assert _recorded_order_uses(source) == []



def _imported_modules(source: str):
    """Top-level names of the modules a source imports, in any form."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_imported_modules_check_flags_each_form():
    source = ("import weakref\n"
              "from weakref import ref\n"
              "import os.path as osp\n"
              "from .fespace import weakref\n")
    assert _imported_modules(source) == {"weakref", "os"}


def test_problem_operator_keeps_no_hidden_state():
    # every field of the operator is a constructor argument, and nothing
    # tracks the states it evaluated: each call depends on its arguments
    # alone
    fields = dataclasses.fields(ProblemOperator)
    assert all(f.init for f in fields)
    assert [f.name for f in fields] == ["problem", "weight"]
    source = (Path(pqgalerkin.__file__).parent / "operators.py").read_text()
    assert "weakref" not in _imported_modules(source)


EPS_NAMES = ("eps", "regularization")


def _settings(source: str, names: tuple):
    """Line numbers where one of `names` is a setting: a function or lambda
    parameter, or a class field, of that name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            params = node.args.posonlyargs + node.args.args \
                + node.args.kwonlyargs
            if any(param.arg in names for param in params):
                found.add(node.lineno)
        elif isinstance(node, ast.ClassDef):
            found |= {item.lineno for item in node.body
                      if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)
                      and item.target.id in names}
    return sorted(found)


# the level solve's stopping test: galerkin.TOLERANCE and MAX_ITERATIONS
STOPPING_NAMES = ("tolerance", "max_iterations")


def _regularization_names(source: str):
    """Line numbers where a name holding REGULARIZATION is defined, read or
    imported."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if any("REGULARIZATION" in name for name in names):
            found.add(node.lineno)
    return sorted(found)


def test_regularization_checks_flag_each_form():
    settings = ("def power_flux(grad, exponent, eps=1e-10): ...\n"
                "def run(problem, *, regularization): ...\n"
                "kernel = lambda grad, e, eps=1e-10: grad\n"
                "class SolverConfig:\n"
                "    regularization: float = 1e-10\n"
                "def power_flux(grad, exponent): ...\n"
                "epsilon = 1e-10\n")
    assert _settings(settings, EPS_NAMES) == [1, 2, 3, 5]
    names = ("REGULARIZATION = 1e-10\n"
             "from .operators import DEFAULT_REGULARIZATION\n"
             "eps = operators.REGULARIZATION\n"
             "small = amp < REGULARIZATION\n"
             "regularization = 1e-10\n")
    assert _regularization_names(names) == [1, 2, 3, 4]


def test_stopping_setting_check_flags_each_form():
    settings = ("def solve_level(op, space, warm=None): ...\n"
                "def check(op, u, tolerance=1e-10): ...\n"
                "def run(problem, *, max_iterations=200): ...\n"
                "stop = lambda F, tolerance: F < tolerance\n"
                "class SolverConfig:\n"
                "    tolerance: float = 1e-10\n"
                "    max_iterations: int = 200\n"
                "    seed: int = 0\n"
                "TOLERANCE = 1e-10\n"
                "tol = TOLERANCE * 10.0\n")
    assert _settings(settings, STOPPING_NAMES) == [2, 3, 4, 6, 7]


@pytest.mark.parametrize(
    "path", sorted(Path(pqgalerkin.__file__).parent.glob("*.py")),
    ids=lambda p: p.name)
def test_the_stopping_test_is_no_setting(path):
    # the residual tolerance and the iteration cap are galerkin.TOLERANCE
    # and galerkin.MAX_ITERATIONS: no function takes them and no config
    # object carries them
    assert _settings(path.read_text(), STOPPING_NAMES) == []


def _regime_settings(source: str):
    """Line numbers where the coercivity regime is a setting: a function or
    lambda parameter named `regime`, or a `regime` or `h3a` field of
    `Problem` or `ConvectionFamily`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            params = node.args.posonlyargs + node.args.args \
                + node.args.kwonlyargs
            if any(param.arg == "regime" for param in params):
                found.add(node.lineno)
        elif isinstance(node, ast.ClassDef) \
                and node.name in ("Problem", "ConvectionFamily"):
            found |= {item.lineno for item in node.body
                      if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)
                      and item.target.id in ("regime", "h3a")}
    return sorted(found)


def test_regime_setting_check_flags_each_form():
    source = ("def make_problem(p, q, regime='H3'): ...\n"
              "def run(problem, *, regime): ...\n"
              "pick = lambda regime: regime == 'H3a'\n"
              "class Problem:\n"
              "    regime: str = 'H3'\n"
              "class ConvectionFamily:\n"
              "    h3a: object = None\n"
              "class EstimateReport:\n"
              "    regime: str\n"
              "class Problem:\n"
              "    @property\n"
              "    def regime(self): ...\n")
    assert _regime_settings(source) == [1, 2, 3, 5, 7]


@pytest.mark.parametrize(
    "path", sorted(Path(pqgalerkin.__file__).parent.glob("*.py")),
    ids=lambda p: p.name)
def test_the_regime_is_no_setting(path):
    # the regime is read off the family's sign block, (H3a) exactly where
    # its alpha is p: no function takes it and no problem or family field
    # carries it; EstimateReport.regime reports it
    assert _regime_settings(path.read_text()) == []


@pytest.mark.parametrize(
    "path", sorted(Path(pqgalerkin.__file__).parent.glob("*.py")),
    ids=lambda p: p.name)
def test_the_flux_regularization_is_one_constant(path):
    # eps is operators.REGULARIZATION, read inside the flux kernels: no
    # function takes it, no config object carries it, no module restates it
    source = path.read_text()
    assert _settings(source, EPS_NAMES) == []
    names = _regularization_names(source)
    assert (names != []) if path.name == "operators.py" else (names == [])


def _exponent_minus_two_powers(source: str):
    """Line numbers of `**` powers whose exponent subtracts the constant 2,
    such as `amp ** (e - 2.0)`: a copy of the power-law flux."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        and any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Sub)
                and isinstance(sub.right, ast.Constant)
                and sub.right.value == 2
                for sub in ast.walk(node.right)))


def test_exponent_minus_two_check_flags_each_form():
    source = ("f = amp ** (exponent - 2.0)\n"
              "c = sq ** (0.5 * (p - 2))\n"
              "r = 2.0 ** -exponent * gap ** exponent\n"
              "s = 2.0 ** (2.0 - e)\n"
              "d = (e - 2.0) * amp\n")
    assert _exponent_minus_two_powers(source) == [1, 2]


def _space_sampling_uses(source: str):
    """Line numbers where fespace's space type or its stack chunking is
    imported or read: what sampling functions on a space needs."""
    names = ("FeSpace", "row_slices")
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[-1] == "fespace":
            if any(alias.name in names for alias in node.names):
                found.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.add(node.lineno)
    return sorted(found)


def test_space_sampling_check_flags_each_form():
    source = ("from .fespace import FeSpace, axis_dot\n"
              "from pqgalerkin.fespace import row_slices\n"
              "from .fespace import vector_norm\n"
              "rows = fespace.row_slices(space, 4)\n"
              "from .galerkin import FeSpace\n")
    assert _space_sampling_uses(source) == [1, 2, 4]


def test_monotonicity_certificate_reads_the_one_flux_kernel():
    # the certificate checks the pointwise lemma on fixed pairs through
    # operators' flux kernel: no copy of the flux, no sampling on a space
    here = Path(pqgalerkin.__file__).parent
    source = (here / "verify.py").read_text()
    assert _exponent_minus_two_powers(source) == []
    assert _space_sampling_uses(source) == []
    assert _exponent_minus_two_powers((here / "operators.py").read_text())
