"""Checks on the package source itself."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lgsieve"


def test_no_assert_statements():
    # invariants must raise real errors: python -O strips assert
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _fft_uses(tree):
    """(enclosing function, line) of every reference to numpy's fft."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            found.append((func, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            if any("fft" in n for n in names):
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_fft_only_in_pair_counts():
    # one owner of the float-to-integer rounding and its certificate
    uses = {
        path.name: _fft_uses(ast.parse(path.read_text(), str(path)))
        for path in sorted(SRC.glob("*.py"))
    }
    owners = {(name, func) for name, found in uses.items() for func, _ in found}
    assert owners == {("discrepancy.py", "_pair_counts")}


def _calls_of(tree, name):
    """Enclosing function of every call to ``name`` or ``<module>.name``."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_fsum_only_in_exact_sum():
    # one owner of the correctly rounded sum: every other sum reads _exact_sum
    owners = {
        (path.name, func)
        for path in sorted(SRC.glob("*.py"))
        for func in _calls_of(ast.parse(path.read_text(), str(path)), "fsum")
    }
    assert owners == {("primes.py", "_exact_sum")}


def test_resource_limit_raised_only_by_check_array_bytes():
    # one owner of the byte limit: every O(x) array is checked through it
    owners = {
        (path.name, func)
        for path in sorted(SRC.glob("*.py"))
        for func in _calls_of(ast.parse(path.read_text(), str(path)), "ResourceLimitError")
    }
    assert owners == {("primes.py", "check_array_bytes")}


def test_reads_no_environment_variables():
    # limits are constants in the source, not settings read at run time
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
        & {"environ", "environb", "getenv", "getenvb"}
    ]
    assert found == []


def _functions(module):
    """The module's functions and its classes' methods, by name."""
    tree = ast.parse((SRC / module).read_text())
    nodes = [n for top in tree.body for n in (top.body if isinstance(top, ast.ClassDef) else [top])]
    return {n.name: n for n in nodes if isinstance(n, ast.FunctionDef)}


def _names_reached(module, func):
    """Every name and attribute referenced by ``func`` and by the
    functions of the same module that it calls, transitively."""
    defs = _functions(module)
    seen, todo, names = set(), [func], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
                if node.id in defs:
                    todo.append(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_residue_identity_never_reads_the_weights_engine():
    # its right side must stay independent of the pair counts it checks
    names = _names_reached("smoothcount.py", "residue_convolution_identity_ok")
    assert "_exact_sum_counts" in names  # the walk does see the function body
    # and it is integer-only: no float transform, no rounding
    forbidden = {"_pair_counts", "sumset_weights", "difference_weights", "fft", "rint", "float64"}
    assert not names & forbidden


def test_sieve_report_reads_classes_from_the_divisor_map():
    # lhs1, lhs2 and tau come from one divisor-map read; the walk over
    # each member's multiples (arr[q::q]) is a test oracle only
    names = _names_reached("smoothcount.py", "sieve_report")
    assert {"divisor_map", "_exact_sum"} <= names
    tree = ast.parse((SRC / "smoothcount.py").read_text())
    reached = [
        n for n in tree.body
        if isinstance(n, ast.FunctionDef) and (n.name == "sieve_report" or n.name in names)
    ]
    reached.append(_functions("primes.py")["_exact_sum"])  # imported from its owner
    loops = [
        (func.name, node.lineno)
        for func in reached
        for node in ast.walk(func)
        if isinstance(node, (ast.For, ast.While, ast.comprehension))
        or (isinstance(node, ast.Slice) and node.step is not None)
    ]
    assert loops == []


def test_coverage_counts_from_the_members():
    # on an LG set the covered count is sum floor(x/q) over the members
    # below x^c; the divisor map is read as the LG check, never scanned
    names = _names_reached("lgset.py", "coverage")
    assert "divisor_map" in names
    assert not names & {"count_nonzero", "RuntimeError"}


def test_verify_lists_pairs_from_the_divisor_map():
    # a set that is not LG has its pairs listed from the map that
    # multiples_disjoint built; the per-member recount into a second
    # array (counts[q::q] += 1) is the test oracle listing_violations only
    tree = ast.parse((SRC / "lgset.py").read_text())
    (func,) = [
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "verify_pairwise_lcm"
    ]
    attrs = {n.attr for n in ast.walk(func) if isinstance(n, ast.Attribute)}
    assert {"multiples_disjoint", "_divisors"} <= attrs
    assert "zeros" not in attrs
    assert [n.lineno for n in ast.walk(func) if isinstance(n, ast.AugAssign)] == []


def test_variance_report_sums_its_left_side_once():
    # lhs is the one correctly rounded sum of the per-modulus terms; an
    # expanded form sum_sq_total - |C|^2 sum 1/q reads the same pair counts,
    # so comparing the two measures rounding, not the counts
    defs = _functions("discrepancy.py")
    reached = {"variance_report"} | (_names_reached("discrepancy.py", "variance_report") & set(defs))
    calls = [f for name in sorted(reached) for f in _calls_of(defs[name], "_exact_sum")]
    assert calls == ["variance_report"]


def _stepped_slices(module, func):
    """(function, line) of every slice with a step in ``func`` and in
    the functions of the same module that it calls."""
    names = _names_reached(module, func)
    return [
        (name, sub.lineno)
        for name, node in _functions(module).items()
        if name == func or name in names
        for sub in ast.walk(node)
        if isinstance(sub, ast.Slice) and sub.step is not None
    ]


@pytest.mark.parametrize(
    "module, func",
    [("discrepancy.py", "variance_report"), ("smoothcount.py", "residue_convolution_identity_ok")],
)
def test_multiple_sums_come_from_the_divisor_map(module, func):
    # each modulus's sum over its multiples comes from LGSet.multiple_sums:
    # no np.repeat gather, and the strided walk (D[q::q], arr[q::q]) only
    # in the test oracles
    names = _names_reached(module, func)
    assert "multiple_sums" in names
    assert "repeat" not in names
    assert _stepped_slices(module, func) == []


@pytest.mark.parametrize(
    "module, func", [("cli.py", "_cmd_sweep"), ("smoothcount.py", "theorem3_experiment")]
)
def test_sweep_and_sumset_share_one_theta_step(module, func):
    # partition -> sieve_report -> rho(1/theta) has one owner, theta_reports;
    # neither caller builds a report or sizes a Dickman table itself
    node = _functions(module)[func]
    called = {
        getattr(n.func, "id", None) or getattr(n.func, "attr", None)
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
    }
    assert {"partition", "theta_reports"} <= called
    assert not called & {"sieve_report", "build_dickman_table", "rho"}


def test_residue_identity_sums_w_minus_c_once():
    # one multiple_sums of the weights less the pair-sum counts, no padded copy
    func = _functions("smoothcount.py")["residue_convolution_identity_ok"]
    assert _calls_of(func, "multiple_sums") == ["residue_convolution_identity_ok"]
    assert _calls_of(func, "pad") == []


def test_lgset_owns_the_sums_over_member_multiples():
    # one np.add.at over the divisor map, and no other definition of it
    tree = ast.parse((SRC / "lgset.py").read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "LGSet"]
    (method,) = [n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "multiple_sums"]
    names = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(method)}
    assert {"divisor_map", "add", "at"} <= names
    assert not names & {"repeat", "reduceat"}
    defined = [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "multiple_sums"
    ]
    assert defined == [("lgset.py", method.lineno)]


def _unused_parameters(tree):
    """(function, parameter) for every parameter its function never reads."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found += [(name, p.arg) for p in params if p is not None and p.arg not in read]
    return found


# perfbench/workloads.py still passes coverage a table; the parameter goes
# with that pin (ROADMAP open item 1)
UNUSED_PARAMETERS_ALLOWED = {("lgset.py", "coverage", "table")}


def test_no_unused_parameters():
    found = {
        (path.name, func, param)
        for path in sorted(SRC.glob("*.py"))
        for func, param in _unused_parameters(ast.parse(path.read_text(), str(path)))
    }
    assert found == UNUSED_PARAMETERS_ALLOWED


def test_imports_only_stdlib_and_numpy():
    # numpy is the one runtime dependency that pyproject.toml declares
    files = sorted(SRC.glob("*.py"))
    imported = {
        (path.name, name.split(".")[0])
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        for name in (
            [a.name for a in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
    }
    assert ("powers.py", "decimal") in imported  # the walk sees absolute imports
    assert {
        (f, m) for f, m in imported if m not in sys.stdlib_module_names and m != "numpy"
    } == set()


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in deps] == ["numpy"]


def test_construct_walks_levels_without_recursion():
    # the chain tree is expanded one level at a time over numpy frontiers;
    # the recursive depth-first search is the test oracle dfs_members only
    tree = ast.parse((SRC / "lgset.py").read_text())
    (func,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "construct"]
    nested = [
        n.lineno
        for n in ast.walk(func)
        if n is not func and isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    ]
    assert nested == []
    # neither construct nor a module function it reaches refers to construct
    names = _names_reached("lgset.py", "construct")
    assert {"LGSet", "_ranges"} <= names  # the walk does see the calls
    assert "construct" not in names


@pytest.mark.parametrize("func", ["multiples_disjoint", "verify_pairwise_lcm"])
def test_member_multiples_walked_by_one_helper(func):
    # the divisor map is marked, and a set that is not LG is read, over
    # the same runs of members sharing x // q: no stepped slice q::q per
    # member, and the helper makes no second array and no running count
    assert "_multiple_blocks" in _names_reached("lgset.py", func)
    assert _stepped_slices("lgset.py", func) == []
    helper = _functions("lgset.py")["_multiple_blocks"]
    assert "zeros" not in {n.attr for n in ast.walk(helper) if isinstance(n, ast.Attribute)}
    assert [n.lineno for n in ast.walk(helper) if isinstance(n, ast.AugAssign)] == []


def test_save_json_makes_no_object_per_member():
    # the members are written from a numpy digit matrix: no list of them
    # (tolist, LGSet.members) and no str or map over them
    names = _names_reached("lgset.py", "save_json")
    assert {"_decimal_lines", "tobytes"} <= names  # the walk does see the helper
    assert not names & {"tolist", "members", "str", "map"}


def test_partition_makes_no_list_of_members():
    # N1 and N2 are int32 arrays cut from LGSet.qs: no list of the
    # members (tolist, LGSet.members)
    names = _names_reached("smoothcount.py", "partition")
    assert {"qs", "count_below", "_exact_sum"} <= names  # the walk does see the body
    assert not names & {"tolist", "members"}


def test_exact_sum_makes_no_list():
    # math.fsum reads the floats through a memoryview: no list of them
    names = _names_reached("primes.py", "_exact_sum")
    assert {"fsum", "memoryview"} <= names  # the walk does see the body
    assert not names & {"tolist", "split", "chain"}


def test_choose_cutoff_keeps_the_exact_sum_arbiter():
    # the float tail settles only the points its error bound decides;
    # the rest must still reach the correctly rounded sum
    names = _names_reached("lgset.py", "choose_cutoff")
    assert {"count_below", "bisect_left"} <= names  # the walk does see the body
    assert "_exact_sum" in names


def _powers(tree):
    """(qualified enclosing name, line) of every ``**`` whose base is not a
    numeric literal, and of every pow, math.pow or np.power call."""
    found = []

    def literal(node):
        return isinstance(node, ast.Constant) and type(node.value) in (int, float)

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and not literal(node.left)
            or isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow)
            or isinstance(node, ast.Call) and {
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            } & {"pow", "power", "float_power"}
        ):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_powers_of_x_only_in_powers():
    # one owner of x^e: every threshold power comes from powers.py, whose
    # 50-digit evaluation places the integer boundary exactly
    found = {
        (path.name, scope, line)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "powers.py"
        for scope, line in _powers(ast.parse(path.read_text(), str(path)))
    }
    # the one integer power: a factorization's p^e, exact in Python ints
    (allowed,) = [f for f in found if f[:2] == ("primes.py", "Factorization.product")]
    assert found - {allowed} == set()


def test_integer_rule_has_one_owner():
    # primes.py owns "is this an integer": _int_in_range for one value and
    # _int_array for a set; every other module reaches them, never operator
    importers = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Import) and "operator" in {a.name for a in node.names}
        or isinstance(node, ast.ImportFrom) and node.module == "operator"
    }
    assert importers == {"primes.py"}
    for module, func, helper in [
        ("discrepancy.py", "distinct_ints", "_int_array"),
        ("lgset.py", "__init__", "_int_array"),  # LGSet's, the one __init__ there
        ("lgset.py", "__post_init__", "_int_in_range"),
        ("primes.py", "build_prime_table", "_int_in_range"),
        ("smoothcount.py", "sumset_weights", "_int_in_range"),
        ("smoothcount.py", "difference_weights", "_int_in_range"),
    ]:
        assert helper in _names_reached(module, func), (module, func)
        own = {getattr(n, "id", None) or getattr(n, "attr", None)
               for n in ast.walk(_functions(module)[func])}
        assert not own & {"fromiter", "index"}, (module, func)  # no copy of the rule


def test_real_input_rule_has_one_owner():
    # primes.py owns "is this a real number": _real_array reads every
    # smoothness bound y and every Dickman u, and no other function in
    # primes.py or dickman.py tests for nan
    for module, func in [
        ("primes.py", "is_smooth"),
        ("primes.py", "psi_count"),
        ("dickman.py", "rho"),
        ("dickman.py", "empirical_rho"),
    ]:
        assert "_real_array" in _names_reached(module, func), (module, func)
    for module in ("primes.py", "dickman.py"):
        for name, node in _functions(module).items():
            own = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}
            assert name == "_real_array" or "isnan" not in own, (module, name)
