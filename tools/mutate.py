"""Mutation testing with the stdlib ``ast``, run by hand: ``tools/mutate.py [-j N] [MODULE ...]``.

Each mutant runs in its own copy of the repository: the fast tests with -x, its module's first,
then the slow four. No bytecode is written and ``.hypothesis/`` is deleted before each run: no
stale ``.pyc`` or saved example decides a result. A busy host fails timing tests: N <= idle cores.
"""

import argparse, ast, os, resource, shutil, subprocess, sys, tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("_kernels", "bleu", "cli", "errors", "evalharness", "hlepor", "lexmetrics", "textnorm")
SLOW = [f"tests/test_{n}.py" for n in ("bench_digests", "properties", "cli_fuzz", "cold_start")]
FAST = sorted({str(p.relative_to(ROOT)) for p in ROOT.glob("*/test_*.py")} - set(SLOW))
PYTEST = ["timeout", "240", sys.executable, "-m", "pytest", "-qxp", "no:cacheprovider"]
OPS = [getattr(ast, name) for name in "Lt LtE Gt GtE Eq NotEq Add Sub Mult Div And Or".split()]
SWAP = {op: OPS[i ^ 1] for i, op in enumerate(OPS)}  # each operator with the other of its pair
KEEP = (ast.Pass, ast.Import, ast.ImportFrom)  # the package imports names only for annotations


def mutations(module):
    """The parsed module and its mutants as (line, label, node, field, new value)."""
    tree, found = ast.parse((ROOT / "src/mtmetrics" / f"{module}.py").read_bytes()), []
    for node in ast.walk(tree):
        for field, value in ast.iter_fields(node):
            for index, child in enumerate(value) if isinstance(value, list) else [(None, value)]:
                name, new = type(child).__name__, None
                if type(child) in SWAP:
                    new, name = SWAP[type(child)](), f"{name}->{SWAP[type(child)].__name__}"
                elif isinstance(child, ast.stmt) and not isinstance(child, KEEP) and not (
                        isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)):
                    new, name = ast.Pass(), f"{name}->pass"  # not a docstring or other constant
                elif isinstance(child, ast.UnaryOp) and isinstance(child.op, ast.Not):
                    new, name = child.operand, "drop not"
                elif isinstance(child, ast.Constant) and type(child.value) is int:
                    new, name = ast.Constant(child.value + 1), f"{child.value}+1"
                if new is not None:  # an operator has no line of its own: take its node's
                    new = new if index is None else [*value[:index], new, *value[index + 1:]]
                    found += [(getattr(child, "lineno", 0) or node.lineno, name, node, field, new)]
    return tree, found


def survives(module, number):
    """Line, label and survival of mutant `number` of `module`; -1 is the module unparsed."""
    tree, found = mutations(module)
    line, label, *change = found[number] if number >= 0 else (0, "", tree, "body", tree.body)
    setattr(*change)
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(ROOT, work, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", "__pycache__", ".perfbench-work"))
        Path(work, "src/mtmetrics", f"{module}.py").write_text(ast.unparse(tree), encoding="utf-8")
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": f"{work}/src"}
        for files in (sorted(FAST, key=f"tests/test_{module.lstrip('_')}.py".__ne__), SLOW):
            shutil.rmtree(Path(work, ".hypothesis"), ignore_errors=True)
            if subprocess.run(PYTEST + files, cwd=work, env=env, capture_output=True).returncode:
                return line, label, False  # a failure, or a timeout
    return line, label, True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-j", "--jobs", type=int, default=1, help="mutants run at once")
    parser.add_argument("modules", nargs="*", default=MODULES)
    args = parser.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))  # so a looping, allocating mutant dies
    if failing := [module for module in args.modules if not survives(module, -1)[2]]:
        sys.exit(f"the tests fail on these modules unparsed, unmutated: {failing}")
    mutants = [(module, n) for module in args.modules for n in range(len(mutations(module)[1]))]
    survivors = 0
    with ThreadPoolExecutor(args.jobs) as pool:
        for (module, n), (line, label, alive) in zip(mutants, pool.map(survives, *zip(*mutants))):
            if alive:
                survivors += 1
                print(f"{module}:{n} line {line} {label}", flush=True)
    print(f"{len(mutants)} mutants, {survivors} survived")


if __name__ == "__main__":
    main()
