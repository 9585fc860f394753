"""Checks on the package source itself."""

import ast
from pathlib import Path

import saslock

SOURCE = Path(saslock.__file__).parent

# Module-level names that no code in the package reaches, each kept for the
# tests named here.
TEST_ONLY = {
    "atomic_data.serialize_line_data": "test_acceptance::test_c11_round_trips",
    "atomic_data.pump_repump_separation": "test_acceptance::test_c03_pump_repump_separation",
    "lineshape.lorentzian": "test_lineshape, test_acceptance::test_c01",
    "lineshape.doppler_gaussian": "test_lineshape, test_acceptance::test_c01",
    "plant.initial_state": "test_plant",
    "plant.step_plant": "test_plant",
    "servo.pid_step": "test_servo, test_acceptance::test_c10",
    "servo.lock_step": "test_servo::TestLockStep",
    "servo.validate_phase_sequence": "test_servo, test_harness (the phase-sequence reference)",
}


def unreached_definitions():
    """`module.name` of each module-level function and class that no ast.Name
    or ast.Attribute of the package reaches outside its own definition;
    __init__.py re-exports names and does not count."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"}
    references = [
        (top, {node.id if isinstance(node, ast.Name) else node.attr
               for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))})
        for tree in trees.values() for top in tree.body
    ]
    return [
        f"{module}.{top.name}"
        for module, tree in trees.items() for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not any(top.name in names for other, names in references if other is not top)
    ]


def test_no_unlisted_test_only_code():
    # Code that nothing in the package calls is deleted, or it is listed
    # above with the test that holds it.
    assert set(unreached_definitions()) == set(TEST_ONLY)


# The global and builtin names that the body of closed_loop_run's loop may
# read. Each is read only off the engaging and locked path (a map miss,
# sweeping, an engage, a derivative window, an abort) or on an exception.
KERNEL_LOOP_GLOBALS = {
    "_interp", "ramp_waveform", "ModeHopError", "_PID_START",
    "math", "str", "sum", "len",
    "IndexError", "OverflowError", "ValueError",
}


def loop_globals(function):
    """Names that the body of `function`'s top-level for loop reads and that
    the function does not bind: globals and builtins."""
    bound = {arg.arg for arg in ast.walk(function.args) if isinstance(arg, ast.arg)}
    bound |= {node.id for node in ast.walk(function)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    bound |= {node.name for node in ast.walk(function)
              if isinstance(node, ast.ExceptHandler) and node.name}
    (loop,) = [node for node in function.body if isinstance(node, ast.For)]
    return {node.id for statement in loop.body for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and node.id not in bound}


def test_kernel_loop_reads_only_listed_globals():
    # A global or builtin looked up on every step costs a dict lookup per
    # step; the kernel binds such names to locals before its loop.
    tree = ast.parse((SOURCE / "servo.py").read_text(encoding="utf-8"))
    (kernel,) = [top for top in tree.body
                 if isinstance(top, ast.FunctionDef) and top.name == "closed_loop_run"]
    assert loop_globals(kernel) == KERNEL_LOOP_GLOBALS
