"""Every public name has a caller: ``src/repro``'s public functions,
classes and methods against one checked table.

The scan checks every public top-level function or class of a module
of ``src/repro``, and every public method of a public class; dunders,
``_private`` names and the members of ``_private`` classes are skipped.
A checked name must be *used* — an ``ast.Name`` or ``ast.Attribute``
outside its own definition — in a program that is not a test
(:func:`tests.integration.inventory.programs`: ``src/``, ``examples/``,
``benchmarks/`` and the docs' executed python blocks).

An import alone is not a use, and neither is a name in ``__all__``: a
re-export keeps nothing alive.

A name with no such use needs exactly one row ``(kind, path, needle)``
in :data:`EXEMPT`; ``needle`` must be found in the file at ``path``,
and ``kind`` says why the name stays:

* ``protocol`` — Python or pickle calls it; the path is its module.
* ``oracle`` — the named test checks other code against it.
* ``seam`` — the named test observes through it a behaviour that no
  public output shows.
* ``vocabulary`` — a documented configuration or facade name; the path
  is the document.
* ``paper`` — an operation in ``archetypes/mesh/library.py``'s
  inventory of the paper's mesh library.
* ``deferred`` — DESIGN.md's sentence naming the deferral and the
  caller to come.

:mod:`tests.integration.inventory` checks the rows.
"""

import ast

import pytest

from tests.integration import inventory

#: Where each kind's file may live.
KIND_PATHS = {
    "protocol": ("src/repro/",),
    "oracle": ("tests/",),
    "seam": ("tests/",),
    "vocabulary": ("README.md", "DESIGN.md", "docs/", "src/repro/"),
    "paper": ("src/repro/archetypes/mesh/library.py",),
    "deferred": ("DESIGN.md",),
}

LIBRARY = "src/repro/archetypes/mesh/library.py"
SOURCES = ("vocabulary", "DESIGN.md", "Gaussian/Ricker/CW point and plane-sheet")
SHAPES = ("vocabulary", "DESIGN.md", "PEC boxes/plates/spheres")

#: ``"module:qualname"`` -> ``(kind, path, needle)``.
EXEMPT = {
    "repro.dist.closures:ClosurePickler.reducer_override": (
        "protocol",
        "src/repro/dist/closures.py",
        "class ClosurePickler(pickle.Pickler):",
    ),
    "repro.apps.fdtd.ntff:NTFFAccumulator.accumulate": (
        "oracle", "tests/fdtd/test_kernel_alloc.py", "acc.accumulate(arrays, step)"
    ),
    "repro.archetypes.mesh.distributed_grid:gather_array": (
        "oracle",
        "tests/fdtd/test_plane_source.py",
        "gather_array(decomp, locals_), fields.ez",
    ),
    "repro.archetypes.mesh.decomposition:BlockDecomposition.verify_partition": (
        "oracle", "tests/archetypes/test_decomposition.py", "d.verify_partition()"
    ),
    "repro.obs.export:read_jsonl": (
        "oracle", "tests/obs/test_export.py", "assert read_jsonl(path) == report"
    ),
    "repro.obs.export:read_chrome_trace": (
        "oracle", "tests/obs/test_export.py", "loaded = read_chrome_trace(path)"
    ),
    "repro.dist.closures:body_images": (
        "seam",
        "tests/dist/test_program_images.py",
        "closures.body_images(system)[0] != closures.dumps(old)",
    ),
    "repro.dist.fleet.scheduler:FleetScheduler.daemon_states": (
        "seam", "tests/dist/test_fleet.py", "states = sched.daemon_states()"
    ),
    "repro.dist.net.daemon:WorkerDaemon.jobs_run": (
        "seam", "tests/dist/test_net.py", "assert daemon.jobs_run == 4"
    ),
    "repro.dist.net.frames:FrameStream.has_buffered": (
        "seam", "tests/dist/test_net_fastpath.py", "assert stream.has_buffered"
    ),
    "repro.apps.fdtd.sources:PlaneSource": SOURCES,
    "repro.apps.fdtd.sources:RickerWavelet": SOURCES,
    "repro.apps.fdtd.sources:SinusoidSource": SOURCES,
    "repro.apps.fdtd.materials:MaterialGrid.add_sphere": SHAPES,
    "repro.apps.fdtd.materials:MaterialGrid.add_pec_plate": SHAPES,
    "repro.runtime.mpi_style:MPIStyleComm.bcast": (
        "vocabulary", "src/repro/runtime/mpi_style.py", "* ``comm.bcast(obj, root=0)``"
    ),
    "repro.archetypes.mesh.exchange:boundary_exchange_op": (
        "paper", LIBRARY, "refresh ghost strips from neighbouring local sections"
    ),
    "repro.archetypes.mesh.skeleton:MeshProgramBuilder.read_file": (
        "paper", LIBRARY, "host -> grid redistribution after a file read"
    ),
    "repro.archetypes.mesh.skeleton:MeshProgramBuilder.write_file": (
        "paper", LIBRARY, "grid -> host redistribution before a file write"
    ),
    "repro.archetypes.mesh.skeleton:MeshProgramBuilder.broadcast_global": (
        "paper", LIBRARY, "re-establish copy consistency of duplicated globals"
    ),
    "repro.archetypes.mesh.skeleton:MeshProgramBuilder.declare_host_only": (
        "paper", LIBRARY, "file I/O and global bookkeeping on the HOST"
    ),
}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public(node) -> bool:
    return not node.name.startswith("_")


def _module_name(path: str) -> str:
    """``src/repro/a/b.py`` -> ``repro.a.b``; a package is its ``__init__``."""
    return path[len("src/") : -len(".py")].replace("/", ".").removesuffix(".__init__")


def definitions() -> dict[str, tuple[str, ast.AST]]:
    """``"module:qualname" -> (path, node)`` for every checked name."""
    found = {}
    for program in inventory.library():
        module = _module_name(program.name)
        for node in program.tree.body:
            if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                continue
            if _public(node):
                found[f"{module}:{node.name}"] = (program.name, node)
            if isinstance(node, ast.ClassDef) and _public(node):
                for member in node.body:
                    if isinstance(member, FUNCTIONS) and _public(member):
                        qualname = f"{node.name}.{member.name}"
                        found[f"{module}:{qualname}"] = (program.name, member)
    return found


def uses() -> dict[str, list[tuple[str, int]]]:
    """``name -> [(program, line)]`` of every ``Name`` and ``Attribute``
    in a program that is not a test."""
    found: dict[str, list] = {}
    for program in inventory.programs():
        for node in ast.walk(program.tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            found.setdefault(name, []).append((program.name, node.lineno))
    return found


def uncalled() -> set[str]:
    """The checked names with no use outside their own definition."""
    by_name = uses()
    return {
        target
        for target, (path, node) in definitions().items()
        if all(
            where == path and node.lineno <= line <= node.end_lineno
            for where, line in by_name.get(node.name, ())
        )
    }


UNCALLED = uncalled()


def test_every_uncalled_name_has_a_row():
    inventory.check_subset(
        UNCALLED,
        EXEMPT,
        "have no caller outside tests; call each from src/, examples/, "
        "benchmarks/ or a docs block, give it a row in EXEMPT, or delete it",
    )


def test_every_row_names_an_uncalled_name():
    inventory.check_subset(
        EXEMPT, UNCALLED, "have a caller or no longer exist; delete their rows"
    )


@pytest.mark.parametrize(
    "target, row",
    sorted(EXEMPT.items()),
    ids=[target.partition(":")[2] for target in sorted(EXEMPT)],
)
def test_every_needle_is_in_its_file(target, row):
    inventory.check_row(KIND_PATHS, target, row)
