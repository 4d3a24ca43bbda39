#!/usr/bin/env python
"""Archetype gallery: the same methodology, three program classes.

The paper's closing future work asks for "identifying and developing
additional archetypes".  This example runs all three archetypes in the
library on representative problems and shows that each gives the same
three-way guarantee — sequential == simulated-parallel == message
passing — because they all bottom out in the same checked
data-exchange machinery and the same Theorem 1 transformation:

* mesh          : 2-D Jacobi smoothing (boundary exchange + reduction)
* pipeline      : a 3-stage signal-processing chain over a stream
* divide-conquer: parallel mergesort, and a wide-dynamic-range sum that
                  stays bitwise reproducible across process counts
                  (the far-field pitfall, designed away)

Run:  python examples/archetype_gallery.py
"""

import numpy as np

from repro.archetypes import get_archetype
from repro.archetypes.divide_conquer import DivideConquerBuilder
from repro.archetypes.mesh import BlockDecomposition, MeshProgramBuilder
from repro.archetypes.pipeline import PipelineProgramBuilder, model_pipeline_time
from repro.numerics import partitioned_sum, wide_dynamic_range_values
from repro.runtime import ThreadedEngine
from repro.util import bitwise_equal_arrays


def banner(name: str) -> None:
    print(f"\n=== {name} ===")
    archetype = get_archetype(name)
    print(archetype.description)


def demo_mesh() -> None:
    banner("mesh")
    field = np.random.default_rng(0).normal(size=(24, 18)) ** 2
    reference = np.pad(field, 1)
    for _ in range(10):
        u = reference
        u[1:-1, 1:-1] = 0.25 * (
            u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]
        )
    reference = reference[1:-1, 1:-1]

    decomp = BlockDecomposition((24, 18), (2, 2), ghost=1)
    builder = MeshProgramBuilder(decomp, use_host=True, name="jacobi")
    builder.declare_distributed("u", field)
    builder.distribute("u")

    def jacobi(store, rank):
        u = store["u"]
        u[1:-1, 1:-1] = 0.25 * (
            u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]
        )

    for _ in range(10):
        builder.exchange_boundaries("u")
        builder.grid_spmd(jacobi)
    builder.collect("u")

    sim = builder.run_simulated()
    par = ThreadedEngine().run(builder.to_parallel())
    ok_sim = bitwise_equal_arrays(np.asarray(sim[builder.host]["u"]), reference)
    ok_par = bitwise_equal_arrays(
        np.asarray(par.stores[builder.host]["u"]),
        np.asarray(sim[builder.host]["u"]),
    )
    print(f"Jacobi 24x18, 10 sweeps, 2x2 grid + host: "
          f"simulated {'==' if ok_sim else '!='} sequential, "
          f"parallel {'==' if ok_par else '!='} simulated")


def demo_pipeline() -> None:
    banner("pipeline")
    stages = [
        lambda x: x - x.mean(),             # de-bias
        lambda x: np.convolve(x, np.ones(3) / 3, mode="same"),  # smooth
        lambda x: np.abs(np.fft.rfft(x))[:4],  # 4-bin spectrum
    ]
    items = np.random.default_rng(1).normal(size=(10, 16))
    builder = PipelineProgramBuilder(
        stages, items, item_shapes=[(16,), (16,), (4,)], name="dsp"
    )
    sim = builder.run_simulated()
    ok_sim = bitwise_equal_arrays(sim, builder.sequential_reference())
    par = ThreadedEngine().run(builder.to_parallel())
    ok_par = bitwise_equal_arrays(PipelineProgramBuilder.results_from(par), sim)
    print(f"3-stage DSP chain over 10 items: "
          f"simulated {'==' if ok_sim else '!='} sequential, "
          f"parallel {'==' if ok_par else '!='} simulated")

    # The model's crossover: the fill latency sinks short streams.
    (short, fused_short), (long, fused_long) = (
        model_pipeline_time([1.0] * 4, nitems, latency=2.0) for nitems in (2, 128)
    )
    print(f"pipeline model, 4 unit stages, hop latency 2: "
          f"{'fused' if fused_short < short else 'pipelined'} wins at 2 items, "
          f"{'pipelined' if long < fused_long else 'fused'} at 128")


def demo_divide_conquer() -> None:
    banner("divide-conquer")
    data = np.random.default_rng(2).normal(size=64)
    sort = DivideConquerBuilder(
        data,
        solve=lambda x: np.sort(x),
        merge=lambda a, b: np.sort(np.concatenate([a, b])),
        nprocs=8,
        name="mergesort",
    )
    ok = bitwise_equal_arrays(sort.run_simulated(), np.sort(data))
    print(f"mergesort over 8 processes: {'correct' if ok else 'WRONG'}")

    # The reproducibility contrast: tree-shaped vs flat summation.
    def pairwise(x):
        if len(x) == 1:
            return np.float64(x[0])
        mid = len(x) // 2
        return pairwise(x[:mid]) + pairwise(x[mid:])

    values = wide_dynamic_range_values(64, orders=14)
    tree_results = set()
    for p in (1, 2, 4, 8):
        builder = DivideConquerBuilder(
            values,
            solve=lambda x: np.array([pairwise(x)]),
            merge=lambda a, b: a + b,
            nprocs=p,
        )
        tree_results.add(float(builder.run_simulated()[0]))
    flat_results = {partitioned_sum(values, p) for p in (1, 2, 4, 8)}
    print(f"wide-range sum across P=1,2,4,8: "
          f"divide-conquer gives {len(tree_results)} distinct value(s); "
          f"flat partitioned sums give {len(flat_results)}")
    print("(the D&C tree keeps the combining order P-invariant — the "
          "far-field reordering pitfall cannot arise)")


if __name__ == "__main__":
    demo_mesh()
    demo_pipeline()
    demo_divide_conquer()
