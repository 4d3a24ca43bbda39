"""Pipeline archetype tests (the 'additional archetype' extension)."""

import numpy as np
import pytest

from repro.archetypes import get_archetype
from repro.archetypes.pipeline import (
    PipelineProgramBuilder,
    model_pipeline_time,
    pipeline_system,
)
from repro.errors import ArchetypeError
from repro.runtime import CooperativeEngine, RandomPolicy, ThreadedEngine
from repro.theory import check_determinacy
from repro.util import bitwise_equal_arrays

STAGES = [
    lambda x: x * 2.0,
    lambda x: x + 1.0,
    lambda x: np.sqrt(np.abs(x)),
]


def make_items(n=6, shape=(4,), seed=0):
    return np.random.default_rng(seed).normal(size=(n, *shape))


class TestRegistration:
    def test_registered(self):
        archetype = get_archetype("pipeline")
        kinds = {op.name: op.kind for op in archetype.operations}
        assert kinds["shift"] == "exchange"
        assert "bottleneck" in archetype.guidelines or "stage" in archetype.guidelines


class TestBuilderStructure:
    def test_round_count(self):
        builder = PipelineProgramBuilder(STAGES, make_items(6))
        prog = builder.build()
        # M + S - 1 rounds; each has a local block, most have a shift.
        rounds = 6 + 3 - 1
        local_blocks = len(prog.local_blocks())
        assert local_blocks == rounds
        assert len(prog.exchanges()) == rounds - 1  # final round: no shift

    def test_program_validates(self):
        builder = PipelineProgramBuilder(STAGES, make_items(4))
        builder.build().validate()

    def test_needs_stages_and_items(self):
        with pytest.raises(ArchetypeError):
            PipelineProgramBuilder([], make_items(3))
        with pytest.raises(ArchetypeError):
            PipelineProgramBuilder(STAGES, np.zeros((0, 4)))

    def test_item_shapes_length_checked(self):
        with pytest.raises(ArchetypeError, match="one entry per stage"):
            PipelineProgramBuilder(STAGES, make_items(3), item_shapes=[(4,)])


class TestEquivalence:
    def test_simulated_matches_sequential_bitwise(self):
        builder = PipelineProgramBuilder(STAGES, make_items(8))
        expected = builder.sequential_reference()
        assert bitwise_equal_arrays(builder.run_simulated(), expected)

    def test_parallel_matches_simulated_bitwise(self):
        builder = PipelineProgramBuilder(STAGES, make_items(8))
        sim = builder.run_simulated()
        result = ThreadedEngine().run(builder.to_parallel())
        assert bitwise_equal_arrays(
            PipelineProgramBuilder.results_from(result), sim
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_random_schedules(self, seed):
        builder = PipelineProgramBuilder(STAGES, make_items(5))
        sim = builder.run_simulated()
        result = CooperativeEngine(RandomPolicy(seed=seed)).run(
            builder.to_parallel()
        )
        assert bitwise_equal_arrays(
            PipelineProgramBuilder.results_from(result), sim
        )

    def test_single_stage_pipeline(self):
        builder = PipelineProgramBuilder([lambda x: x * 3], make_items(4))
        expected = builder.sequential_reference()
        assert bitwise_equal_arrays(builder.run_simulated(), expected)

    def test_single_item(self):
        builder = PipelineProgramBuilder(STAGES, make_items(1))
        assert bitwise_equal_arrays(
            builder.run_simulated(), builder.sequential_reference()
        )

    def test_shape_changing_stage(self):
        stages = [
            lambda x: x.reshape(2, 2),
            lambda x: x.sum(axis=0),
        ]
        builder = PipelineProgramBuilder(
            stages, make_items(5, shape=(4,)), item_shapes=[(2, 2), (2,)]
        )
        expected = builder.sequential_reference()
        assert expected.shape == (5, 2)
        assert bitwise_equal_arrays(builder.run_simulated(), expected)

    def test_determinacy(self):
        builder = PipelineProgramBuilder(STAGES, make_items(4))
        report = check_determinacy(
            builder.to_parallel, n_random=6, threaded_runs=2
        )
        assert report.determinate, report.summary()


class TestStreamingForm:
    def test_streaming_matches_builder(self):
        items = make_items(7)
        builder = PipelineProgramBuilder(STAGES, items)
        expected = builder.sequential_reference()
        system = pipeline_system(STAGES, items)
        result = ThreadedEngine().run(system)
        assert bitwise_equal_arrays(result.stores[-1]["results"], expected)

    def test_streaming_truly_pipelines(self):
        # Under run-ahead-friendly scheduling, stage 0 can finish all its
        # sends before stage 2 consumes anything: channel depth proves
        # in-flight overlap.
        from repro.runtime import RunToBlockPolicy

        items = make_items(5)
        system = pipeline_system(STAGES, items)
        result = CooperativeEngine(RunToBlockPolicy(), trace=True).run(system)
        # All items crossed each hop.
        assert result.channel_stats["pipe0"] == (5, 5)
        assert result.channel_stats["pipe1"] == (5, 5)


class TestModel:
    def test_balanced_pipeline_speedup(self):
        pipelined, fused = model_pipeline_time([1.0, 1.0, 1.0], nitems=100)
        assert fused / pipelined > 2.5  # near 3x for long streams

    def test_bottleneck_bounds_throughput(self):
        pipelined, fused = model_pipeline_time([1.0, 10.0, 1.0], nitems=100)
        assert pipelined > 100 * 10.0  # bottleneck stage dominates
        assert fused == 100 * 12.0

    def test_latency_penalises_short_streams(self):
        pipelined, fused = model_pipeline_time([1.0, 1.0], nitems=2, latency=5.0)
        assert pipelined > fused  # not worth pipelining two items

    def test_validation(self):
        with pytest.raises(ArchetypeError):
            model_pipeline_time([], nitems=5)
