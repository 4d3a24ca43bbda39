"""Decomposition index arithmetic, including property-based coverage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archetypes.mesh import (
    BlockDecomposition,
    ProcessGrid,
    block_bounds,
    choose_process_grid,
    factorizations,
)
from repro.errors import DecompositionError


class TestBlockBounds:
    def test_even_split(self):
        assert [block_bounds(12, 4, k) for k in range(4)] == [
            (0, 3),
            (3, 6),
            (6, 9),
            (9, 12),
        ]

    def test_remainder_spread_to_leading_parts(self):
        assert [block_bounds(10, 3, k) for k in range(3)] == [
            (0, 4),
            (4, 7),
            (7, 10),
        ]

    def test_extent_smaller_than_parts_rejected(self):
        with pytest.raises(DecompositionError):
            block_bounds(2, 3, 0)

    def test_part_index_out_of_range(self):
        with pytest.raises(DecompositionError):
            block_bounds(10, 2, 2)

    @given(
        n=st.integers(min_value=1, max_value=500),
        p=st.integers(min_value=1, max_value=32),
    )
    def test_parts_tile_exactly(self, n, p):
        if n < p:
            return
        bounds = [block_bounds(n, p, k) for k in range(p)]
        assert bounds[0][0] == 0
        assert bounds[-1][1] == n
        for (a0, a1), (b0, b1) in zip(bounds, bounds[1:]):
            assert a1 == b0  # contiguous, no gaps or overlaps
        sizes = [b - a for a, b in bounds]
        assert max(sizes) - min(sizes) <= 1  # balanced


class TestFactorizationsAndChoice:
    def test_factorizations_count(self):
        assert set(factorizations(4, 2)) == {(1, 4), (2, 2), (4, 1)}

    def test_choice_prefers_long_axis_for_1d_like_grid(self):
        # Splitting the long axis minimises face area.
        assert choose_process_grid(4, (100, 4)) == (4, 1)

    def test_choice_balances_cube(self):
        assert choose_process_grid(8, (64, 64, 64)) == (2, 2, 2)

    def test_choice_respects_axis_limits(self):
        # Only 2 cells along the first axis: cannot put 4 processes there.
        shape = choose_process_grid(4, (2, 100))
        assert shape[0] <= 2

    def test_impossible_raises(self):
        with pytest.raises(DecompositionError):
            choose_process_grid(7, (2, 2))

    def test_deterministic_tiebreak(self):
        assert choose_process_grid(4, (16, 16)) == choose_process_grid(
            4, (16, 16)
        )


class TestProcessGrid:
    def test_roundtrip_rank_coords(self):
        grid = ProcessGrid((2, 3, 2))
        for rank in range(12):
            assert grid.rank(grid.coords(rank)) == rank

    def test_c_order(self):
        grid = ProcessGrid((2, 3))
        assert grid.coords(0) == (0, 0)
        assert grid.coords(1) == (0, 1)
        assert grid.coords(3) == (1, 0)

    def test_neighbors_interior_and_boundary(self):
        grid = ProcessGrid((2, 2))
        assert grid.neighbor(0, 0, 1) == 2
        assert grid.neighbor(0, 1, 1) == 1
        assert grid.neighbor(0, 0, -1) is None
        assert grid.neighbor(3, 1, 1) is None

    def test_neighbor_symmetry(self):
        grid = ProcessGrid((3, 2, 2))
        for rank in range(grid.nprocs):
            for axis in range(3):
                for direction in (-1, 1):
                    nb = grid.neighbor(rank, axis, direction)
                    if nb is not None:
                        assert grid.neighbor(nb, axis, -direction) == rank

    def test_invalid_shapes(self):
        with pytest.raises(DecompositionError):
            ProcessGrid((0, 2))
        with pytest.raises(DecompositionError):
            ProcessGrid((2,)).rank((5,))


@st.composite
def decompositions(draw):
    ndim = draw(st.integers(1, 3))
    pshape = tuple(draw(st.integers(1, 3)) for _ in range(ndim))
    ghost = draw(st.integers(0, 2))
    gshape = tuple(
        draw(st.integers(max(p * max(ghost, 1), p), 12)) for p in pshape
    )
    return BlockDecomposition(gshape, pshape, ghost=ghost)


class TestBlockDecomposition:
    def test_local_shapes_include_ghost(self):
        d = BlockDecomposition((8, 8), (2, 2), ghost=2)
        assert d.owned_shape(0) == (4, 4)
        assert d.local_shape(0) == (8, 8)
        assert d.interior_slices(0) == (slice(2, 6), slice(2, 6))

    def test_ghost_wider_than_block_rejected(self):
        with pytest.raises(DecompositionError, match="thinner than ghost"):
            BlockDecomposition((4, 4), (4, 1), ghost=2)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DecompositionError):
            BlockDecomposition((8, 8), (2, 2, 2))

    @given(decompositions())
    @settings(max_examples=40, deadline=None)
    def test_partition_exactly_tiles(self, d):
        d.verify_partition()

    @given(decompositions())
    @settings(max_examples=40, deadline=None)
    def test_faces_pair_up(self, d):
        faces = d.all_faces()
        face_set = set(faces)
        for rank, axis, direction, nb in faces:
            assert (nb, axis, -direction, rank) in face_set

    def test_describe_mentions_every_rank(self):
        d = BlockDecomposition((8, 8), (2, 2), ghost=1)
        text = d.describe()
        for rank in range(4):
            assert f"rank {rank}" in text
