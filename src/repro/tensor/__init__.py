"""Tile/layout substrate.

The overlap design in FlashOverlap reasons about the GEMM output matrix in
units of *tiles* (the block of output computed by one thread block), and about
finer units derived from tiles: *sub-tiles* (a tile split along its rows into
one slice per GPU, used for ReduceScatter) and *sub-tokens* (a single row of a
tile, used for All-to-All).  This package provides:

* :class:`~repro.tensor.layout.TileLayout` -- the tile grid geometry of an
  ``M x N`` output matrix,
* helpers in :mod:`repro.tensor.tiles` to gather tiles (or sub-units) into a
  contiguous communication buffer and scatter them back through one flat
  index permutation (:func:`~repro.tensor.tiles.tile_flat_indices`); the
  packing order of each buffer is a tile tuple of
  :class:`~repro.core.reordering.ReorderPlan`.
"""
