"""Reference implementations the production paths are checked against.

Each oracle executes the literal semantics of a production routine -- event
by event, tile by tile, row by row -- with no lowering or index caching, so
a differential suite can assert the production path is bit-identical to it.
"""
