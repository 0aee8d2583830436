"""Bit-identity oracles: the straightforward reference implementations
that the production kernels are pinned against.

Nothing under ``src/`` may import this package; the oracles are test
assets, not alternative engines.
"""
