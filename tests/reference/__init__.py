"""Reference-spec implementations used only by the test suite.

Each module here keeps the readable per-device (per-step, per-column)
form of a production kernel in ``src/``.  Agreement tests hold the
production kernels to these references; production code never imports
them.
"""
