"""Reference implementations kept as test oracles.

Each module here is the paper's line-by-line (dict-based) version of a
computation whose production form lives in ``src/repro`` on arrays. The
parity suites compare the two; nothing in the library imports these.
"""
