"""Fixed reference program that measures how fast the host runs right now.

It does the kinds of work tempdiag does (interpreter start, numpy import,
Python loops over tuples and dicts, small matrix powers, indented JSON
encoding) but imports nothing from tempdiag, so no change to the program
under test can move it. ``run.py`` starts it as a child, interleaved with
the CLI invocations, and scales its timings by it.
"""

import json

import numpy as np

table: dict[tuple[int, int], float] = {}
for i in range(60_000):
    key = (i % 97, i % 89)
    table[key] = table.get(key, 0.0) + i * 0.5
m = np.full((4, 4), 0.25)
for n in range(3_000):
    np.linalg.matrix_power(m, n % 16)
json.dumps([{"i": i, "v": [i * 0.1] * 4} for i in range(4_000)], indent=2)
