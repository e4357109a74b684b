"""Fixed reference task timed next to every CLI child: see ``run.py``.

Interpreter start, numpy import, vectorised numpy work and pure-Python work
(integer arithmetic, and formatting and joining strings), like the commands
it is compared with. Changing it changes every scaled time, so keep it fixed.
"""

import numpy as np

x = np.random.default_rng(0).random(500_000)
np.sort(x)
np.exp(x).sum()
total = 0
for i in range(100_000):
    total += i * i
rows = [[(i * 7 + j) % 2 for j in range(30)] for i in range(3000)]
text = "".join(",".join(str(v) for v in row) + "\n" for row in rows)
