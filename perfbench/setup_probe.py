"""Times what every ``cmc`` invocation pays before its real work: importing
cmcgeo, then parsing and building the given model.  Prints seconds.

    python3 -m perfbench.setup_probe MODEL
"""

import sys
import time

start = time.perf_counter()
import cmcgeo  # noqa: E402

cmcgeo.build_chart(cmcgeo.parse_model(sys.argv[1]))
print(repr(time.perf_counter() - start))
