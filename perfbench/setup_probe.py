"""Print the seconds a fresh interpreter spends on ``import soclelab`` plus
parsing the given ring files, which every command-line call pays.

    python3 perfbench/setup_probe.py SRC_DIR FILE.ring [FILE.ring ...]
"""

import sys
import time

started = time.perf_counter()
src, *paths = sys.argv[1:]
sys.path.insert(0, src)

import soclelab  # noqa: E402

for path in paths:
    soclelab.parse_input_file(path)
print(repr(time.perf_counter() - started))
