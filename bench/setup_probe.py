"""Set-up of one benchmark operation in a fresh interpreter.

Imports handsmooth, loads the skeleton and the input, and builds the flat
objective: everything before the first iteration. Prints the monotonic clock
when done, so the caller times the whole set-up from before it spawned this
process. Usage:

    python3 bench/setup_probe.py ROOT refine SEQUENCE.json
    python3 bench/setup_probe.py ROOT gradcheck FRAMES VIEWS SEED
"""

import sys
import time

root, kind, *rest = sys.argv[1:]
sys.path.insert(0, f"{root}/src")

import handsmooth as hs  # noqa: E402

skeleton = hs.load_skeleton()
if kind == "refine":
    obs = hs.load_sequence(rest[0]).observations
else:
    frames, views, seed = map(int, rest)
    _, obs, _ = hs.random_problem(frames, views, seed)
hs.make_flat_objective(obs, skeleton)
print(repr(time.monotonic()))
