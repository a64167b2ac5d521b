"""Set-up cost of one fresh interpreter, run as a child of perfbench/run.py.

Usage: python3 perfbench/setup_child.py <src dir> <config.json>

Times `import mcflow`, then config validation and building the initial
field(s) the run would start from, and prints both as one JSON line.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
src = os.path.abspath(sys.argv[1])
sys.path.insert(0, src)
import mcflow  # noqa: E402
from mcflow.scenarios import ScenarioConfig, build_field_from_config  # noqa: E402

t1 = time.perf_counter()
if not os.path.abspath(mcflow.__file__).startswith(src + os.sep):
    sys.exit(f"imported mcflow from {mcflow.__file__}, not from {src}")
with open(sys.argv[2]) as fh:
    raw = json.load(fh)
cfg = ScenarioConfig.from_dict(raw)
if cfg.scenario == "dirichlet":
    for R in raw["sweep"]["values"]:
        build_field_from_config(cfg, "radial", outer=R * R)
else:
    build_field_from_config(cfg, "line" if cfg.scenario == "decay_study"
                            else "radial")
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1}))
