"""The perfbench tracer reads the model from outside: it patches
``DenseTsNet.forward``, finds each gaze block through ``model.layers``, and
prices a forward with ``count_macs``.  Model refactors must keep that
working, so this runs the tracer on one small forward."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Tracer.install() patches densetsnet's modules for the whole process, so the
# traced forward runs in a child process.
SCRIPT = textwrap.dedent("""
    import json, sys
    sys.path.insert(0, sys.argv[1])
    import numpy as np
    from tracer import Tracer

    tracer = Tracer("contract")
    tracer.install()
    import densetsnet.autodiff as ad
    import densetsnet.model as m
    from densetsnet.dsp import StftConfig

    model = m.build_model(m.ModelConfig(), StftConfig(), seed=0)
    mag = np.abs(np.random.default_rng(0).standard_normal((1, 9, 201)))
    with ad.no_grad():
        model.forward(ad.Tensor(mag))
    spans = {}
    for _, _, name, _, _, _, args in tracer.events:
        spans.setdefault(name, args)
    print(json.dumps({"names": sorted(spans),
                      "forward_macs": spans["model.forward"]["macs"],
                      "count_macs": model.count_macs(9, 201)}))
""")


def test_tracer_sees_every_gaze_block_and_the_forward_macs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    names = set(got["names"])
    for i in range(1, 5):
        for view in ("time", "freq"):
            assert f"model.blk{i}.{view}" in names, (i, view)
    assert got["count_macs"] == 14_008_392
    assert got["forward_macs"] == got["count_macs"]
