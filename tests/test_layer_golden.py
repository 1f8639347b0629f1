"""Layer digests: the bytes of the capture layers below the CSV.

The golden CSV digests show that the experiments' output agrees, not that
the field does: a change in the field's last bits can round away before
any CSV byte moves (apply_doppler adding the LOS field before the
reflected paths kept every CSV digest). These pin three layers on small
cases, by the sha256 of their output bytes:

- capture_track's volts on farm with Doppler on and multipath ratio 0.4,
  as speed_sweep runs it: channel noise off and at -60 dBm, a still
  receiver and one at 9.1 m/s, 2 trials x 6 rounds;
- Receiver.scan's arrays of those volts;
- propagate's samples in both sweep modes, at 2 and 5 antennas, still and
  moving, with Doppler off and on.

Raw field bits depend on numpy's SIMD level: on an AVX512_SPR host every
volts and samples digest differs between the full level and the X86_V2
baseline, while the scan arrays agree. So the digests are computed in a
child interpreter with the levels above X86_V2 switched off, as CI's
golden step does, and hold on any host. They were recorded with numpy
2.4.6. Run this file as a script, with NPY_DISABLE_CPU_FEATURES switching
those levels off, to print them.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

import sweeploc
from sweeploc.channel import draw_multipath, propagate
from sweeploc.experiments import cached_table
from sweeploc.pipeline import capture_track
from sweeploc.receiver import Receiver
from sweeploc.scenario import Position, Trajectory, trial_rng
from sweeploc.scenarios import farm_scenario

LEVELS = ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3")  # above X86_V2
ROUNDS = 6
SPEEDS_MPS = (0.0, 9.1)
NOISE_DBM = (None, -60.0)

# at the X86_V2 baseline, the child's level
GOLDEN = {
    "capture_track volts, noise None dBm, 0.0 m/s":
        "d82b774bfe0aff73bddefb35b6f456820d5e18591c9d1fbc838c4d81e3eeadc0",
    "Receiver.scan, noise None dBm, 0.0 m/s":
        "89f6e3e6e5d348c32e16408e2876f1044d683b878e40bc1b793e204c7f32f71f",
    "capture_track volts, noise None dBm, 9.1 m/s":
        "49869afa310636fa615f58a81e2f53b0d4ddd5db194d0abc8c0f487da7b7ff69",
    "Receiver.scan, noise None dBm, 9.1 m/s":
        "dc4684f977f10c5a1dc06dfdb70fdc83e2eeb604f26e83e3f11bf8dc7db75430",
    "capture_track volts, noise -60.0 dBm, 0.0 m/s":
        "88016d8de677aaf2fba67c5e7dc1188c2d83e3e462b7a4b2d3ca362f8eddf3f7",
    "Receiver.scan, noise -60.0 dBm, 0.0 m/s":
        "bb1129f238acb65e71edc37e1e42e61e6cafd3b99ec5f9d6f1702c13b8958d4b",
    "capture_track volts, noise -60.0 dBm, 9.1 m/s":
        "9794cb3751e1ee557363e49d77438874b5d4b48f11eaa5599e525d5cfcbad256",
    "Receiver.scan, noise -60.0 dBm, 9.1 m/s":
        "6b797b9320a0acc1da488cf7a679a3f266f61281630126e97f7ca736eddd617a",
    "propagate alg1, 2 antennas, 0.0 m/s, doppler False":
        "48f34cffe3c3b3b2244c32323d5c3164ca5f86f8a6558c33908d085e12d616cd",
    "propagate alg1, 2 antennas, 0.0 m/s, doppler True":
        "48f34cffe3c3b3b2244c32323d5c3164ca5f86f8a6558c33908d085e12d616cd",
    "propagate alg1, 2 antennas, 9.1 m/s, doppler False":
        "bdc4458f4ebb69c59a7bd4ff92405b0533ba9c339f08fef0c464219d2b8fcb93",
    "propagate alg1, 2 antennas, 9.1 m/s, doppler True":
        "ea15cd5ccf102446a7f9942a012c6858649e54d5a2065d6b30966336141cd2dd",
    "propagate alg1, 5 antennas, 0.0 m/s, doppler False":
        "a9a0353b24161e2848a71ce7b7a2ba0a8f78c20c4e563f09262e452266aec723",
    "propagate alg1, 5 antennas, 0.0 m/s, doppler True":
        "a9a0353b24161e2848a71ce7b7a2ba0a8f78c20c4e563f09262e452266aec723",
    "propagate alg1, 5 antennas, 9.1 m/s, doppler False":
        "f3a6fc22f5a769a587dce5fffd8b959f308f394fe7814e50506a1892ec9b69cf",
    "propagate alg1, 5 antennas, 9.1 m/s, doppler True":
        "891c7fa2dfada1e5e77493d559ccaee29bb749d74f4bc8ac1ebefe4eb5727b1f",
    "propagate uniform-theta, 2 antennas, 0.0 m/s, doppler False":
        "62b2517f3495e2654fafa8312301d2a1147d40c980a19adf0cc54bf4441b3859",
    "propagate uniform-theta, 2 antennas, 0.0 m/s, doppler True":
        "62b2517f3495e2654fafa8312301d2a1147d40c980a19adf0cc54bf4441b3859",
    "propagate uniform-theta, 2 antennas, 9.1 m/s, doppler False":
        "6396865f217a1e5c86f26b8e68dc58fe67e27015eed0a50306ebde28e5fb3b8f",
    "propagate uniform-theta, 2 antennas, 9.1 m/s, doppler True":
        "2ee3e04f2d4bbb1c8dfed748e3bd69787c5a2c1a59248d2f1c7c74590415e90e",
    "propagate uniform-theta, 5 antennas, 0.0 m/s, doppler False":
        "9f5ada3093cfb1dce5d69b46fcd68b4c4cb003f365648d4c6c95447d71fc3670",
    "propagate uniform-theta, 5 antennas, 0.0 m/s, doppler True":
        "9f5ada3093cfb1dce5d69b46fcd68b4c4cb003f365648d4c6c95447d71fc3670",
    "propagate uniform-theta, 5 antennas, 9.1 m/s, doppler False":
        "cb83db3b2a1ccf709a5315c7b05df0de29edffafd2166207387c367ef9d710c3",
    "propagate uniform-theta, 5 antennas, 9.1 m/s, doppler True":
        "e7b4f2fb526e8294632a03b89110781fd38bc48fa1b958950d563eb3e4c0848e",
}

pytestmark = pytest.mark.skipif(
    np.__version__ != "2.4.6",
    reason="layer digests were recorded with numpy 2.4.6; another release"
           " may round a transcendental or a reduction differently")


def _digest(*arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes()
                                   for a in arrays)).hexdigest()


def layer_digests() -> dict[str, str]:
    """Every case's digest, at this interpreter's SIMD level."""
    farm = farm_scenario(seed=1)
    channel = replace(farm.channel, doppler_enabled=True, multipath_ratio=0.4)
    rx = Receiver(farm, cached_table(*farm.aps))
    starts = (Position(40.0, 30.0), Position(70.0, 55.0))
    digests = {}
    for noise in NOISE_DBM:
        scn = replace(farm, channel=replace(channel, noise_power_dbm=noise))
        for speed in SPEEDS_MPS:
            trajs = [Trajectory.line(p, 0.4, speed, ROUNDS * scn.round_s)
                     if speed else Trajectory.stationary(p) for p in starts]
            rngs = [trial_rng(1, "layer", k) for k in range(len(trajs))]
            env = capture_track(scn, trajs, rngs, ROUNDS)
            case = f"noise {noise} dBm, {speed} m/s"
            digests[f"capture_track volts, {case}"] = _digest(env.volts)
            digests[f"Receiver.scan, {case}"] = _digest(*astuple(rx.scan(env)))
    period = farm.aps[0].sweep_period_s
    t0 = np.array([[0.0, farm.round_s]])  # two slots of one trajectory
    for mode in ("alg1", "uniform-theta"):
        for antennas in (2, 5):
            ap = replace(farm.aps[0], antenna_count=antennas)
            paths = draw_multipath(channel, trial_rng(1, "layer", mode, antennas))
            for speed in SPEEDS_MPS:
                traj = (Trajectory.line(starts[0], 0.4, speed, farm.round_s + period)
                        if speed else Trajectory.stationary(starts[0]))
                for doppler in (False, True):
                    field = propagate(ap, mode, paths, [traj],
                                      farm.detector.sample_rate_hz, t0, doppler)
                    digests[f"propagate {mode}, {antennas} antennas, {speed} m/s,"
                            f" doppler {doppler}"] = _digest(field.samples)
    return digests


@pytest.fixture(scope="module")
def digests():
    off = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
    off += [x for x in LEVELS if __cpu_features__.get(x) and x not in off]
    src = str(Path(sweeploc.__file__).resolve().parents[1])
    path = filter(None, (src, os.environ.get("PYTHONPATH")))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off),
               PYTHONPATH=os.pathsep.join(path))
    child = subprocess.run([sys.executable, __file__], env=env, timeout=120,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_cases_cover_every_digest(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_layer_bytes_match_golden(digests, case):
    assert digests[case] == GOLDEN[case]


if __name__ == "__main__":
    # the child: none of the levels above X86_V2 may still run
    running = [x for x in LEVELS if __cpu_features__.get(x)]
    if running:
        sys.exit(f"still running: {' '.join(running)}")
    print(json.dumps(layer_digests(), indent=4))
