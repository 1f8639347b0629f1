"""Layer digests: the bytes of the capture layers below the CSV.

The golden CSV digests show that the experiments' output agrees, not that
the field does: a change in the field's last bits can round away before
any CSV byte moves (apply_doppler adding the LOS field before the
reflected paths kept every CSV digest). These pin the layers on small
cases, by the sha256 of their output bytes:

- capture_track's volts on farm with Doppler on and multipath ratio 0.4,
  as speed_sweep runs it: channel noise off and at -60 dBm, a still
  receiver and one at 9.1 m/s, 2 trials x 6 rounds;
- Receiver.scan's arrays of those volts, and what the row functions it
  calls (search_preambles, sweep_peaks, fix_2d) return on them;
- propagate's samples in both sweep modes, at 2, 4 and 5 antennas with
  one draw for both slots and at 4 with one draw per slot, still and
  moving, with Doppler off and on;
- the volts detected in one farm_cdf task (_farm_chunk, 4 trials on farm)
  and one range_sweep task (_range_chunk, 6 trials on range at 10 m and
  60 m), in both sweep modes, channel noise off and at -60 dBm;
- ber_point's decisions and two-means threshold (ap_demodulate,
  _bimodal_threshold) at every BER_SNR_POINTS_DB point, one BER_CHUNK
  each, and one noisy transmit_backscatter capture of a 1608-bit reply.

Raw field bits depend on numpy's SIMD level: on an AVX512_SPR host every
volts and samples digest differs between the full level and the X86_V2
baseline, while the scan arrays agree. So the digests are computed in a
child interpreter with the levels above X86_V2 switched off, as CI's
golden step does, and hold on any host. They were recorded with numpy
2.4.6. Run this file as a script, with NPY_DISABLE_CPU_FEATURES switching
those levels off, to print them.
"""

import contextlib
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
from sweeploc import backscatter, experiments, receiver
from sweeploc.backscatter import ber_point, modulate_frame, transmit_backscatter
from sweeploc.channel import draw_multipath, propagate
from sweeploc.experiments import (BER_CHUNK, BER_SNR_POINTS_DB, RANGE_DISTANCES_M,
                                  _farm_chunk, _range_chunk)
from sweeploc.pipeline import capture_track
from sweeploc.receiver import Receiver
from sweeploc.scenario import Position, Trajectory, trial_rng
from sweeploc.scenarios import farm_scenario, range_scenario

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
    "search_preambles, noise None dBm, 0.0 m/s":
        "88ffd307106e53e65025d0a1d89c091dba391e78a6cb7f74cef5ed1e8588581a",
    "sweep_peaks, noise None dBm, 0.0 m/s":
        "e7ade2c252a397d0f1188ef04827fc53da578854bb8556f537d1b2c0a0196cce",
    "fix_2d, noise None dBm, 0.0 m/s":
        "ff24407043b8e82670c4bfb81cef7c704d3cc39650bef1d9e65125bbf9814c8f",
    "capture_track volts, noise None dBm, 9.1 m/s":
        "49869afa310636fa615f58a81e2f53b0d4ddd5db194d0abc8c0f487da7b7ff69",
    "Receiver.scan, noise None dBm, 9.1 m/s":
        "dc4684f977f10c5a1dc06dfdb70fdc83e2eeb604f26e83e3f11bf8dc7db75430",
    "search_preambles, noise None dBm, 9.1 m/s":
        "d08865a8abbe5cffd8da947d540428afb380cba3aa69f9c034cb98d286579e97",
    "sweep_peaks, noise None dBm, 9.1 m/s":
        "ef17f84c351d068aeadaf0b3885986cc1c0acae4bb0f636a27953ea4e50b9579",
    "fix_2d, noise None dBm, 9.1 m/s":
        "188c14433cf812f1e214b78794b3a26d73738a26070957f9f8e02cf78ffd2335",
    "capture_track volts, noise -60.0 dBm, 0.0 m/s":
        "88016d8de677aaf2fba67c5e7dc1188c2d83e3e462b7a4b2d3ca362f8eddf3f7",
    "Receiver.scan, noise -60.0 dBm, 0.0 m/s":
        "bb1129f238acb65e71edc37e1e42e61e6cafd3b99ec5f9d6f1702c13b8958d4b",
    "search_preambles, noise -60.0 dBm, 0.0 m/s":
        "962defdf17bbfffe0fdecdedd70219e5a8c2653a757297b0f2fd5c702cc1f6e8",
    "sweep_peaks, noise -60.0 dBm, 0.0 m/s":
        "a97ffd1bcfa06e8241c91dc864f4a1625cdc211ce193a8ffdcbcf96b60a6307f",
    "fix_2d, noise -60.0 dBm, 0.0 m/s":
        "7f09265d50d34ba21dbe52e43107d4fada29609bb115906d0376ad0988973689",
    "capture_track volts, noise -60.0 dBm, 9.1 m/s":
        "9794cb3751e1ee557363e49d77438874b5d4b48f11eaa5599e525d5cfcbad256",
    "Receiver.scan, noise -60.0 dBm, 9.1 m/s":
        "6b797b9320a0acc1da488cf7a679a3f266f61281630126e97f7ca736eddd617a",
    "search_preambles, noise -60.0 dBm, 9.1 m/s":
        "11473b4a10abb2d63779b970485d0ad89395a5f43e34529dfcd037fe6d17bfa6",
    "sweep_peaks, noise -60.0 dBm, 9.1 m/s":
        "6b4d3f028588abe94162e57ab003f6c7904eed482465a6c48c770ba70834889c",
    "fix_2d, noise -60.0 dBm, 9.1 m/s":
        "da4121838684e43d425e3d602c92a02e937870eae50a167c998d9ed6ca4fd61c",
    "propagate alg1, 2 antennas, 0.0 m/s, doppler False":
        "48f34cffe3c3b3b2244c32323d5c3164ca5f86f8a6558c33908d085e12d616cd",
    "propagate alg1, 2 antennas, 0.0 m/s, doppler True":
        "48f34cffe3c3b3b2244c32323d5c3164ca5f86f8a6558c33908d085e12d616cd",
    "propagate alg1, 2 antennas, 9.1 m/s, doppler False":
        "bdc4458f4ebb69c59a7bd4ff92405b0533ba9c339f08fef0c464219d2b8fcb93",
    "propagate alg1, 2 antennas, 9.1 m/s, doppler True":
        "ea15cd5ccf102446a7f9942a012c6858649e54d5a2065d6b30966336141cd2dd",
    "propagate alg1, 4 antennas, 0.0 m/s, doppler False":
        "c066061206709974c8d743046e15f74e3b3ff2578ad0d11a49937351627706f7",
    "propagate alg1, 4 antennas, 0.0 m/s, doppler True":
        "c066061206709974c8d743046e15f74e3b3ff2578ad0d11a49937351627706f7",
    "propagate alg1, 4 antennas, 9.1 m/s, doppler False":
        "f4dd75acdb733cadd927c5fb8ab24de76e000b2b9a929c2a578b30e5eff2e417",
    "propagate alg1, 4 antennas, 9.1 m/s, doppler True":
        "6d81d7cd5e1d3bbede4815bc6550e3d1d41bfe3b688bb667dcfcff670d36eb51",
    "propagate alg1, 5 antennas, 0.0 m/s, doppler False":
        "a9a0353b24161e2848a71ce7b7a2ba0a8f78c20c4e563f09262e452266aec723",
    "propagate alg1, 5 antennas, 0.0 m/s, doppler True":
        "a9a0353b24161e2848a71ce7b7a2ba0a8f78c20c4e563f09262e452266aec723",
    "propagate alg1, 5 antennas, 9.1 m/s, doppler False":
        "f3a6fc22f5a769a587dce5fffd8b959f308f394fe7814e50506a1892ec9b69cf",
    "propagate alg1, 5 antennas, 9.1 m/s, doppler True":
        "891c7fa2dfada1e5e77493d559ccaee29bb749d74f4bc8ac1ebefe4eb5727b1f",
    "propagate alg1, 4 antennas, one draw per slot, 0.0 m/s, doppler False":
        "af1d3437b1ba7356ef6e40b115ae54a34d33178403e02f568c6c4ba47c143026",
    "propagate alg1, 4 antennas, one draw per slot, 0.0 m/s, doppler True":
        "af1d3437b1ba7356ef6e40b115ae54a34d33178403e02f568c6c4ba47c143026",
    "propagate alg1, 4 antennas, one draw per slot, 9.1 m/s, doppler False":
        "6d504289a431d34e1619ecbe904241ba89416a075d4c4bbbe64a947530ac7a92",
    "propagate alg1, 4 antennas, one draw per slot, 9.1 m/s, doppler True":
        "5109230011e084ffa9f63e8ad6ccf8f452b0f6ddc8d394bb97400533a238444a",
    "propagate uniform-theta, 2 antennas, 0.0 m/s, doppler False":
        "62b2517f3495e2654fafa8312301d2a1147d40c980a19adf0cc54bf4441b3859",
    "propagate uniform-theta, 2 antennas, 0.0 m/s, doppler True":
        "62b2517f3495e2654fafa8312301d2a1147d40c980a19adf0cc54bf4441b3859",
    "propagate uniform-theta, 2 antennas, 9.1 m/s, doppler False":
        "6396865f217a1e5c86f26b8e68dc58fe67e27015eed0a50306ebde28e5fb3b8f",
    "propagate uniform-theta, 2 antennas, 9.1 m/s, doppler True":
        "2ee3e04f2d4bbb1c8dfed748e3bd69787c5a2c1a59248d2f1c7c74590415e90e",
    "propagate uniform-theta, 4 antennas, 0.0 m/s, doppler False":
        "571b51a834ab3046b34ffce928b68b0ac21d07dd4fe0140e2b8fa0835ca52b11",
    "propagate uniform-theta, 4 antennas, 0.0 m/s, doppler True":
        "571b51a834ab3046b34ffce928b68b0ac21d07dd4fe0140e2b8fa0835ca52b11",
    "propagate uniform-theta, 4 antennas, 9.1 m/s, doppler False":
        "3406a36a3422f42e77c6a39390fa6760052387c3662d083f6b48ac295e3383ff",
    "propagate uniform-theta, 4 antennas, 9.1 m/s, doppler True":
        "d7dbc468d4fd3f1c79eea8162a8786b8929b397b9a94d511a797ff94441a12a3",
    "propagate uniform-theta, 5 antennas, 0.0 m/s, doppler False":
        "9f5ada3093cfb1dce5d69b46fcd68b4c4cb003f365648d4c6c95447d71fc3670",
    "propagate uniform-theta, 5 antennas, 0.0 m/s, doppler True":
        "9f5ada3093cfb1dce5d69b46fcd68b4c4cb003f365648d4c6c95447d71fc3670",
    "propagate uniform-theta, 5 antennas, 9.1 m/s, doppler False":
        "cb83db3b2a1ccf709a5315c7b05df0de29edffafd2166207387c367ef9d710c3",
    "propagate uniform-theta, 5 antennas, 9.1 m/s, doppler True":
        "e7b4f2fb526e8294632a03b89110781fd38bc48fa1b958950d563eb3e4c0848e",
    "propagate uniform-theta, 4 antennas, one draw per slot, 0.0 m/s, doppler False":
        "9397332a76ff389549195b410e26726a7e60f05ac6f64ad81f00c1dba513f7af",
    "propagate uniform-theta, 4 antennas, one draw per slot, 0.0 m/s, doppler True":
        "9397332a76ff389549195b410e26726a7e60f05ac6f64ad81f00c1dba513f7af",
    "propagate uniform-theta, 4 antennas, one draw per slot, 9.1 m/s, doppler False":
        "f38ceccbee918df6fe5b1fbc1e2ea369e28c7941f387447061d0270bb7f9d3aa",
    "propagate uniform-theta, 4 antennas, one draw per slot, 9.1 m/s, doppler True":
        "cf29783b8c03b051a20a22fed50b09bc4213fe4804de1c353fcb4ef62b2f9a1e",
    "_farm_chunk volts, alg1, noise None dBm":
        "ff0a56e27260f68a99218940532e23ccd3d6b9430a4e52398301a0c3e91fcd61",
    "_range_chunk volts, 10.0 m, alg1, noise None dBm":
        "6709d304602d08f48b3630a095b99ff0b253cf73e60955ebb2d935c3997cc458",
    "_range_chunk volts, 60.0 m, alg1, noise None dBm":
        "e680729e9d4be0921fa80f297f45c1b24f3eba01706121c84e355b35e7a9114f",
    "_farm_chunk volts, alg1, noise -60.0 dBm":
        "0abdd3d1e66d96a6bceeb4127c70325f43404c2d2170d1fa89a0bc975d0f5fe1",
    "_range_chunk volts, 10.0 m, alg1, noise -60.0 dBm":
        "31f4039199d903bd014651740fe2de7b253e88fa5d94c242e3648bb044b30be8",
    "_range_chunk volts, 60.0 m, alg1, noise -60.0 dBm":
        "75f65ed28bf3b8a15b1fe22e2c5514d71eb0b8d3c5252e9fd6e6504b99f931e8",
    "_farm_chunk volts, uniform-theta, noise None dBm":
        "f986dc83b5baf5d3728fd54d1fac2daa8202b0b1c71cf51725f35deac305c02e",
    "_range_chunk volts, 10.0 m, uniform-theta, noise None dBm":
        "26c4ab441839fa7c2cd20f65ba04979a4445826d7beefd4cb93696ac306b810b",
    "_range_chunk volts, 60.0 m, uniform-theta, noise None dBm":
        "0942c01c26a70089bf2b9b1a011977637dc01715c26748e52e938982b698668d",
    "_farm_chunk volts, uniform-theta, noise -60.0 dBm":
        "76b5b0f973103584c76c5864013e651e1c3b5870ecb880441b023d839ffe8b3f",
    "_range_chunk volts, 10.0 m, uniform-theta, noise -60.0 dBm":
        "e50cc98cb398dee00421486e62c45d801b3fd68ba373bfa8b3ea472209d78076",
    "_range_chunk volts, 60.0 m, uniform-theta, noise -60.0 dBm":
        "c8d8adb255bcdd69416c9d5ed957c16eb90d83161aa169f10bcc74b85ae71533",
    "ber_point decisions and threshold, -12.0 dB":
        "b3cd4655ecec2a2af63724b426a382afaf4b4f42ecb51f7d1e22da73d654ea6c",
    "ber_point decisions and threshold, -10.0 dB":
        "54f9a0cf5e71c07f2af7567985f4ddec59f7fda118291e151ceb3173c9334dff",
    "ber_point decisions and threshold, -8.0 dB":
        "6fda73196a1f89b29af52a8e784eb874b2bb4a54d861a8ac9faa69d35a98abfc",
    "ber_point decisions and threshold, -6.0 dB":
        "00ab4c3f090ec2e465d6387ac9d237afea16322231d1a9d1605570b03b899617",
    "ber_point decisions and threshold, -4.0 dB":
        "cfc431e8e189f6f8c7913e3f5532b8ea77320351488ffdb4192e53a42d21859c",
    "ber_point decisions and threshold, -2.0 dB":
        "2202df45e81995aaa07f11c8aeb50836be7f8fc363554d42e370a97064f94aee",
    "ber_point decisions and threshold, 0.0 dB":
        "b2fc4099d10ed88c8c06667428a1dc3746b3cae5435aa4613a880ef7f6fefadf",
    "ber_point decisions and threshold, 2.0 dB":
        "0343986c94f237f015da27b3b658ce9eec7fa23539be99408a9160b7d5dbc933",
    "ber_point decisions and threshold, 4.0 dB":
        "2111a06fa21ec499559bc9969496c37dedc8a800e0bb8693d3ce26d1ff50ccb3",
    "ber_point decisions and threshold, 6.0 dB":
        "472bb162dd8e35ce3a426b35614a0b8e75960f09ec090e9e551042b8ef10f321",
    "transmit_backscatter capture":
        "a7268f8e83e74830c1a511178a2396692ddbe54a55e6e237ee39ef700152b6cd",
}

pytestmark = pytest.mark.skipif(
    np.__version__ != "2.4.6",
    reason="layer digests were recorded with numpy 2.4.6; another release"
           " may round a transcendental or a reduction differently")


def _digest(*arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes()
                                   for a in arrays)).hexdigest()


@contextlib.contextmanager
def _returns(module, *names):
    """While the block runs, record what each named function of module
    returns, in call order (a tuple's items one by one): one list per name."""
    seen = {name: [] for name in names}
    real = {name: getattr(module, name) for name in names}

    def spy(name):
        def call(*args, **kwargs):
            result = real[name](*args, **kwargs)
            seen[name].extend(result if isinstance(result, tuple) else (result,))
            return result
        return call
    try:
        for name in names:
            setattr(module, name, spy(name))
        yield seen
    finally:
        for name in names:
            setattr(module, name, real[name])


def layer_digests() -> dict[str, str]:
    """Every case's digest, at this interpreter's SIMD level."""
    farm = farm_scenario(seed=1)
    channel = replace(farm.channel, doppler_enabled=True, multipath_ratio=0.4)
    rx = Receiver(farm)
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
            rows = ("search_preambles", "sweep_peaks", "fix_2d")
            with _returns(receiver, *rows) as seen:
                digests[f"Receiver.scan, {case}"] = _digest(*astuple(rx.scan(env)))
            for name in rows:
                digests[f"{name}, {case}"] = _digest(*seen[name])
    period = farm.aps[0].sweep_period_s
    t0 = np.array([[0.0, farm.round_s]])  # two slots of one trajectory
    for mode in ("alg1", "uniform-theta"):
        # one draw for both slots at 2, 4 and 5 antennas; one per slot at 4
        for antennas, per_slot in ((2, False), (4, False), (5, False), (4, True)):
            ap = replace(farm.aps[0], antenna_count=antennas)
            key, shape = ((mode, antennas, "per slot"), t0.shape) if per_slot else (
                (mode, antennas), ())
            paths = draw_multipath(channel, trial_rng(1, "layer", *key), shape)
            what = f"{antennas} antennas" + (", one draw per slot" if per_slot else "")
            for speed in SPEEDS_MPS:
                traj = (Trajectory.line(starts[0], 0.4, speed, farm.round_s + period)
                        if speed else Trajectory.stationary(starts[0]))
                for doppler in (False, True):
                    field = propagate(ap, mode, paths, [traj],
                                      farm.detector.sample_rate_hz, t0, doppler)
                    digests[f"propagate {mode}, {what}, {speed} m/s,"
                            f" doppler {doppler}"] = _digest(field.samples)
    for mode in ("alg1", "uniform-theta"):
        for noise in NOISE_DBM:
            farm_t, range_t = (
                replace(scn, sweep_mode=mode,
                        channel=replace(scn.channel, noise_power_dbm=noise))
                for scn in (farm, range_scenario(seed=1)))
            case = f"{mode}, noise {noise} dBm"
            with _returns(experiments, "detect_with_noise") as seen:
                _farm_chunk((farm_t, 0, 4))
                for d_idx in (0, 5):
                    _range_chunk((range_t, d_idx, 0, 6))
            farm_volts, *range_volts = (env.volts for env in seen["detect_with_noise"])
            digests[f"_farm_chunk volts, {case}"] = _digest(farm_volts)
            for d_idx, volts in zip((0, 5), range_volts):
                digests[f"_range_chunk volts, {RANGE_DISTANCES_M[d_idx]} m,"
                        f" {case}"] = _digest(volts)
    for snr in BER_SNR_POINTS_DB:
        with _returns(backscatter, "ap_demodulate", "_bimodal_threshold") as seen:
            ber_point(snr, BER_CHUNK, trial_rng(1, "layer", "ber", snr))
        digests[f"ber_point decisions and threshold, {snr} dB"] = _digest(
            *seen["ap_demodulate"], *seen["_bimodal_threshold"])
    rng = trial_rng(1, "layer", "uplink")
    wave = modulate_frame(rng.integers(0, 2, 1608).astype(np.uint8))
    digests["transmit_backscatter capture"] = _digest(
        transmit_backscatter(wave, 12.0, rng))
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
