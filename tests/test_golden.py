"""Golden CSV digests: every experiment's bytes at small trial counts.

The digests pin the exact output of each experiment on its default
builtin scenario at seed 1 (two experiments also at seeds 2 and 3, and
speed_sweep also across a batch of trials), in both sweep modes where the
experiment uses the sweep. A refactor that must keep behaviour (same
arithmetic, same rng draw order) keeps every digest; a change that is
meant to move results updates the table and says why in CHANGES.md.

The builtin scenarios have no channel noise, so NOISY pins the three
experiments that draw channel noise inside their trial loop on a variant
of their default scenario with noise on; those digests cover the rng
order of a capture (path draws, then channel noise, real then imaginary,
then detector noise) and, for range_sweep, noise over the silent padding
around the slot as well as over the slot.

Every digest was recorded with numpy 2.4.6 on Python 3.11. Another numpy
release may round a transcendental or a reduction differently, so a
digest that fails on one numpy version alone points at the environment,
not the code.
"""

import hashlib
from dataclasses import replace

import pytest

from sweeploc.experiments import (EXPERIMENTS, SPEED_BATCH, SPEED_ROUNDS,
                                  ExperimentSpec, render_csv, run_experiment)
from sweeploc.scenarios import BUILTIN_SCENARIOS

# Trial counts span two chunks where the experiment chunks its trials by
# GRID_CHUNK = 1024 or BER_CHUNK = 25000, so the reducer sums across chunks.
# farm_cdf's chunk is one 80-trial synthesis batch, which FARM_TASKS_TRIALS
# spans.
TRIALS = {
    "multipath_grid": 1100,
    "range_sweep": 4,
    "farm_cdf": 6,
    "speed_sweep": 1,
    "ber_vs_snr": 30000,
    "mac_session": None,
    "power_report": None,
}

GOLDEN = {
    ("multipath_grid", "alg1"):
        "ca51fab9440fbbff89f61ec87d6c0a08a82f835422e3aa6bfc909e289a90d80a",
    ("multipath_grid", "uniform-theta"):
        "bb3bf943aa47442d8dbd11d6fa3d04427f7af3b1ec111220cb0a9b48f8f3a77b",
    ("range_sweep", "alg1"):
        "490a79e78b0a8df1ce7630c86b6130c3981f6618b82bfb788316adb45c704b09",
    ("range_sweep", "uniform-theta"):
        "f6a61ba09cca52883b9e7b42ef8861fa5eabd2dfdb8ad5fd858bbd894d2ccd94",
    ("farm_cdf", "alg1"):
        "9d4ba5d1cf889491eee2e401efba360a615e00bce208c66b8e56c7c941043dce",
    ("farm_cdf", "uniform-theta"):
        "d1f9c61fc458373c5b4ba0fa60afa15408e3f133f127c026aaedf5129cae73f6",
    ("speed_sweep", "alg1"):
        "a9cbf7963fe1071348d16d3651dd76dac9f346e888b799342fa02a0d57c5d7bb",
    ("speed_sweep", "uniform-theta"):
        "5b78b5d90291c500bb20c0eca795cf7016740fedc3a21ee8a6c669a853dc6605",
    ("ber_vs_snr", "alg1"):
        "43133c9f20ff99e49345e4c1296eb7b56016ae9d3fff073dfb63857345937dac",
    ("mac_session", "alg1"):
        "2fad1dbf54e29139d832726c9686ae864b970893969be7f1ae88ec961daffb57",
    ("power_report", "alg1"):
        "0219e3d58e94094acae0069f6774edec482a76f1a40568de9427e3db2c60f800",
}


# Both experiments synthesize every capture through propagate, whose LOS
# field and reflected paths go through phased_sum, the kernel the grid
# shortcut uses; seeds 2 and 3 pin them on more channel draws and positions
# than seed 1 alone, at the TRIALS counts.
SEEDS = {
    ("farm_cdf", "alg1", 2):
        "72efd30089475866f68a3a405759f016955bb571fc48883a73ba5e364d4f6bf2",
    ("farm_cdf", "alg1", 3):
        "a6f58a6a6e091214ab598cf678b2472c6a543cc4d8b77644977186db566be45c",
    ("farm_cdf", "uniform-theta", 2):
        "18f25db472b7e32f7ab64227c8b92049fced6bd2c56abff078d3df315a606b63",
    ("farm_cdf", "uniform-theta", 3):
        "22e8d82a658c74632cb4fa3b5d4309b900ae658d4aa662b292c67e1154267976",
    ("range_sweep", "alg1", 2):
        "5556fd1345e9a3e9eb0ee80fc8b51b306d9aa6498504084598f174c5b062c13d",
    ("range_sweep", "alg1", 3):
        "3cb5edded7f22d61d1c1874acc1366d0a343c78be712b5ca0f0a903c9e5603e3",
    ("range_sweep", "uniform-theta", 2):
        "3f6f2d90136f50427f8746f4a273dcc7f84b21e38facd60586b04bedf2965851",
    ("range_sweep", "uniform-theta", 3):
        "bd3e6f7c0964b6030d82e7b4aab9a25a3c753a42029d3f6c460c19e78a676271",
}


# farm with channel noise at this level still fixes every trial; on the
# range scenario detections still fall off with distance.
NOISE_POWER_DBM = -50.0

NOISY = {
    ("speed_sweep", "alg1"):
        "c1d84f94029b371e95ca602e1ccca2be5dceea240a07a8161d6b68ca6f3126f2",
    ("speed_sweep", "uniform-theta"):
        "13a86903f846e1ee89d268a87e489753aa044b52b845575104b654937551f92f",
    ("farm_cdf", "alg1"):
        "351ed5a99aee4446180bf9e8157f6c806dbc6786a07abcfb14f92ca8d1e7bea2",
    ("farm_cdf", "uniform-theta"):
        "d81688c1c30c21555c48e0dbd4434b55c7eb372339da458393281cc830570636",
    ("range_sweep", "alg1"):
        "e5b9183f9411a50559ced96b4d126bf32720b310939d12db27e201289e9f86cb",
    ("range_sweep", "uniform-theta"):
        "ca1a72a440b87de9b108429ce8d637eea31b94243ad148140d4cb575a5411abd",
}


# speed_sweep captures and scans SPEED_BATCH trials at a time, so one
# trial more than that is a full batch and a batch of one at every speed.
# Recorded before the trials were batched, and equal after.
SPEED_BATCH_TRIALS = 5

SPEED_BATCHES = {
    ("alg1", None):
        "52c9b0b5a8b2c7582a9d36a3df504bbc3e3226b6e30ab607350452da37eb5597",
    ("alg1", NOISE_POWER_DBM):
        "2bc48dfd7ddfc33a7de802efaddcb3e9b7209995b9befa3b3c0399a71ca973e1",
    ("uniform-theta", None):
        "5b71679973fe8f512b16a8632ff672dba95d11742cfcb962a3c646fb8e1d2b1a",
    ("uniform-theta", NOISE_POWER_DBM):
        "bdfaba7e31f936c88ccd779f6ae6d8cbe5f78d0924861800fc74fc68569ea258",
}


# At seed 1 the first farm_cdf trial without a fix (a low-confidence
# bearing pair) is trial 65 in both modes, and 80 trials skip two, so these
# pin the no-fix path that the 6-trial digests never reach.
FARM_SKIPS_TRIALS = 80

FARM_SKIPS = {
    "alg1": "aa698c3f18b6f81124da04b552801a7094f5b69f7975d1b5722272a662d0fa66",
    "uniform-theta":
        "cd27cb32202c7824ff4a72b03d41e7cc3d98466dbf1b34d27aeca7d977f6e901",
}


# farm_cdf dispatches one synthesis batch of SPEED_BATCH * SPEED_ROUNDS // 2
# = 80 trials per task, so 161 trials are two whole tasks and a task of one
# trial. Recorded while farm_cdf still took up to 1024 trials per task, and
# equal after, with one worker or two.
FARM_TASKS_TRIALS = 161

FARM_TASKS = {
    "alg1": "ff68f6c9a464311cc0dc70d6a99454764e86765e72fb4800f57487bbea2b8fb0",
    "uniform-theta":
        "df46a0b21866306425183d9b79d538e481937ca19e4309aee788a8d59f939260",
}


def csv_digest(experiment: str, mode: str,
               noise_power_dbm: float | None = None,
               trials: int | None = None, seed: int = 1, workers: int = 1) -> str:
    scn = BUILTIN_SCENARIOS[EXPERIMENTS[experiment].scenario](seed=seed)
    if noise_power_dbm is not None:
        scn = replace(scn, channel=replace(scn.channel,
                                           noise_power_dbm=noise_power_dbm))
    spec = ExperimentSpec(experiment, replace(scn, sweep_mode=mode),
                          trials=trials or TRIALS[experiment], workers=workers)
    text = render_csv(run_experiment(spec))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("experiment,mode", sorted(GOLDEN))
def test_csv_bytes_match_golden(experiment, mode):
    assert csv_digest(experiment, mode) == GOLDEN[(experiment, mode)]


@pytest.mark.parametrize("experiment,mode,seed", sorted(SEEDS))
def test_csv_bytes_match_golden_at_more_seeds(experiment, mode, seed):
    assert csv_digest(experiment, mode, seed=seed) == SEEDS[(experiment, mode, seed)]


@pytest.mark.parametrize("experiment,mode", sorted(NOISY))
def test_csv_bytes_match_golden_with_channel_noise(experiment, mode):
    # the plain digest of this experiment draws no channel noise
    scn = BUILTIN_SCENARIOS[EXPERIMENTS[experiment].scenario](seed=1)
    assert scn.channel.noise_power_dbm is None
    digest = csv_digest(experiment, mode, noise_power_dbm=NOISE_POWER_DBM)
    assert digest == NOISY[(experiment, mode)]


@pytest.mark.parametrize("mode,noise_power_dbm", list(SPEED_BATCHES))
def test_speed_sweep_bytes_across_a_batch(mode, noise_power_dbm):
    assert SPEED_BATCH_TRIALS == SPEED_BATCH + 1
    digest = csv_digest("speed_sweep", mode, noise_power_dbm=noise_power_dbm,
                        trials=SPEED_BATCH_TRIALS)
    assert digest == SPEED_BATCHES[(mode, noise_power_dbm)]


@pytest.mark.parametrize("mode", sorted(FARM_SKIPS))
def test_farm_cdf_bytes_through_skipped_trials(mode):
    digest = csv_digest("farm_cdf", mode, trials=FARM_SKIPS_TRIALS)
    assert digest == FARM_SKIPS[mode]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", sorted(FARM_TASKS))
def test_farm_cdf_bytes_across_tasks(mode, workers):
    assert FARM_TASKS_TRIALS == 2 * (SPEED_BATCH * SPEED_ROUNDS // 2) + 1
    digest = csv_digest("farm_cdf", mode, trials=FARM_TASKS_TRIALS, workers=workers)
    assert digest == FARM_TASKS[mode]


def test_golden_covers_every_experiment():
    assert {e for e, _ in GOLDEN} == set(EXPERIMENTS)
