"""Amplitude-only sweep localization simulator.

Phased-array access points sweep a beam over the field while tiny
envelope-detector receivers recover their own bearing from the time at
which the sweep's peak passes over them. Two access points in TDMA give a
2D fix through a precomputed intersection table; a backscatter subcarrier
uplink carries logged measurements back out; power and memory models size
the platform's budgets.
"""

__version__ = "0.1.0"

from .scenario import (ApConfig, ChannelConfig, ConfigError, DetectorConfig,
                       GeometryError, Position, Scenario, Trajectory,
                       free_space_loss_db, load_scenario, load_scenario_file,
                       scenario_digest, scenario_to_yaml, trial_rng,
                       true_bearing_xy, wrap_angle)
from .transmitter import PREAMBLE_PATTERNS, build_sweep_schedule
from .channel import (FieldTrace, PathSet, apply_doppler, draw_multipath,
                      propagate, sweep_response)
from .receiver import (EnvelopeTrace, LogStore, LookupTable, Receiver,
                       SensorRecord, StoreFullError, envelope_detect,
                       estimate_angle, find_preamble, fix_2d, smooth_angle)
from .backscatter import (InsectNode, SwitchWaveform, ap_demodulate,
                          ber_point, frame_from_records, hive_mac_session,
                          modulate_frame, path_gain_db, transmit_backscatter)
from .power import (average_current_ma, battery_life_h, logging_endurance_h,
                    rf_charge_time_h, solar_power_uw)
from .pipeline import (detect_with_noise, draw_noise, fast_estimate_bearings,
                       synthesize_rounds)
from .experiments import (EXPERIMENTS, ExperimentSpec, ResultTable, emit_csv,
                          read_csv, run_experiment)
