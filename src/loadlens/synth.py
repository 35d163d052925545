"""Deterministic synthetic-data generators: heartbeat protocols and
class-parameterized accelerometer traces.

The heartbeat generator produces the qualitative load/recovery story on the
moments plane: rest windows sit near the normal landmark; under load the
mean interval ramps down while the noise grows a negative skew, dragging
windows away from the landmark; during recovery the mean relaxes back
exponentially with a positive, decaying skew. Exact figures from any real
recording are out of reach by construction, so tests anchor to these
generator properties instead.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidProtocol, UnknownClass
from .ingest import (
    Channel,
    SessionMeta,
    _map_sessions,
    write_accel_csv,
    write_rr_csv,
    write_sessions_csv,
)

REST, LOAD, RECOVERY = "rest", "load", "recovery"
PHASES = (REST, LOAD, RECOVERY)

GRAVITY = 9.81
ACCEL_HZ = 50

#: Time constant of the heart's response at load onset (mean rr drop).
LOAD_ONSET_TAU_S = 45.0

#: Skewed-noise building block: standard lognormal rescaled to zero mean and
#: unit variance. The heavy right tail displaces window kurtosis early in a
#: load, which is what makes the plane trajectory leave the normal vicinity
#: well before the skew amplitude saturates.
_LN_MEAN = math.exp(0.5)
_LN_STD = math.sqrt((math.e - 1.0) * math.e)

#: Draws per noise refill.
_NOISE_BLOCK = 1024


@dataclass(frozen=True)
class Segment:
    phase: str
    duration_s: float
    intensity: float = 0.0


@dataclass(frozen=True)
class Protocol:
    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise InvalidProtocol("protocol needs at least one segment")
        for seg in self.segments:
            if seg.phase not in PHASES:
                raise InvalidProtocol(f"unknown phase {seg.phase!r}")
            if not seg.duration_s > 0:
                raise InvalidProtocol(f"segment duration must be > 0, got {seg.duration_s}")
            if not 0.0 <= seg.intensity <= 1.0:
                raise InvalidProtocol(f"intensity must be in [0, 1], got {seg.intensity}")


#: Built-in protocols; every load is followed by a recovery.
PROTOCOL_PRESETS: dict[str, Protocol] = {
    "rest": Protocol((Segment(REST, 300.0),)),
    "staircase": Protocol(
        (
            Segment(REST, 60.0),
            Segment(LOAD, 207.0, 0.8),
            Segment(RECOVERY, 300.0, 0.8),
        )
    ),
}


@dataclass(frozen=True)
class GenConfig:
    """Heartbeat generator tuning; defaults give desk-scale but plausible RR."""

    seed: int = 0
    baseline_rr_ms: float = 850.0
    load_drop_ms: float = 350.0
    noise_rest_ms: float = 25.0
    skew_scale_load: float = 60.0
    recovery_tau_s: float = 90.0

    def __post_init__(self):
        for name in ("baseline_rr_ms", "load_drop_ms", "noise_rest_ms", "skew_scale_load", "recovery_tau_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not self.load_drop_ms < self.baseline_rr_ms:
            raise ValueError("load_drop_ms must be < baseline_rr_ms")


def _noise_pairs(rng):
    """Endless paired normal/skewed draws, consumed one beat at a time.

    Refills in fixed-size blocks from a single generator, so the draw
    sequence depends only on the seed, never on segment bookkeeping.
    """
    while True:
        z = rng.standard_normal(_NOISE_BLOCK)
        b = (np.exp(rng.standard_normal(_NOISE_BLOCK)) - _LN_MEAN) / _LN_STD
        yield from zip(z.tolist(), b.tolist())


def gen_rr(protocol: Protocol, config: GenConfig = GenConfig()) -> Channel:
    """Generate heartbeat intervals for a protocol; timestamps accumulate
    the generated rr values."""
    if not isinstance(protocol, Protocol):
        raise InvalidProtocol(f"expected Protocol, got {type(protocol).__name__}")
    rng = np.random.default_rng(config.seed)
    noise = _noise_pairs(rng)
    ts: list[int] = []
    rrs: list[float] = []
    # Per-beat hot loop with per-segment constants hoisted into locals. Each
    # float expression must keep its operation order: the written rr files
    # are pinned byte for byte.
    exp = math.exp
    base = config.baseline_rr_ms
    noise_ms = config.noise_rest_ms
    t_cum = 0.0
    mean = base
    for seg in protocol.segments:
        phase = seg.phase
        seg_start = t_cum
        seg_end = seg_start + seg.duration_s * 1000.0
        seg_len = seg_end - seg_start
        entry_mean = mean
        target = base - seg.intensity * config.load_drop_ms
        load_skew = -config.skew_scale_load * seg.intensity
        recovery_skew = config.skew_scale_load * seg.intensity
        while t_cum < seg_end:
            dt_s = (t_cum - seg_start) / 1000.0
            if phase == REST:
                mean = base
                s_amt = 0.0
            elif phase == LOAD:
                mean = target + (entry_mean - target) * exp(-dt_s / LOAD_ONSET_TAU_S)
                s_amt = load_skew * ((t_cum - seg_start) / seg_len)
            else:  # recovery
                decay = exp(-dt_s / config.recovery_tau_s)
                mean = base + (entry_mean - base) * decay
                s_amt = recovery_skew * decay
            z, b = next(noise)
            rr = max(mean + noise_ms * z + s_amt * b, 1.0)
            ts.append(round(t_cum))
            rrs.append(rr)
            t_cum += rr
    return Channel(np.array(ts, dtype=np.int64), np.array(rrs))


@dataclass(frozen=True)
class _AccelClass:
    noise_std: float
    gait_hz: float = 0.0
    gait_amp: float = 0.0


ACCEL_CLASSES: dict[str, _AccelClass] = {
    "passive": _AccelClass(noise_std=0.05),
    "moderate": _AccelClass(noise_std=0.3),
    "active": _AccelClass(noise_std=1.5, gait_hz=2.0, gait_amp=2.0),
}


def gen_accel(activity_class: str, duration_s: float, config: GenConfig = GenConfig()) -> Channel:
    """50 Hz tri-axial trace: white noise around gravity on z, plus a
    periodic gait proxy for the active class."""
    try:
        spec = ACCEL_CLASSES[activity_class]
    except KeyError:
        raise UnknownClass(activity_class) from None
    n = int(round(duration_s * ACCEL_HZ))
    if n <= 0:
        raise InvalidProtocol(f"duration_s must be > 0, got {duration_s}")
    rng = np.random.default_rng(config.seed)
    noise = rng.standard_normal((n, 3)) * spec.noise_std
    t_s = np.arange(n) / ACCEL_HZ
    az = GRAVITY + noise[:, 2]
    if spec.gait_amp:
        az = az + spec.gait_amp * np.sin(2.0 * math.pi * spec.gait_hz * t_s)
    noise[:, 2] = az
    return Channel(np.arange(n, dtype=np.int64) * (1000 // ACCEL_HZ), noise)


@dataclass(frozen=True)
class _SessionClass:
    pace_range: tuple[float, float]
    distance_range: tuple[float, float]
    intensity: float
    accel_class: str


#: Pace ranges are non-overlapping so the activity classes stay separable;
#: distance ranges keep the pooled (distance, duration) cloud strongly
#: correlated across classes rather than fanning out by pace.
SESSION_CLASSES: dict[str, _SessionClass] = {
    "walking": _SessionClass((10.0, 13.0), (2.0, 5.0), 0.3, "moderate"),
    "running": _SessionClass((5.0, 6.5), (7.0, 13.0), 0.6, "active"),
    "skiing": _SessionClass((3.5, 4.8), (14.0, 26.0), 0.9, "active"),
}

#: Post-exercise tremor recording length for the accel channel.
TREMOR_DURATION_S = 60.0

#: Lead-in rest and tail recovery around each session's load segment.
SESSION_REST_S = 60.0
SESSION_RECOVERY_S = 120.0


def session_protocol(duration_min: float, intensity: float) -> Protocol:
    """Rest + load + recovery protocol covering one session."""
    load_s = duration_min * 60.0 - SESSION_REST_S - SESSION_RECOVERY_S
    if load_s <= 0:
        raise InvalidProtocol(f"session too short for the rest/recovery margins: {duration_min} min")
    return Protocol(
        (
            Segment(REST, SESSION_REST_S),
            Segment(LOAD, load_s, intensity),
            Segment(RECOVERY, SESSION_RECOVERY_S, intensity),
        )
    )


def _write_session(task) -> None:
    """Generate one session's rr and accel channels and write their files."""
    protocol, rr_config, accel_class, accel_config, rr_path, accel_path = task
    rr = gen_rr(protocol, rr_config)
    accel = gen_accel(accel_class, TREMOR_DURATION_S, accel_config)
    write_rr_csv(rr_path, rr)
    write_accel_csv(accel_path, accel)


def gen_sessions(n_per_class: int, seed: int, out_dir) -> list[SessionMeta]:
    """Write a full synthetic dataset: sessions.csv plus one accel and one rr
    file per session.

    Each session uses a generator derived from (seed, session index), so
    sessions are independent and the whole dataset is reproducible
    bit-for-bit. The sessions' parameters are drawn here in session order;
    their channels are generated and written in parallel over the available
    CPUs, and no output byte depends on how many there are.
    """
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")
    os.makedirs(out_dir, exist_ok=True)
    metas: list[SessionMeta] = []
    tasks = []
    idx = 0
    for activity, spec in SESSION_CLASSES.items():
        for j in range(n_per_class):
            rng = np.random.default_rng([seed, idx])
            pace = float(rng.uniform(*spec.pace_range))
            distance = float(rng.uniform(*spec.distance_range))
            duration = pace * distance
            baseline = float(np.clip(rng.normal(850.0, 40.0), 700.0, 1000.0))
            rr_seed = int(rng.integers(2**31))
            accel_seed = int(rng.integers(2**31))

            session_id = f"{activity}{j:03d}"
            rr_file = f"{session_id}_rr.csv"
            accel_file = f"{session_id}_accel.csv"

            tasks.append(
                (
                    session_protocol(duration, spec.intensity),
                    GenConfig(seed=rr_seed, baseline_rr_ms=baseline),
                    spec.accel_class,
                    GenConfig(seed=accel_seed),
                    os.path.join(out_dir, rr_file),
                    os.path.join(out_dir, accel_file),
                )
            )
            metas.append(
                SessionMeta(session_id, activity, distance, duration, accel_file, rr_file)
            )
            idx += 1
    _map_sessions(_write_session, tasks)
    write_sessions_csv(os.path.join(out_dir, "sessions.csv"), metas)
    return metas
