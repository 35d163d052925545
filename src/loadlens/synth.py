"""Deterministic synthetic-data generators: heartbeat protocols and
class-parameterized accelerometer traces.

The heartbeat generator produces the qualitative load/recovery story on the
moments plane: rest windows sit near the normal landmark; under load the
mean interval ramps down while the noise grows a negative skew, dragging
windows away from the landmark; during recovery the mean relaxes back
exponentially with a positive, decaying skew. Exact figures from any real
recording are out of reach by construction, so tests anchor to these
generator properties instead: ``tests/test_claims.py`` checks the paper's
hypotheses 1 and 2 on them, each beside a null control that must fail it.

Both channels are written at sensor resolution. ``gen_rr`` rounds each
beat to a whole ms (half to even) and then floors it at 1 ms, and each
beat's ``t_ms`` is the exact integer sum of the rr values before it: HRV
practice records RR at a few ms (the ESC/NASPE Task Force, Circulation
1996, 93(5), asks for ECG sampled at 250-500 Hz, 2-4 ms), so the 1 ms grid
drops nothing a heart-rate sensor measures. ``gen_accel`` rounds each axis
to 0.001 m/s^2 with ``np.round(x, 3)``, so each value is the double nearest
k/1000 and its ``repr`` has at most 3 decimals: a 16-bit +-8 g
accelerometer resolves about 2.4e-3 m/s^2.

The 1 ms floor keeps every rr file valid (rr_ms > 0) but not
physiological: a beat whose mean, noise and skew terms round below 1 ms is
written as a 1 ms beat. It fires under the heaviest loads: on ``synth
sessions --n 40 --seed 1`` it fires on 82 of 721,762 beats, so 32 of 40
skiing and 5 of 40 running sessions read an ``mhr_bpm`` of 60,000, as the
CHANGES.md line "Synthetic channels at sensor resolution" counts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import manifest
from .errors import ConfigError
from .ingest import (
    Channel,
    SessionMeta,
    write_accel_csv,
    write_rr_csv,
    write_sessions_csv,
)

REST, LOAD, RECOVERY = "rest", "load", "recovery"
PHASES = (REST, LOAD, RECOVERY)

GRAVITY = 9.81
ACCEL_HZ = 50

#: Heartbeat shape: the mean rr drop at full intensity and the time constant
#: of the heart's response at load onset, the rest noise std, the skew
#: amplitude at full intensity, and the recovery's time constant. A resting
#: mean rr lies above the drop and at most 2,000 ms, a heart rate of 30 bpm.
LOAD_DROP_MS = 350.0
LOAD_ONSET_TAU_S = 45.0
NOISE_REST_MS = 25.0
SKEW_SCALE_LOAD = 60.0
RECOVERY_TAU_S = 90.0
MAX_BASELINE_RR_MS = 2000.0

#: Skewed-noise building block: standard lognormal rescaled to zero mean and
#: unit variance. The heavy right tail displaces window kurtosis early in a
#: load, which is what makes the plane trajectory leave the normal vicinity
#: well before the skew amplitude saturates.
_LN_MEAN = math.exp(0.5)
_LN_STD = math.sqrt((math.e - 1.0) * math.e)

#: Draws per noise refill. The draw order, and so every rr file, depends on it.
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
            raise ValueError("protocol needs at least one segment")
        for seg in self.segments:
            if seg.phase not in PHASES:
                raise ValueError(f"unknown phase {seg.phase!r}")
            if not (math.isfinite(seg.duration_s) and seg.duration_s > 0):
                raise ValueError(f"segment duration must be finite and > 0, got {seg.duration_s}")
            if not 0.0 <= seg.intensity <= 1.0:
                raise ValueError(f"intensity must be in [0, 1], got {seg.intensity}")


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
    """Generator seed and resting mean rr; defaults give desk-scale but plausible RR."""

    seed: int = 0
    baseline_rr_ms: float = 850.0

    def __post_init__(self):
        if not LOAD_DROP_MS < self.baseline_rr_ms <= MAX_BASELINE_RR_MS:
            raise ValueError(f"baseline_rr_ms {self.baseline_rr_ms} is not in ({LOAD_DROP_MS}, {MAX_BASELINE_RR_MS}] ms")


def _noise_pairs(rng):
    """Endless paired normal/skewed draws, consumed one beat at a time.

    Refills in fixed-size blocks from a single generator, so the draw
    sequence depends only on the seed, never on segment bookkeeping.
    """
    while True:
        z = rng.standard_normal(_NOISE_BLOCK)
        b = (rng.lognormal(size=_NOISE_BLOCK) - _LN_MEAN) / _LN_STD
        yield from zip(z.tolist(), b.tolist())


def gen_rr(protocol: Protocol, config: GenConfig = GenConfig()) -> Channel:
    """Generate heartbeat intervals for a protocol; timestamps accumulate
    the generated rr values.

    One per-beat loop serves every phase: ``dt`` ms into a segment of
    ``seg_len`` ms, ``decay = exp(-(dt / 1000.0) / tau)``, the mean is
    ``target + (entry - target) * decay`` and the skew amount
    ``ramp * (dt / seg_len) + tail * decay``; a phase sets only these five
    terms. Rest sets ``entry = target = base`` and both skew factors to 0.0,
    so its extra terms are signed zeros, which leave a nonzero sum as it
    was (a zero sum is floored to 1 either way): a rest beat stays
    ``base + noise`` bit for bit before it is rounded to a whole ms.
    """
    rng = np.random.default_rng(config.seed)
    noise = _noise_pairs(rng)
    rrs: list[int] = []
    append = rrs.append
    # Each float expression must keep its operation order: a change of one
    # ulp can move a beat across a rounding boundary, and the written rr
    # files are pinned byte for byte. A segment that ends before the current
    # time draws no beat and leaves ``mean`` as it was.
    exp = math.exp
    base = config.baseline_rr_ms
    noise_ms = NOISE_REST_MS
    t_cum = 0
    mean = base
    for seg in protocol.segments:
        seg_start = t_cum
        seg_end = seg_start + seg.duration_s * 1000.0
        if not t_cum < seg_end:
            continue
        seg_len = seg_end - seg_start
        if seg.phase == REST:
            entry, target, tau, ramp, tail = base, base, RECOVERY_TAU_S, 0.0, 0.0
        elif seg.phase == LOAD:
            target = base - seg.intensity * LOAD_DROP_MS
            entry, tau, ramp, tail = mean, LOAD_ONSET_TAU_S, -SKEW_SCALE_LOAD * seg.intensity, 0.0
        else:  # recovery
            entry, target, tau, ramp, tail = mean, base, RECOVERY_TAU_S, 0.0, SKEW_SCALE_LOAD * seg.intensity
        for z, b in noise:
            dt = t_cum - seg_start
            decay = exp(-(dt / 1000.0) / tau)
            mean = target + (entry - target) * decay
            rr = round(mean + noise_ms * z + (ramp * (dt / seg_len) + tail * decay) * b)
            if rr < 1:
                rr = 1
            append(rr)
            t_cum += rr
            if not t_cum < seg_end:
                break
    rr = np.array(rrs, dtype=np.int64)
    t = np.zeros(len(rr), dtype=np.int64)
    np.cumsum(rr[:-1], out=t[1:])
    return Channel(t, rr)


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
    periodic gait proxy for the active class, rounded to 0.001 m/s^2."""
    try:
        spec = ACCEL_CLASSES[activity_class]
    except KeyError:
        raise ValueError(f"unknown activity class {activity_class!r}") from None
    n = int(round(duration_s * ACCEL_HZ))
    if n <= 0:
        raise ValueError(f"duration_s={duration_s} gives no sample")
    rng = np.random.default_rng(config.seed)
    noise = rng.standard_normal((n, 3)) * spec.noise_std
    t_s = np.arange(n) / ACCEL_HZ
    az = GRAVITY + noise[:, 2]
    if spec.gait_amp:
        az = az + spec.gait_amp * np.sin(2.0 * math.pi * spec.gait_hz * t_s)
    noise[:, 2] = az
    np.round(noise, 3, out=noise)
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
        raise ValueError(f"session too short for the rest/recovery margins: {duration_min} min")
    return Protocol(
        (
            Segment(REST, SESSION_REST_S),
            Segment(LOAD, load_s, intensity),
            Segment(RECOVERY, SESSION_RECOVERY_S, intensity),
        )
    )


def _draw_sessions(n_per_class: int, seed: int) -> list[tuple[SessionMeta, Protocol, GenConfig, str, GenConfig]]:
    """The parameters of each session of ``gen_sessions``, in session
    order: its ``SessionMeta``, its heartbeat protocol and generator
    config, and its accel class and generator config. Session i draws them
    from ``np.random.default_rng([seed, i])``."""
    sessions = []
    for activity, spec in SESSION_CLASSES.items():
        for j in range(n_per_class):
            rng = np.random.default_rng([seed, len(sessions)])
            pace = float(rng.uniform(*spec.pace_range))
            distance = float(rng.uniform(*spec.distance_range))
            duration = pace * distance
            baseline = float(np.clip(rng.normal(850.0, 40.0), 700.0, 1000.0))
            rr_seed = int(rng.integers(2**31))
            accel_seed = int(rng.integers(2**31))

            session_id = f"{activity}{j:03d}"
            sessions.append(
                (
                    SessionMeta(session_id, activity, distance, duration, f"{session_id}_accel.csv", f"{session_id}_rr.csv"),
                    session_protocol(duration, spec.intensity),
                    GenConfig(seed=rr_seed, baseline_rr_ms=baseline),
                    spec.accel_class,
                    GenConfig(seed=accel_seed),
                )
            )
    return sessions


def _write_session(task) -> None:
    """Generate one session's rr and accel channels and write their files."""
    (meta, protocol, rr_config, accel_class, accel_config), out_dir = task
    write_rr_csv(os.path.join(out_dir, meta.rr_file), gen_rr(protocol, rr_config))
    write_accel_csv(os.path.join(out_dir, meta.accel_file), gen_accel(accel_class, TREMOR_DURATION_S, accel_config))


def gen_sessions(n_per_class: int, seed: int, out_dir) -> list[SessionMeta]:
    """Write a full synthetic dataset: sessions.csv plus one accel and one rr
    file per session.

    Each session uses a generator derived from (seed, session index), so
    sessions are independent and the whole dataset is reproducible
    bit-for-bit. The sessions' parameters are drawn first, in session order;
    their channels are generated and written in parallel over the available
    CPUs, and no output byte depends on how many there are.
    """
    if n_per_class < 1:
        raise ConfigError(f"n_per_class must be >= 1, got {n_per_class}")
    os.makedirs(out_dir, exist_ok=True)
    sessions = _draw_sessions(n_per_class, seed)
    manifest._fork_map(_write_session, [(session, out_dir) for session in sessions])
    metas = [meta for meta, *_ in sessions]
    write_sessions_csv(os.path.join(out_dir, "sessions.csv"), metas)
    return metas
