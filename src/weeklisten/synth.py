"""Seeded synthetic listening logs with planted weekly behavior archetypes.

Each user draws a sparse mixture over four archetypes, each defined by a
weekly rate profile (expected valid streams per hour-of-week slot) plus
per-slot tendencies for the repetition / organicity / liked channels:

* ``commuter``    - weekday morning and evening travel peaks; linked to transport;
* ``office``      - weekday working-hours listening with small commute bumps,
                    strongly organic and repetitive; linked to work;
* ``partygoer``   - Friday/Saturday evening peaks, more algorithmic and less
                    familiar content; linked to friends;
* ``night_owl``   - daily late-evening wind-down plus a morning bump, heavy on
                    liked content; linked to asleep and (weaker) wake up.

Sports deliberately gets only faint links, standing in for an irregular
activity that weekly patterns cannot pin down.

Hourly stream counts are Poisson draws from the user's blended rate profile;
per-event origin and track choice are Bernoulli draws against the blended
tendencies, so the population organic fraction matches the configured target
in expectation exactly.  Every archetype profile integrates to the same
weekly volume and each user gets an independent volume multiplier, keeping
total volume uninformative about activities.  Activity labels are assigned
by thresholding a noisy archetype-link score at the population quantile of
the configured base rate, which pins realized rates to the base rates while
the noise level tunes task difficulty; the answer and demographic columns go
to ``labels.csv`` through :func:`weeklisten.evaluate.write_labels`.  Archetypes
from a JSON file are recentered to the configured organic rate like the
built-in ones.

Events are written through :func:`weeklisten.ingest.write_events`, one block
of columns per user, so the events format is known only to ``ingest``.

All randomness flows from one seed through per-user ``SeedSequence`` spawn
keys, so generation is byte-reproducible and order-independent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ingest
from .errors import SynthesisError
from .evaluate import ACTIVITIES, AGE_GROUPS, GENDER_CODES, write_labels
from .signals import SLOTS_PER_WEEK, _smooth_values

#: Monday 2022-01-03 00:00:00 UTC; keeps week boundaries aligned with slot 0.
DEFAULT_PERIOD_START = 1_641_168_000

SECONDS_PER_WEEK = SLOTS_PER_WEEK * 3600

WEEKDAYS = (0, 1, 2, 3, 4)


@dataclass(frozen=True)
class Archetype:
    """One planted behavior template."""

    name: str
    rate_profile: np.ndarray     # (168,) nonnegative, scaled to the common weekly volume
    repetition: np.ndarray       # (168,) target repeat-listening ratio in [0, 1]
    organicity: np.ndarray       # (168,) target organic ratio in [0, 1]
    liked: np.ndarray            # (168,) target liked ratio in [0, 1]
    activity_links: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for arr_name in ("rate_profile", "repetition", "organicity", "liked"):
            arr = getattr(self, arr_name)
            if arr.shape != (SLOTS_PER_WEEK,):
                raise SynthesisError(f"{self.name}.{arr_name} must have shape (168,), got {arr.shape}")
        if np.any(self.rate_profile < 0):
            raise SynthesisError(f"{self.name} has negative rates")
        for arr_name in ("repetition", "organicity", "liked"):
            arr = getattr(self, arr_name)
            if np.any((arr < 0) | (arr > 1)):
                raise SynthesisError(f"{self.name}.{arr_name} must lie in [0, 1]")
        for activity, p in self.activity_links.items():
            if activity not in ACTIVITIES:
                raise SynthesisError(f"{self.name} links unknown activity {activity!r}")
            if not 0 <= p <= 1:
                raise SynthesisError(f"{self.name} link probability {p} outside [0, 1]")


def hour_block(days, hours, level: float) -> np.ndarray:
    """(168,) array with ``level`` on the given day/hour crossings, 0 elsewhere."""
    out = np.zeros(SLOTS_PER_WEEK)
    for d in days:
        for h in hours:
            out[d * 24 + h] = level
    return out


def _ratio(base: float, *blocks: np.ndarray) -> np.ndarray:
    return np.clip(base + sum(blocks), 0.02, 0.98)


def _scaled(profile: np.ndarray, weekly_volume: float) -> np.ndarray:
    return profile * (weekly_volume / profile.sum())


def _recentered(organicity: np.ndarray, rate: np.ndarray, organic_target: float) -> np.ndarray:
    """``organicity`` shifted so its volume-weighted mean under ``rate`` is exactly the organic target."""
    shift = organic_target - float((rate * organicity).sum() / rate.sum())
    return np.clip(organicity + shift, 0.02, 0.98)


def default_archetypes(weekly_volume: float, organic_target: float) -> tuple[Archetype, ...]:
    """The four stock archetypes; profiles integrate to ``weekly_volume``."""
    commute_am = hour_block(WEEKDAYS, (7, 8, 9), 1.0)
    commute_pm = hour_block(WEEKDAYS, (17, 18, 19), 0.9)
    office_hours = hour_block(WEEKDAYS, range(9, 18), 1.0)
    office_edges = hour_block(WEEKDAYS, (8, 18), 0.45)
    party_nights = hour_block((4, 5), (18, 19, 20, 21, 22, 23), 1.0)
    weekend_pm = hour_block((5, 6), (14, 15, 16, 17), 0.4)
    late_evenings = hour_block(range(7), (21, 22, 23), 1.0)
    early_mornings = hour_block(range(7), (6, 7), 0.55)

    specs = [
        ("commuter", 0.05, commute_am + commute_pm,
         _ratio(0.50, 0.15 * (commute_am > 0), 0.15 * (commute_pm > 0)),
         0.05 * ((commute_am + commute_pm) > 0),
         _ratio(0.32, 0.05 * ((commute_am + commute_pm) > 0)),
         {"transport": 1.0, "sports": 0.15}),
        ("office", 0.05, office_hours + office_edges,
         _ratio(0.50, 0.25 * (office_hours > 0)),
         0.08 * (office_hours > 0),
         _ratio(0.32, 0.08 * (office_hours > 0)),
         {"work": 1.0}),
        ("partygoer", 0.06, party_nights + weekend_pm,
         _ratio(0.50, -0.15 * (party_nights > 0)),
         -0.12 * (party_nights > 0),
         _ratio(0.32, -0.10 * (party_nights > 0)),
         {"friends": 1.0, "sports": 0.2}),
        ("night_owl", 0.05, late_evenings + early_mornings,
         _ratio(0.50, 0.10 * (late_evenings > 0)),
         -0.03 * (late_evenings > 0),
         _ratio(0.32, 0.15 * (late_evenings > 0), 0.08 * (early_mornings > 0)),
         {"asleep": 1.0, "wake_up": 0.7}),
    ]
    archetypes = []
    for name, base, peaks, rep, org_mod, liked, links in specs:
        rate = _scaled(base + peaks, weekly_volume)
        archetypes.append(Archetype(
            name=name, rate_profile=rate, repetition=rep,
            organicity=_recentered(org_mod + organic_target, rate, organic_target),
            liked=liked, activity_links=links,
        ))
    return tuple(archetypes)


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs; the defaults are the pipeline defaults."""

    n_users: int = 5000
    weeks: int = 12
    seed: int = 0
    archetype_weights: tuple[float, ...] = (0.25, 0.25, 0.25, 0.25)
    noise: float = 0.35
    organic_rate: float = 0.80
    base_rates: tuple[float, ...] = (0.18, 0.38, 0.39, 0.50, 0.47, 0.15)
    weekly_volume: float = 52.0
    skip_rate: float = 0.05
    mixture_concentration: float = 0.35
    period_start: int = DEFAULT_PERIOD_START
    archetypes: tuple[Archetype, ...] | None = None

    def __post_init__(self):
        if self.weeks < 2:
            raise SynthesisError(f"weeks must be >= 2, got {self.weeks}")
        if self.n_users < 1:
            raise SynthesisError(f"n_users must be >= 1, got {self.n_users}")
        if not 0 <= self.noise <= 1:
            raise SynthesisError(f"noise must lie in [0, 1], got {self.noise}")
        if len(self.base_rates) != len(ACTIVITIES):
            raise SynthesisError(f"need {len(ACTIVITIES)} base rates, got {len(self.base_rates)}")
        if any(not 0 < r < 1 for r in self.base_rates):
            raise SynthesisError(f"base rates must lie strictly inside (0, 1), got {self.base_rates}")
        if not 0 < self.organic_rate < 1:
            raise SynthesisError(f"organic rate must lie in (0, 1), got {self.organic_rate}")
        if abs(sum(self.archetype_weights) - 1.0) > 1e-9 or any(w < 0 for w in self.archetype_weights):
            raise SynthesisError(f"archetype weights must be nonnegative and sum to 1, got {self.archetype_weights}")

    def resolved_archetypes(self) -> tuple[Archetype, ...]:
        arch = self.archetypes if self.archetypes is not None else \
            default_archetypes(self.weekly_volume, self.organic_rate)
        if len(arch) != len(self.archetype_weights):
            raise SynthesisError(f"{len(self.archetype_weights)} weights for {len(arch)} archetypes")
        return arch

    @property
    def period_end(self) -> int:
        return self.period_start + self.weeks * SECONDS_PER_WEEK


@dataclass(frozen=True)
class GenerateResult:
    events_path: Path
    favorites_path: Path
    labels_path: Path
    n_users: int
    n_events: int
    n_valid_events: int
    organic_fraction_valid: float
    label_rates: dict[str, float]


def _user_rng(seed: int, user_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, user_index)))


def _smooth_random_profile(rng: np.random.Generator, weekly_volume: float) -> np.ndarray:
    rough = rng.gamma(shape=1.2, scale=1.0, size=SLOTS_PER_WEEK)
    for _ in range(3):
        rough = _smooth_values(rough)
    return _scaled(rough, weekly_volume)


def _user_events(rng, config: SynthConfig, uid: str, rate: np.ndarray,
                 rep_p: np.ndarray, org_p: np.ndarray, liked_p: np.ndarray,
                 has_favorites: bool) -> tuple[tuple[np.ndarray, ...], int, int]:
    """One user's events as :func:`ingest.write_events` columns in time order, plus (n_valid, n_organic_valid)."""
    weeks = config.weeks
    counts = rng.poisson(lam=rate, size=(weeks, SLOTS_PER_WEEK))
    cells = np.repeat(np.arange(weeks * SLOTS_PER_WEEK), counts.ravel())
    n = cells.size
    slots = cells % SLOTS_PER_WEEK

    offsets = rng.integers(0, 3600, size=n)
    timestamps = config.period_start + cells * 3600 + offsets
    durations = rng.integers(30, 421, size=n)
    organic = rng.random(n) < org_p[slots]

    lp = liked_p[slots] if has_favorites else 0.0
    draw = rng.random(n)
    liked_ev = draw < lp
    heavy_ev = ~liked_ev & (draw < rep_p[slots])

    liked_tracks = np.array([f"{uid}_t_fav{i}" for i in range(6)]
                            + [f"{uid}_t_alb{i}" for i in range(4)], dtype=object)
    liked_albums = np.array([f"{uid}_al_fav{i}" for i in range(6)] + [f"{uid}_alb"] * 4, dtype=object)
    heavy_tracks = np.array([f"{uid}_t_h{i}" for i in range(12)], dtype=object)
    heavy_albums = np.array([f"{uid}_al_h{i}" for i in range(12)], dtype=object)

    tracks = np.empty(n, dtype=object)
    albums = np.empty(n, dtype=object)
    pick = rng.integers(0, len(liked_tracks), size=n)
    tracks[liked_ev] = liked_tracks[pick[liked_ev]]
    albums[liked_ev] = liked_albums[pick[liked_ev]]
    pick_h = rng.integers(0, len(heavy_tracks), size=n)
    tracks[heavy_ev] = heavy_tracks[pick_h[heavy_ev]]
    albums[heavy_ev] = heavy_albums[pick_h[heavy_ev]]
    fresh = np.flatnonzero(~(liked_ev | heavy_ev))
    tracks[fresh] = np.array([f"{uid}_t_f{c}" for c in range(fresh.size)], dtype=object)
    albums[fresh] = np.array([f"{uid}_al_f{c}" for c in range(fresh.size)], dtype=object)

    # Short skipped streams on top; they must fall below the validity cutoff.
    skip_counts = rng.poisson(lam=rate * config.skip_rate, size=(weeks, SLOTS_PER_WEEK))
    s_cells = np.repeat(np.arange(weeks * SLOTS_PER_WEEK), skip_counts.ravel())
    m = s_cells.size
    s_timestamps = config.period_start + s_cells * 3600 + rng.integers(0, 3600, size=m)
    s_durations = rng.integers(1, 30, size=m)
    s_organic = rng.random(m) < org_p[s_cells % SLOTS_PER_WEEK]
    s_tracks = np.array([f"{uid}_t_s{i}" for i in range(m)], dtype=object)

    all_ts = np.concatenate([timestamps, s_timestamps])
    order = np.argsort(all_ts, kind="stable")
    columns = (np.full(n + m, uid, dtype=object), all_ts[order],
               np.concatenate([tracks, s_tracks])[order],
               np.concatenate([albums, "al_" + s_tracks])[order],
               np.concatenate([organic, s_organic])[order],
               np.concatenate([durations, s_durations])[order])
    return columns, n, int(organic.sum())


def generate(config: SynthConfig, out_dir) -> GenerateResult:
    """Write ``events.csv``, ``favorites.csv`` and ``labels.csv`` under ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    archetypes = config.resolved_archetypes()
    n_arch = len(archetypes)
    rates = np.stack([a.rate_profile for a in archetypes])          # (A, 168)
    reps = np.stack([a.repetition for a in archetypes])
    orgs = np.stack([a.organicity for a in archetypes])
    likes = np.stack([a.liked for a in archetypes])
    link_matrix = np.zeros((n_arch, len(ACTIVITIES)))
    for gi, a in enumerate(archetypes):
        for activity, p in a.activity_links.items():
            link_matrix[gi, ACTIVITIES.index(activity)] = p

    alpha = np.asarray(config.archetype_weights) * n_arch * config.mixture_concentration
    width = max(5, len(str(config.n_users - 1)))
    noise = config.noise

    events_path = out_dir / "events.csv"
    favorites_path = out_dir / "favorites.csv"
    labels_path = out_dir / "labels.csv"

    user_ids = [f"u{uidx:0{width}d}" for uidx in range(config.n_users)]
    has_favorites = [uidx % 50 != 49 for uidx in range(config.n_users)]
    link_scores = np.zeros((config.n_users, len(ACTIVITIES)))
    label_noise = np.zeros_like(link_scores)
    demographics = np.zeros((config.n_users, 2), dtype=np.int64)
    valid_counts = np.zeros((config.n_users, 2), dtype=np.int64)  # valid, organic valid

    def user_blocks():
        for uidx, uid in enumerate(user_ids):
            rng = _user_rng(config.seed, uidx)

            w = rng.dirichlet(alpha)
            vol_mult = rng.uniform(0.9, 1.6)
            idio = _smooth_random_profile(rng, config.weekly_volume)

            mix_rate = w @ rates
            rate = vol_mult * ((1.0 - noise) * mix_rate + noise * idio)
            # Ratio tendencies blend with the same volume weights; the
            # idiosyncratic share carries the population baselines, keeping
            # the volume-weighted organic mean at the configured target.
            blend_w = (1.0 - noise) * (w[:, None] * rates)
            denom = blend_w.sum(axis=0) + noise * idio
            rep_p = (np.einsum("as,as->s", blend_w, reps) + noise * idio * 0.5) / denom
            org_p = (np.einsum("as,as->s", blend_w, orgs) + noise * idio * config.organic_rate) / denom
            liked_p = (np.einsum("as,as->s", blend_w, likes) + noise * idio * 0.32) / denom
            liked_p = np.minimum(liked_p, rep_p)

            columns, valid, organic_valid = _user_events(
                rng, config, uid, rate, rep_p, org_p, liked_p, has_favorites[uidx])
            valid_counts[uidx] = valid, organic_valid
            link_scores[uidx] = w @ link_matrix
            label_noise[uidx] = rng.normal(size=len(ACTIVITIES))
            demographics[uidx] = (rng.integers(0, AGE_GROUPS), rng.integers(0, GENDER_CODES))
            yield columns

    n_events = ingest.write_events(events_path, user_blocks())
    n_valid, n_organic_valid = valid_counts.sum(axis=0).tolist()
    fav_users, fav_kinds, fav_items = [], [], []
    for uid, favors in zip(user_ids, has_favorites):
        if favors:
            fav_users += [uid] * 7
            fav_kinds += [ingest.TRACK] * 6 + [ingest.ALBUM]
            fav_items += [f"{uid}_t_fav{i}" for i in range(6)] + [f"{uid}_alb"]
    ingest.write_favorites(favorites_path, fav_users, fav_kinds, fav_items)

    # Labels: noisy link score thresholded at the base-rate population quantile.
    # Noise is scaled by the spread of the strongest link column, so strong
    # links survive it while weak ones (sports) mostly drown.
    noise_scale = float(link_scores.std(axis=0).max())
    if noise_scale == 0.0:
        z = label_noise.copy()
    else:
        z = (1.0 - noise) * link_scores + noise * noise_scale * label_noise
    answers = np.zeros_like(z, dtype=np.int8)
    for ai, rate in enumerate(config.base_rates):
        col = z[:, ai]
        if col.std() == 0.0:  # constant scores cannot meet a base rate; fall back to noise
            col = label_noise[:, ai]
        threshold = np.quantile(col, 1.0 - rate)
        answers[:, ai] = (col > threshold).astype(np.int8)

    write_labels(labels_path, user_ids, answers, demographics[:, 0], demographics[:, 1])

    return GenerateResult(
        events_path=events_path, favorites_path=favorites_path, labels_path=labels_path,
        n_users=config.n_users, n_events=n_events, n_valid_events=n_valid,
        organic_fraction_valid=n_organic_valid / max(n_valid, 1),
        label_rates={a: float(answers[:, ai].mean()) for ai, a in enumerate(ACTIVITIES)},
    )


# ---------------------------------------------------------------------------
# Archetype config files (JSON)
# ---------------------------------------------------------------------------

def load_archetypes(path, weekly_volume: float = SynthConfig.weekly_volume,
                    organic_target: float = SynthConfig.organic_rate) -> tuple[Archetype, ...]:
    """Read archetypes from the documented JSON form.

    Schema: ``{"archetypes": [{"name", "base_rate", "volume_peaks":
    [{"days", "hours", "level"}, ...], "repetition"/"organicity"/"liked":
    {"base", "peaks": [...]}, "activity_links": {...}}, ...]}``.
    Volume profiles are rescaled to the common weekly volume; organicity is
    recentered so its volume-weighted mean hits the organic target.
    """
    spec = json.loads(Path(path).read_text(encoding="utf-8"))
    archetypes = []
    for entry in spec["archetypes"]:
        peaks = sum((hour_block(p["days"], p["hours"], p["level"]) for p in entry["volume_peaks"]),
                    start=np.zeros(SLOTS_PER_WEEK))
        rate = _scaled(entry["base_rate"] + peaks, weekly_volume)

        def ratio_of(key: str, default_base: float) -> np.ndarray:
            block = entry.get(key)
            if block is None:
                return np.full(SLOTS_PER_WEEK, default_base)
            mods = sum((hour_block(p["days"], p["hours"], p["level"]) for p in block.get("peaks", ())),
                       start=np.zeros(SLOTS_PER_WEEK))
            return np.clip(block.get("base", default_base) + mods, 0.02, 0.98)

        archetypes.append(Archetype(
            name=entry["name"],
            rate_profile=rate,
            repetition=ratio_of("repetition", 0.5),
            organicity=_recentered(ratio_of("organicity", organic_target), rate, organic_target),
            liked=ratio_of("liked", 0.32),
            activity_links=dict(entry.get("activity_links", {})),
        ))
    return tuple(archetypes)
