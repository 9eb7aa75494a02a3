"""Seeded synthetic listening logs with planted weekly behavior archetypes.

Each user draws a sparse mixture over a set of archetypes, each defined by a
weekly rate profile (expected valid streams per hour-of-week slot) plus
per-slot tendencies for the repetition / organicity / liked channels.  Every
set is built by :func:`build_archetypes` from the JSON schema it documents,
as one :class:`Archetypes` table of stacked arrays: the stock set
:data:`STOCK_ARCHETYPES`, or any number of archetypes read from an
``--archetypes`` file by :func:`load_archetypes`.  The four stock ones are

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
in expectation exactly, for stock and file archetypes alike.  Every archetype
profile integrates to the same weekly volume and each user gets an independent
volume multiplier, keeping total volume uninformative about activities.
Activity labels are assigned by thresholding a noisy archetype-link score at
the population quantile of each activity's base rate, which pins realized
rates to the base rates while the noise level tunes task difficulty; the
``(n, 6)`` answers and the ``(n, 2)`` demographics (age group, gender) go to
``labels.csv`` through :func:`weeklisten.evaluate.write_labels`.

Events are written through :func:`weeklisten.ingest.write_events`, one block
of columns per :data:`USERS_PER_BLOCK` users, so the events format is known
only to ``ingest``.  A track or album id is a kind code and a counter, which
the writer spells out after the user id through :class:`ingest.IdPatterns`
(:data:`TRACK_IDS`, :data:`ALBUM_IDS`): no event id is made a ``str`` here.

All randomness flows from one seed through per-user ``SeedSequence`` spawn
keys, so generation is byte-reproducible and order-independent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import ingest
from .errors import PipelineError
from .evaluate import ACTIVITIES, AGE_GROUPS, GENDER_CODES, write_labels
from .signals import SLOTS_PER_WEEK, _smooth_values

#: Monday 2022-01-03 00:00:00 UTC; keeps week boundaries aligned with slot 0.
PERIOD_START = 1_641_168_000

SECONDS_PER_WEEK = SLOTS_PER_WEEK * 3600

#: Expected valid streams per week of every archetype profile and idiosyncratic profile.
WEEKLY_VOLUME = 52.0

#: Expected skipped (sub-30 s) streams per valid stream, in every slot.
SKIP_RATE = 0.05

#: Dirichlet concentration of each archetype in a user's mixture; below 1 keeps mixtures sparse.
MIXTURE_CONCENTRATION = 0.35

#: Share of users labelled with each activity, in ``ACTIVITIES`` order.
BASE_RATES = (0.18, 0.38, 0.39, 0.50, 0.47, 0.15)

#: Population repeat and liked ratios: the defaults of an archetype's ratio
#: bases, and the tendencies of each user's idiosyncratic share.
REPETITION_BASE = 0.5
LIKED_BASE = 0.32

WEEKDAYS = [0, 1, 2, 3, 4]
EVERY_DAY = [0, 1, 2, 3, 4, 5, 6]

#: The stock archetypes, in the schema of :func:`build_archetypes`.
STOCK_ARCHETYPES = {"archetypes": [
    {"name": "commuter", "base_rate": 0.05,
     "volume_peaks": [{"days": WEEKDAYS, "hours": [7, 8, 9], "level": 1.0},
                      {"days": WEEKDAYS, "hours": [17, 18, 19], "level": 0.9}],
     "repetition": {"base": 0.50, "peaks": [{"days": WEEKDAYS, "hours": [7, 8, 9, 17, 18, 19], "level": 0.15}]},
     "organicity": {"peaks": [{"days": WEEKDAYS, "hours": [7, 8, 9, 17, 18, 19], "level": 0.05}]},
     "liked": {"base": 0.32, "peaks": [{"days": WEEKDAYS, "hours": [7, 8, 9, 17, 18, 19], "level": 0.05}]},
     "activity_links": {"transport": 1.0, "sports": 0.15}},
    {"name": "office", "base_rate": 0.05,
     "volume_peaks": [{"days": WEEKDAYS, "hours": list(range(9, 18)), "level": 1.0},
                      {"days": WEEKDAYS, "hours": [8, 18], "level": 0.45}],
     "repetition": {"base": 0.50, "peaks": [{"days": WEEKDAYS, "hours": list(range(9, 18)), "level": 0.25}]},
     "organicity": {"peaks": [{"days": WEEKDAYS, "hours": list(range(9, 18)), "level": 0.08}]},
     "liked": {"base": 0.32, "peaks": [{"days": WEEKDAYS, "hours": list(range(9, 18)), "level": 0.08}]},
     "activity_links": {"work": 1.0}},
    {"name": "partygoer", "base_rate": 0.06,
     "volume_peaks": [{"days": [4, 5], "hours": [18, 19, 20, 21, 22, 23], "level": 1.0},
                      {"days": [5, 6], "hours": [14, 15, 16, 17], "level": 0.4}],
     "repetition": {"base": 0.50, "peaks": [{"days": [4, 5], "hours": [18, 19, 20, 21, 22, 23], "level": -0.15}]},
     "organicity": {"peaks": [{"days": [4, 5], "hours": [18, 19, 20, 21, 22, 23], "level": -0.12}]},
     "liked": {"base": 0.32, "peaks": [{"days": [4, 5], "hours": [18, 19, 20, 21, 22, 23], "level": -0.10}]},
     "activity_links": {"friends": 1.0, "sports": 0.2}},
    {"name": "night_owl", "base_rate": 0.05,
     "volume_peaks": [{"days": EVERY_DAY, "hours": [21, 22, 23], "level": 1.0},
                      {"days": EVERY_DAY, "hours": [6, 7], "level": 0.55}],
     "repetition": {"base": 0.50, "peaks": [{"days": EVERY_DAY, "hours": [21, 22, 23], "level": 0.10}]},
     "organicity": {"peaks": [{"days": EVERY_DAY, "hours": [21, 22, 23], "level": -0.03}]},
     "liked": {"base": 0.32, "peaks": [{"days": EVERY_DAY, "hours": [21, 22, 23], "level": 0.15},
                                       {"days": EVERY_DAY, "hours": [6, 7], "level": 0.08}]},
     "activity_links": {"asleep": 1.0, "wake_up": 0.7}},
]}


#: Kind codes of a synthetic event's track and album: a favorited track, a
#: track of the favorited album, a heavy-rotation track, a fresh track, a skip.
FAVORITE, FAVORITE_ALBUM, HEAVY, FRESH, SKIP = range(5)
#: The ids of each kind, as the heads and tails of :class:`ingest.IdPatterns`:
#: head, user id, tail, then the counter unless it is negative.
TRACK_IDS = (("",) * 5, ("_t_fav", "_t_alb", "_t_h", "_t_f", "_t_s"))
ALBUM_IDS = (("",) * 4 + ("al_",), ("_al_fav", "_alb", "_al_h", "_al_f", "_t_s"))

#: Users whose events :func:`generate` hands to the writer as one block.
USERS_PER_BLOCK = 64


class Archetypes(NamedTuple):
    """A set of planted behavior templates as one table: row ``a`` of each array is ``names[a]``."""

    names: tuple[str, ...]
    rates: np.ndarray       # (A, 168) nonnegative, each row scaled to the common weekly volume
    repetition: np.ndarray  # (A, 168) target repeat-listening ratio in [0, 1]
    organicity: np.ndarray  # (A, 168) target organic ratio in [0, 1]
    liked: np.ndarray       # (A, 168) target liked ratio in [0, 1]
    links: np.ndarray       # (A, 6) link probability of each activity, in ``ACTIVITIES`` order


def hour_block(days, hours, level: float) -> np.ndarray:
    """(168,) array with ``level`` on the given day/hour crossings, 0 elsewhere."""
    out = np.zeros(SLOTS_PER_WEEK)
    for d in days:
        for h in hours:
            if not (0 <= d < 7 and 0 <= h < 24):
                raise PipelineError(f"day {d} hour {h} is not a slot of the week")
            out[d * 24 + h] = level
    return out


def _scaled(profile: np.ndarray) -> np.ndarray:
    return profile * (WEEKLY_VOLUME / profile.sum())


def build_archetypes(spec: dict, organic_target: float) -> Archetypes:
    """The archetypes of a spec in the JSON schema of :data:`STOCK_ARCHETYPES`.

    Schema: ``{"archetypes": [{"name", "base_rate", "volume_peaks":
    [{"days", "hours", "level"}, ...], "repetition"/"organicity"/"liked":
    {"base", "peaks": [...]}, "activity_links": {...}}, ...]}`` with one or
    more archetypes.  Each channel is its base plus the levels of its peaks
    (days 0-6 from Monday, hours 0-23).  A ratio block, its ``base`` or its
    ``peaks`` may be left out; the bases default to :data:`REPETITION_BASE`,
    the organic target and :data:`LIKED_BASE`.  Volume profiles are rescaled
    to :data:`WEEKLY_VOLUME`.  Organicity is shifted so its volume-weighted
    mean is the organic target; then every ratio is clipped to [0.02, 0.98].
    A spec that breaks the schema, or has a negative rate, a NaN ratio, an
    unknown activity or a link probability outside [0, 1], is a
    :class:`PipelineError`.
    """
    def channel(block: dict, base: float) -> np.ndarray:
        return block.get("base", base) + sum(
            (hour_block(p["days"], p["hours"], p["level"]) for p in block.get("peaks", ())),
            start=np.zeros(SLOTS_PER_WEEK))

    names, rows = [], []
    try:
        for entry in spec["archetypes"]:
            name = entry["name"]
            volume = channel({"base": entry["base_rate"], "peaks": entry["volume_peaks"]}, 0.0)
            if not 0 < volume.sum() < np.inf:
                raise PipelineError(f"{name} needs a finite, positive weekly volume")
            rate = _scaled(volume)
            if not np.all(rate >= 0):
                raise PipelineError(f"{name} has negative rates")
            organicity = channel(entry.get("organicity", {}), organic_target)
            organicity += organic_target - float((rate * organicity).sum() / rate.sum())
            ratios = {"repetition": channel(entry.get("repetition", {}), REPETITION_BASE),
                      "organicity": organicity,
                      "liked": channel(entry.get("liked", {}), LIKED_BASE)}
            for ratio, values in ratios.items():
                if np.isnan(values).any():
                    raise PipelineError(f"{name}.{ratio} must lie in [0, 1]")
            links = np.zeros(len(ACTIVITIES))
            for activity, p in dict(entry.get("activity_links", {})).items():
                if activity not in ACTIVITIES:
                    raise PipelineError(f"{name} links unknown activity {activity!r}")
                if not 0 <= p <= 1:
                    raise PipelineError(f"{name} link probability {p} outside [0, 1]")
                links[ACTIVITIES.index(activity)] = p
            names.append(name)
            rows.append((rate, *(np.clip(values, 0.02, 0.98) for values in ratios.values()), links))
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
        raise PipelineError(f"archetypes do not follow the schema: {type(exc).__name__} {exc}") from exc
    if not names:
        raise PipelineError("no archetypes given")
    return Archetypes(tuple(names), *map(np.stack, zip(*rows)))


def load_archetypes(path, organic_target: float) -> Archetypes:
    """:func:`build_archetypes` of the JSON file at ``path``; any failure is a :class:`PipelineError` naming it."""
    try:
        return build_archetypes(json.loads(Path(path).read_text(encoding="utf-8")), organic_target)
    except (OSError, ValueError, PipelineError) as exc:  # ValueError: not UTF-8 or not JSON
        raise PipelineError(f"cannot read archetypes {path}: {exc}") from exc


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs; the defaults are the pipeline defaults."""

    n_users: int = 5000
    weeks: int = 12
    seed: int = 0
    noise: float = 0.35
    organic_rate: float = 0.80
    archetypes: Archetypes | None = None  # None: the stock archetypes

    def __post_init__(self):
        if self.weeks < 2:
            raise PipelineError(f"weeks must be >= 2, got {self.weeks}")
        if self.n_users < 1:
            raise PipelineError(f"n_users must be >= 1, got {self.n_users}")
        if not 0 <= self.noise <= 1:
            raise PipelineError(f"noise must lie in [0, 1], got {self.noise}")
        if not 0 < self.organic_rate < 1:
            raise PipelineError(f"organic rate must lie in (0, 1), got {self.organic_rate}")

    def resolved_archetypes(self) -> Archetypes:
        """``archetypes``, or the stock ones recentered to ``organic_rate``."""
        if self.archetypes is not None:
            return self.archetypes
        return build_archetypes(STOCK_ARCHETYPES, self.organic_rate)

    @property
    def period_end(self) -> int:
        return PERIOD_START + self.weeks * SECONDS_PER_WEEK


@dataclass(frozen=True)
class GenerateResult:
    events_path: Path
    favorites_path: Path
    labels_path: Path
    n_users: int
    n_events: int
    n_valid_events: int
    organic_fraction_valid: float


def _user_rng(seed: int, user_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, user_index)))


def _smooth_random_profile(rng: np.random.Generator) -> np.ndarray:
    rough = rng.gamma(shape=1.2, scale=1.0, size=SLOTS_PER_WEEK)
    for _ in range(3):
        rough = _smooth_values(rough)
    return _scaled(rough)


def _user_events(rng, config: SynthConfig, rate: np.ndarray, rep_p: np.ndarray, org_p: np.ndarray,
                 liked_p: np.ndarray, has_favorites: bool) -> tuple[tuple[np.ndarray, ...], int, int]:
    """One user's events in time order, plus (n_valid, n_organic_valid).

    The columns are timestamps, the kind code of the track and album ids, the
    track and album counters (see :data:`TRACK_IDS`), the ``organic`` flags
    and durations.
    """
    weeks = config.weeks
    counts = rng.poisson(lam=rate, size=(weeks, SLOTS_PER_WEEK))
    cells = np.repeat(np.arange(weeks * SLOTS_PER_WEEK), counts.ravel())
    n = cells.size
    slots = cells % SLOTS_PER_WEEK

    offsets = rng.integers(0, 3600, size=n)
    timestamps = PERIOD_START + cells * 3600 + offsets
    durations = rng.integers(30, 421, size=n)
    organic = rng.random(n) < org_p[slots]

    lp = liked_p[slots] if has_favorites else 0.0
    draw = rng.random(n)
    liked_ev = draw < lp
    heavy_ev = ~liked_ev & (draw < rep_p[slots])

    # Liked events pick one of 6 favorited tracks or 4 tracks of the favorited
    # album, heavy ones one of 12 tracks; every other event gets a fresh track.
    kind = np.full(n, FRESH, dtype=np.int8)
    counter = np.empty(n, dtype=np.int64)
    pick = rng.integers(0, 10, size=n)[liked_ev]
    kind[liked_ev] = np.where(pick < 6, FAVORITE, FAVORITE_ALBUM)
    counter[liked_ev] = pick % 6
    pick_h = rng.integers(0, 12, size=n)
    kind[heavy_ev] = HEAVY
    counter[heavy_ev] = pick_h[heavy_ev]
    fresh = kind == FRESH
    counter[fresh] = np.arange(np.count_nonzero(fresh))

    # Short skipped streams on top; they must fall below the validity cutoff.
    skip_counts = rng.poisson(lam=rate * SKIP_RATE, size=(weeks, SLOTS_PER_WEEK))
    s_cells = np.repeat(np.arange(weeks * SLOTS_PER_WEEK), skip_counts.ravel())
    m = s_cells.size
    s_timestamps = PERIOD_START + s_cells * 3600 + rng.integers(0, 3600, size=m)
    s_durations = rng.integers(1, 30, size=m)
    s_organic = rng.random(m) < org_p[s_cells % SLOTS_PER_WEEK]

    all_ts = np.concatenate([timestamps, s_timestamps])
    order = np.argsort(all_ts, kind="stable")
    kind = np.concatenate([kind, np.full(m, SKIP, dtype=np.int8)])[order]
    counter = np.concatenate([counter, np.arange(m)])[order]
    columns = (all_ts[order], kind, counter, np.where(kind == FAVORITE_ALBUM, -1, counter),
               np.concatenate([organic, s_organic])[order],
               np.concatenate([durations, s_durations])[order])
    return columns, n, int(organic.sum())


def generate(config: SynthConfig, out_dir) -> GenerateResult:
    """Write ``events.csv``, ``favorites.csv`` and ``labels.csv`` under ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, rates, reps, orgs, likes, link_matrix = config.resolved_archetypes()
    alpha = np.full(len(rates), MIXTURE_CONCENTRATION)
    width = max(5, len(str(config.n_users - 1)))
    noise = config.noise

    events_path = out_dir / "events.csv"
    favorites_path = out_dir / "favorites.csv"
    labels_path = out_dir / "labels.csv"

    user_ids = [f"u{uidx:0{width}d}" for uidx in range(config.n_users)]
    user_bytes = np.array(user_ids, dtype=bytes)
    has_favorites = [uidx % 50 != 49 for uidx in range(config.n_users)]
    link_scores = np.zeros((config.n_users, len(ACTIVITIES)))
    label_noise = np.zeros_like(link_scores)
    demographics = np.zeros((config.n_users, 2), dtype=np.int64)
    valid_counts = np.zeros((config.n_users, 2), dtype=np.int64)  # valid, organic valid

    def user_blocks():
        pending = []  # the columns of each user of the block so far
        for uidx in range(config.n_users):
            rng = _user_rng(config.seed, uidx)

            w = rng.dirichlet(alpha)
            vol_mult = rng.uniform(0.9, 1.6)
            idio = _smooth_random_profile(rng)

            mix_rate = w @ rates
            rate = vol_mult * ((1.0 - noise) * mix_rate + noise * idio)
            # Ratio tendencies blend with the same volume weights; the
            # idiosyncratic share carries the population baselines, keeping
            # the volume-weighted organic mean at the configured target.
            blend_w = (1.0 - noise) * (w[:, None] * rates)
            denom = blend_w.sum(axis=0) + noise * idio
            rep_p = (np.einsum("as,as->s", blend_w, reps) + noise * idio * REPETITION_BASE) / denom
            org_p = (np.einsum("as,as->s", blend_w, orgs) + noise * idio * config.organic_rate) / denom
            liked_p = (np.einsum("as,as->s", blend_w, likes) + noise * idio * LIKED_BASE) / denom
            liked_p = np.minimum(liked_p, rep_p)

            columns, valid, organic_valid = _user_events(
                rng, config, rate, rep_p, org_p, liked_p, has_favorites[uidx])
            valid_counts[uidx] = valid, organic_valid
            link_scores[uidx] = w @ link_matrix
            label_noise[uidx] = rng.normal(size=len(ACTIVITIES))
            demographics[uidx] = (rng.integers(0, AGE_GROUPS), rng.integers(0, GENDER_CODES))
            pending.append(columns)
            if len(pending) == USERS_PER_BLOCK or uidx + 1 == config.n_users:
                timestamps, kind, tracks, albums, organic, durations = map(np.concatenate, zip(*pending))
                users = np.repeat(user_bytes[uidx + 1 - len(pending):uidx + 1], [len(c[0]) for c in pending])
                yield (users, timestamps, ingest.IdPatterns(*TRACK_IDS, kind, tracks),
                       ingest.IdPatterns(*ALBUM_IDS, kind, albums), organic, durations)
                pending = []

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
    for ai, rate in enumerate(BASE_RATES):
        col = z[:, ai]
        if col.std() == 0.0:  # constant scores cannot meet a base rate; fall back to noise
            col = label_noise[:, ai]
        threshold = np.quantile(col, 1.0 - rate)
        answers[:, ai] = (col > threshold).astype(np.int8)

    write_labels(labels_path, user_ids, answers, demographics)

    return GenerateResult(
        events_path=events_path, favorites_path=favorites_path, labels_path=labels_path,
        n_users=config.n_users, n_events=n_events, n_valid_events=n_valid,
        organic_fraction_valid=n_organic_valid / max(n_valid, 1),
    )

