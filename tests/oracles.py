"""Independent reference implementations used to check the package.

Nothing here shares code with the package's vectorized paths: the lasso
oracle is an exhaustive box-refinement search, the KKT check walks the
coordinates one by one, the orthonormal form is the textbook closed form, and
recovery matching enumerates permutations, and the dictionary objective sums
per-row lasso objectives.  The profile and signal oracles walk a list of event
records (``conftest.records(log)``) one by one, find weekly slots with the
calendar, and smooth and normalize slot by slot.  Favorites are the
``(user_ids, kinds, item_ids)`` columns that ``ingest.parse_favorites``
returns.
"""

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from weeklisten.errors import SignalError
from weeklisten.ingest import ORGANIC, REPEAT_PLAY_THRESHOLD

SIGNAL_CHANNELS = ("volume", "repetition", "organicity", "liked")
SLOTS = 168


def lasso_objective(s, D, code, lam):
    r = s - D @ code
    return float(r @ r + lam * np.abs(code).sum())


def dictionary_objective(X, D, C, lam):
    """``||X - C D^T||_F^2 + lam * ||C||_1`` as the sum of each row's lasso objective."""
    return math.fsum(lasso_objective(s, D, code, lam) for s, code in zip(X, C))


def kkt_violation(s, D, code, lam):
    """Worst subgradient-optimality violation of one lasso code, coordinate by coordinate.

    The smooth-term gradient is ``g = -2 D^T (s - D c)``; optimality needs
    ``|g_k| <= lam`` where ``c_k == 0`` and ``g_k == -lam * sign(c_k)`` elsewhere.
    """
    g = -2.0 * D.T @ (s - D @ code)
    worst = 0.0
    for g_k, c_k in zip(g, code):
        excess = abs(g_k) - lam if c_k == 0.0 else abs(g_k + lam * np.sign(c_k))
        worst = max(worst, float(excess))
    return worst


def orthonormal_lasso(s, D, lam):
    """Closed form for orthonormal atoms: soft-threshold the correlations."""
    rho = D.T @ s
    return np.sign(rho) * np.maximum(np.abs(rho) - lam / 2.0, 0.0)


def grid_refine_lasso(s, D, lam, rounds=14, points=21):
    """Global minimum by exhaustive grid refinement (K <= 3 only).

    Each round evaluates a full points^K mesh in a box around the incumbent,
    then shrinks the box to a few steps around the best point; convexity keeps
    the optimum inside.  Returns (code, objective).
    """
    K = D.shape[1]
    assert K <= 3, "oracle is exponential in K"
    # Generous initial box around the unregularized solution.
    base = np.linalg.pinv(D) @ s
    half = 2.0 * max(1.0, float(np.abs(base).max()))
    center = np.zeros(K)

    best_code, best_obj = center.copy(), lasso_objective(s, D, center, lam)
    for _ in range(rounds):
        axes = [np.linspace(center[k] - half, center[k] + half, points) for k in range(K)]
        mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        residuals = s[None, :] - mesh @ D.T
        objs = np.einsum("ij,ij->i", residuals, residuals) + lam * np.abs(mesh).sum(axis=1)
        i = int(np.argmin(objs))
        if objs[i] < best_obj:
            best_obj, best_code = float(objs[i]), mesh[i].copy()
        center = mesh[i]
        step = 2.0 * half / (points - 1)
        half = 2.5 * step
    return best_code, best_obj


def best_permutation_correlations(true_atoms, learned_atoms):
    """Max over atom permutations of the per-pair |cosine|, as matched pairs.

    Both inputs are (dim, K) column matrices.  Returns the K matched
    |correlation| values of the best permutation (the one maximizing the
    minimum pair correlation).
    """
    def unit(M):
        norms = np.linalg.norm(M, axis=0)
        return M / np.where(norms == 0, 1.0, norms)

    corr = np.abs(unit(true_atoms).T @ unit(learned_atoms))
    K = corr.shape[0]
    best = None
    for perm in itertools.permutations(range(K)):
        matched = np.array([corr[i, perm[i]] for i in range(K)])
        if best is None or matched.min() > best.min():
            best = matched
    return best


def planted_instance(rng, n=240, dim=96, n_atoms=3, noise=0.01, single_frac=0.6):
    """Signals built from random orthonormal atoms with sparse positive codes."""
    basis, _ = np.linalg.qr(rng.normal(size=(dim, n_atoms)))
    codes = np.zeros((n, n_atoms))
    for i in range(n):
        k = 1 if rng.random() < single_frac else 2
        chosen = rng.choice(n_atoms, size=k, replace=False)
        codes[i, chosen] = rng.uniform(0.7, 1.5, size=k)
    X = codes @ basis.T + rng.normal(0, noise, size=(n, dim))
    return X, basis, codes


def pair_counting_auc(scores, labels):
    """ROC AUC by brute-force pair enumeration; ties count one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = ties = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1
            elif p == q:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


# -- profiles and weekly signals, record by record ------------------------------

def weekly_slot(timestamp, tz_offset_min=0):
    """Slot (weekday * 24 + hour, Monday 00:00 = 0) of the local hour containing ``timestamp``."""
    local = datetime.fromtimestamp(timestamp + 60 * tz_offset_min, tz=timezone.utc)
    return local.weekday() * 24 + local.hour


@dataclass(frozen=True)
class Profile:
    """One user's lookups over their events.

    ``liked_tracks`` holds the user's favorited tracks that they streamed
    plus every track they streamed under a favorited album; an event is
    liked when its track is in that set.
    """

    user_id: str
    play_count_per_track: dict
    favorite_tracks: frozenset
    favorite_albums: frozenset
    liked_tracks: frozenset
    total_valid_streams: int
    active_days: int

    def is_liked(self, event):
        return event.track_id in self.liked_tracks


def profiles(events, favorites=()):
    """``{user_id: Profile}`` for every user with one of the ``events`` (a record list)."""
    events_of = defaultdict(list)
    for event in events:
        events_of[event.user_id].append(event)
    favorite = {"track": defaultdict(set), "album": defaultdict(set)}
    for user, kind, item in zip(*favorites):
        favorite[kind][user].add(item)
    out = {}
    for user, events in events_of.items():
        tracks = frozenset(favorite["track"][user])
        albums = frozenset(favorite["album"][user])
        liked = frozenset(e.track_id for e in events if e.track_id in tracks or e.album_id in albums)
        # Days in each event's own clock; events without an offset count as UTC.
        days = {(e.timestamp + 60 * (e.tz_offset_min or 0)) // 86400 for e in events}
        out[user] = Profile(user, dict(Counter(e.track_id for e in events)), tracks, albums,
                            liked, len(events), len(days))
    return out


def summary_rows(profile_of):
    """``user_summary.csv`` rows: (user, streams, active days, distinct tracks, liked tracks)."""
    return [(user, p.total_valid_streams, p.active_days, len(p.play_count_per_track), len(p.liked_tracks))
            for user, p in sorted(profile_of.items())]


def window_features(profile, events):
    """(volume, repetition, organicity, liked) of one user's events in one 1-hour window."""
    n = len(events)
    if n == 0:
        return (0.0, 0.0, 0.0, 0.0)
    repeated = sum(1 for e in events
                   if profile.play_count_per_track.get(e.track_id, 0) > REPEAT_PLAY_THRESHOLD)
    organic = sum(1 for e in events if e.origin == ORGANIC)
    liked = sum(1 for e in events if profile.is_liked(e))
    return (float(n), repeated / n, organic / n, liked / n)


def raw_signals(events, profile_of, period, default_tz_offset_min=0):
    """``{user_id: (4, 168) array}``: per slot, the mean window features over whole in-period windows.

    ``events`` is a list of event records.  Windows are local
    1-hour windows (each event's own offset, else the default); only those
    lying fully inside the period count, and empty ones count as zero.  Users
    of ``profile_of`` without such windows get zeros.
    """
    shift = 60 * default_tz_offset_min
    first = -(-(period.start + shift) // 3600)
    end = (period.end + shift) // 3600
    if end - first < SLOTS:
        raise SignalError(f"study period covers {max(end - first, 0)} whole hours; "
                          f"at least one week ({SLOTS}) is required")
    windows_per_slot = Counter(weekly_slot(3600 * k) for k in range(first, end))

    window_events = defaultdict(list)
    for event in events:
        offset = default_tz_offset_min if event.tz_offset_min is None else event.tz_offset_min
        k = (event.timestamp + 60 * offset) // 3600
        if first <= k < end:
            window_events[(event.user_id, k)].append(event)

    sums = {user: np.zeros((len(SIGNAL_CHANNELS), SLOTS)) for user in profile_of}
    for (user, k), events in sorted(window_events.items()):
        if user in sums:
            slot = weekly_slot(3600 * k)
            for c, value in enumerate(window_features(profile_of[user], events)):
                sums[user][c, slot] += value
    for signal in sums.values():
        for slot in range(SLOTS):
            signal[:, slot] /= windows_per_slot[slot]
    return sums


def aggregate(user_events, profile, period, default_tz_offset_min=0):
    """Raw (4, 168) signal of the single user whose records make up ``user_events``."""
    users = {event.user_id for event in user_events}
    if len(users) != 1:
        raise SignalError(f"aggregate expects events of exactly one user, found {len(users)}")
    return raw_signals(user_events, {profile.user_id: profile}, period, default_tz_offset_min)[profile.user_id]


def smooth(values):
    """Circular length-3 moving average of each channel (rows of ``values``), slot by slot."""
    out = []
    for channel in np.atleast_2d(values):
        n = len(channel)
        out.append([(channel[t - 1] + channel[t] + channel[(t + 1) % n]) / 3.0 for t in range(n)])
    return np.array(out)


def normalize(values):
    """Each channel minus its mean, divided by its largest magnitude.

    A channel whose values agree to 1e-12 relative is constant and becomes
    all zeros.
    """
    out = []
    for channel in np.atleast_2d(values):
        if not all(math.isfinite(v) for v in channel):
            raise SignalError("non-finite values in signal")
        mean = math.fsum(channel) / len(channel)
        centered = [v - mean for v in channel]
        spread = max(abs(v) for v in centered)
        if max(channel) - min(channel) <= 1e-12 * max(abs(v) for v in channel):
            out.append([0.0] * len(channel))
        else:
            out.append([v / spread for v in centered])
    return np.array(out)


def signal_rows(events, favorites, period, default_tz_offset_min=0):
    """What ``build_signal_set`` returns for the log of ``events``: sorted user ids and the (n, 672) matrix."""
    profile_of = profiles(events, favorites)
    raw = raw_signals(events, profile_of, period, default_tz_offset_min)
    users = sorted(raw)
    rows = [normalize(smooth(raw[user])).ravel() for user in users]
    return tuple(users), np.array(rows).reshape(len(users), len(SIGNAL_CHANNELS) * SLOTS)


def signal_row(sset, user_id):
    """The matrix row of ``user_id`` in a signal set."""
    return sset.matrix[sset.user_ids.index(user_id)]
