"""Seeded MovieLens-shaped ratings generator.

Users and items get power-law degrees (every user rates at least
``_MIN_USER_DEGREE`` items, a few rate most of the catalogue; item popularity
follows a Zipf law). Each user rates a distinct set of items, so no
(user, item) pair repeats. A rating is a bounded low-rank signal plus noise,
rounded and clipped to 1..5: the signal is ``W_true @ H_true`` with item
profiles ``W_true`` in [1, 5] and simplex user mixtures ``H_true``, which is
the model the library fits.

The same seed gives the same ratings and the same file bytes.
"""

from dataclasses import dataclass

import numpy as np

# (users, items, ratings) of the public MovieLens releases the generator mimics.
ML_100K = (943, 1682, 100_000)
ML_1M = (6040, 3706, 1_000_209)

_T0 = 874_724_710  # first timestamp of the generated log (unix seconds)
_MIN_USER_DEGREE = 20  # as in the MovieLens releases
_NOISE = 0.6  # standard deviation of the rating noise before rounding
_CHUNK = 256  # users per block (bounds the memory of the keys and the signal)
_ROWS_PER_WRITE = 50_000  # rows formatted per write


@dataclass
class Ratings:
    """Columnar ratings: 0-based ``users``/``items``, integer ``values`` in 1..5.

    ``item_profiles`` is the ground-truth ``W_true`` (items x rank) behind the
    ratings.
    """

    num_users: int
    num_items: int
    users: np.ndarray
    items: np.ndarray
    values: np.ndarray
    timestamps: np.ndarray
    item_profiles: np.ndarray


def _user_degrees(rng, num_users, num_items, nnz, min_degree):
    """Pareto-tailed degrees with sum exactly ``nnz``, each in [min_degree, cap]."""
    cap = int(0.6 * num_items)
    if not (min_degree * num_users <= nnz <= cap * num_users):
        raise ValueError(f"cannot place {nnz} ratings on {num_users} users")
    raw = rng.pareto(2.5, num_users) + 1.0
    deg = min_degree + np.floor((nnz - min_degree * num_users) * raw / raw.sum())
    deg = np.minimum(deg.astype(np.int64), cap)
    while deg.sum() < nnz:
        room = np.flatnonzero(deg < cap)
        need = int(nnz - deg.sum())
        deg[rng.choice(room, size=min(need, room.size), replace=False)] += 1
    return deg


def generate(num_users, num_items, nnz, seed, rank):
    """Draw ``nnz`` distinct (user, item) ratings; returns :class:`Ratings`."""
    rng = np.random.default_rng(seed)
    deg = _user_degrees(rng, num_users, num_items, nnz, _MIN_USER_DEGREE)
    # Zipf item popularity over a random item order
    log_pop = -1.2 * np.log(np.arange(1, num_items + 1))[rng.permutation(num_items)]

    # bounded low-rank signal: item profiles in [1, 5], user mixtures on the simplex
    item_bias = 0.5 * rng.standard_normal(num_items)
    W_true = np.clip(3.6 + item_bias[:, None]
                     + 1.2 * rng.standard_normal((num_items, rank)), 1.0, 5.0)
    H_true = rng.dirichlet(np.full(rank, 0.3), size=num_users).T

    users = np.repeat(np.arange(num_users), deg)
    items = np.empty(nnz, dtype=np.int64)
    signal = np.empty(nnz)
    pos = 0
    for start in range(0, num_users, _CHUNK):
        stop = min(start + _CHUNK, num_users)
        # Gumbel top-k: each row is a weighted sample without replacement
        keys = log_pop[None, :] + rng.gumbel(size=(stop - start, num_items))
        order = np.argsort(-keys, axis=1)
        first = pos
        for row, d in enumerate(deg[start:stop]):
            items[pos:pos + d] = order[row, :d]
            pos += d
        # the signal block by block, so memory stays O(nnz) rather than O(nnz * rank)
        block = slice(first, pos)
        signal[block] = np.einsum("kr,rk->k", W_true[items[block]], H_true[:, users[block]])
    values = np.clip(np.rint(signal + _NOISE * rng.standard_normal(nnz)), 1, 5)
    timestamps = _T0 + np.sort(rng.integers(0, 200_000_000, size=nnz))
    return Ratings(num_users, num_items, users, items, values.astype(np.int64),
                   timestamps[rng.permutation(nnz)], W_true)


def write_u_data(path, ratings, seed):
    """ml-100k ``u.data`` layout: tab-separated, 1-based ids, shuffled rows."""
    order = np.random.default_rng(seed).permutation(ratings.users.size)
    _write(path, ratings, order, "\t")


def write_ratings_dat(path, ratings):
    """ml-1m ``ratings.dat`` layout: ``::``-separated, rows sorted by user then time."""
    order = np.lexsort((ratings.timestamps, ratings.users))
    _write(path, ratings, order, "::")


def _write(path, ratings, order, sep):
    # a block of rows at a time, so the text never holds the whole file in memory
    with open(path, "w", encoding="ascii", newline="\n") as f:
        for start in range(0, order.size, _ROWS_PER_WRITE):
            rows = order[start:start + _ROWS_PER_WRITE]
            u = (ratings.users[rows] + 1).tolist()
            i = (ratings.items[rows] + 1).tolist()
            v = ratings.values[rows].tolist()
            t = ratings.timestamps[rows].tolist()
            f.writelines(f"{a}{sep}{b}{sep}{c}{sep}{d}\n" for a, b, c, d in zip(u, i, v, t))
