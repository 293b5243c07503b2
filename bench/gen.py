"""Seeded random positive automorphisms of the rank-r rose.

A map is built by composing positive elementary Nielsen moves
``x -> x y`` or ``x -> y x`` on the identity of the rank-r rose.  Every such
composite sends each edge to a positive word, so no iterate ever cancels and
the map is a train track map with no search.  Moves are added (at least r of
them) until the transition matrix is primitive; a map whose growth rate falls
outside the requested band (never above 50) is thrown away and drawn again.

``relabel`` conjugates a map by a random signed permutation of the edges, an
automorphism of the rose: the result is a different input file with the same
structure, so the program does the same amount of work on it.

Maps are words of darts, edge i giving dart 2i forward and 2i+1 backward, as
in ttlam.  Everything here is independent of ttlam: the growth rate comes
from numpy's eigenvalues, and maps reach the program only as ``.tt`` files.
"""

import random
import string
from dataclasses import dataclass

import numpy as np

LETTERS = string.ascii_lowercase
MAX_LAMBDA = 50.0


@dataclass(frozen=True)
class RoseMap:
    name: str
    images: tuple[tuple[int, ...], ...]  # image of the forward dart of each edge
    lam: float

    @property
    def rank(self) -> int:
        return len(self.images)

    def dart_image(self, d: int) -> tuple[int, ...]:
        img = self.images[d >> 1]
        return tuple(x ^ 1 for x in reversed(img)) if d & 1 else img

    def to_tt(self) -> str:
        lines = [f"# random positive rose automorphism, rank {self.rank}", f"graph {self.name}", "vertex v"]
        lines += [f"edge {LETTERS[i]} v v" for i in range(self.rank)]
        lines.append("map")
        lines += [f"{LETTERS[i]} -> {dart_names(img)}" for i, img in enumerate(self.images)]
        return "\n".join(lines) + "\n"


def dart_names(path) -> str:
    return " ".join(LETTERS[d >> 1] + ("~" if d & 1 else "") for d in path)


def transition_matrix(images) -> np.ndarray:
    """Column j counts the edges crossed by the image of edge j."""
    m = np.zeros((len(images), len(images)), dtype=np.int64)
    for j, img in enumerate(images):
        for d in img:
            m[d >> 1, j] += 1
    return m


def is_primitive(m: np.ndarray) -> bool:
    """Some power of m is positive; squaring past Wielandt's bound decides it."""
    n = m.shape[0]
    reach = (m > 0).astype(np.int64)
    k = 1
    while k < (n - 1) ** 2 + 1:
        reach = ((reach @ reach) > 0).astype(np.int64)
        k *= 2
    return bool(reach.all())


def growth_rate(m: np.ndarray) -> float:
    return float(max(np.linalg.eigvals(m.astype(np.float64)).real))


def _strongly_connected(edges: list[set[int]]) -> bool:
    """Every vertex reaches and is reached from vertex 0."""
    n = len(edges)
    backward = [set() for _ in range(n)]
    for a, targets in enumerate(edges):
        for b in targets:
            backward[b].add(a)
    for adj in (edges, backward):
        seen, todo = {0}, [0]
        while todo:
            for b in adj[todo.pop()] - seen:
                seen.add(b)
                todo.append(b)
        if len(seen) < n:
            return False
    return True


def random_rose_map(rng: random.Random, rank: int, name: str, lam_lo: float, lam_hi: float) -> RoseMap:
    """Draw maps until one has its growth rate in [lam_lo, min(lam_hi, 50)].

    Every image keeps its own letter, so the transition matrix has a positive
    diagonal and is primitive exactly when it is irreducible.
    """
    if not 2 <= rank <= len(LETTERS):
        raise ValueError(f"rank {rank} outside 2..{len(LETTERS)}")
    lam_hi = min(lam_hi, MAX_LAMBDA)
    while True:
        words = [[i] for i in range(rank)]
        letters = [{i} for i in range(rank)]  # letters[j]: edges crossed by the image of j
        moves = 0
        while moves < rank or not _strongly_connected(letters):
            i, j = rng.sample(range(rank), 2)
            words[i] = words[i] + words[j] if rng.random() < 0.5 else words[j] + words[i]
            letters[i] |= letters[j]
            moves += 1
        images = tuple(tuple(2 * k for k in w) for w in words)
        lam = growth_rate(transition_matrix(images))
        if lam_lo <= lam <= lam_hi:
            return RoseMap(name, images, lam)


def relabel(rm: RoseMap, rng: random.Random) -> RoseMap:
    """Conjugate by a random signed permutation phi: g = phi f phi^-1."""
    perm = list(range(rm.rank))
    rng.shuffle(perm)
    flip = [rng.randrange(2) for _ in range(rm.rank)]

    def phi(d: int) -> int:
        return 2 * perm[d >> 1] + ((d & 1) ^ flip[d >> 1])

    images = [()] * rm.rank
    for i in range(rm.rank):
        # the forward dart of edge perm[i] is phi of dart (i, flip[i])
        images[perm[i]] = tuple(phi(d) for d in rm.dart_image(2 * i + flip[i]))
    return RoseMap(rm.name, tuple(images), rm.lam)
