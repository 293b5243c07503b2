"""Independent checks of ttlam reports on the generated rose maps.

Each check gets the op's result and returns None when it holds, or a short
reason when the result is wrong.  The checks use the slow oracles of
``tests/oracles.py`` and numpy on the generator's own description of the
map, never ttlam itself.
"""

from gen import LETTERS, RoseMap, growth_rate, is_primitive, transition_matrix


class _RoseGraph:
    """Just enough of a graph for the oracles: one vertex, 2r darts."""

    def __init__(self, rank: int):
        self.num_darts = 2 * rank

    def origin(self, d: int) -> int:
        return 0


class MapFacts:
    """Oracle data for one generated map, computed once at set-up."""

    def __init__(self, rm: RoseMap, oracles):
        self.rm = rm
        self.oracles = oracles
        self.graph = _RoseGraph(rm.rank)
        self.edge_image = rm.images
        self.matrix = transition_matrix(rm.images)
        self.primitive = is_primitive(self.matrix)
        self.lam = growth_rate(self.matrix)
        self.gate_classes, self.gate_of = oracles.derivative_orbit_gates(self)
        self.dart_index = {}
        for i in range(rm.rank):
            self.dart_index[LETTERS[i]] = 2 * i
            self.dart_index[LETTERS[i] + "~"] = 2 * i + 1
        self.second_images = [oracles.apply_map(self, oracles.apply_map(self, (2 * e,))) for e in range(rm.rank)]

    def parse(self, text: str) -> tuple[int, ...]:
        return tuple(self.dart_index[t] for t in text.split())

    def illegal_turns(self, path) -> int:
        return self.oracles.illegal_turn_count(self, path, self.gate_of)

    def factors(self, n: int) -> set:
        return {p[i : i + n] for p in self.second_images for i in range(len(p) - n + 1)}

    def iterate_prefix(self, path, k: int, keep: int):
        """First `keep` darts of f^k(path); exact because the maps are
        conjugate to positive ones, whose images never cancel, so a prefix
        of an image only depends on a prefix of the path."""
        for _ in range(k):
            path = self.oracles.apply_map(self, path[:keep])[:keep]
        return path


def _flip(w):
    return tuple(d ^ 1 for d in reversed(w))


def check_check(facts: MapFacts, data: dict):
    if data["train_track"] is not True:
        return "map conjugate to a positive one reported as not train track"
    if data["primitive"] != facts.primitive:
        return "primitivity disagrees with the matrix"
    if data["num_gates"] != len(facts.gate_classes):
        return "gate count disagrees with the oracle"
    return None


def check_gates(facts: MapFacts, data: dict):
    got = {frozenset(facts.parse(" ".join(gate))) for v in data["vertices"] for gate in v["gates"]}
    if got != set(facts.gate_classes):
        return "gates disagree with derivative_orbit_gates"
    return None


def check_turns(facts: MapFacts, data: dict):
    rank = facts.rm.rank
    if data["counts"]["total"] != rank * (2 * rank - 1):
        return "wrong number of turns"
    for row in data["turns"]:
        d1, d2 = (facts.dart_index[x] for x in row["turn"])
        if row["legal"] != (facts.gate_of[d1] != facts.gate_of[d2]):
            return f"legality of turn {row['turn']} disagrees with the oracle gates"
    return None


def check_pf(facts: MapFacts, data: dict):
    if data["matrix"] != facts.matrix.tolist():
        return "transition matrix disagrees"
    if abs(data["lambda"] - facts.lam) > 1e-8 * facts.lam:
        return f"lambda {data['lambda']} disagrees with numpy {facts.lam}"
    return None


def check_eigenrays(facts: MapFacts, data: dict):
    length = data["length"]
    for ray in data["rays"]:
        d, p = facts.dart_index[ray["dart"]], ray["period"]
        prefix = facts.parse(ray["prefix"])
        if len(prefix) != length or prefix[0] != d:
            return f"eigenray of {ray['dart']} has the wrong start or length"
        if facts.iterate_prefix(prefix, p, length) != prefix:
            return f"eigenray prefix of {ray['dart']} is not f^{p}-invariant"
    return None


def check_contract(facts: MapFacts, data: dict, word, steps: int):
    series = data["series"]
    if facts.parse(data["word"]) != word or len(series) != steps + 1:
        return "contraction echoes the wrong word or step count"
    if series[0] != facts.illegal_turns(word):
        return "initial illegal-turn count disagrees with the oracle"
    if any(b > a for a, b in zip(series, series[1:])):
        return "illegal-turn series increases"
    return None


def check_language(facts: MapFacts, words: set, n: int):
    if any(len(w) != n for w in words):
        return "language word of the wrong length"
    if any(_flip(w) not in words for w in words):
        return "language not closed under reversal"
    if any(facts.illegal_turns(w) for w in words):
        return "language word crosses an illegal turn"
    if not facts.factors(n) <= words:
        return f"language misses a length-{n} factor of f^2(e)"
    return None


def check_bfh(facts: MapFacts, data: dict, n: int):
    words = {facts.parse(w) for w in data["words"]}
    if data["count"] != len(words) or data["window"] != n:
        return "bfh count or window disagrees with its word list"
    return check_language(facts, words, n)


def check_recurrence(facts: MapFacts, rep, m: int):
    pairs = facts.factors(m)
    pairs |= {_flip(w) for w in pairs}
    if rep.m != m or rep.factors < len(pairs):
        return "recurrence report counts fewer factors than f^2(e) holds"
    if rep.conclusive and not 0 < rep.witness:
        return "conclusive recurrence report without a witness"
    return None


def check_inps(facts: MapFacts, data: dict):
    for inp in data["inps"]:
        path = facts.parse(inp["path"])
        if facts.illegal_turns(path) != 1:
            return f"INP {inp['path']} does not have exactly one illegal turn"
        image = path
        for _ in range(inp["period"]):
            image = facts.oracles.apply_map(facts, image)
        if image != path:
            return f"INP {inp['path']} is not fixed by f^{inp['period']}"
    return None


