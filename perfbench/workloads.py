"""Seeded inputs and the client-side shadow model of every workload.

Each workload is generated up front from the seed: the initial database
text the server is started with, and one fixed op list per connection.
While generating, a shadow model of the database is evolved, so every op
carries the answer the server must give.  Connections own disjoint people
(or disjoint graph components), so every predicted answer holds whatever
order the two connections' requests interleave in.  The only reads that
see the other connection's data are the unbound scans of ``sharded-2pc``;
for those the other side's rows are checked against bounds (rows that
are unemployed throughout, rows that are unemployed at some point).

An expected query answer is a pair ``(must, may)`` of row sets: the
answer ``A`` is right when ``must <= A <= may``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

EMPLOYMENT_RULES = (
    "Unemp(x) <- La(x) & not Works(x).\n"
    "Ic1(x) <- Unemp(x) & not U_benefit(x).\n"
)
DAG_RULES = (
    "Path(x,y) <- Edge(x,y).\n"
    "Path(x,y) <- Edge(x,z) & Path(z,y).\n"
    "Ic1(x) <- Path(x,x).\n"
)


@dataclass
class Op:
    """One request of the measured loop and the reply it must get."""

    cls: str                  # commit | lookup | scan | whatif
    op: str                   # wire op
    params: dict
    expect: object
    #: For an applied commit, the ``Unemp`` rows it inserts and deletes
    #: (the feed frame a subscriber must receive); ``None`` otherwise.
    feed: tuple[frozenset, frozenset] | None = None
    #: Base events in a commit.
    events: int = 0


@dataclass
class Workload:
    """Everything one run needs: server launch, ops and final checks."""

    init_text: str
    #: ``repro`` CLI words before the directory (``serve`` / ``shard-serve``).
    serve: list[str]
    #: Extra CLI flags after the directory (never a changed default).
    serve_flags: list[str]
    ops: list[list[Op]]
    #: Whether connection 2 subscribes to ``Unemp`` instead of sending ops.
    subscriber: bool = False
    #: Goal -> exact answer after the measured loop (derived extents).
    final: dict[str, frozenset] = field(default_factory=dict)
    #: Goal -> exact answer after crash and reopen (base and derived).
    recovered: dict[str, frozenset] = field(default_factory=dict)
    #: Server start-ups per run; ``setup_s`` is their median.
    launches: int = 5


def _exact(rows) -> tuple[frozenset, frozenset]:
    rows = frozenset(rows)
    return rows, rows


def _txn_text(events) -> str:
    return ", ".join(f"{kind} {pred}({', '.join(args)})"
                     for kind, pred, args in events)


class Deck:
    """Draws from *cards* in shuffled rounds (stratified sampling).

    Every round holds each card as often as listed, so a run's mix of op
    kinds and sizes is the same for every seed; only the order and the
    people or edges they touch vary.  That keeps the work of a run, and so
    its figures, comparable across seeds.
    """

    def __init__(self, rng: random.Random, cards):
        self._rng = rng
        self._cards = list(cards)
        self._hand: list = []

    def draw(self):
        if not self._hand:
            self._hand = list(self._cards)
            self._rng.shuffle(self._hand)
        return self._hand.pop()


def _cards(**counts) -> list[str]:
    return [kind for kind, count in counts.items() for _ in range(count)]


# -- the employment program ---------------------------------------------------


class Employment:
    """Shadow of the paper's employment database (Examples 5.1-5.3)."""

    def __init__(self, n_people: int, rng: random.Random):
        self.la: set[str] = set()
        self.works: set[str] = set()
        self.benefit: set[str] = set()
        for index in range(n_people):
            person = f"P{index}"
            self.la.add(person)
            if rng.random() < 0.6:
                self.works.add(person)
            else:
                self.benefit.add(person)

    def text(self) -> str:
        lines = [EMPLOYMENT_RULES]
        for person in sorted(self.la, key=lambda p: int(p[1:])):
            lines.append(f"La({person}).")
            lines.append(f"Works({person})." if person in self.works
                         else f"U_benefit({person}).")
        return "\n".join(lines) + "\n"

    def unemployed(self, person: str) -> bool:
        return person in self.la and person not in self.works

    def unemp(self) -> frozenset:
        return frozenset((p,) for p in self.la - self.works)

    def base_extents(self) -> dict[str, frozenset]:
        return {"La(x)": frozenset((p,) for p in self.la),
                "Works(x)": frozenset((p,) for p in self.works),
                "U_benefit(x)": frozenset((p,) for p in self.benefit)}

    def draft(self, rng: random.Random, own: list[str], kinds,
              new_prefix: str, counter: list[int]):
        """A transaction of employment events on distinct people of *own*.

        *kinds* lists one logical event per person: ``hire``, ``fire``
        (with benefit), ``reject`` (fire without benefit, an ``Ic1``
        violation) or ``new`` (a new person, also the fallback when no
        one fits).  Returns ``(events, touched)``; every event is
        effective.  New people join *own* only once a commit of them is
        applied (:meth:`commit_op`).
        """
        events: list[tuple[str, str, tuple]] = []
        touched: list[str] = []
        for kind in kinds:
            person = None
            if kind == "reject":
                person = self._pick(rng, own, touched, lambda p: (
                    p in self.works and p not in self.benefit))
                if person is not None:
                    events.append(("delete", "Works", (person,)))
            elif kind == "hire":
                person = self._pick(rng, own, touched,
                                    lambda p: p not in self.works)
                if person is not None:
                    events.append(("insert", "Works", (person,)))
            elif kind == "fire":
                person = self._pick(rng, own, touched,
                                    lambda p: p in self.works)
                if person is not None:
                    events.append(("delete", "Works", (person,)))
                    if person not in self.benefit:
                        events.append(("insert", "U_benefit", (person,)))
            if person is None:
                counter[0] += 1
                person = f"{new_prefix}{counter[0]}"
                events.append(("insert", "La", (person,)))
                events.append(("insert", "Works", (person,))
                              if rng.random() < 0.5
                              else ("insert", "U_benefit", (person,)))
            touched.append(person)
        return events, touched

    @staticmethod
    def _pick(rng, own, touched, wanted):
        for _ in range(64):
            person = rng.choice(own)
            if person not in touched and wanted(person):
                return person
        return None

    def outcome(self, events, touched):
        """``(violators, after)`` of *events*: the ``Ic1`` rows the
        transaction would create and the touched people's new state."""
        after = {p: [p in self.la, p in self.works, p in self.benefit]
                 for p in touched}
        for kind, pred, (person,) in events:
            slot = {"La": 0, "Works": 1, "U_benefit": 2}[pred]
            after[person][slot] = kind == "insert"
        violators = frozenset(
            (p,) for p, (la, works, benefit) in after.items()
            if la and not works and not benefit)
        return violators, after

    def unemp_delta(self, after) -> tuple[frozenset, frozenset]:
        inserted = frozenset((p,) for p, (la, works, _) in after.items()
                             if la and not works and not self.unemployed(p))
        deleted = frozenset((p,) for p, (la, works, _) in after.items()
                            if self.unemployed(p) and not (la and not works))
        return inserted, deleted

    def apply(self, after) -> None:
        for person, (la, works, benefit) in after.items():
            for present, relation in ((la, self.la), (works, self.works),
                                      (benefit, self.benefit)):
                if present:
                    relation.add(person)
                else:
                    relation.discard(person)

    def commit_op(self, rng, own, kinds, new_prefix, counter) -> Op:
        events, touched = self.draft(rng, own, kinds, new_prefix, counter)
        violators, after = self.outcome(events, touched)
        applied = not violators
        feed = None
        if applied:
            inserted, deleted = self.unemp_delta(after)
            feed = (inserted, deleted) if inserted or deleted else None
            own.extend(p for p in touched if p not in self.la)
            self.apply(after)
        return Op("commit", "commit", {"transaction": _txn_text(events)},
                  applied, feed, len(events))

    def lookup_op(self, rng, own) -> Op:
        person = rng.choice(own)
        if rng.random() < 0.5:
            holds = self.unemployed(person)
            goal = f"Unemp({person})"
        else:
            if rng.random() < 0.1:  # a person who does not exist
                person = f"X{rng.randrange(10**6)}"
            holds = person in self.la
            goal = f"La({person})"
        return Op("lookup", "query", {"goal": goal},
                  _exact([()] if holds else []))

    def whatif_op(self, rng, own, kind, events_deck) -> Op:
        """A ``check``, ``upward`` or ``downward`` request (*kind*)."""
        if kind in ("check", "upward"):
            kinds = [events_deck.draw() for _ in range(rng.randint(1, 2))]
            events, touched = self.draft(rng, own, kinds, "W", [0])
            violators, after = self.outcome(events, touched)
            text = _txn_text(events)
            if kind == "check":
                return Op("whatif", "check", {"transaction": text},
                          ("check", violators))
            inserted, deleted = self.unemp_delta(after)
            expect = {"Unemp": (inserted, deleted),
                      "Ic1": (violators, frozenset()),
                      "Ic": (frozenset([()]) if violators else frozenset(),
                             frozenset())}
            return Op("whatif", "upward", {"transaction": text},
                      ("upward", expect))
        person = rng.choice(own)
        if self.unemployed(person):
            request = f"del Unemp({person})"
            expect = frozenset({
                (frozenset({("delete", "La", (person,))}), frozenset()),
                (frozenset({("insert", "Works", (person,))}), frozenset())})
        else:
            request = f"ins Unemp({person})"
            expect = frozenset({
                (frozenset({("delete", "Works", (person,))}),
                 frozenset({("delete", "La", (person,))}))})
        return Op("whatif", "downward", {"requests": [request]},
                  ("downward", expect))


def _split(people, n_parts: int) -> list[list[str]]:
    return [sorted(p for p in people if int(p[1:]) % n_parts == part)
            for part in range(n_parts)]


#: Logical events per 20 in a commit: 5% fire without benefit.
COMMIT_EVENTS = _cards(reject=1, hire=8, fire=8, new=3)


def _commit_kinds(rng, events: Deck, sizes: Deck) -> list[str]:
    return [events.draw() for _ in range(sizes.draw())]


def commit_80k(seed: int, n_ops: int) -> Workload:
    rng = random.Random(seed)
    shadow = Employment(40_000, rng)
    init = shadow.text()
    owners = _split(shadow.la, 2)
    ops: list[list[Op]] = [[], []]
    for conn in (0, 1):
        crng = random.Random(f"{seed}-commit-{conn}")
        events, sizes = Deck(crng, COMMIT_EVENTS), Deck(crng, (1, 2, 3, 4))
        counter = [0]
        for _ in range(n_ops):
            ops[conn].append(shadow.commit_op(
                crng, owners[conn], _commit_kinds(crng, events, sizes),
                f"Q{conn}_", counter))
    return Workload(init, ["serve"], [], ops,
                    final={"Unemp(x)": shadow.unemp(),
                           "Ic1(x)": frozenset()},
                    recovered={**shadow.base_extents(),
                               "Unemp(x)": shadow.unemp()})


def read_8k(seed: int, n_ops: int) -> Workload:
    rng = random.Random(seed)
    shadow = Employment(4_000, rng)
    init = shadow.text()
    own = sorted(shadow.la)
    crng = random.Random(f"{seed}-read")
    mix = Deck(crng, _cards(lookup=6, scan=1, whatif=2, commit=1))
    whatifs = Deck(crng, ("check", "upward", "downward"))
    events = Deck(crng, _cards(reject=2, hire=7, fire=8, new=3))
    drafts = Deck(crng, _cards(reject=3, hire=3, fire=3, new=1))
    sizes = Deck(crng, (1, 2, 3, 4))
    counter = [0]
    ops: list[Op] = []
    for _ in range(n_ops):
        kind = mix.draw()
        if kind == "lookup":
            ops.append(shadow.lookup_op(crng, own))
        elif kind == "scan":
            ops.append(Op("scan", "query", {"goal": "Unemp(x)"},
                          _exact(shadow.unemp())))
        elif kind == "whatif":
            ops.append(shadow.whatif_op(crng, own, whatifs.draw(), drafts))
        else:
            ops.append(shadow.commit_op(
                crng, own, _commit_kinds(crng, events, sizes), "Q", counter))
    return Workload(init, ["serve"], [], [ops], subscriber=True,
                    final={"Unemp(x)": shadow.unemp(), "Ic1(x)": frozenset()},
                    recovered={**shadow.base_extents(),
                               "Unemp(x)": shadow.unemp()})


def sharded_2pc(seed: int, n_ops: int) -> Workload:
    rng = random.Random(seed)
    shadow = Employment(4_000, rng)
    init = shadow.text()
    owners = _split(shadow.la, 2)
    # Each connection's ops are drawn in turn; the foreign bounds of the
    # scans need both trajectories, so they are filled in at the end.
    ops: list[list[Op]] = [[], []]
    ever: list[set] = [set(), set()]     # unemployed at some point
    always: list[set] = [set(), set()]   # unemployed throughout
    for conn in (0, 1):
        always[conn] = {p for p in owners[conn] if shadow.unemployed(p)}
        ever[conn] = set(always[conn])
    scans: list[tuple[int, int]] = []
    for conn in (0, 1):
        crng = random.Random(f"{seed}-shard-{conn}")
        mix = Deck(crng, _cards(commit=7, lookup=2, scan=1))
        events = Deck(crng, COMMIT_EVENTS)
        counter = [0]
        for index in range(n_ops):
            kind = mix.draw()
            if kind == "commit":
                # Two people: about half the commits span both shards.
                op = shadow.commit_op(crng, owners[conn],
                                      [events.draw(), events.draw()],
                                      f"Q{conn}_", counter)
                if op.feed is not None:
                    inserted, deleted = op.feed
                    ever[conn] |= {p for (p,) in inserted}
                    always[conn] -= {p for (p,) in deleted}
                ops[conn].append(op)
            elif kind == "lookup":
                ops[conn].append(shadow.lookup_op(crng, owners[conn]))
            else:
                own_rows = frozenset((p,) for p in owners[conn]
                                     if shadow.unemployed(p))
                ops[conn].append(Op("scan", "query", {"goal": "Unemp(x)"},
                                    own_rows))
                scans.append((conn, index))
    for conn, index in scans:
        other = 1 - conn
        op = ops[conn][index]
        op.expect = (op.expect | frozenset((p,) for p in always[other]),
                     op.expect | frozenset((p,) for p in ever[other]))
    return Workload(init, ["shard-serve"], ["--shards", "2"],
                    ops,
                    final={"Unemp(x)": shadow.unemp(), "Ic1(x)": frozenset()},
                    recovered={**shadow.base_extents(),
                               "Unemp(x)": shadow.unemp()})


# -- the recursive program ----------------------------------------------------


class Dag:
    """Shadow of ``Edge``/``Path`` over one connection's graph component."""

    def __init__(self, nodes: list[str], n_edges: int, rng: random.Random):
        self.nodes = nodes
        self.rank = {n: r for r, n in enumerate(rng.sample(nodes, len(nodes)))}
        self.edges: set[tuple[str, str]] = set()
        while len(self.edges) < n_edges:
            u, v = rng.sample(nodes, 2)
            if self.rank[u] > self.rank[v]:
                u, v = v, u
            self.edges.add((u, v))

    def reach(self) -> dict[str, set[str]]:
        """Every node's set of successors (``rank`` is a topological order)."""
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        for u, v in self.edges:
            out[u].append(v)
        reach: dict[str, set[str]] = {}
        for node in sorted(self.nodes, key=lambda n: -self.rank[n]):
            found: set[str] = set()
            for succ in out[node]:
                found.add(succ)
                found |= reach[succ]
            reach[node] = found
        return reach

    def closure(self) -> frozenset:
        return frozenset((u, v) for u, targets in self.reach().items()
                         for v in targets)

    def commit_op(self, rng: random.Random, reach, kind: str, size: int,
                  changes: Deck) -> Op:
        """An edge commit of *kind* ``edges`` (*size* inserts or deletes,
        drawn from *changes*) or ``cycle``.

        Applied edges always follow ``rank``, so the graph stays acyclic;
        a cycle-closing insert comes alone and is rejected by ``Ic1``.
        """
        if kind == "cycle":
            u = rng.choice([n for n in self.nodes if reach[n]])
            v = rng.choice(sorted(reach[u]))
            return Op("commit", "commit",
                      {"transaction": _txn_text([("insert", "Edge", (v, u))])},
                      False, events=1)
        events = []
        touched: set[tuple[str, str]] = set()
        for _ in range(size):
            if changes.draw() == "insert":
                while True:
                    u, v = rng.sample(self.nodes, 2)
                    if self.rank[u] > self.rank[v]:
                        u, v = v, u
                    if (u, v) not in self.edges and (u, v) not in touched:
                        break
                events.append(("insert", "Edge", (u, v)))
            else:
                u, v = rng.choice(sorted(self.edges - touched))
                events.append(("delete", "Edge", (u, v)))
            touched.add((u, v))
        for kind, _, edge in events:
            if kind == "insert":
                self.edges.add(edge)
            else:
                self.edges.discard(edge)
        return Op("commit", "commit", {"transaction": _txn_text(events)},
                  True, events=len(events))


def recursive_dag(seed: int, n_ops: int) -> Workload:
    rng = random.Random(seed)
    dags = [Dag([f"N{c * 100 + i}" for i in range(100)], 200, rng)
            for c in (0, 1)]
    lines = [DAG_RULES]
    for dag in dags:
        lines += [f"Edge({u}, {v})." for u, v in sorted(dag.edges)]
    init = "\n".join(lines) + "\n"
    ops: list[list[Op]] = [[], []]
    for conn, dag in enumerate(dags):
        crng = random.Random(f"{seed}-dag-{conn}")
        mix = Deck(crng, _cards(commit=17, lookup=3))
        kinds = Deck(crng, _cards(edges=9, cycle=1))
        sizes = Deck(crng, (1, 2))
        changes = Deck(crng, ("insert", "delete"))
        reach = dag.reach()
        for _ in range(n_ops):
            if mix.draw() == "commit":
                op = dag.commit_op(crng, reach, kinds.draw(), sizes.draw(),
                                   changes)
                if op.expect:
                    reach = dag.reach()
                ops[conn].append(op)
            else:
                node = crng.choice(dag.nodes)
                ops[conn].append(Op(
                    "lookup", "query", {"goal": f"Path({node}, y)"},
                    _exact((v,) for v in reach[node])))
    path = dags[0].closure() | dags[1].closure()
    edges = frozenset(dags[0].edges | dags[1].edges)
    return Workload(init, ["serve"], [], ops,
                    final={"Path(x, y)": path, "Ic1(x)": frozenset()},
                    recovered={"Edge(x, y)": edges, "Path(x, y)": path})


#: Workload name -> (generator, ops per connection per second of
#: ``--seconds``, launches).  The op count is fixed by ``--seconds``,
#: never by the clock, so both sides of an A/B compare do identical work;
#: the rates make a run take about ``--seconds`` on a 2-core machine.
#: ``commit-80k`` launches 3 times, not 5: each of its starts takes
#: seconds.
WORKLOADS = {
    "commit-80k": (commit_80k, 2.2, 3),
    "read-8k": (read_8k, 45, 5),
    "recursive-dag": (recursive_dag, 35, 5),
    "sharded-2pc": (sharded_2pc, 22, 5),
}


def build(name: str, seed: int, seconds: int) -> Workload:
    generator, rate, launches = WORKLOADS[name]
    workload = generator(seed, max(1, round(rate * seconds)))
    workload.launches = launches
    return workload
