"""Calibrated synthetic DBLP generator with exact ground truth.

The paper evaluates IUAD on a DBLP dump (641,377 papers, 72,522 names).  We
cannot ship that dump, so this module builds a *collaboration world* that
reproduces the distributional facts IUAD's correctness rests on:

* power-law productivity — the number of papers per name follows a heavy
  tail (Figure 3a, log-log slope ≈ −1.68);
* power-law collaboration — the frequency of co-author name pairs follows a
  steeper heavy tail (Figure 3b, slope ≈ −3.17), produced here by
  preferential attachment inside research groups;
* homonymy — a name pool smaller than the author population, with Zipfian
  name popularity, so popular names are shared by many distinct authors;
* career phases — an author works with a stable collaborator circle for a
  few years, then moves on.  Within a phase, repeated collaboration creates
  η-SCRs (Stage 1 finds these); across phases the circles are disjoint, so
  Stage 2 must merge the author's phase-vertices using research-interest and
  venue coherence.  This is exactly the precision/recall structure of
  Table IV;
* topical coherence — every author has a home topic; titles draw from the
  topic vocabulary and venues concentrate on a community's favourite venues,
  feeding similarity functions γ3–γ6.

Ground truth is exact by construction: every author mention carries the id
of the author entity that produced it.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field

from .records import Corpus, Paper

# Family names and given names are combined to form the ambiguous name pool.
_FAMILY = [
    "Wang", "Li", "Zhang", "Liu", "Chen", "Yang", "Huang", "Zhao", "Wu",
    "Zhou", "Xu", "Sun", "Ma", "Zhu", "Hu", "Guo", "He", "Lin", "Gao",
    "Luo", "Zheng", "Liang", "Xie", "Tang", "Xiong", "Deng", "Feng",
    "Smith", "Johnson", "Brown", "Miller", "Davis", "Garcia", "Kim",
    "Lee", "Park", "Singh", "Kumar", "Patel", "Mueller", "Schmidt",
    "Rossi", "Silva", "Santos", "Ivanov", "Petrov", "Sato", "Suzuki",
    "Tanaka", "Yamamoto", "Nguyen", "Tran", "Pham", "Cohen", "Levi",
    "Novak", "Horvat", "Jensen", "Nielsen", "Larsen", "Berg",
]
_GIVEN = [
    "Wei", "Jing", "Min", "Lei", "Jun", "Yan", "Tao", "Hui", "Ping", "Bo",
    "Hong", "Jian", "Qiang", "Fang", "Na", "Xin", "Gang", "Chao", "Dan",
    "Feng", "Yu", "Lin", "Peng", "Rui", "Xiang", "Juan", "Ying", "Hao",
    "John", "Anna", "David", "Maria", "James", "Laura", "Peter", "Sara",
    "Thomas", "Emma", "Daniel", "Alice",
]

# Topic-specific vocabularies for paper titles.  Each topic reads like a
# research area; a global pool of generic words is mixed in.
_TOPIC_VOCAB: dict[str, list[str]] = {
    "databases": [
        "query", "index", "transaction", "storage", "relational", "join",
        "optimization", "concurrency", "btree", "columnar", "oltp", "olap",
        "sql", "recovery", "logging", "partitioning", "sharding", "caching",
        "materialized", "view", "schema", "tuning", "workload", "buffer",
    ],
    "machine_learning": [
        "learning", "neural", "network", "gradient", "training", "deep",
        "classification", "regression", "embedding", "representation",
        "supervised", "kernel", "bayesian", "inference", "generative",
        "adversarial", "attention", "transformer", "convolutional", "lstm",
        "regularization", "optimization", "stochastic", "latent",
    ],
    "data_mining": [
        "mining", "pattern", "clustering", "frequent", "itemset", "anomaly",
        "outlier", "association", "rule", "stream", "graph", "community",
        "detection", "similarity", "recommendation", "collaborative",
        "filtering", "matrix", "factorization", "temporal", "sequential",
        "episode", "subgraph", "dense",
    ],
    "networking": [
        "network", "routing", "protocol", "wireless", "sensor", "latency",
        "throughput", "congestion", "packet", "topology", "sdn", "overlay",
        "multicast", "bandwidth", "scheduling", "qos", "mobile", "adhoc",
        "spectrum", "mimo", "channel", "relay", "handover", "cellular",
    ],
    "security": [
        "security", "privacy", "encryption", "authentication", "attack",
        "defense", "malware", "intrusion", "detection", "cryptographic",
        "signature", "key", "protocol", "vulnerability", "adversary",
        "anonymity", "differential", "secure", "trust", "forensics",
        "obfuscation", "sandbox", "integrity", "audit",
    ],
    "systems": [
        "system", "distributed", "consensus", "replication", "fault",
        "tolerance", "scheduler", "virtualization", "container", "kernel",
        "filesystem", "memory", "allocation", "parallel", "concurrency",
        "lock", "scalability", "cluster", "cloud", "serverless",
        "checkpoint", "migration", "runtime", "microservice",
    ],
    "information_retrieval": [
        "retrieval", "ranking", "search", "relevance", "document", "query",
        "inverted", "term", "weighting", "feedback", "expansion", "corpus",
        "evaluation", "precision", "recall", "snippet", "crawler",
        "indexing", "semantic", "entity", "linking", "disambiguation",
        "citation", "bibliographic",
    ],
    "vision": [
        "image", "vision", "segmentation", "recognition", "detection",
        "object", "feature", "descriptor", "tracking", "pose", "stereo",
        "depth", "scene", "pixel", "saliency", "texture", "contour",
        "registration", "reconstruction", "optical", "flow", "superpixel",
        "keypoint", "annotation",
    ],
}

_COMMON_WORDS = [
    "approach", "method", "framework", "analysis", "model", "efficient",
    "novel", "study", "towards", "improved", "evaluation", "design",
    "application", "adaptive", "robust", "scalable", "dynamic", "hybrid",
    "based", "using",
]

_VENUE_STEMS = [
    "ICDE", "SIGMOD", "VLDB", "KDD", "ICDM", "CIKM", "WWW", "SIGIR",
    "NeurIPS", "ICML", "AAAI", "IJCAI", "INFOCOM", "MobiCom", "SIGCOMM",
    "CCS", "SP", "NDSS", "OSDI", "SOSP", "EuroSys", "ATC", "CVPR", "ICCV",
    "TKDE", "TODS", "TOIS", "TPAMI", "JMLR", "TON",
]


@dataclass(slots=True)
class SyntheticConfig:
    """Knobs of the synthetic collaboration world.

    The defaults produce a corpus of several thousand papers in around a
    second — big enough to exhibit the Figure 3 power laws and the two-stage
    precision/recall structure, small enough for CI.
    """

    n_authors: int = 3000
    n_papers: int = 6500
    name_pool_size: int = 4800
    n_communities: int = 220
    venues_per_topic: int = 14
    shared_venue_count: int = 24
    shared_venue_prob: float = 0.3
    lead_venue_prob: float = 0.45
    fav_word_count: int = 4
    same_topic_homonym_prob: float = 0.2
    year_start: int = 1995
    year_end: int = 2020
    productivity_exponent: float = 2.4
    productivity_cap: int = 120
    name_popularity_exponent: float = 0.55
    max_phases: int = 3
    phase_change_prob: float = 0.55
    multi_phase_min_quota: int = 6
    repeat_coauthor_prob: float = 0.65
    repeat_weight_exponent: float = 0.6
    coauthor_weight_exponent: float = 1.5
    lab_size: int = 5
    lab_pick_prob: float = 0.9
    external_coauthor_prob: float = 0.05
    transient_author_prob: float = 0.65
    primary_venue_prob: float = 0.62
    min_coauthors: int = 1
    max_coauthors: int = 4
    title_len_mean: float = 8.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.name_pool_size > 3 * len(_FAMILY) * len(_GIVEN):
            raise ValueError("name_pool_size exceeds available name combinations")
        if self.n_authors < self.n_communities:
            raise ValueError("need at least one author per community")
        if self.year_end <= self.year_start:
            raise ValueError("year_end must exceed year_start")


@dataclass(slots=True)
class SyntheticAuthor:
    """A ground-truth author entity.

    ``quota`` is the author's target number of lead-author papers, drawn
    from a Pareto-like heavy tail — the source of the Figure 3a power law.
    ``fav_venue`` and ``fav_words`` are the author's stable personal habits;
    they persist across career phases, which is precisely the
    interest/community coherence that similarity functions γ3–γ6 exploit
    (and that the paper assumes of real authors).
    """

    aid: int
    name: str
    topic: str
    quota: int
    fav_venue: str = ""
    fav_words: list[str] = field(default_factory=list)
    phases: list["CareerPhase"] = field(default_factory=list)


@dataclass(slots=True)
class CareerPhase:
    """A contiguous stretch of an author's career spent in one community."""

    community: int
    year_start: int
    year_end: int


@dataclass(slots=True)
class Community:
    """A research group: a topic, a favourite venue, and a time window.

    Members are further partitioned into *labs* — the small circles that
    actually co-sign papers together.  Labs are what make co-author pairs
    repeat (η-SCRs); the community level provides occasional cross-lab
    papers and shared venues/topics.
    """

    cid: int
    topic: str
    primary_venue: str
    minor_venues: list[str]
    year_start: int
    year_end: int
    members: list[int] = field(default_factory=list)
    labs: list[list[int]] = field(default_factory=list)
    vocab: list[str] = field(default_factory=list)

    def lab_of(self, aid: int) -> list[int]:
        """The lab containing ``aid`` (the full member list as fallback)."""
        for lab in self.labs:
            if aid in lab:
                return lab
        return self.members


@dataclass(slots=True)
class SyntheticWorld:
    """The generated corpus plus full ground-truth provenance."""

    corpus: Corpus
    authors: dict[int, SyntheticAuthor]
    communities: list[Community]
    config: SyntheticConfig

    def authors_sharing_name(self, name: str) -> list[int]:
        """Ids of the distinct authors hiding behind ``name``."""
        return [a.aid for a in self.authors.values() if a.name == name]


def _zipf_weights(n: int, exponent: float) -> list[float]:
    """Zipfian weights ``1/rank^exponent`` for ``n`` ranks."""
    return [1.0 / (rank**exponent) for rank in range(1, n + 1)]


class SyntheticDBLP:
    """Generator for a DBLP-like labelled collaboration corpus."""

    def __init__(self, config: SyntheticConfig | None = None):
        self.config = config or SyntheticConfig()
        self._rng = random.Random(self.config.seed)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def generate(self) -> Corpus:
        """Generate and return only the corpus."""
        return self.generate_world().corpus

    def generate_world(self) -> SyntheticWorld:
        """Generate the corpus together with its ground-truth provenance."""
        cfg = self.config
        names = self._make_name_pool()
        communities = self._make_communities()
        authors = self._make_authors(names, communities)
        papers, transients = self._make_papers(authors, communities, names)
        return SyntheticWorld(
            corpus=Corpus(papers),
            authors={a.aid: a for a in authors + transients},
            communities=communities,
            config=cfg,
        )

    # ------------------------------------------------------------------ #
    # world construction
    # ------------------------------------------------------------------ #
    def _make_name_pool(self) -> list[str]:
        combos = [f"{g} {f}" for f in _FAMILY for g in _GIVEN]
        # Middle-initial variants extend the pool when asked for more names
        # than plain given+family combinations provide.
        for initial in ("Q.", "X."):
            if len(combos) >= self.config.name_pool_size:
                break
            combos += [f"{g} {initial} {f}" for f in _FAMILY for g in _GIVEN]
        self._rng.shuffle(combos)
        return combos[: self.config.name_pool_size]

    def _make_communities(self) -> list[Community]:
        """Communities with topic venues plus cross-topic *shared* venues.

        Real venues are not topic-exclusive — AAAI takes ML, mining and
        vision papers alike.  A pool of general-purpose venues is mixed into
        every community's minor venues, so venue overlap alone cannot
        separate same-name authors of nearby fields (the noise that pushes
        content-only baselines below IUAD in Table III).
        """
        cfg, rng = self.config, self._rng
        topics = list(_TOPIC_VOCAB)
        shared_pool = [f"GEN-{k}" for k in range(cfg.shared_venue_count)]
        venues_by_topic: dict[str, list[str]] = {}
        stem_idx = 0
        for topic in topics:
            venues: list[str] = []
            for k in range(cfg.venues_per_topic):
                stem = _VENUE_STEMS[stem_idx % len(_VENUE_STEMS)]
                stem_idx += 1
                venues.append(f"{stem}-{topic[:4]}{k}")
            venues_by_topic[topic] = venues
        communities: list[Community] = []
        span = cfg.year_end - cfg.year_start
        for cid in range(cfg.n_communities):
            topic = topics[cid % len(topics)]
            venues = venues_by_topic[topic]
            primary = rng.choice(venues)
            minor = [v for v in venues if v != primary]
            minor += rng.sample(shared_pool, k=min(3, len(shared_pool)))
            start = cfg.year_start + rng.randrange(max(1, span - 8))
            full_vocab = _TOPIC_VOCAB[topic]
            communities.append(
                Community(
                    cid=cid,
                    topic=topic,
                    primary_venue=primary,
                    minor_venues=minor,
                    year_start=start,
                    year_end=min(cfg.year_end, start + rng.randrange(6, 14)),
                    # a community works on a sub-specialty: a 14-word slice
                    # of its topic's vocabulary
                    vocab=rng.sample(full_vocab, k=min(14, len(full_vocab))),
                )
            )
        return communities

    def _sample_quota(self) -> int:
        """Draw an author's lead-paper quota from a discrete Pareto tail.

        ``P(quota >= k) = k^(1 - exponent)`` (continuous Pareto floored to an
        integer), capped so a single author cannot swallow the corpus.  The
        resulting quota histogram is the power law behind Figure 3a.
        """
        cfg = self.config
        u = self._rng.random()
        quota = int(u ** (-1.0 / (cfg.productivity_exponent - 1.0)))
        return max(1, min(quota, cfg.productivity_cap))

    def _make_authors(
        self, names: list[str], communities: list[Community]
    ) -> list[SyntheticAuthor]:
        cfg, rng = self.config, self._rng
        name_weights = _zipf_weights(len(names), cfg.name_popularity_exponent)
        by_topic: dict[str, list[Community]] = defaultdict(list)
        for community in communities:
            by_topic[community.topic].append(community)

        authors: list[SyntheticAuthor] = []
        # Names already used per topic: homonyms concentrate inside a topic
        # (a hard, realistic regime — same-name authors in the same field
        # cannot be told apart by topic alone).  Within one *community*,
        # names stay unique: two same-name researchers in the same 10-person
        # group essentially never happens, and allowing it would poison the
        # η-SCR premise itself rather than make the task realistically hard.
        used_by_topic: dict[str, list[str]] = defaultdict(list)
        used_by_community: dict[int, set[str]] = defaultdict(set)
        for aid in range(cfg.n_authors):
            home = communities[aid % len(communities)]
            taken = used_by_community[home.cid]
            used = [n for n in used_by_topic[home.topic] if n not in taken]
            if used and rng.random() < cfg.same_topic_homonym_prob:
                name = rng.choice(used)
            else:
                name = rng.choices(names, weights=name_weights, k=1)[0]
                for _ in range(20):
                    if name not in taken:
                        break
                    name = rng.choices(names, weights=name_weights, k=1)[0]
            used_by_topic[home.topic].append(name)
            taken.add(name)
            vocab = _TOPIC_VOCAB[home.topic]
            author = SyntheticAuthor(
                aid=aid,
                name=name,
                topic=home.topic,
                quota=self._sample_quota(),
                fav_venue=rng.choice([home.primary_venue] + home.minor_venues),
                fav_words=rng.sample(vocab, k=min(cfg.fav_word_count, len(vocab))),
            )
            author.phases = self._make_phases(author, home, by_topic)
            for phase in author.phases:
                communities[phase.community].members.append(aid)
            authors.append(author)
        return authors

    def _make_phases(
        self,
        author: SyntheticAuthor,
        home: Community,
        by_topic: dict[str, list[Community]],
    ) -> list[CareerPhase]:
        cfg, rng = self.config, self._rng
        n_phases = 1
        # Only reasonably productive authors have careers long enough to span
        # several collaborator circles; this is what Stage 2 must stitch back
        # together.
        if author.quota >= cfg.multi_phase_min_quota:
            while n_phases < cfg.max_phases and rng.random() < cfg.phase_change_prob:
                n_phases += 1
        candidates = by_topic[home.topic]
        phases: list[CareerPhase] = []
        community = home
        year = community.year_start + rng.randrange(3)
        for _ in range(n_phases):
            length = rng.randrange(4, 9)
            end = min(cfg.year_end, year + length)
            phases.append(CareerPhase(community.cid, year, end))
            if end >= cfg.year_end:
                break
            # Stay in-topic with high probability so the author's interests
            # and venues remain coherent across the move (what γ3–γ6 detect).
            if rng.random() < 0.85:
                community = rng.choice(candidates)
            else:
                community = rng.choice(by_topic[rng.choice(list(by_topic))])
            year = max(community.year_start, end + 1)
            if year > community.year_end:
                year = community.year_start
        return phases

    # ------------------------------------------------------------------ #
    # paper sampling
    # ------------------------------------------------------------------ #
    def _make_papers(
        self,
        authors: list[SyntheticAuthor],
        communities: list[Community],
        names: list[str],
    ) -> tuple[list[Paper], list[SyntheticAuthor]]:
        """Sample papers lead-first.

        Every author leads ``quota`` papers (shuffled, truncated to
        ``n_papers``); one of the lead's career phases is drawn in proportion
        to its length, and the paper is anchored in that phase's community
        and years.  Repeat co-authors are picked by preferential attachment
        inside the phase circle, producing the η-SCRs of Stage 1 and the
        Figure 3b pair-frequency tail.  With probability
        ``transient_author_prob`` a paper also carries a brand-new one-shot
        author (a student who never publishes again) — the k=1 mass of the
        Figure 3a histogram.
        """
        cfg, rng = self.config, self._rng
        author_by_id = {a.aid: a for a in authors}
        name_weights = _zipf_weights(len(names), cfg.name_popularity_exponent)
        self._carve_labs(communities)
        roster: dict[int, list[int]] = {c.cid: list(c.members) for c in communities}
        roster_weights: dict[int, list[float]] = {
            c.cid: [
                author_by_id[m].quota ** cfg.coauthor_weight_exponent
                for m in roster[c.cid]
            ]
            for c in communities
        }
        # Every author leads exactly ``quota`` papers (cycled/truncated to hit
        # ``n_papers``), so one-paper authors exist in numbers — they are the
        # mass at the low end of the Figure 3a histogram.
        lead_slots: list[int] = []
        for author in authors:
            lead_slots.extend([author.aid] * author.quota)
        rng.shuffle(lead_slots)
        # circles[(aid, cid)] -> (collaborator ids, joint-paper counts): the
        # phase-local collaborator circle used for preferential repeats.
        circles: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        transients: list[SyntheticAuthor] = []
        next_aid = cfg.n_authors

        papers: list[Paper] = []
        n_papers = min(cfg.n_papers, len(lead_slots))
        for pid in range(n_papers):
            lead = author_by_id[lead_slots[pid]]
            phase = self._pick_phase(lead)
            community = communities[phase.community]
            team = self._sample_team(
                lead, community, author_by_id, roster, roster_weights, circles
            )
            year = rng.randint(phase.year_start, phase.year_end)
            # Circles record only regular members: transients must stay
            # one-shot (they are the k=1 mass of Figure 3a), so they never
            # enter anyone's repeat-collaborator pool.
            self._record_collaborations(team, community.cid, circles)
            if rng.random() < cfg.transient_author_prob:
                student = SyntheticAuthor(
                    aid=next_aid,
                    name=rng.choices(names, weights=name_weights, k=1)[0],
                    topic=community.topic,
                    quota=0,
                    phases=[CareerPhase(community.cid, year, year)],
                )
                next_aid += 1
                transients.append(student)
                author_by_id[student.aid] = student
                team.append(student.aid)
            team = self._dedupe_homonyms(team, author_by_id)
            team_names = tuple(author_by_id[aid].name for aid in team)
            papers.append(
                Paper(
                    pid=pid,
                    authors=team_names,
                    title=self._sample_title(community, lead),
                    venue=self._sample_venue(community, lead),
                    year=year,
                    author_ids=tuple(team),
                )
            )
        return papers, transients

    def _carve_labs(self, communities: list[Community]) -> None:
        """Partition each community's members into labs of ``lab_size``."""
        rng, size = self._rng, self.config.lab_size
        for community in communities:
            members = list(community.members)
            rng.shuffle(members)
            community.labs = [
                members[i : i + size] for i in range(0, len(members), size)
            ]

    def _pick_phase(self, author: SyntheticAuthor) -> CareerPhase:
        lengths = [p.year_end - p.year_start + 1 for p in author.phases]
        return self._rng.choices(author.phases, weights=lengths, k=1)[0]

    def _sample_team(
        self,
        lead: SyntheticAuthor,
        community: Community,
        author_by_id: dict[int, SyntheticAuthor],
        roster: dict[int, list[int]],
        roster_weights: dict[int, list[float]],
        circles: dict[tuple[int, int], tuple[list[int], list[int]]],
    ) -> list[int]:
        cfg, rng = self.config, self._rng
        sizes = range(cfg.min_coauthors, cfg.max_coauthors + 1)
        size_weights = [2.0 ** -(k - cfg.min_coauthors) for k in sizes]
        n_co = rng.choices(list(sizes), weights=size_weights, k=1)[0]
        team = [lead.aid]
        members = roster[community.cid]
        weights = roster_weights[community.cid]
        lab = community.lab_of(lead.aid)
        circle = circles.get((lead.aid, community.cid))
        for _ in range(n_co):
            pick: int | None = None
            if circle and circle[0] and rng.random() < cfg.repeat_coauthor_prob:
                # Preferential attachment: repeat collaborators are chosen in
                # proportion to (a damped power of) the number of joint
                # papers so far, which yields the Figure 3b heavy tail.
                damped = [w**cfg.repeat_weight_exponent for w in circle[1]]
                pick = rng.choices(circle[0], weights=damped, k=1)[0]
            elif rng.random() < cfg.external_coauthor_prob:
                other_cid = rng.randrange(len(roster))
                if roster[other_cid]:
                    pick = rng.choice(roster[other_cid])
            elif lab and rng.random() < cfg.lab_pick_prob:
                # Fresh collaborators come from the lead's own lab most of
                # the time — labs are the small circles that co-sign papers
                # again and again, which is what makes pairs η-stable.
                pick = rng.choice(lab)
            if pick is None and members:
                pick = rng.choices(members, weights=weights, k=1)[0]
            if pick is not None and pick not in team:
                team.append(pick)
        return team

    def _dedupe_homonyms(
        self, team: list[int], author_by_id: dict[int, SyntheticAuthor]
    ) -> list[int]:
        """Drop extra team members whose names collide.

        Two homonymous authors on one paper are extremely rare in real data,
        and co-author lists in this library are name-unique.
        """
        seen: set[str] = set()
        out: list[int] = []
        for aid in team:
            name = author_by_id[aid].name
            if name not in seen:
                seen.add(name)
                out.append(aid)
        return out

    def _record_collaborations(
        self,
        team: list[int],
        cid: int,
        circles: dict[tuple[int, int], tuple[list[int], list[int]]],
    ) -> None:
        for i, a in enumerate(team):
            for b in team[i + 1 :]:
                for me, other in ((a, b), (b, a)):
                    ids, counts = circles.setdefault((me, cid), ([], []))
                    try:
                        idx = ids.index(other)
                    except ValueError:
                        ids.append(other)
                        counts.append(1)
                    else:
                        counts[idx] += 1

    def _sample_title(self, community: Community, lead: SyntheticAuthor) -> str:
        """Title keywords: the community's working vocabulary + the lead's
        pet words.

        The pet words persist across the lead's career phases, giving γ3/γ4
        a per-author signal — real authors keep writing about their
        specialty even after moving labs.  Communities use sub-specialty
        vocabularies, so two same-topic homonyms do not share most keywords.
        """
        cfg, rng = self.config, self._rng
        vocab = _TOPIC_VOCAB[community.topic]
        weights = _zipf_weights(len(vocab), 1.05)
        n_words = max(4, int(rng.gauss(cfg.title_len_mean, 1.6)))
        n_fav = min(2, len(lead.fav_words))
        n_topic = max(2, n_words - 2 - n_fav)
        words = rng.choices(vocab, weights=weights, k=n_topic)
        if lead.fav_words:
            words += rng.sample(lead.fav_words, k=n_fav)
        words += rng.choices(_COMMON_WORDS, k=max(0, n_words - len(words)))
        rng.shuffle(words)
        return " ".join(words)

    def _sample_venue(self, community: Community, lead: SyntheticAuthor) -> str:
        """Venue: the lead's favourite, the community's primary, or a minor.

        The favourite-venue habit survives lab moves, which is the per-author
        community stability γ5/γ6 rely on (Dunbar-style stable communities,
        Section V-B3).
        """
        cfg, rng = self.config, self._rng
        if lead.fav_venue and rng.random() < cfg.lead_venue_prob:
            return lead.fav_venue
        if rng.random() < cfg.primary_venue_prob or not community.minor_venues:
            return community.primary_venue
        return rng.choice(community.minor_venues)


def generate_corpus(**overrides) -> Corpus:
    """Convenience one-liner: generate a corpus with config overrides."""
    return SyntheticDBLP(SyntheticConfig(**overrides)).generate()


def generate_world(**overrides) -> SyntheticWorld:
    """Convenience one-liner: generate a full world with config overrides."""
    return SyntheticDBLP(SyntheticConfig(**overrides)).generate_world()


def ambiguous_names(corpus: Corpus, min_authors: int = 2) -> list[str]:
    """Names carried by at least ``min_authors`` ground-truth authors."""
    out: list[str] = []
    for name in corpus.names:
        if len(corpus.authors_of_name(name)) >= min_authors:
            out.append(name)
    return out
