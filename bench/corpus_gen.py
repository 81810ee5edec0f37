"""Seeded synthetic corpus of annotated user-story backlogs.

Writes one JSON array per backlog in the ground-truth schema the CLI reads
(see the project README).  Stories follow the Connextra shape with a mix of
secondary actions and entities, benefits stated with "so that" or "in order
to" or not at all, determiners and possessives in front of entities, and
plural heads, so the inclusive and relaxed comparison modes have work to do
and the rule-based extractor scores partial matches.

The vocabulary knob sets how many distinct content words the corpus draws
from.  Words are dealt from a shuffled pool that is reshuffled only when it
runs out.  When the corpus draws more words than the pool holds, which is
about 2.7 per story, every pool word is used and the distinct-token count is
nearly the same for every seed; with a larger pool the count follows the
number of draws instead.

``generate`` builds the corpus from a seed and ``write_corpus`` writes it;
``run.py`` calls both.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

PERSONAS = (
    "user", "customer", "administrator", "editor", "reviewer", "visitor",
    "manager", "developer", "librarian", "teacher", "student", "nurse",
    "researcher", "analyst", "moderator", "volunteer", "tester", "auditor",
    "project manager", "site owner", "data steward", "support agent",
    "account holder", "content author",
)

VERBS = (
    "sync", "export", "import", "archive", "share", "edit", "delete", "view",
    "upload", "download", "search", "filter", "sort", "tag", "approve",
    "reject", "publish", "schedule", "assign", "track", "compare", "review",
    "print", "rename", "merge", "split", "restore", "lock", "unlock",
    "subscribe", "flag", "rate", "annotate", "validate", "submit", "cancel",
    "book", "pay", "refund", "invite", "notify", "register", "configure",
    "monitor", "inspect", "browse", "bookmark", "duplicate", "highlight",
    "translate", "summarize", "verify", "collect", "attach", "close", "open",
)

WORDS = (
    "data", "report", "invoice", "profile", "record", "message", "file",
    "document", "photo", "comment", "order", "payment", "account", "ticket",
    "event", "task", "project", "dataset", "license", "budget", "schedule",
    "calendar", "note", "survey", "course", "grade", "patient", "booking",
    "receipt", "contract", "template", "workflow", "dashboard", "metric",
    "backup", "setting", "password", "badge", "playlist", "article", "draft",
    "version", "release", "feature", "issue", "milestone", "sprint",
    "catalog", "inventory", "shipment", "address", "contact", "group",
    "channel", "thread", "review", "rating", "coupon", "discount", "product",
    "category", "label", "folder", "archive", "image", "video", "map",
    "route", "location", "device", "sensor", "alert", "log", "query",
    "result", "chart", "table", "column", "field", "form", "page", "site",
    "widget", "plugin", "module", "service", "server", "token", "session",
    "monthly", "weekly", "daily", "annual", "personal", "shared", "public",
    "private", "recent", "pending", "archived", "draft", "overdue", "local",
    "remote", "secure", "detailed", "summary", "internal", "external",
    "custom", "default", "primary", "legacy", "open", "closed", "active",
    "inactive", "new", "old", "large", "small", "financial", "medical",
)

# Determiners in front of an entity mention.  The annotation never carries
# one; "my" and "our" survive the rule-based extractor, "the" does not.
DETERMINERS = ("", "", "the ", "my ", "our ", "all ")

_ONSETS = "b c d f g h j k l m n p r s t v w z br dr fl gr kl pr st tr".split()
_VOWELS = "a e i o u".split()
_CODAS = ("", "", "n", "r", "l", "k", "m")


def _pseudo_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        syllables = rng.randint(2, 4)
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(syllables)
        )
        if word not in taken and not word.endswith("s"):
            taken.add(word)
            words.append(word)
    return words


def _base_tokens() -> set[str]:
    tokens = {"i", "can", "and", "to"}
    for phrase in PERSONAS + VERBS:
        tokens.update(phrase.split())
    return tokens


class _Dealer:
    """Deals words from a shuffled pool, reshuffling when it runs out."""

    def __init__(self, rng: random.Random, pool: list[str]):
        self.rng = rng
        self.pool = list(pool)
        self.queue: list[str] = []

    def next(self) -> str:
        if not self.queue:
            self.queue = list(self.pool)
            self.rng.shuffle(self.queue)
        return self.queue.pop()


def _word_pool(rng: random.Random, vocab: int) -> list[str]:
    """Content words so that pool plus fixed words total about ``vocab``."""
    base = _base_tokens()
    size = max(vocab - len(base), 20)
    english = sorted(set(WORDS) - base)
    if size <= len(english):
        pool = rng.sample(english, size)
    else:
        pool = english + _pseudo_words(rng, size - len(english), base | set(english))
    # A fixed share of pool words only ever appears in plural form.
    return [word + "s" if rng.random() < 0.3 else word for word in pool]


def _phrase(rng: random.Random, dealer: _Dealer) -> tuple[str, str]:
    """An entity mention and its annotated form, e.g. ("my old invoices", "old invoices")."""
    words = [dealer.next() for _ in range(rng.choice((1, 1, 2)))]
    mention = " ".join(words)
    # Sometimes the annotator names only the head noun of a longer phrase,
    # or the singular of a plural mention.
    annotated = words[-1] if len(words) > 1 and rng.random() < 0.4 else mention
    if annotated.endswith("s") and rng.random() < 0.3:
        annotated = annotated[:-1]
    return rng.choice(DETERMINERS) + mention, annotated


def _story(rng: random.Random, dealer: _Dealer, pid: str) -> dict:
    persona = rng.choice(PERSONAS)
    article = "an" if persona[0] in "aeiou" else "a"
    verb = rng.choice(VERBS)
    mention, entity = _phrase(rng, dealer)
    lead = "I want to be able to" if rng.random() < 0.1 else "I want to"
    text = f"As {article} {persona}, {lead} {verb} {mention}"

    actions = {"Primary Action": [verb], "Secondary Action": []}
    entities = {"Primary Entity": [entity], "Secondary Entity": []}
    targets = [[verb, entity]]
    if rng.random() < 0.4:
        verb2 = rng.choice([v for v in VERBS if v != verb])
        mention2, entity2 = _phrase(rng, dealer)
        if entity2 != entity:
            text += f" and {verb2} {mention2}"
            actions["Secondary Action"].append(verb2)
            entities["Secondary Entity"].append(entity2)
            targets.append([verb2, entity2])

    benefit = ""
    if rng.random() < 0.6:
        goal_mention, _ = _phrase(rng, dealer)
        goal = f"{rng.choice(VERBS)} {goal_mention}"
        if rng.random() < 0.7:
            benefit = f"I can {goal}"
            text += f", so that {benefit}"
        else:
            benefit = goal
            text += f", in order to {benefit}"
    return {
        "PID": pid,
        "Text": f"{pid} {text}.",
        "Persona": [persona],
        "Action": actions,
        "Entity": entities,
        "Benefit": benefit,
        "Triggers": [[persona, verb]],
        "Targets": targets,
        "Contains": [],
    }


def generate(
    seed: int, backlogs: int, stories: int, vocab: int
) -> dict[str, list[dict]]:
    """Backlog name -> story records.  Story texts are unique corpus-wide."""
    rng = random.Random(seed)
    dealer = _Dealer(rng, _word_pool(rng, vocab))
    seen: set[str] = set()
    corpus: dict[str, list[dict]] = {}
    for b in range(1, backlogs + 1):
        records = []
        while len(records) < stories:
            pid = f"#G{b:02d}S{len(records) + 1:04d}#"
            record = _story(rng, dealer, pid)
            body = record["Text"][len(pid) + 1 :]
            if body not in seen:
                seen.add(body)
                records.append(record)
        corpus[f"g{b:02d}"] = records
    return corpus


def write_corpus(corpus: dict[str, list[dict]], out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, records in corpus.items():
        path = out_dir / f"{name}.json"
        path.write_text(
            json.dumps(records, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )
        paths.append(path)
    return paths
