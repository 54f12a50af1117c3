"""Gold-annotated synthetic text generation.

:class:`DocumentGenerator` produces English-like documents whose
linguistic statistics follow a :class:`~repro.corpora.profiles.CorpusProfile`.
Each document comes with gold annotations — sentence spans, tokens with
POS tags, and entity mentions flagged as dictionary-known or novel —
so every downstream tool (sentence splitter, HMM tagger, dictionary
and CRF NER) can be trained and evaluated without external corpora.

Generation is template-based: sentences are assembled from tagged
clause patterns over fixed word inventories, then decorated with
negation cues, pronouns, parenthesized asides, entity mentions, and
bare acronyms at profile-controlled rates.

One drafting loop (``_draft_document``) consumes a document's RNG and
lays each sentence out with the one spacing rule (``_layout``); a
draft is finished in one of two ways:

* :meth:`DocumentGenerator.document` builds the gold layers — a
  ``Token`` per word, ``Sentence`` objects and gold entity mentions;
* :meth:`DocumentGenerator.text` returns only the joined string and
  builds none of them.  It is for callers that read nothing but the
  text (the simulated web's page bodies, classifier / language /
  MIME training text) and is several times cheaper;
  ``text(i) == document(i).text`` for every ``i``
  (``tests/corpora/test_text_golden.py``).
"""

from __future__ import annotations

import math
import random
import string
from dataclasses import dataclass, field

from repro.annotations import Document, EntityMention, Sentence, Token
from repro.corpora.profiles import CorpusProfile
from repro.corpora.vocabulary import BiomedicalVocabulary, TermEntry
from repro.util import seeded_rng

# ---------------------------------------------------------------------------
# Word inventories (word, POS tag).  Tags follow a compact Penn-style set.
# ---------------------------------------------------------------------------

NOUNS_BIO = [
    "patients", "treatment", "expression", "cells", "therapy", "dose",
    "tumor", "mutation", "protein", "receptor", "pathway", "trial",
    "symptoms", "tissue", "response", "infection", "diagnosis", "risk",
    "study", "analysis", "levels", "activity", "inhibitor", "sample",
    "cohort", "biomarker", "prognosis", "relapse", "antibody", "enzyme",
]
NOUNS_GENERAL = [
    "report", "market", "company", "game", "music", "travel", "city",
    "weather", "movie", "recipe", "garden", "football", "election",
    "holiday", "photo", "fashion", "car", "school", "money", "phone",
    "house", "kitchen", "river", "mountain", "story", "team", "price",
    "ticket", "hotel", "concert",
]
VERBS_3SG = [
    "shows", "indicates", "suggests", "reduces", "increases",
    "inhibits", "induces", "affects", "reveals", "confirms",
    "improves", "requires", "supports", "predicts", "remains",
    "demonstrates", "regulates", "mediates", "activates", "targets",
]
VERBS_PAST = [
    "showed", "indicated", "suggested", "reduced", "increased",
    "inhibited", "induced", "affected", "revealed", "confirmed",
    "improved", "required", "supported", "predicted", "remained",
    "demonstrated", "regulated", "mediated", "activated", "targeted",
]
VERBS_PLURAL = [
    "show", "indicate", "suggest", "reduce", "increase", "inhibit",
    "induce", "affect", "reveal", "confirm", "improve", "require",
    "support", "predict", "remain", "demonstrate", "regulate",
    "mediate", "activate", "target",
]
ADJECTIVES = [
    "significant", "recent", "clinical", "novel", "severe", "common",
    "effective", "chronic", "specific", "potential", "primary",
    "molecular", "observed", "robust", "elevated", "distinct",
    "relevant", "early", "major", "systemic",
]
ADJECTIVES_GENERAL = [
    "new", "big", "popular", "local", "cheap", "famous", "modern",
    "beautiful", "fast", "quiet", "friendly", "sunny", "crowded",
    "expensive", "small", "great", "simple", "busy", "classic", "warm",
]
ADVERBS = [
    "significantly", "strongly", "rapidly", "notably", "partially",
    "consistently", "frequently", "markedly", "slightly", "broadly",
]
PREPOSITIONS = ["in", "of", "with", "for", "after", "during",
                "between", "among", "under", "across"]
# Demonstratives are kept out of the determiner pool so that
# demonstrative-pronoun incidence is governed by the profile rate.
DETERMINERS = ["the", "a", "an", "each", "every", "some"]
CONJUNCTIONS = ["and", "but", "or", "whereas", "while"]

#: Six pronoun classes counted by the linguistic analysis (Section 4.3.1).
PRONOUN_CLASSES: dict[str, list[str]] = {
    "personal_subject": ["he", "she", "they", "we", "it"],
    "personal_object": ["him", "her", "them", "us"],
    "possessive": ["his", "their", "its", "our"],
    "demonstrative": ["this", "that", "these", "those"],
    "relative": ["which", "who", "whom", "whose"],
    "reflexive": ["itself", "themselves", "himself", "herself"],
}
#: Classes the paper highlights for co-reference resolution.
COREFERENCE_CLASSES = ("demonstrative", "relative", "personal_object")

NEGATION_CUES = ["not", "nor", "neither"]

_PAREN_FILLERS = [
    ["see", "Figure", "2"], ["n", "=", "42"], ["P", "<", "0.01"],
    ["data", "not", "shown"], ["reviewed", "in", "2014"],
    ["e.g.", "in", "mice"], ["Table", "1"], ["95", "%", "CI"],
]

_PRON_TAGS = {
    "personal_subject": "PRP", "personal_object": "PRP",
    "possessive": "PRP$", "demonstrative": "DT",
    "relative": "WDT", "reflexive": "PRP",
}

_NO_SPACE_BEFORE = {".", ",", ")", ";", ":", "%", "?", "!"}
_NO_SPACE_AFTER = {"("}


@dataclass(frozen=True)
class GoldEntity:
    """Gold entity mention with provenance flags.

    ``in_dictionary`` is True when the surface form corresponds to a
    dictionary entry (possibly as a fuzzy variant); ``variant`` marks
    surface-varied mentions.
    """

    mention: EntityMention
    in_dictionary: bool
    variant: bool


@dataclass
class GoldDocument:
    """A generated document plus its gold annotation layers.

    ``document`` carries only text and metadata (annotation layers
    empty) — the pipeline under test fills those.  Gold layers live
    alongside for evaluation and training.
    """

    document: Document
    sentences: list[Sentence] = field(default_factory=list)
    entities: list[GoldEntity] = field(default_factory=list)

    @property
    def doc_id(self) -> str:
        return self.document.doc_id

    @property
    def text(self) -> str:
        return self.document.text

    def tagged_sentences(self) -> list[list[tuple[str, str]]]:
        """Gold (token, tag) sequences — HMM tagger training format."""
        return [[(t.text, t.pos) for t in s.tokens] for s in self.sentences]


class _SentenceDraft:
    """Mutable (token, tag) list with entity bookkeeping."""

    def __init__(self) -> None:
        self.items: list[tuple[str, str]] = []
        # (token_index_start, n_tokens, entity_type, name, entry, variant)
        self.entity_slots: list[tuple[int, int, str, str,
                                      TermEntry | None, bool]] = []

    def add(self, word: str, tag: str) -> None:
        self.items.append((word, tag))

    def add_entity(self, name: str, entity_type: str,
                   entry: TermEntry | None, variant: bool) -> None:
        words = name.split(" ")
        self.entity_slots.append(
            (len(self.items), len(words), entity_type, name, entry, variant))
        for word in words:
            self.items.append((word, "NNP"))


@dataclass
class _DocumentDraft:
    """All of one document's RNG draws, laid out as text: the run-on
    text of a pathological page, or each sentence's draft, text and
    laid-out pieces (:func:`_layout`)."""

    runon: str | None = None
    sentences: list[tuple[_SentenceDraft, str, list[str]]] = field(
        default_factory=list)

    def text(self) -> str:
        if self.runon is not None:
            return self.runon
        return " ".join(text for _draft, text, _pieces in self.sentences)


class DocumentGenerator:
    """Deterministic generator of gold-annotated documents.

    Parameters
    ----------
    vocabulary:
        Entity nomenclature (also used to derive the novel,
        out-of-dictionary pools with a shifted seed).
    profile:
        Linguistic parameters of the target corpus.
    seed:
        Base RNG seed; each document additionally mixes in its index.
    pathological_fraction:
        Probability that a document is a "run-on" page (no sentence
        punctuation, very long comma-separated fragments), emulating
        boilerplate-extraction failures on web pages.
    """

    def __init__(self, vocabulary: BiomedicalVocabulary,
                 profile: CorpusProfile, seed: int = 7,
                 pathological_fraction: float = 0.0) -> None:
        self.vocabulary = vocabulary
        self.profile = profile
        self.seed = seed
        self.pathological_fraction = pathological_fraction
        novel_seed = vocabulary.seed + 104_729
        self._novel = BiomedicalVocabulary(
            seed=novel_seed, n_genes=300, n_diseases=120, n_drugs=120)
        known = {n.lower() for n in (vocabulary.gene_names()
                                     + vocabulary.disease_names()
                                     + vocabulary.drug_names())}
        self._novel_names = {
            etype: [n for n in self._novel.names(etype)
                    if n.lower() not in known]
            for etype in ("gene", "disease", "drug")
        }

    # -- public API ----------------------------------------------------

    def document(self, index: int) -> GoldDocument:
        """Generate document number ``index`` of this corpus."""
        draft = self._draft_document(index)
        text = draft.text()
        meta = {"corpus": self.profile.name,
                "biomedical": self.profile.biomedical}
        sentences: list[Sentence] = []
        gold_entities: list[GoldEntity] = []
        if draft.runon is not None:
            meta["pathological"] = True
            sentences.append(_runon_sentence(text))
        offset = 0
        for sentence_draft, sentence_text, pieces in draft.sentences:
            tokens, mentions = _render(sentence_draft, sentence_text,
                                       pieces, offset)
            sentences.append(Sentence(
                start=offset, end=offset + len(sentence_text),
                text=sentence_text, tokens=tokens,
                entities=[g.mention for g in mentions]))
            gold_entities.extend(mentions)
            offset += len(sentence_text) + 1  # separating space
        document = Document(doc_id=f"{self.profile.name}-{index:08d}",
                            text=text, meta=meta)
        return GoldDocument(document=document, sentences=sentences,
                            entities=gold_entities)

    def text(self, index: int) -> str:
        """``document(index).text`` without building the gold layers."""
        return self._draft_document(index).text()

    def documents(self, count: int, start: int = 0) -> list[GoldDocument]:
        return [self.document(i) for i in range(start, start + count)]

    # -- drafting ---------------------------------------------------------

    def _draft_document(self, index: int) -> _DocumentDraft:
        """Draw document ``index``: the one loop that consumes its RNG."""
        rng = seeded_rng(self.seed, self.profile.name, index)
        if rng.random() < self.pathological_fraction:
            return _DocumentDraft(runon=self._runon_text(rng))
        target_chars = max(
            120, int(rng.lognormvariate(
                math.log(self.profile.mean_doc_chars)
                - self.profile.doc_chars_sigma ** 2 / 2,
                self.profile.doc_chars_sigma)))
        purity = min(1.0, rng.betavariate(self.profile.topic_purity_alpha,
                                          self.profile.topic_purity_beta))
        draft = _DocumentDraft()
        offset = 0
        while offset < target_chars:
            sentence = self._draft_sentence(rng, purity)
            pieces = _layout(sentence.items)
            text = "".join(pieces)
            draft.sentences.append((sentence, text, pieces))
            offset += len(text) + 1  # separating space
        return draft

    # -- sentence assembly ----------------------------------------------

    def _draft_sentence(self, rng: random.Random,
                        purity: float = 1.0) -> _SentenceDraft:
        profile = self.profile
        target_tokens = max(4, int(rng.lognormvariate(
            math.log(profile.mean_sentence_tokens)
            - profile.sentence_tokens_sigma ** 2 / 2,
            profile.sentence_tokens_sigma)))
        draft = _SentenceDraft()
        planned = self._plan_entities(rng, purity)
        negate = rng.random() < profile.negation_per_sentence
        pronoun = rng.random() < profile.pronoun_per_sentence
        parenthesis = rng.random() < profile.parenthesis_per_sentence
        tla = rng.random() < profile.tla_per_sentence
        first = True
        while len(draft.items) < target_tokens:
            if not first:
                draft.add(",", ",")
                draft.add(rng.choice(CONJUNCTIONS), "CC")
            self._clause(rng, draft, purity,
                         entity=planned.pop() if planned else None,
                         negate=negate and first,
                         pronoun=pronoun and first)
            first = False
        # Remaining planned entities attach as trailing PPs.
        for entity in planned:
            draft.add(rng.choice(PREPOSITIONS), "IN")
            self._add_entity(draft, entity)
        if tla:
            draft.add(rng.choice(PREPOSITIONS), "IN")
            draft.add(_random_tla(rng), "NN")
        if parenthesis:
            draft.add("(", "(")
            for word in rng.choice(_PAREN_FILLERS):
                draft.add(word, _filler_tag(word))
            draft.add(")", ")")
        draft.add(".", ".")
        self._capitalize_first(draft)
        return draft

    @staticmethod
    def _capitalize_first(draft: _SentenceDraft) -> None:
        """Capitalize the sentence-initial word (entity surfaces are
        left untouched to keep dictionary forms intact)."""
        if not draft.items:
            return
        if any(slot[0] == 0 for slot in draft.entity_slots):
            return
        word, tag = draft.items[0]
        if word and word[0].isalpha():
            draft.items[0] = (word[0].upper() + word[1:], tag)

    def _clause(self, rng: random.Random, draft: _SentenceDraft,
                purity: float,
                entity: tuple[str, str, TermEntry | None, bool] | None,
                negate: bool, pronoun: bool) -> None:
        profile = self.profile
        on_topic = rng.random() < purity
        topical = profile.biomedical if on_topic else not profile.biomedical
        nouns = NOUNS_BIO if topical else NOUNS_GENERAL
        adjectives = ADJECTIVES if topical else ADJECTIVES_GENERAL
        # Subject NP
        if pronoun:
            cls = rng.choice(list(PRONOUN_CLASSES))
            word = rng.choice(PRONOUN_CLASSES[cls])
            draft.add(word, _PRON_TAGS[cls])
            if cls in ("possessive", "demonstrative"):
                draft.add(rng.choice(nouns), "NNS")
        elif entity is not None and rng.random() < 0.5:
            self._add_entity(draft, entity)
            entity = None
        else:
            draft.add(rng.choice(DETERMINERS), "DT")
            if rng.random() < 0.5:
                draft.add(rng.choice(adjectives), "JJ")
            draft.add(rng.choice(nouns), "NNS")
        # VP
        if negate:
            style = rng.random()
            if style < 0.6:
                draft.add("does", "VBZ")
                draft.add("not", "RB")
                draft.add(rng.choice(VERBS_PLURAL), "VB")
            elif style < 0.85:
                draft.add("neither", "CC")
                draft.add(rng.choice(VERBS_3SG), "VBZ")
                draft.add("nor", "CC")
                draft.add(rng.choice(VERBS_3SG), "VBZ")
            else:
                draft.add("is", "VBZ")
                draft.add("not", "RB")
                draft.add(rng.choice(VERBS_PAST), "VBN")
        else:
            if rng.random() < 0.25:
                draft.add(rng.choice(ADVERBS), "RB")
            draft.add(rng.choice(VERBS_3SG if rng.random() < 0.6
                                 else VERBS_PAST),
                      "VBZ" if rng.random() < 0.6 else "VBD")
        # Object NP
        if entity is not None:
            self._add_entity(draft, entity)
        else:
            draft.add(rng.choice(DETERMINERS), "DT")
            if rng.random() < 0.4:
                draft.add(rng.choice(adjectives), "JJ")
            draft.add(rng.choice(nouns), "NNS")
        # Optional PP tail
        if rng.random() < 0.5:
            draft.add(rng.choice(PREPOSITIONS), "IN")
            draft.add(rng.choice(DETERMINERS), "DT")
            draft.add(rng.choice(nouns), "NNS")
        if rng.random() < 0.15:
            draft.add(rng.choice(PREPOSITIONS), "IN")
            draft.add(str(rng.randint(1, 2015)), "CD")

    # -- entity planning -------------------------------------------------

    def _plan_entities(
            self, rng: random.Random, purity: float = 1.0,
    ) -> list[tuple[str, str, TermEntry | None, bool]]:
        """Choose entity mentions for one sentence.

        Returns (surface, entity_type, entry_or_None, variant) tuples;
        ``entry`` is None for novel (out-of-dictionary) mentions.
        Entity density scales with topic purity (normalized so the
        corpus-level mean stays at the profile's calibrated rate).
        """
        alpha = self.profile.topic_purity_alpha
        beta = self.profile.topic_purity_beta
        # E[purity^2] for a Beta(alpha, beta) draw, used to normalize so
        # the corpus-level mean rate stays calibrated while low-purity
        # documents get quadratically fewer entity mentions.
        mean_sq = (alpha * (alpha + 1)) / ((alpha + beta) * (alpha + beta + 1))
        planned = []
        for etype in ("disease", "drug", "gene"):
            rate = self.profile.entity_rate(etype) * purity ** 2 / mean_sq
            count = int(rate) + (1 if rng.random() < rate % 1 else 0)
            for _ in range(count):
                novel_pool = self._novel_names[etype]
                if novel_pool and rng.random() < self.profile.novel_entity_fraction:
                    planned.append((rng.choice(novel_pool), etype, None, False))
                    continue
                entry = rng.choice(self.vocabulary.entries(etype))
                surface = rng.choice(entry.all_names())
                variant = rng.random() < self.profile.variant_fraction
                if variant:
                    surface = _vary_surface(rng, surface)
                planned.append((surface, etype, entry, variant))
        rng.shuffle(planned)
        return planned

    def _add_entity(self, draft: _SentenceDraft,
                    entity: tuple[str, str, TermEntry | None, bool]) -> None:
        surface, etype, entry, variant = entity
        draft.add_entity(surface, etype, entry, variant)

    # -- pathological pages ------------------------------------------------

    def _runon_text(self, rng: random.Random) -> str:
        """A run-on page: one giant comma list, no sentence punctuation."""
        pool = (NOUNS_BIO if self.profile.biomedical
                else NOUNS_GENERAL) + ADJECTIVES_GENERAL
        words: list[str] = []
        target = max(2200, self.profile.mean_doc_chars)
        length = 0
        while length < target:
            word = rng.choice(pool)
            words.append(word)
            words.append(",")
            length += len(word) + 2
        return " ".join(words[:-1])


# ---------------------------------------------------------------------------
# Rendering and helpers
# ---------------------------------------------------------------------------

def _layout(items: list[tuple[str, str]]) -> list[str]:
    """The spacing rule: one piece per word, the word with a space in
    front where one belongs.  A sentence's text is their join."""
    pieces: list[str] = []
    prev = "("  # as after an opening bracket: no space before word one
    for word, _tag in items:
        if word in _NO_SPACE_BEFORE or prev in _NO_SPACE_AFTER:
            pieces.append(word)
        else:
            pieces.append(" " + word)
        prev = word
    return pieces


def _runon_sentence(text: str) -> Sentence:
    """Gold for a run-on page: the whole blob is one "sentence" of noun
    tokens."""
    tokens = []
    offset = 0
    for word in text.split(" "):
        tokens.append(Token(word, offset, offset + len(word),
                            "," if word == "," else "NN"))
        offset += len(word) + 1
    return Sentence(start=0, end=len(text), text=text, tokens=tokens)


def _render(draft: _SentenceDraft, text: str, pieces: list[str],
            base_offset: int) -> tuple[list[Token], list[GoldEntity]]:
    """Offset tokens and gold entities of a draft laid out as
    ``pieces`` (from :func:`_layout`) whose join is ``text``."""
    tokens = []
    end = base_offset
    for (word, tag), piece in zip(draft.items, pieces):
        end += len(piece)
        tokens.append(Token(word, end - len(word), end, tag))
    entities: list[GoldEntity] = []
    for tok_start, n_tokens, etype, name, entry, variant in draft.entity_slots:
        span_start = tokens[tok_start].start
        span_end = tokens[tok_start + n_tokens - 1].end
        mention = EntityMention(
            text=text[span_start - base_offset:span_end - base_offset],
            start=span_start, end=span_end, entity_type=etype,
            method="gold", term_id=entry.term_id if entry else "")
        entities.append(GoldEntity(mention=mention,
                                   in_dictionary=entry is not None,
                                   variant=variant))
    return tokens, entities


def _vary_surface(rng: random.Random, name: str) -> str:
    """Produce a fuzzy surface variant of a dictionary name."""
    roll = rng.random()
    if roll < 0.35:
        return name.lower()
    if roll < 0.5:
        return name.upper()
    if roll < 0.75 and "-" in name:
        return name.replace("-", " ")
    if roll < 0.9 and " " in name:
        return name.replace(" ", "-")
    if not name.endswith("s"):
        return name + "s"
    return name.lower()


def _random_tla(rng: random.Random) -> str:
    return "".join(rng.choices(string.ascii_uppercase, k=3))


def _filler_tag(word: str) -> str:
    if word.isdigit() or word.replace(".", "").isdigit():
        return "CD"
    if word in ("<", ">", "=", "%"):
        return "SYM"
    return "NN"
