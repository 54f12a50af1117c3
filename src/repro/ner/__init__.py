"""Named-entity recognition: dictionary and ML taggers.

Two method families, as in the paper (Section 3.2):

* **Dictionary matching** — a trie over the word units of fuzzily
  expanded dictionary terms (LINNAEUS-style [11]): high precision,
  bounded recall (dictionaries are incomplete), essentially linear
  runtime, but a large memory footprint and a noticeable build
  ("dictionary load") time.
* **ML tagging** — linear-chain Conditional Random Fields (the engine
  under BANNER, ChemSpot, and the authors' disease tagger): better
  recall including novel names, far slower, and prone to catastrophic
  false positives on out-of-domain text (the TLA pathology).
"""

from repro.ner.automaton import Match
from repro.ner.dictionary import EntityDictionary, DictionaryTagger
from repro.ner.crf import LinearChainCrf
from repro.ner.taggers import (
    MlEntityTagger, build_dictionary_taggers, build_ml_taggers,
)
from repro.ner.postfilter import filter_tla_mentions, is_tla
from repro.ner.relations import (
    EntityRelation, RelationExtractor, relations_to_records,
)
from repro.ner.normalize import EntityNormalizer, merge_by_term

__all__ = [
    "EntityNormalizer",
    "merge_by_term",
    "EntityRelation",
    "RelationExtractor",
    "relations_to_records",
    "Match",
    "EntityDictionary",
    "DictionaryTagger",
    "LinearChainCrf",
    "MlEntityTagger",
    "build_dictionary_taggers",
    "build_ml_taggers",
    "filter_tla_mentions",
    "is_tla",
]
