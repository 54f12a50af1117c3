"""Synthetic biomedical nomenclature.

The paper's dictionaries contain ~700,000 gene names (including
synonyms), 61,438 disease names, and 51,188 drug names.  We generate
name inventories with the same *morphological* character — gene symbols
dominated by short uppercase acronyms (including the three-letter
acronyms, TLAs, that cause BANNER's false-positive pathology), drug
names built from pharmacological suffixes, and disease names built from
Greek/Latin morphemes plus multi-word clinical phrases — scaled down by
a configurable factor.

All generation is deterministic given a seed.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from repro.util import seeded_rng

#: Greek/Latin morphemes used to assemble disease names.
_DISEASE_PREFIXES = [
    "aden", "arthr", "bronch", "carcin", "cardi", "cephal", "col",
    "cyst", "derm", "encephal", "enter", "fibr", "gastr", "gloss",
    "hepat", "kerat", "lymph", "mening", "my", "myel", "nephr",
    "neur", "oste", "ot", "pancreat", "pneum", "rhin", "scler",
    "splen", "thym", "thyroid", "vascul",
]
_DISEASE_SUFFIXES = [
    "itis", "oma", "osis", "opathy", "emia", "algia", "iasis",
    "ectasia", "omegaly", "plasia", "penia", "rrhea",
]
_DISEASE_QUALIFIERS = [
    "acute", "chronic", "congenital", "diffuse", "familial", "focal",
    "idiopathic", "juvenile", "malignant", "primary", "recurrent",
    "secondary", "severe", "systemic",
]
_DISEASE_HEADS = [
    "syndrome", "disease", "disorder", "deficiency", "dystrophy",
    "fever", "failure", "infection", "lesion", "palsy",
]

#: Pharmacological stems and suffixes (loosely modelled on INN rules).
_DRUG_STEMS = [
    "alv", "bex", "cort", "dapt", "ethin", "flux", "gliad", "halc",
    "ibr", "jant", "kest", "lomep", "metr", "nivol", "oxal", "pred",
    "quet", "rivast", "sorb", "tolc", "umab", "venl", "warf", "xim",
    "zalt", "amlo", "bupre", "carba", "dulo", "esci",
]
_DRUG_SUFFIXES = [
    "mab", "nib", "pril", "sartan", "statin", "olol", "azepam",
    "cillin", "mycin", "oxacin", "azole", "idine", "amine", "caine",
    "profen", "setron", "tidine", "vudine", "parin", "lukast",
]

#: Greek letters that appear as gene-name modifiers (e.g. "GAD-67",
#: "TNF-alpha").
_GREEK = ["alpha", "beta", "gamma", "delta", "epsilon", "kappa", "sigma"]

#: Common English words; TLA-shaped gene symbols collide with
#: abbreviations of phrases built from these, reproducing BANNER's
#: false-positive behaviour on web text.
GENERAL_BIOMED_TERMS = [
    "cancer", "chronic pain", "tumor", "therapy", "diagnosis",
    "treatment", "symptom", "infection", "vaccine", "antibody",
    "protein", "mutation", "genome", "clinical trial", "biopsy",
    "remission", "metastasis", "prognosis", "pathology", "oncology",
    "immunology", "cardiology", "neurology", "pediatrics", "radiology",
    "chemotherapy", "surgery", "transplant", "screening", "epidemic",
]


@dataclass(frozen=True)
class TermEntry:
    """A dictionary entry: canonical name plus synonyms."""

    canonical: str
    synonyms: tuple[str, ...] = ()
    term_id: str = ""

    def all_names(self) -> tuple[str, ...]:
        return (self.canonical, *self.synonyms)


@dataclass
class BiomedicalVocabulary:
    """Deterministic generator and container for entity nomenclature.

    Parameters mirror the paper's dictionary sizes divided by ``scale``
    (default 100): ~7,000 gene names, ~614 disease names, ~512 drug
    names.  ``genes``, ``diseases``, and ``drugs`` are lists of
    :class:`TermEntry`; flat name sets are exposed via ``*_names()``.
    """

    seed: int = 13
    scale: int = 100
    n_genes: int | None = None
    n_diseases: int | None = None
    n_drugs: int | None = None
    genes: list[TermEntry] = field(default_factory=list, repr=False)
    diseases: list[TermEntry] = field(default_factory=list, repr=False)
    drugs: list[TermEntry] = field(default_factory=list, repr=False)
    #: :func:`repro.ner.dictionary.vocabulary_surfaces`' memo.  A
    #: vocabulary is read-only once built: nothing edits its entries.
    _surfaces: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self) -> None:
        rng = random.Random(self.seed)
        n_genes = self.n_genes or max(50, 700_000 // self.scale // 7)
        n_diseases = self.n_diseases or max(40, 61_438 // self.scale)
        n_drugs = self.n_drugs or max(40, 51_188 // self.scale)
        self.genes = _generate_genes(rng, n_genes)
        self.diseases = _generate_diseases(rng, n_diseases)
        self.drugs = _generate_drugs(rng, n_drugs)

    # -- flat views ---------------------------------------------------

    def gene_names(self) -> list[str]:
        return [n for e in self.genes for n in e.all_names()]

    def disease_names(self) -> list[str]:
        return [n for e in self.diseases for n in e.all_names()]

    def drug_names(self) -> list[str]:
        return [n for e in self.drugs for n in e.all_names()]

    def entries(self, entity_type: str) -> list[TermEntry]:
        try:
            return {"gene": self.genes,
                    "disease": self.diseases,
                    "drug": self.drugs}[entity_type]
        except KeyError:
            raise ValueError(f"unknown entity type: {entity_type!r}") from None

    def names(self, entity_type: str) -> list[str]:
        return [n for e in self.entries(entity_type) for n in e.all_names()]

    # -- Table 1 keyword inventories ----------------------------------

    def seed_keywords(self, category: str, count: int,
                      seed: int = 0) -> list[str]:
        """Sample search keywords for seed generation (paper Table 1).

        ``category`` is one of ``general``, ``disease``, ``drug``,
        ``gene``.  Sampling is deterministic given ``seed``.
        """
        rng = seeded_rng(self.seed, category, seed)
        if category == "general":
            pool = list(GENERAL_BIOMED_TERMS)
            # Pad the pool with qualifier+head phrases so large counts
            # remain available at any scale.
            for q in _DISEASE_QUALIFIERS:
                for h in _DISEASE_HEADS:
                    pool.append(f"{q} {h}")
        elif category == "disease":
            pool = [e.canonical for e in self.diseases]
        elif category == "drug":
            pool = [e.canonical for e in self.drugs]
        elif category == "gene":
            pool = [e.canonical for e in self.genes]
        else:
            raise ValueError(f"unknown keyword category: {category!r}")
        if count >= len(pool):
            return list(pool)
        return rng.sample(pool, count)


def _gene_symbol(rng: random.Random) -> str:
    """Generate one gene symbol: 2-6 uppercase letters, often digits.

    Roughly a third of symbols are bare three-letter acronyms — the
    shape overlap with ordinary abbreviations that underlies the ML
    gene tagger's false-positive pathology on web text.
    """
    length = rng.choices([2, 3, 4, 5, 6], weights=[4, 48, 26, 13, 9])[0]
    letters = "".join(rng.choices(string.ascii_uppercase, k=length))
    roll = rng.random()
    if roll < 0.30:
        return f"{letters}{rng.randint(1, 99)}"
    if roll < 0.40:
        return f"{letters}-{rng.randint(1, 99)}"
    return letters


def _generate_genes(rng: random.Random, count: int) -> list[TermEntry]:
    entries: list[TermEntry] = []
    seen: set[str] = set()
    while len(entries) < count:
        symbol = _gene_symbol(rng)
        if symbol in seen:
            continue
        seen.add(symbol)
        synonyms: list[str] = []
        # The paper notes ~900k distinct names for ~gene entries
        # including synonyms; emulate ~6 synonyms per entry on average.
        for _ in range(rng.randint(2, 10)):
            kind = rng.random()
            if kind < 0.4:
                syn = f"{symbol}{rng.choice(_GREEK)}"
            elif kind < 0.7:
                syn = f"{symbol}-{rng.choice(_GREEK)}"
            elif kind < 0.85:
                syn = f"{symbol} protein"
            else:
                syn = _gene_symbol(rng)
            if syn != symbol and syn not in seen:
                seen.add(syn)
                synonyms.append(syn)
        entries.append(TermEntry(symbol, tuple(synonyms),
                                 term_id=f"GENE:{len(entries):06d}"))
    return entries


def _generate_diseases(rng: random.Random, count: int) -> list[TermEntry]:
    entries: list[TermEntry] = []
    seen: set[str] = set()
    while len(entries) < count:
        if rng.random() < 0.6:
            name = rng.choice(_DISEASE_PREFIXES) + rng.choice(_DISEASE_SUFFIXES)
            if rng.random() < 0.35:
                name = f"{rng.choice(_DISEASE_QUALIFIERS)} {name}"
        else:
            name = (f"{rng.choice(_DISEASE_QUALIFIERS)} "
                    f"{rng.choice(_DISEASE_PREFIXES)}ic "
                    f"{rng.choice(_DISEASE_HEADS)}")
        if name in seen:
            continue
        seen.add(name)
        synonyms: list[str] = []
        if rng.random() < 0.5:
            words = name.split()
            abbrev = "".join(w[0].upper() for w in words)
            # Disease abbreviations are COPD/ADHD-style (4+ letters);
            # three-letter acronyms stay a gene-shaped signal, so pad
            # short initialisms with the last word's second letter.
            if len(abbrev) == 3 and len(words[-1]) > 1:
                abbrev += words[-1][1].upper()
            if len(abbrev) >= 4 and abbrev not in seen:
                seen.add(abbrev)
                synonyms.append(abbrev)
        entries.append(TermEntry(name, tuple(synonyms),
                                 term_id=f"DIS:{len(entries):06d}"))
    return entries


def _generate_drugs(rng: random.Random, count: int) -> list[TermEntry]:
    entries: list[TermEntry] = []
    seen: set[str] = set()
    while len(entries) < count:
        name = rng.choice(_DRUG_STEMS) + rng.choice(_DRUG_SUFFIXES)
        if rng.random() < 0.3:
            name = rng.choice(_DRUG_STEMS)[:3] + name
        name = name.capitalize() if rng.random() < 0.4 else name
        if name.lower() in seen:
            continue
        seen.add(name.lower())
        synonyms: list[str] = []
        if rng.random() < 0.4:
            syn = f"{name} hydrochloride"
            seen.add(syn.lower())
            synonyms.append(syn)
        entries.append(TermEntry(name, tuple(synonyms),
                                 term_id=f"DRUG:{len(entries):06d}"))
    return entries
