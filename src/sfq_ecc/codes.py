"""Binary linear block codes for a 4-bit cryogenic output link.

Three built-in codes are provided, addressable by name everywhere in the
package (CLI, configs, reports):

* ``hamming74``  -- the perfect (7,4,3) Hamming code,
* ``hamming84``  -- the extended (8,4,4) Hamming code (overall parity bit),
* ``rm13``      -- the first-order (8,4,4) Reed-Muller code.

Codewords are computed as ``(message @ G) % 2``.  Every code decodes by
nearest-codeword lookup: its constructor tabulates, for each of the 2^n
received words, the distance to the nearest codeword, the lowest-index
nearest message and whether that nearest codeword is tied.  A scalar
:func:`decode` reads lookups built on first use: the index of every valid
word, and per decoder the shared outcome of each word.  Detect-only
mode delivers exact codewords only; correct mode delivers the unique
nearest codeword and refuses ties.  rm13, whose correlation decoder can
pick among equally correlated codewords, is built with ``resolves_ties``:
under ``optimistic`` tie-breaking it delivers the lowest-index tied
codeword.  For the built-in codes this is exactly complete syndrome
decoding (hamming74), parity-plus-syndrome decoding (hamming84, which never
resolves its distance-2 ties) and correlation decoding (rm13).  Exhaustive
error-pattern classification and capability summaries are read off the
same table, never hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import takewhile

import numpy as np

from sfq_ecc import _checks

CODE_NAMES = ("hamming74", "hamming84", "rm13")

CLEAN = "clean"
CORRECTED = "corrected"
UNCORRECTABLE = "uncorrectable"

DETECT_ONLY = "detect_only"
CORRECT = "correct"

# Tie handling in correct mode, for codes built with ``resolves_ties``.
TIE_CONSERVATIVE = "conservative"  # ties are reported uncorrectable
TIE_OPTIMISTIC = "optimistic"      # ties resolve to the lowest-index candidate
TIE_POLICIES = (TIE_CONSERVATIVE, TIE_OPTIMISTIC)

_G_HAMMING84 = np.array(
    [
        [1, 1, 1, 0, 0, 0, 0, 1],
        [1, 0, 0, 1, 1, 0, 0, 1],
        [0, 1, 0, 1, 0, 1, 0, 1],
        [1, 1, 0, 1, 0, 0, 1, 0],
    ],
    dtype=np.uint8,
)


_BIT_VALUES = frozenset((0, 1))
_BYTE_DTYPES = frozenset(map(np.dtype, ("i1", "u1")))  # not bool: True may be any nonzero byte


def _bit_list(s) -> list:
    """The bits of a bit string like ``"1011"`` or of a 0/1 sequence, as a checked list.

    The one rule of :func:`bits` and :meth:`LinearCode._index`: a non-empty
    string of ``0`` and ``1``, or a one-dimensional sequence whose every
    value equals 0 or 1.  Raises ``ValueError`` on anything else.
    """
    if isinstance(s, str):
        if not s or any(ch not in "01" for ch in s):
            raise ValueError(f"not a bit string: {s!r}")
        return [int(ch) for ch in s]
    a = np.asarray(s)
    # checked before any cast, which would wrap 256 to 0 and truncate 0.5;
    # set membership compares by ==, so 1.0 and True pass as they would in
    # ``((a == 0) | (a == 1)).all()``, at a fraction of its cost on short vectors
    if a.ndim == 1:
        values = a.tolist()
        if _BIT_VALUES.issuperset(values):
            return values
    raise ValueError("bit vector must be one-dimensional over {0,1}")


def bits(s) -> np.ndarray:
    """Coerce a bit string like ``"1011"`` (or any 0/1 sequence) to uint8."""
    return np.array(_bit_list(s), dtype=np.uint8)


def bitstr(a) -> str:
    """Render a bit vector as a compact string, e.g. ``01100110``."""
    return "".join(str(int(b)) for b in np.asarray(a).ravel())


def pack(bits) -> np.ndarray:
    """Index of each bit vector along the last axis, first bit most significant."""
    bits = np.asarray(bits)
    weights = 1 << np.arange(bits.shape[-1] - 1, -1, -1, dtype=np.int64)
    return bits.astype(np.int64) @ weights


def _unpack(words, width: int) -> np.ndarray:
    """Inverse of :func:`pack`: ``width`` uint8 bits per index."""
    shifts = np.arange(width - 1, -1, -1)
    return ((np.asarray(words)[..., None] >> shifts) & 1).astype(np.uint8)


class LinearCode:
    """A binary linear block code defined by a k x n generator matrix.

    Attributes ``name``, ``n``, ``k``, ``G`` and the cached minimum distance
    ``d_min`` describe the code; the constructor also precomputes the
    ``messages`` (row m holds the bits of message index m), the
    ``codebook`` and the nearest-codeword table that membership, message
    lookup and every decoder read: per received word (indexed by
    :func:`pack`) the nearest ``distance``, the lowest-index ``nearest``
    message and whether the nearest codeword is ``tied``.
    ``resolves_ties`` lets correct mode deliver a tied word under
    :data:`TIE_OPTIMISTIC`.  The decode table of each (mode, tie policy) is
    derived from it once, here.  The lookups of a scalar :func:`decode` are
    built on first use, since most codes are made only for their tables:
    the index of each valid word under its three keys (:meth:`_index`), and
    each decode table's :class:`DecodeOutcome` per word the first time that
    table decodes.  Every array is read-only and every outcome
    shared: instances are immutable in use, every operation is a pure
    function, and codes are safe to share across threads.
    """

    def __init__(self, name: str, G: np.ndarray, *, resolves_ties: bool = False):
        G = np.asarray(G)
        # checked before the cast, by the rule of :func:`bits`
        if G.ndim != 2 or not G.size or not _BIT_VALUES.issuperset(G.ravel().tolist()):
            raise ValueError("generator matrix must be a non-empty 2-D array over {0,1}")
        G = G.astype(np.uint8)
        self.name = name
        self.resolves_ties = resolves_ties
        self.k, self.n = G.shape
        if self.n + self.k > 20:
            raise ValueError("the nearest-codeword table is limited to n + k <= 20")
        self.G = G
        G.setflags(write=False)

        self.messages = _unpack(np.arange(2**self.k), self.k)
        self.codebook = (self.messages @ G) % 2
        self.d_min = int(self.codebook[1:].sum(axis=1).min())
        # over GF(2), rank < k exactly when a nonzero message encodes to zero
        if self.d_min == 0:
            raise ValueError("generator matrix does not have full row rank")

        words = np.arange(2**self.n)
        self._weight = _unpack(words, self.n).sum(axis=1)  # of each word, as an error pattern
        dist = self._weight[words[:, None] ^ pack(self.codebook)]
        self.distance = dist.min(axis=1)
        # the lowest message index among ties; int16 keeps batch lookups small
        self.nearest = dist.argmin(axis=1).astype(np.int16)
        self.tied = (dist == self.distance[:, None]).sum(axis=1) > 1
        self._outcomes = {}  # per (mode, tie policy), filled by :meth:`_outcome_table`
        exact = np.where(self.distance > 0, -1, self.nearest)
        unique = np.where(self.tied, -1, self.nearest)
        self._decode_tables = {
            (DETECT_ONLY, TIE_CONSERVATIVE): exact,
            (DETECT_ONLY, TIE_OPTIMISTIC): exact,
            (CORRECT, TIE_CONSERVATIVE): unique,
            (CORRECT, TIE_OPTIMISTIC): self.nearest if resolves_ties else unique,
        }
        for table in (self.messages, self.codebook, self._weight, self.distance,
                      self.nearest, self.tied, exact, unique):
            table.setflags(write=False)

    def __repr__(self):
        return f"LinearCode({self.name!r}, n={self.n}, k={self.k}, d_min={self.d_min})"

    @cached_property
    def _words(self) -> dict:
        """Table index of every valid n-bit word, keyed three ways (see :meth:`_index`)."""
        indices = range(2**self.n)
        words = {key: w for w, row in enumerate(_unpack(np.arange(2**self.n), self.n).tolist())
                 for key in (tuple(row), bytes(row))}
        words.update(zip(map(f"{{:0{self.n}b}}".format, indices), indices))
        return words

    def _outcome_table(self, mode: str, tie_break: str) -> tuple:
        """The :class:`DecodeOutcome` of each word under one decode table, built on first use.

        Its 2^n outcomes are 2·2^k + 1 shared objects: a clean and a
        corrected one per message, whose ``message`` is that read-only row
        of ``messages``, and one refusal.
        """
        table = self.decode_table(mode, tie_break)
        refused = DecodeOutcome(None, UNCORRECTABLE)
        delivered = {(m, d == 0): DecodeOutcome(row, CLEAN if d == 0 else CORRECTED)
                     for m, row in enumerate(self.messages) for d in (0, 1)}
        return self._outcomes.setdefault((mode, tie_break), tuple(
            refused if m < 0 else delivered[m, d == 0]
            for m, d in zip(table.tolist(), self.distance.tolist())))

    def _index(self, word) -> int:
        """Table index (:func:`pack`) of an n-bit word; ``ValueError`` for anything else.

        One lookup in ``_words``, under one of three keys: a string itself;
        the ``tobytes()`` of a one-dimensional ``uint8`` or ``int8`` array,
        whose bytes are its values; or the tuple of any other
        one-dimensional sequence's values.  Dict keys and the rule of
        :func:`bits` both compare by hash and ``==``, so the lookup accepts
        exactly the n-bit words that rule accepts (``True``, ``1.0`` and
        numpy scalars included); on a miss the rule raises its own error,
        or the word has the wrong length.
        """
        if isinstance(word, str):
            key = word
        else:
            a = np.asarray(word)
            key = (None if a.ndim != 1 else a.tobytes() if a.dtype in _BYTE_DTYPES
                   else tuple(a.tolist()))
        try:
            return self._words[key]
        except (KeyError, TypeError):  # TypeError: an unhashable value, which the rule rejects
            values = _bit_list(word)
        raise ValueError(f"word length {len(values)} != n={self.n} for {self.name}")

    def is_codeword(self, word) -> bool:
        return self.message_of(word) is not None

    def message_of(self, word):
        """Message index of an exact codeword, None for any other n-bit word."""
        w = self._index(word)
        return int(self.nearest[w]) if self.distance[w] == 0 else None

    def decode_table(self, mode: str = CORRECT, tie_break: str = TIE_CONSERVATIVE):
        """Message index delivered per received word (indexed by :func:`pack`), -1 if refused.

        The tables are built once per code and are read-only.
        ``detect_only`` delivers exact codewords only.  ``correct`` delivers
        the nearest codeword unless it is tied; a code that resolves ties
        delivers the lowest-index tied one under ``optimistic``.
        """
        try:
            return self._decode_tables[mode, tie_break]
        except (KeyError, TypeError):  # the keys are exactly the valid pairs
            _checks.one_of("tie_break", tie_break, TIE_POLICIES)
            _checks.one_of("decode mode", mode, (DETECT_ONLY, CORRECT))
            raise

    @property
    def is_perfect(self) -> bool:
        """True when Hamming spheres of radius 1 tile the whole space."""
        return 2 ** (self.n - self.k) == 1 + self.n


def make_code(name: str) -> LinearCode:
    """Construct one of the built-in codes by name.

    hamming84 uses the fixed 4x8 generator with the overall parity bit in
    the last position; hamming74 drops that last column.  rm13 evaluates
    (all-ones, x1, x2, x3) over the 3-cube, points enumerated 000..111 in
    lexicographic order, which keeps every derived artifact deterministic.
    Only rm13 resolves ties: its correlation decoder may pick among equally
    close codewords, where the parity-plus-syndrome decoder of hamming84
    never does.
    """
    _checks.one_of("code", name, CODE_NAMES)
    if name == "hamming84":
        return LinearCode(name, _G_HAMMING84)
    if name == "hamming74":
        return LinearCode(name, _G_HAMMING84[:, :7])
    points = [((p >> 2) & 1, (p >> 1) & 1, p & 1) for p in range(8)]
    G = np.array([[1] * 8] + [[pt[i] for pt in points] for i in range(3)], dtype=np.uint8)
    return LinearCode(name, G, resolves_ties=True)


def encode(code: LinearCode, message) -> np.ndarray:
    """Encode ``message`` (length k) to its n-bit codeword."""
    m = bits(message)
    if m.size != code.k:
        raise ValueError(f"message length {m.size} != k={code.k} for {code.name}")
    return (m @ code.G) % 2


@dataclass(frozen=True)
class OutputForm:
    """One codeword bit as an XOR of message-bit indices (0-based)."""

    position: int
    terms: tuple
    passthrough: bool

    def render(self) -> str:
        expr = " ^ ".join(f"m{i + 1}" for i in self.terms)
        return f"c{self.position + 1} = {expr}"


def boolean_forms(code: LinearCode):
    """Per-output XOR expressions read off the columns of G.

    Output j collects exactly the message indices i with ``G[i, j] == 1``;
    single-term outputs are flagged as pass-throughs.
    """
    forms = []
    for j in range(code.n):
        terms = tuple(int(i) for i in range(code.k) if code.G[i, j])
        forms.append(OutputForm(position=j, terms=terms, passthrough=len(terms) == 1))
    return forms


@dataclass(frozen=True)
class DecodeOutcome:
    """Decoder verdict: delivered message (or None) plus a status flag.

    ``status`` is ``clean`` when the received word was already a codeword,
    ``corrected`` when an error was repaired, and ``uncorrectable`` when the
    decoder refuses to deliver (message is None exactly in that case).
    :func:`decode` returns one shared outcome per word, and its ``message``
    is a read-only row of the code's ``messages``: copy it before editing.
    """

    message: np.ndarray | None
    status: str

    @property
    def delivered(self) -> bool:
        return self.message is not None


def decode(code: LinearCode, received, mode: str = CORRECT,
           tie_break: str = TIE_CONSERVATIVE) -> DecodeOutcome:
    """Decode a received n-bit word by one lookup in the code's table.

    The word's table index is one dict lookup (:meth:`LinearCode._index`)
    keyed by a bit string itself, by the bytes of a one-dimensional
    ``uint8`` or ``int8`` array, or by the tuple of any other sequence's
    values.  The result is the code's precomputed outcome for that index,
    the same object for every decode of the word under one mode and tie
    policy.  A bad word raises its own error, whatever the mode.

    ``detect_only`` reports clean for exact codewords and uncorrectable for
    everything else.  ``correct`` delivers the unique nearest codeword:
    clean at distance 0, corrected beyond, uncorrectable on a tie.
    ``tie_break`` only affects codes built with ``resolves_ties`` (rm13),
    whose ties resolve to the lowest-index nearest codeword under
    ``optimistic``.
    """
    w = code._index(received)
    try:
        return code._outcomes[mode, tie_break][w]
    except (KeyError, TypeError):  # a policy's first use, or not a valid pair
        return code._outcome_table(mode, tie_break)[w]


@dataclass(frozen=True)
class PatternAnalysis:
    """Classification of every weight-t error pattern under one decoder.

    ``corrected`` counts exact deliveries (clean or repaired to the true
    message), ``miscorrected`` confident-but-wrong repairs, ``undetected``
    silently accepted wrong codewords, and ``detected`` refusals.  The four
    buckets always sum to C(n, t).
    """

    weight: int
    total: int
    undetected: int
    detected: int
    corrected: int
    miscorrected: int


def analyze_patterns(code: LinearCode, mode: str, weight: int,
                     tie_break: str = TIE_CONSERVATIVE,
                     base_codeword=None) -> PatternAnalysis:
    """Classify all weight-t patterns applied to a transmitted codeword.

    The zero codeword suffices by linearity for the deterministic decoders;
    ``base_codeword`` lets tests spot-check that.  Note the optimistic rm13
    tie-break is index-based and therefore not translation invariant: its
    counts are a best-case construct evaluated on the given codeword.
    The row is the ``weight`` entry of :func:`_pattern_rows`.
    """
    if _checks.integer("weight", weight, 0) > code.n:
        raise ValueError(f"weight {weight} out of range 0..{code.n}")
    return _pattern_rows(code, mode, tie_break, base_codeword)[weight]


def _pattern_rows(code: LinearCode, mode: str, tie_break: str, base_codeword=None) -> list:
    """The :class:`PatternAnalysis` of every weight 0..n, from one pass over a decode table.

    All 2^n error patterns are applied at once, and one ``np.bincount``
    over the code's table of word weights counts each bucket per weight.
    """
    sent = 0 if base_codeword is None else code._index(base_codeword)
    if code.distance[sent] != 0:
        raise ValueError("base_codeword is not a codeword")
    sent_idx = code.nearest[sent]
    received = sent ^ np.arange(2**code.n)  # pattern p is flipped at the set bits of p
    got = code.decode_table(mode, tie_break)[received]

    def per_weight(mask=None) -> list:
        weights = code._weight if mask is None else code._weight[mask]
        return np.bincount(weights, minlength=code.n + 1).tolist()

    total, detected, corrected = per_weight(), per_weight(got < 0), per_weight(got == sent_idx)
    undetected = per_weight((got != sent_idx) & (code.distance[received] == 0))
    return [PatternAnalysis(weight=t, total=total[t], undetected=undetected[t],
                            detected=detected[t], corrected=corrected[t],
                            miscorrected=total[t] - detected[t] - corrected[t] - undetected[t])
            for t in range(code.n + 1)]


@dataclass(frozen=True)
class CapabilitySummary:
    """Detect/correct capabilities from exhaustive enumeration.

    Per-mode figures:

    * ``guaranteed_detect``: largest t with every pattern of weight <= t
      flagged in detect-only mode.
    * ``guaranteed_correct``: largest t with every pattern of weight <= t
      repaired to the true message in correct mode.
    * ``correct_mode_safe``: largest t with no silent wrong delivery in
      correct mode (miscorrections and clean-wrong both disqualify).
    * ``partial_detect``: largest t whose lower weights are fully detected
      while at least one weight-t pattern is still flagged (detect-only).
    * ``opportunistic_correct``: largest t with at least one weight-t
      pattern delivered correctly under optimistic tie-breaking.

    The worst/best table cells map these to the reference convention: a
    perfect code operates its correcting decoder (which accepts every word,
    so its worst-case detection collapses to ``correct_mode_safe`` and its
    best case is the partial-detection weight), while the extended codes
    report the guaranteed detect-only radius in both columns.
    """

    name: str
    d_min: int
    is_perfect: bool
    guaranteed_detect: int
    guaranteed_correct: int
    correct_mode_safe: int
    partial_detect: int
    opportunistic_correct: int

    @property
    def worst_detect(self) -> int:
        return self.correct_mode_safe if self.is_perfect else self.guaranteed_detect

    @property
    def worst_correct(self) -> int:
        return self.guaranteed_correct

    @property
    def best_detect(self) -> int:
        return self.partial_detect if self.is_perfect else self.guaranteed_detect

    @property
    def best_correct(self) -> int:
        return self.opportunistic_correct

    def table_row(self) -> dict:
        return {
            "code": self.name,
            "d_min": self.d_min,
            "worst_detect": self.worst_detect,
            "worst_correct": self.worst_correct,
            "best_detect": self.best_detect,
            "best_correct": self.best_correct,
        }


def capability_summary(code: LinearCode) -> CapabilitySummary:
    """Enumerate every error weight under each decoder mode and summarize.

    Each of the three decode tables read (detect-only, correct, correct
    with optimistic ties) is classified in one pass over all 2^n error
    patterns (:func:`_pattern_rows`), on the zero codeword.
    """
    detect = _pattern_rows(code, DETECT_ONLY, TIE_CONSERVATIVE)
    correct = _pattern_rows(code, CORRECT, TIE_CONSERVATIVE)
    optimist = _pattern_rows(code, CORRECT, TIE_OPTIMISTIC)

    def prefix(rows, ok) -> int:
        """How many weights from 1 up satisfy ``ok`` in a row."""
        return len(list(takewhile(ok, rows[1:])))

    guaranteed_detect = prefix(detect, lambda r: r.undetected == 0)
    guaranteed_correct = prefix(correct, lambda r: r.corrected == r.total)
    correct_mode_safe = prefix(correct, lambda r: r.undetected == 0 and r.miscorrected == 0)
    # some pattern detected, at no weight above the first with an undetected pattern
    partial_detect = max((t for t in range(1, min(guaranteed_detect + 1, code.n) + 1)
                          if detect[t].detected > 0), default=0)
    opportunistic_correct = max(
        (t for t in range(1, code.n + 1) if optimist[t].corrected > 0), default=0)

    return CapabilitySummary(
        name=code.name,
        d_min=code.d_min,
        is_perfect=code.is_perfect,
        guaranteed_detect=guaranteed_detect,
        guaranteed_correct=guaranteed_correct,
        correct_mode_safe=correct_mode_safe,
        partial_detect=partial_detect,
        opportunistic_correct=opportunistic_correct,
    )
