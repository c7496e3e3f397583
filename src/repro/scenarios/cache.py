"""Content-addressed caching of scenario request results.

A :class:`~repro.scenarios.spec.ScenarioRequest` — a campaign cell, a
request to :func:`repro.api.execute` or to the scenario service — is a
pure function of its inputs: the scenario spec, the fault recipe, the
seed list and the request's extras fully determine its
:class:`~repro.analysis.montecarlo.MonteCarloSummary` (the engines are
bit-identical across implementations and worker counts, so the engine
choice is deliberately *not* part of the key).  That makes results
safe to memoize — re-running a campaign after editing one scenario
re-executes only the cells whose inputs actually changed, and a
request a campaign already computed is a hit for ``execute`` and the
service too.

The cache key is a **canonical digest**: the cell's dataclass tree is
lowered to a tagged token stream (type names, field names, and
bit-exact scalar encodings — floats are hashed via their IEEE-754
little-endian bytes, never via ``repr``) and SHA-256 hashed.  Any
field change anywhere in the tree — a fault window nudged by one ULP,
a renamed scenario, a reordered seed list — produces a different
digest; equal trees always produce the same digest regardless of how
their floats were computed.

``tests/test_campaign_cache.py`` pins both directions with a
hypothesis sweep (two specs differing in a single field never collide)
and a stale-cache regression (an edited cell is re-run, not served
stale).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import zlib
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError

#: Bump when the canonical form (or the meaning of a cell) changes, so
#: digests from older builds can never alias into newer ones.
DIGEST_VERSION = "campaign-cell-v1"


def _canonical_tokens(value, out: list[str]) -> None:
    """Append ``value``'s canonical token stream to ``out``.

    Every token is prefixed with a type tag so values of different
    types can never produce the same stream (``1`` vs ``1.0`` vs
    ``True`` vs ``"1"`` all differ), and containers emit explicit
    open/close markers so nesting is unambiguous.
    """
    # bool first: it subclasses int.
    if isinstance(value, bool):
        out.append(f"b:{int(value)}")
    elif isinstance(value, (int, np.integer)):
        out.append(f"i:{int(value)}")
    elif isinstance(value, (float, np.floating)):
        out.append(f"f:{struct.pack('<d', float(value)).hex()}")
    elif isinstance(value, str):
        out.append(f"s:{len(value)}:{value}")
    elif isinstance(value, bytes):
        out.append(f"y:{value.hex()}")
    elif value is None:
        out.append("n")
    elif is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        out.append(f"d<{cls.__module__}.{cls.__qualname__}")
        for field in fields(value):
            out.append(f"k:{field.name}")
            _canonical_tokens(getattr(value, field.name), out)
        out.append("d>")
    elif isinstance(value, (tuple, list)):
        out.append(f"t<{len(value)}")
        for item in value:
            _canonical_tokens(item, out)
        out.append("t>")
    elif isinstance(value, dict):
        out.append(f"m<{len(value)}")
        for key in sorted(value):
            out.append(f"k:{key}")
            _canonical_tokens(value[key], out)
        out.append("m>")
    elif isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        out.append(f"a<{array.dtype.str}:{array.shape}")
        out.append(array.tobytes().hex())
        out.append("a>")
    else:
        raise ConfigurationError(
            f"cannot canonicalize {type(value).__name__} for a campaign "
            "digest; extend repro.scenarios.cache._canonical_tokens"
        )


def canonical_digest(value) -> str:
    """The SHA-256 hex digest of ``value``'s canonical form.

    Deterministic across processes and platforms: dataclass trees are
    tokenized by type name, field name and bit-exact scalar encoding
    (no ``repr``, no ``hash()``), then hashed.  Equal trees digest
    equal; any differing field digests different.
    """
    tokens: list[str] = [DIGEST_VERSION]
    _canonical_tokens(value, tokens)
    digest = hashlib.sha256()
    for token in tokens:
        digest.update(token.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


class CampaignCache:
    """Memo of request summaries keyed by digest, optionally on disk.

    Lookup is by :func:`canonical_digest` of the keyed value (a
    :class:`~repro.scenarios.spec.ScenarioRequest` — campaign cell,
    :func:`~repro.api.execute` request or service admission alike — a
    :class:`~repro.sabre.harness.FirmwareRequest`, any dataclass tree
    the canonicalizer accepts), so a hit is only possible when every
    field of the tree is identical down to the bit.  ``None``
    summaries (every seed diverged) are cached too — divergence is as
    deterministic as convergence.

    ``cache_dir`` arms the **persistent tier**: every stored entry is
    also written to ``<cache_dir>/<digest>.pkl`` (atomically, via a
    same-directory temp file and rename), and an in-memory miss falls
    through to the directory before being counted a miss.  Because the
    filename *is* the bit-exact canonical digest, cross-process and
    cross-session reuse is sound by the same argument as the in-memory
    tier, and a stale hit would require a digest collision.  A corrupt,
    truncated or version-mismatched file is treated as a miss (and the
    fresh result overwrites it on the next store) — never as an error.
    The unusable file itself is *quarantined*: renamed to
    ``<digest>.corrupt`` (counted in ``corrupt_entries``) so it is
    inspectable after the fact and never re-read — without the rename
    a damaged entry would be deserialized again on every single
    lookup, silently, forever.

    Pass an instance to :func:`~repro.scenarios.campaign.run_campaign`
    or a :class:`~repro.service.ScenarioService` and reuse it across
    runs; ``hits``/``misses``/``disk_hits`` expose the economics.
    """

    #: Distinguishes a cached ``None`` summary from an absent entry.
    _MISS = object()

    def __init__(self, cache_dir: str | Path | None = None) -> None:
        self._entries: dict[str, object] = {}
        self._dir = Path(cache_dir) if cache_dir is not None else None
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Hits served from the persistent tier (a subset of ``hits``).
        self.disk_hits = 0
        #: Unusable disk entries quarantined to ``<digest>.corrupt``.
        self.corrupt_entries = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def cache_dir(self) -> Path | None:
        """The persistent tier's directory; ``None`` = memory only."""
        return self._dir

    def _disk_path(self, digest: str) -> Path:
        return self._dir / f"{digest}.pkl"

    def _disk_load(self, digest: str):
        """The disk entry for ``digest``, or ``_MISS`` if unusable.

        Anything short of a well-formed, version-tagged pickle —
        missing file, truncated write, garbage bytes, a payload from
        an older digest scheme — reads as a miss: the cache must never
        turn a damaged file into an exception or a wrong answer.  An
        unusable *existing* file is quarantined via
        :meth:`_quarantine` so the miss is paid once, not per lookup.
        """
        try:
            raw = self._disk_path(digest).read_bytes()
        except OSError:
            return self._MISS
        try:
            payload = pickle.loads(raw)
        except Exception:
            self._quarantine(digest)
            return self._MISS
        if (
            not isinstance(payload, dict)
            or payload.get("version") != DIGEST_VERSION
            or "summary" not in payload
        ):
            self._quarantine(digest)
            return self._MISS
        body = payload["summary"]
        # The summary is stored as a CRC-guarded pickle-within-a-pickle:
        # a bit flip inside the body can still *unpickle* cleanly (the
        # damage lands in float payload bytes) — only the checksum
        # catches silent media corruption rather than serving it as data.
        if (
            not isinstance(body, bytes)
            or payload.get("crc") != zlib.crc32(body)
        ):
            self._quarantine(digest)
            return self._MISS
        try:
            return pickle.loads(body)
        except Exception:
            self._quarantine(digest)
            return self._MISS

    def _quarantine(self, digest: str) -> None:
        """Move an unusable entry aside as ``<digest>.corrupt``.

        ``os.replace`` so a previous quarantine of the same digest is
        overwritten; a failed rename (e.g. the file vanished under a
        concurrent writer healing it) is ignored — quarantining is
        bookkeeping, never an error source.
        """
        path = self._disk_path(digest)
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            return
        self.corrupt_entries += 1

    def _disk_store(self, digest: str, summary) -> None:
        """Atomically persist ``digest`` -> ``summary``.

        Written to a temp file in the same directory and renamed into
        place, so a reader in another process sees either the complete
        entry or none — a crash mid-write leaves a ``.tmp`` straggler,
        never a truncated ``.pkl``.
        """
        path = self._disk_path(digest)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        body = pickle.dumps(summary)
        tmp.write_bytes(
            pickle.dumps(
                {
                    "version": DIGEST_VERSION,
                    "summary": body,
                    "crc": zlib.crc32(body),
                }
            )
        )
        os.replace(tmp, path)

    def lookup(self, cell):
        """``(hit, summary)`` for ``cell``; counts the hit or miss."""
        digest = canonical_digest(cell)
        entry = self._entries.get(digest, self._MISS)
        if entry is self._MISS and self._dir is not None:
            entry = self._disk_load(digest)
            if entry is not self._MISS:
                # Promote, so repeat lookups skip the file system.
                self._entries[digest] = entry
                self.disk_hits += 1
        if entry is self._MISS:
            self.misses += 1
            return False, None
        self.hits += 1
        return True, entry

    def store(self, cell, summary) -> None:
        """Memoize ``cell``'s summary (``None`` = every seed diverged)."""
        digest = canonical_digest(cell)
        self._entries[digest] = summary
        if self._dir is not None:
            self._disk_store(digest, summary)

    def clear(self) -> None:
        """Drop every in-memory entry; the persistent tier and the
        hit/miss counters keep accumulating."""
        self._entries.clear()
