"""Declarative predictor specifications: the *data* half of the core.

A :class:`PredictorSpec` describes a predictor configuration -- its
tables, hash, and storage model -- without instantiating any state.
``name``, ``storage_bits()`` and config construction live here, so
sweeps, CLIs and process pools can label, size and ship configurations
as plain (picklable, hashable) values; :meth:`PredictorSpec.build`
materialises the stateful predictor when a trace actually needs to be
replayed.

Specs are also callables (``spec() == spec.build()``), so every
harness function that accepts a zero-argument predictor factory accepts
a spec unchanged.  The engine layer (:mod:`repro.core.engines`) keys
its vectorised kernels off the spec ``family``; the scalar predictors
built by :meth:`build` carry their spec back on a ``.spec`` attribute
(``None`` for configurations the spec layer cannot represent, e.g. a
hand-rolled :class:`~repro.core.hashing.HistoryHash` subclass).

:meth:`PredictorSpec.extract_state` defines the canonical table-state
snapshot (a dict of int64 NumPy arrays) that the cross-engine
equivalence suite compares bit-for-bit between engines.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.types import WORD_BITS, require_power_of_two

__all__ = [
    "TableSpec",
    "HashSpec",
    "PredictorSpec",
    "LastValueSpec",
    "LastNSpec",
    "StrideSpec",
    "TwoDeltaStrideSpec",
    "FCMSpec",
    "DFCMSpec",
    "OracleHybridSpec",
    "MetaHybridSpec",
    "DelayedSpec",
    "SPEC_FAMILIES",
    "spec_of",
    "spec_from_config",
    "spec_from_cli",
]


@dataclass(frozen=True)
class TableSpec:
    """One hardware table: how many entries, how wide each entry is."""

    name: str
    entries: int
    entry_bits: int

    @property
    def bits(self) -> int:
        return self.entries * self.entry_bits


@dataclass(frozen=True)
class HashSpec:
    """Declarative form of a :class:`~repro.core.hashing.HistoryHash`.

    ``kind`` is one of ``'fs'`` / ``'xor'`` / ``'concat'`` (see
    :func:`repro.core.hashing.make_hash`).  ``order=None`` on ``'fs'``
    means the paper's ``ceil(index_bits / shift)`` coupling.
    """

    index_bits: int
    kind: str = "fs"
    order: Optional[int] = None
    shift: int = 5

    def __post_init__(self):
        if self.kind not in ("fs", "xor", "concat"):
            raise ValueError(f"unknown hash kind {self.kind!r}")
        if self.order is None:
            if self.kind != "fs":
                raise ValueError(
                    f"hash kind {self.kind!r} requires an explicit order")
            # Normalise to the paper's coupling so specs compare equal
            # no matter whether the order was spelled out.
            from repro.core.hashing import order_for_index_bits
            object.__setattr__(
                self, "order", order_for_index_bits(self.index_bits, self.shift))

    def build(self):
        from repro.core.hashing import make_hash
        if self.kind == "fs":
            return make_hash("fs", self.index_bits, self.order, shift=self.shift)
        return make_hash(self.kind, self.index_bits, self.order)

    @classmethod
    def from_hash(cls, hash_fn) -> Optional["HashSpec"]:
        """Spec for one of the three known hash classes, else ``None``.

        Exact type checks on purpose: a subclass may override ``step``
        or ``index``, and a spec rebuilt in another process must
        reproduce the hash bit-for-bit.
        """
        from repro.core.hashing import ConcatHash, FoldShiftHash, XorFoldHash
        if type(hash_fn) is FoldShiftHash:
            return cls(hash_fn.index_bits, "fs", hash_fn.order, hash_fn.shift)
        if type(hash_fn) is XorFoldHash:
            return cls(hash_fn.index_bits, "xor", hash_fn.order)
        if type(hash_fn) is ConcatHash:
            return cls(hash_fn.index_bits, "concat", hash_fn.order)
        return None

    def to_config(self) -> dict:
        return {"kind": self.kind, "index_bits": self.index_bits,
                "order": self.order, "shift": self.shift}


def _as_array(values, dtype=np.int64) -> np.ndarray:
    return np.asarray(values, dtype=dtype)


@dataclass(frozen=True)
class PredictorSpec:
    """Base class for family specs.

    Subclasses define ``family`` (a class attribute used by engine
    dispatch and config round-tripping), ``name``, :meth:`tables` and
    :meth:`build`; storage is always the sum of the declared tables.
    """

    family = "abstract"

    @property
    def name(self) -> str:
        raise NotImplementedError

    def tables(self) -> Tuple[TableSpec, ...]:
        raise NotImplementedError

    def build(self):
        raise NotImplementedError

    def storage_bits(self) -> int:
        return sum(table.bits for table in self.tables())

    def storage_kbit(self) -> float:
        return self.storage_bits() / 1024.0

    def extract_state(self, predictor) -> Dict[str, np.ndarray]:
        """Canonical table snapshot of a predictor built from this spec."""
        raise NotImplementedError

    def __call__(self):
        """Specs double as zero-argument predictor factories."""
        return self.build()

    def to_config(self) -> dict:
        config = {"family": self.family}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, HashSpec):
                value = value.to_config()
            elif isinstance(value, tuple) and value and isinstance(value[0], PredictorSpec):
                value = [c.to_config() for c in value]
            config[f.name] = value
        return config


@dataclass(frozen=True)
class LastValueSpec(PredictorSpec):
    entries: int

    family = "last_value"

    def __post_init__(self):
        require_power_of_two(self.entries, "last value table size")

    @property
    def name(self) -> str:
        return f"lvp_{self.entries}"

    def tables(self) -> Tuple[TableSpec, ...]:
        return (TableSpec("values", self.entries, WORD_BITS),)

    def build(self):
        from repro.core.last_value import LastValuePredictor
        return LastValuePredictor(self.entries)

    def extract_state(self, predictor) -> Dict[str, np.ndarray]:
        return {"values": _as_array(predictor._table)}


@dataclass(frozen=True)
class LastNSpec(PredictorSpec):
    entries: int
    n: int = 4
    counter_bits: int = 2

    family = "last_n"

    def __post_init__(self):
        require_power_of_two(self.entries, "last-n table size")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.counter_bits < 1:
            raise ValueError(f"counter_bits must be >= 1, got {self.counter_bits}")

    @property
    def name(self) -> str:
        return f"last{self.n}_{self.entries}"

    def tables(self) -> Tuple[TableSpec, ...]:
        lru_bits = max(1, (self.n - 1).bit_length())
        return (
            TableSpec("values", self.entries * self.n, WORD_BITS),
            TableSpec("counters", self.entries * self.n, self.counter_bits),
            TableSpec("stamps", self.entries * self.n, lru_bits),
        )

    def build(self):
        from repro.core.last_n import LastNValuePredictor
        return LastNValuePredictor(self.entries, self.n, self.counter_bits)

    def extract_state(self, predictor) -> Dict[str, np.ndarray]:
        return {
            "values": _as_array(predictor._values),
            "counters": _as_array(predictor._counters),
            "stamps": _as_array(predictor._stamps),
            "clock": _as_array([predictor._clock]),
        }


@dataclass(frozen=True)
class StrideSpec(PredictorSpec):
    entries: int
    counter_bits: int = 3
    counter_inc: int = 1
    counter_dec: int = 2

    family = "stride"

    def __post_init__(self):
        require_power_of_two(self.entries, "stride table size")

    @property
    def name(self) -> str:
        return f"stride_{self.entries}"

    def tables(self) -> Tuple[TableSpec, ...]:
        return (
            TableSpec("last", self.entries, WORD_BITS),
            TableSpec("stride", self.entries, WORD_BITS),
            TableSpec("conf", self.entries, self.counter_bits),
        )

    def build(self):
        from repro.core.stride import StridePredictor
        return StridePredictor(self.entries, self.counter_bits,
                               self.counter_inc, self.counter_dec)

    def extract_state(self, predictor) -> Dict[str, np.ndarray]:
        return {
            "last": _as_array(predictor._last),
            "stride": _as_array(predictor._stride),
            "conf": _as_array(predictor._conf.values),
        }


@dataclass(frozen=True)
class TwoDeltaStrideSpec(PredictorSpec):
    entries: int

    family = "stride2d"

    def __post_init__(self):
        require_power_of_two(self.entries, "two-delta table size")

    @property
    def name(self) -> str:
        return f"stride2d_{self.entries}"

    def tables(self) -> Tuple[TableSpec, ...]:
        return (
            TableSpec("last", self.entries, WORD_BITS),
            TableSpec("s1", self.entries, WORD_BITS),
            TableSpec("s2", self.entries, WORD_BITS),
        )

    def build(self):
        from repro.core.stride import TwoDeltaStridePredictor
        return TwoDeltaStridePredictor(self.entries)

    def extract_state(self, predictor) -> Dict[str, np.ndarray]:
        return {
            "last": _as_array(predictor._last),
            "s1": _as_array(predictor._s1),
            "s2": _as_array(predictor._s2),
        }


def _l2_index_bits(l2_entries: int) -> int:
    return l2_entries.bit_length() - 1


def _resolve_hash(spec_hash: Optional[HashSpec], l2_entries: int,
                  what: str) -> HashSpec:
    index_bits = _l2_index_bits(l2_entries)
    if spec_hash is None:
        return HashSpec(index_bits)
    if spec_hash.index_bits != index_bits:
        raise ValueError(
            f"hash produces {spec_hash.index_bits}-bit indices but the "
            f"{what} level-2 table needs {index_bits}-bit indices"
        )
    return spec_hash


@dataclass(frozen=True)
class FCMSpec(PredictorSpec):
    l1_entries: int
    l2_entries: int
    hash: Optional[HashSpec] = None

    family = "fcm"

    def __post_init__(self):
        require_power_of_two(self.l1_entries, "FCM level-1 size")
        require_power_of_two(self.l2_entries, "FCM level-2 size")
        object.__setattr__(
            self, "hash", _resolve_hash(self.hash, self.l2_entries, "FCM"))

    @property
    def name(self) -> str:
        return f"fcm_l1={self.l1_entries}_l2={self.l2_entries}"

    def tables(self) -> Tuple[TableSpec, ...]:
        return (
            TableSpec("l1", self.l1_entries, self.hash.index_bits),
            TableSpec("l2", self.l2_entries, WORD_BITS),
        )

    def build(self):
        from repro.core.fcm import FCMPredictor
        return FCMPredictor(self.l1_entries, self.l2_entries, self.hash.build())

    def extract_state(self, predictor) -> Dict[str, np.ndarray]:
        return {
            "l1": _as_array(predictor._l1),
            "l2": _as_array(predictor._l2),
        }


@dataclass(frozen=True)
class DFCMSpec(PredictorSpec):
    l1_entries: int
    l2_entries: int
    hash: Optional[HashSpec] = None
    stride_bits: int = 32

    family = "dfcm"

    def __post_init__(self):
        require_power_of_two(self.l1_entries, "DFCM level-1 size")
        require_power_of_two(self.l2_entries, "DFCM level-2 size")
        if not 1 <= self.stride_bits <= 32:
            raise ValueError(
                f"stride_bits must be in [1, 32], got {self.stride_bits}")
        object.__setattr__(
            self, "hash", _resolve_hash(self.hash, self.l2_entries, "DFCM"))

    @property
    def name(self) -> str:
        name = f"dfcm_l1={self.l1_entries}_l2={self.l2_entries}"
        if self.stride_bits != 32:
            name += f"_s{self.stride_bits}"
        return name

    def tables(self) -> Tuple[TableSpec, ...]:
        return (
            TableSpec("last", self.l1_entries, WORD_BITS),
            TableSpec("hist", self.l1_entries, self.hash.index_bits),
            TableSpec("l2", self.l2_entries, self.stride_bits),
        )

    def build(self):
        from repro.core.dfcm import DFCMPredictor
        return DFCMPredictor(self.l1_entries, self.l2_entries,
                             self.hash.build(), self.stride_bits)

    def extract_state(self, predictor) -> Dict[str, np.ndarray]:
        return {
            "last": _as_array(predictor._last),
            "hist": _as_array(predictor._hist),
            "l2": _as_array(predictor._l2),
        }


def _component_state(components, predictors) -> Dict[str, np.ndarray]:
    state: Dict[str, np.ndarray] = {}
    for i, (spec, predictor) in enumerate(zip(components, predictors)):
        for key, value in spec.extract_state(predictor).items():
            state[f"c{i}.{key}"] = value
    return state


@dataclass(frozen=True)
class OracleHybridSpec(PredictorSpec):
    components: Tuple[PredictorSpec, ...]
    label: Optional[str] = None

    family = "oracle_hybrid"

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("a hybrid needs at least one component")

    @property
    def name(self) -> str:
        return self.label or "+".join(c.name for c in self.components)

    def tables(self) -> Tuple[TableSpec, ...]:
        return tuple(t for c in self.components for t in c.tables())

    def build(self):
        from repro.core.hybrid import OracleHybridPredictor
        return OracleHybridPredictor([c.build() for c in self.components],
                                     name=self.label)

    def extract_state(self, predictor) -> Dict[str, np.ndarray]:
        return _component_state(self.components, predictor.components)


@dataclass(frozen=True)
class MetaHybridSpec(PredictorSpec):
    components: Tuple[PredictorSpec, ...]
    meta_entries: int = 0
    counter_bits: int = 2
    counter_inc: int = 1
    counter_dec: int = 1
    label: Optional[str] = None

    family = "meta_hybrid"

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("a hybrid needs at least one component")
        require_power_of_two(self.meta_entries, "meta-predictor table size")

    @property
    def name(self) -> str:
        return self.label or (
            "meta(" + "+".join(c.name for c in self.components) + ")")

    def tables(self) -> Tuple[TableSpec, ...]:
        meta = TableSpec("meta", self.meta_entries,
                         self.counter_bits * len(self.components))
        return (meta,) + tuple(t for c in self.components for t in c.tables())

    def build(self):
        from repro.core.hybrid import MetaHybridPredictor
        return MetaHybridPredictor(
            [c.build() for c in self.components], self.meta_entries,
            self.counter_bits, self.counter_inc, self.counter_dec,
            name=self.label)

    def extract_state(self, predictor) -> Dict[str, np.ndarray]:
        state = _component_state(self.components, predictor.components)
        for i, bank in enumerate(predictor._meta):
            state[f"meta{i}"] = _as_array(bank.values)
        return state


@dataclass(frozen=True)
class DelayedSpec(PredictorSpec):
    inner: PredictorSpec = None
    delay: int = 0

    family = "delayed"

    def __post_init__(self):
        if not isinstance(self.inner, PredictorSpec):
            raise ValueError("DelayedSpec needs an inner PredictorSpec")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")

    @property
    def name(self) -> str:
        return f"{self.inner.name}_d{self.delay}"

    def tables(self) -> Tuple[TableSpec, ...]:
        return self.inner.tables()

    def build(self):
        from repro.core.delayed import DelayedUpdatePredictor
        return DelayedUpdatePredictor(self.inner.build(), self.delay)

    def extract_state(self, predictor) -> Dict[str, np.ndarray]:
        state = {f"inner.{k}": v
                 for k, v in self.inner.extract_state(predictor.inner).items()}
        pending = list(predictor._pending)
        state["pending_pc"] = _as_array([pc for pc, _ in pending])
        state["pending_value"] = _as_array([v for _, v in pending])
        return state


SPEC_FAMILIES = {
    cls.family: cls
    for cls in (LastValueSpec, LastNSpec, StrideSpec, TwoDeltaStrideSpec,
                FCMSpec, DFCMSpec, OracleHybridSpec, MetaHybridSpec,
                DelayedSpec)
}


def spec_of(predictor) -> Optional[PredictorSpec]:
    """The declarative twin of a predictor instance, or ``None``.

    Exact type checks on purpose: a subclass inherits the ``spec``
    attribute its parent's ``__init__`` set, but not necessarily the
    semantics that spec promises (e.g. the tagged estimators change
    what gets predicted), so only the facade classes themselves are
    trusted to be engine-replayable.
    """
    spec = getattr(predictor, "spec", None)
    if spec is None:
        return None
    from repro.core.delayed import DelayedUpdatePredictor
    from repro.core.dfcm import DFCMPredictor
    from repro.core.fcm import FCMPredictor
    from repro.core.hybrid import MetaHybridPredictor, OracleHybridPredictor
    from repro.core.last_n import LastNValuePredictor
    from repro.core.last_value import LastValuePredictor
    from repro.core.stride import StridePredictor, TwoDeltaStridePredictor
    exact = (LastValuePredictor, LastNValuePredictor, StridePredictor,
             TwoDeltaStridePredictor, FCMPredictor, DFCMPredictor,
             OracleHybridPredictor, MetaHybridPredictor,
             DelayedUpdatePredictor)
    return spec if type(predictor) in exact else None


def spec_from_config(config: dict) -> PredictorSpec:
    """Rebuild a spec from its :meth:`PredictorSpec.to_config` dict."""
    config = dict(config)
    try:
        cls = SPEC_FAMILIES[config.pop("family")]
    except KeyError as exc:
        raise ValueError(f"unknown predictor family {exc.args[0]!r}") from None
    hash_config = config.get("hash")
    if isinstance(hash_config, dict):
        config["hash"] = HashSpec(**hash_config)
    elif hash_config is not None:
        raise ValueError(f"spec hash must be an object or null, got "
                         f"{type(hash_config).__name__}")
    if "components" in config:
        config["components"] = tuple(
            spec_from_config(c) for c in config["components"])
    if "inner" in config and isinstance(config["inner"], dict):
        config["inner"] = spec_from_config(config["inner"])
    return cls(**config)


def spec_from_cli(kind: str, l1_entries: int, l2_entries: int) -> PredictorSpec:
    """Spec for the CLI's ``--predictor`` / ``--l1`` / ``--l2`` flags."""
    if kind == "lvp":
        return LastValueSpec(l1_entries)
    if kind == "lastn":
        return LastNSpec(l1_entries)
    if kind == "stride":
        return StrideSpec(l1_entries)
    if kind == "stride2d":
        return TwoDeltaStrideSpec(l1_entries)
    if kind == "fcm":
        return FCMSpec(l1_entries, l2_entries)
    if kind == "dfcm":
        return DFCMSpec(l1_entries, l2_entries)
    raise ValueError(f"unknown predictor kind {kind!r}")
