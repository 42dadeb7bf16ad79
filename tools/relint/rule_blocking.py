"""Rule ``blocking-under-lock``: no slow work inside a critical section.

Holding a lock across storage/PSP round trips, executor dispatch,
``time.sleep`` or a JPEG reconstruction serializes every other thread
on work that can take milliseconds to seconds — the exact failure mode
``SingleFlight`` exists to prevent (coalesce the wait, *don't* hold
the cache lock across the rebuild).

Flagged while any lock is held (lexically, or via the caller-holds
marker):

* known blocking module-level calls by name: ``time.sleep``, the
  reconstruction entry points (``reconstruct_served``,
  ``run_decrypt_task``, ``decode_coefficients``,
  ``coefficients_to_pixels``, bare ``decode``/``encode_rgb``/
  ``encode_gray``), the publish path (``publish_encrypted``) and the
  fan-out adapter (``run_calls``);
* method calls on a ``self.<attr>`` receiver whose inferred type is a
  backend, executor, or single-flight: PSP ``upload``/``download``...,
  blob-store ``put``/``get``/..., executor ``map``/``run_one``/
  ``submit``/``shutdown``, ``SingleFlight.do``;
* generically blocking synchronization calls on any receiver:
  ``.result()``, ``.wait()``, ``.acquire()``.

Receiver types come from light inference (constructor calls and
annotated ``__init__`` parameters assigned to ``self``); an unknown
receiver is never flagged — the rule under-approximates.  ``bytes.
decode``-style attribute calls are *not* confused with the codec's
module-level ``decode``: only bare-name calls match that list.
"""

from __future__ import annotations

import ast

from tools.relint.model import Finding
from tools.relint.parsing import Codebase, walk_lock_regions

RULE = "blocking-under-lock"

#: Module-level callables that block or burn CPU for a long time.
BLOCKING_FUNCS = {
    "sleep": "time.sleep",
    "reconstruct_served": "a full reconstruction",
    "run_decrypt_task": "a full reconstruction",
    "run_calls": "fan-out backend I/O",
    "publish_encrypted": "a PSP + storage publish round trip",
    "decode": "a JPEG decode",
    "decode_coefficients": "a JPEG entropy decode",
    "coefficients_to_pixels": "a JPEG pixel reconstruction",
    "encode_rgb": "a JPEG encode",
    "encode_gray": "a JPEG encode",
}

#: Receiver type -> method names that mean remote I/O / heavy work.
BLOCKING_METHODS: dict[str, frozenset[str]] = {}
_PSP_METHODS = frozenset(
    {"upload", "download", "download_from", "download_quorum",
     "run_analysis", "check_access"}
)
_STORE_METHODS = frozenset({"put", "get", "exists", "delete", "keys"})
_EXECUTOR_METHODS = frozenset({"map", "run_one", "submit", "shutdown"})
for _type in (
    "PSPBackend", "PhotoSharingProvider", "FacebookPSP", "FlickrPSP",
    "PhotoBucketPSP", "FanoutPSP",
):
    BLOCKING_METHODS[_type] = _PSP_METHODS
for _type in (
    "BlobStore", "CloudStorage", "ReplicatedBlobStore", "ShardedBlobStore",
):
    BLOCKING_METHODS[_type] = _STORE_METHODS
for _type in ("Executor", "ThreadPoolExecutor", "ProcessPoolExecutor"):
    BLOCKING_METHODS[_type] = _EXECUTOR_METHODS
BLOCKING_METHODS["SingleFlight"] = frozenset({"do"})
BLOCKING_METHODS["Event"] = frozenset({"wait"})

#: Blocking on any receiver: waiting primitives.
GENERIC_BLOCKING_METHODS = {"result", "wait", "acquire"}


def _receiver_self_attr(func: ast.Attribute) -> str | None:
    value = func.value
    if (
        isinstance(value, ast.Attribute)
        and isinstance(value.value, ast.Name)
        and value.value.id == "self"
    ):
        return value.attr
    return None


def check(codebase: Codebase) -> list[Finding]:
    findings: list[Finding] = []
    for cls in codebase.classes:
        if not codebase.merged_locks(cls):
            continue
        attr_types = codebase.merged_attr_types(cls)
        for method in cls.methods:
            symbol = f"{cls.name}.{method.name}"
            nodes, _ = walk_lock_regions(codebase, cls, method)
            for event in nodes:
                if not event.held or event.in_closure:
                    continue
                node = event.node
                if not isinstance(node, ast.Call):
                    continue
                held = "/".join(event.held)
                func = node.func
                if isinstance(func, ast.Name):
                    reason = BLOCKING_FUNCS.get(func.id)
                    if reason is not None:
                        findings.append(
                            Finding(
                                path=cls.path,
                                line=node.lineno,
                                rule=RULE,
                                symbol=symbol,
                                message=(
                                    f"calls {func.id}() — {reason} — "
                                    f"while holding {held}"
                                ),
                            )
                        )
                    continue
                if not isinstance(func, ast.Attribute):
                    continue
                # time.sleep(...) spelled as an attribute call.
                if (
                    isinstance(func.value, ast.Name)
                    and func.value.id == "time"
                    and func.attr == "sleep"
                ):
                    findings.append(
                        Finding(
                            path=cls.path,
                            line=node.lineno,
                            rule=RULE,
                            symbol=symbol,
                            message=(
                                f"calls time.sleep() while holding {held}"
                            ),
                        )
                    )
                    continue
                receiver_attr = _receiver_self_attr(func)
                if receiver_attr is not None:
                    receiver_type = attr_types.get(receiver_attr)
                    blocked = BLOCKING_METHODS.get(receiver_type or "")
                    if blocked is not None and func.attr in blocked:
                        findings.append(
                            Finding(
                                path=cls.path,
                                line=node.lineno,
                                rule=RULE,
                                symbol=symbol,
                                message=(
                                    f"calls self.{receiver_attr}."
                                    f"{func.attr}() ({receiver_type} "
                                    f"I/O) while holding {held}"
                                ),
                            )
                        )
                        continue
                if func.attr in GENERIC_BLOCKING_METHODS:
                    findings.append(
                        Finding(
                            path=cls.path,
                            line=node.lineno,
                            rule=RULE,
                            symbol=symbol,
                            message=(
                                f"calls .{func.attr}() — a waiting "
                                f"primitive — while holding {held}"
                            ),
                        )
                    )
    return findings
