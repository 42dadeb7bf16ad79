"""Rule family ``taint-*``: secret-domain dataflow analysis.

The P3 security argument is a boundary: album keys, envelope plaintext
and secret-part coefficients must never reach a *public* sink — the
PSP, log/exception/repr strings, cache keys, stats payloads, HTTP
headers, JSON emitters.  This rule proves that statically with a
forward taint analysis over the parsed codebase:

* **Sources** mark data as secret: functions/fields annotated
  ``# taint: source(secret)`` plus the built-in registry below
  (``open_envelope``, ``Keyring.key_for``, ``DecryptTask.key``, ...).
  Reading a declared source *field* re-taints by declaration, however
  the value got there.
* **Sanitizers** launder taint: a call to ``seal_envelope`` /
  ``key_digest`` (or anything annotated ``# taint: sanitizer``)
  returns clean data however secret its inputs.  Reconstruction
  entry points are sanitizers by design — their output is exactly
  the pixels the *authorized* viewer is entitled to see, the
  declassification point of the whole system.
* **Sinks** are where secret data must not arrive.  Each sink family
  has its own rule name so findings read precisely and suppressions
  stay narrow:

  ============== ====================================================
  rule            sink
  ============== ====================================================
  taint-upload    ``psp.upload(...)`` / any PSP-typed receiver
  taint-format    ``print``/logging calls, exception messages,
                  ``__repr__``/``__str__`` returns, dataclass
                  implicit reprs of secret fields
  taint-cache-key the *key* argument of ``PartitionedLRUCache``
                  ``put``/``get`` and ``SingleFlight.do``
  taint-stats     ``json.dumps``/``json.dump`` arguments, returns of
                  ``snapshot()``/``to_json()``
  taint-flow      functions annotated ``# taint: sink(public)`` and
                  HTTP header/request construction
  ============== ====================================================

The analysis is interprocedural via *function summaries*: every
module-level function and method is analyzed once per fixpoint round
with its parameters seeded as abstract taint, yielding (a) which
params flow to the return value, (b) which params are stored into
``self`` attributes, and (c) which params reach an internal sink.
Call sites then splice witness chains through those summaries, so a
violation is reported as a source→sink path of file:line steps
(``witness`` in ``--json``).

The analysis **under-approximates**, matching relint's zero-false-
positive philosophy: unknown calls, untyped attribute reads and
unresolvable receivers are treated as clean.  In particular there is
no generic container/derived-value taint — ``pixels.shape`` of a
reconstructed image is clean even though the reconstruction consumed
secret coefficients; only *declared* source fields and explicit
source calls introduce taint.  Loop bodies are walked once (taint
assigned late in a loop body is not visible to earlier statements of
the same body).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field as dc_field

from tools.relint.model import Finding, WitnessStep
from tools.relint.parsing import (
    Codebase,
    ClassInfo,
    ModuleInfo,
    annotation_name,
    _param_annotations,
    _self_attr,
)

#: Every rule this family reports under (``RULE`` is the family head;
#: the engine registers all of ``RULE_NAMES``).
RULE_NAMES = (
    "taint-flow",
    "taint-upload",
    "taint-format",
    "taint-cache-key",
    "taint-stats",
)
RULE = RULE_NAMES[0]

# -- the declarative registry -------------------------------------------------
# Annotations in the analyzed code extend these; the registry carries
# the domain knowledge that predates any annotation.

#: Calls whose return value is secret (matched by bare call name).
SOURCE_FUNCS = {
    "generate_key",
    "derive_key",
    "open_envelope",
    "open_secret",
    "key_for",
    "create_album",
}

#: Calls whose return value is clean regardless of argument taint.
SANITIZER_FUNCS = {
    "seal_envelope",
    "seal_secret",
    "key_digest",
    "secret_blob_key",
}

#: (class, attribute) pairs whose reads are secret by declaration.
SOURCE_FIELDS = {
    ("Keyring", "_keys"),
    ("P3Encryptor", "_key"),
    ("P3Decryptor", "_key"),
    ("EncryptTask", "key"),
    ("DecryptTask", "key"),
    ("DecryptTask", "secret_envelope"),
    ("EncryptedPhoto", "secret_envelope"),
    ("ServeRequest", "key"),
    ("SplitResult", "secret"),
    ("SecretPart", "image"),
}

#: Receiver types whose ``upload`` publishes its arguments to the PSP.
PSP_TYPES = {
    "PSPBackend",
    "PhotoSharingProvider",
    "FacebookPSP",
    "FlickrPSP",
    "PhotoBucketPSP",
    "FanoutPSP",
}
PSP_SINK_METHODS = {"upload"}

#: Cache types whose first ``put``/``get`` argument is the cache key —
#: visible in stats/partition labels, so it must never be raw secret.
CACHE_TYPES = {"PartitionedLRUCache"}
CACHE_KEY_METHODS = {"put", "get"}
FLIGHT_TYPES = {"SingleFlight"}
FLIGHT_KEY_METHODS = {"do"}

#: Constructors whose arguments become HTTP-visible material.
HTTP_CTORS = {"HttpRequest", "HttpResponse"}

#: ``x.debug(...)`` receivers/methods treated as log emission.
LOG_RECEIVERS = {"logging", "logger", "log", "_logger", "_log"}
LOG_METHODS = {"debug", "info", "warning", "error", "exception", "critical"}

#: Methods whose tainted *return* is a sink (rule by method name).
REPR_METHODS = {"__repr__", "__str__", "__format__"}
STATS_METHODS = {"snapshot", "to_json"}

#: Builtins that merely re-render their argument (taint passes through).
PASSTHROUGH_CALLS = {"str", "repr", "bytes", "bytearray", "format", "ascii"}
#: Methods that re-render or slice their receiver without laundering it.
PASSTHROUGH_METHODS = {
    "hex",
    "decode",
    "encode",
    "tobytes",
    "to_bytes",
    "copy",
    "strip",
    "ljust",
    "rjust",
    "lower",
    "upper",
    "get",
    "pop",
    "items",
    "values",
    "keys",
}

#: Witness chains are capped; merges keep the shortest chain per origin.
MAX_CHAIN = 12
#: Summary fixpoint rounds (call graphs here converge in 2-3).
MAX_ROUNDS = 8


# -- taint values -------------------------------------------------------------
# A taint value maps each *origin* to the shortest witness chain from
# that origin to the expression carrying the value.  Origins:
#   ("src", path, line, desc)  a concrete source occurrence
#   ("param", i)               the i-th parameter (summary analysis)

Taint = dict
#: One witness chain (source-ordered hops).
Chain = tuple
#: Evaluated positional args: (node, taint) pairs.
ArgTaints = list
#: Evaluated keyword args: (name-or-None, taint) pairs.
KwTaints = list


def _step(path: str, line: int, note: str) -> WitnessStep:
    return WitnessStep(path=path, line=line, note=note)


def _extend(chain: tuple, step: WitnessStep) -> tuple:
    if len(chain) >= MAX_CHAIN:
        return chain
    if chain and chain[-1] == step:
        return chain
    return chain + (step,)


def _merge(into: Taint, other: Taint) -> bool:
    """Merge ``other`` into ``into``; True if anything changed."""
    changed = False
    for origin, chain in other.items():
        existing = into.get(origin)
        if existing is None or len(chain) < len(existing):
            into[origin] = chain
            changed = True
    return changed


def _union(*taints: Taint) -> Taint:
    out: Taint = {}
    for taint in taints:
        _merge(out, taint)
    return out


def _concrete(taint: Taint) -> Taint:
    return {o: c for o, c in taint.items() if o[0] == "src"}


def _params_of(taint: Taint) -> Taint:
    return {o: c for o, c in taint.items() if o[0] == "param"}


# -- the function universe ----------------------------------------------------


@dataclass
class _Func:
    """One analyzable function: module-level or a method."""

    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    module: ModuleInfo
    cls: ClassInfo | None = None
    role: str | None = None  # "source" | "sink" | "sanitizer" | None

    @property
    def params(self) -> list[str]:
        args = self.node.args
        return [a.arg for a in [*args.posonlyargs, *args.args]]

    @property
    def kwonly(self) -> list[str]:
        return [a.arg for a in self.node.args.kwonlyargs]

    def param_index(self, name: str) -> int | None:
        params = self.params
        if name in params:
            return params.index(name)
        if name in self.kwonly:
            return len(params) + self.kwonly.index(name)
        return None


@dataclass
class _Summary:
    """What calling a function does with its arguments."""

    #: origin -> chain.  ``("param", i)`` origins mean "argument i flows
    #: to the return value"; concrete origins mean "calling this returns
    #: secret data" (e.g. a getter over a secret attribute).
    returns: Taint = dc_field(default_factory=dict)
    #: (param_i, rule, sink_path, sink_line, sink_symbol, note, chain)
    #: — argument i reaches an internal sink via ``chain``.
    param_sinks: list = dc_field(default_factory=list)
    #: param_i -> list of ((class, attr), chain): argument i is stored
    #: into an instance attribute.
    param_stores: dict = dc_field(default_factory=dict)


@dataclass
class _Context:
    """Shared state of one whole-codebase taint run."""

    codebase: Codebase
    source_fields: set
    funcs_by_name: dict  # bare name -> _Func (module-level, first wins)
    methods: dict  # (class name, method name) -> _Func
    dataclass_fields: dict  # class name -> ordered field names
    summaries: dict  # id(_Func) -> _Summary
    attr_taint: dict  # (class name, attr) -> Taint (concrete only)
    source_func_names: set
    sanitizer_func_names: set
    sink_funcs: set  # qualnames annotated # taint: sink(public)
    changed: bool = False

    def summary_of(self, func: _Func) -> _Summary:
        return self.summaries.setdefault(id(func), _Summary())

    def field_is_source(self, cls_name: str | None, attr: str) -> bool:
        cls = self.codebase.resolve(cls_name)
        if cls is None:
            return (cls_name, attr) in self.source_fields
        return any(
            (ancestor.name, attr) in self.source_fields
            for ancestor in self.codebase.mro(cls)
        )

    def attr_taint_of(self, cls_name: str | None, attr: str) -> Taint:
        cls = self.codebase.resolve(cls_name)
        if cls is None:
            return dict(self.attr_taint.get((cls_name, attr), {}))
        out: Taint = {}
        for ancestor in self.codebase.mro(cls):
            _merge(out, self.attr_taint.get((ancestor.name, attr), {}))
        return out

    def store_attr(self, cls_name: str, attr: str, taint: Taint) -> None:
        concrete = _concrete(taint)
        if not concrete:
            return
        slot = self.attr_taint.setdefault((cls_name, attr), {})
        if _merge(slot, concrete):
            self.changed = True


# -- marker attachment --------------------------------------------------------


def _def_line_range(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> range:
    body_start = node.body[0].lineno if node.body else node.lineno
    return range(node.lineno, max(node.lineno, body_start - 1) + 1)


def _attach_markers(
    codebase: Codebase,
    all_funcs: list[_Func],
    source_fields: set,
    findings: list[Finding],
) -> None:
    """Resolve every ``# taint:`` marker to a construct.

    ``source(secret)``/``sink(public)``/``sanitizer`` on a def line set
    the function's role; ``source(secret)`` on a class field or a
    ``self.attr = ...`` assignment declares a source field.  A marker
    attached to nothing (or a sink/sanitizer marker off a def line) is
    a ``bad-declaration`` finding — a silently ignored annotation would
    be worse than none.
    """
    by_module: dict[str, list[_Func]] = {}
    for func in all_funcs:
        by_module.setdefault(func.module.path, []).append(func)

    for module in codebase.modules:
        if not module.taint_markers:
            continue
        used: set[int] = set()
        for func in by_module.get(module.path, []):
            for lineno in _def_line_range(func.node):
                kind = module.taint_markers.get(lineno)
                if kind is not None:
                    func.role = kind
                    used.add(lineno)
        for cls in module.classes:
            for stmt in cls.node.body:
                target_name = None
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    target_name = stmt.target.id
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            target_name = target.id
                if target_name is None:
                    continue
                kind = module.taint_markers.get(stmt.lineno)
                if kind is None:
                    continue
                used.add(stmt.lineno)
                if kind == "source":
                    source_fields.add((cls.name, target_name))
                else:
                    findings.append(
                        Finding(
                            path=module.path,
                            line=stmt.lineno,
                            rule="bad-declaration",
                            symbol="<taint-marker>",
                            message=(
                                f"'{kind}' marker on a field; only "
                                "source(secret) applies to fields"
                            ),
                        )
                    )
            for method in cls.methods:
                for node in ast.walk(method.node):
                    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                        continue
                    kind = module.taint_markers.get(node.lineno)
                    if kind is None or node.lineno in used:
                        continue
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        attr = _self_attr(target)
                        if attr is None:
                            continue
                        used.add(node.lineno)
                        if kind == "source":
                            source_fields.add((cls.name, attr))
                        else:
                            findings.append(
                                Finding(
                                    path=module.path,
                                    line=node.lineno,
                                    rule="bad-declaration",
                                    symbol="<taint-marker>",
                                    message=(
                                        f"'{kind}' marker on an attribute "
                                        "assignment; only source(secret) "
                                        "applies here"
                                    ),
                                )
                            )
        # Plain (non-self) assignments: the marker taints the assigned
        # names at analysis time; here it only needs to count as used.
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            if module.taint_markers.get(node.lineno) == "source":
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                if any(isinstance(t, ast.Name) for t in targets):
                    used.add(node.lineno)
        for lineno, kind in sorted(module.taint_markers.items()):
            if lineno in used:
                continue
            findings.append(
                Finding(
                    path=module.path,
                    line=lineno,
                    rule="bad-declaration",
                    symbol="<taint-marker>",
                    message=(
                        f"unattached taint marker '{kind}': expected a "
                        "def line, a class field, or an assignment on "
                        "this line"
                    ),
                )
            )


# -- per-function analysis ----------------------------------------------------


class _FunctionAnalysis:
    """One forward walk of a function body.

    ``abstract=True`` seeds parameters with ``("param", i)`` origins and
    records what reaches returns/attributes/sinks into the function's
    summary (the fixpoint phase).  ``emit`` is the final reporting pass:
    concrete source→sink arrivals become findings.
    """

    def __init__(
        self,
        ctx: _Context,
        func: _Func,
        *,
        abstract: bool,
        emit: list | None = None,
    ) -> None:
        self.ctx = ctx
        self.func = func
        self.abstract = abstract
        self.emit = emit
        self.env: dict[str, Taint] = {}
        self.var_types: dict[str, str] = dict(
            _param_annotations(func.node)
        )
        if func.cls is not None:
            self.var_types.setdefault("self", func.cls.name)
        self.returns: Taint = {}
        self.summary = ctx.summary_of(func)

    @property
    def path(self) -> str:
        return self.func.module.path

    # -- setup ---------------------------------------------------------------

    def seed_params(self) -> None:
        if not self.abstract:
            return
        names = self.func.params + self.func.kwonly
        start = 1 if self.func.cls is not None else 0
        for index, name in enumerate(names):
            if index < start:
                continue  # self taint flows via attribute reads
            chain = (
                _step(
                    self.path,
                    self.func.node.lineno,
                    f"parameter '{name}' of {self.func.qualname}",
                ),
            )
            self.env[name] = {("param", index): chain}

    def run(self) -> None:
        self.seed_params()
        self.walk_stmts(self.func.node.body, collect_returns=True)
        if self.abstract:
            old = self.summary.returns
            if old != self.returns:
                self.summary.returns = self.returns
                self.ctx.changed = True
        elif self.returns:
            self.check_return_sinks()

    # -- statements ----------------------------------------------------------

    def walk_stmts(
        self, stmts: list[ast.stmt], *, collect_returns: bool
    ) -> None:
        for stmt in stmts:
            self.walk_stmt(stmt, collect_returns=collect_returns)

    def walk_stmt(self, stmt: ast.stmt, *, collect_returns: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs run later; walk for sink hits with a copy of
            # the closed-over environment, returns discarded.
            saved = dict(self.env)
            self.walk_stmts(stmt.body, collect_returns=False)
            self.env = saved
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                _merge(self.returns, self.eval(stmt.value))
            return
        if isinstance(stmt, ast.Raise):
            self.handle_raise(stmt)
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self.handle_assign(stmt)
            return
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self.eval(stmt.test)
            self.walk_stmts(stmt.body, collect_returns=collect_returns)
            self.walk_stmts(stmt.orelse, collect_returns=collect_returns)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_taint = self.eval(stmt.iter)
            self.assign_target(stmt.target, iter_taint)
            self.walk_stmts(stmt.body, collect_returns=collect_returns)
            self.walk_stmts(stmt.orelse, collect_returns=collect_returns)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.assign_target(item.optional_vars, taint)
            self.walk_stmts(stmt.body, collect_returns=collect_returns)
            return
        if isinstance(stmt, ast.Try):
            self.walk_stmts(stmt.body, collect_returns=collect_returns)
            for handler in stmt.handlers:
                if handler.name is not None:
                    self.env[handler.name] = {}
                self.walk_stmts(
                    handler.body, collect_returns=collect_returns
                )
            self.walk_stmts(stmt.orelse, collect_returns=collect_returns)
            self.walk_stmts(
                stmt.finalbody, collect_returns=collect_returns
            )
            return
        if isinstance(stmt, (ast.Assert,)):
            self.eval(stmt.test)
            if stmt.msg is not None:
                msg_taint = self.eval(stmt.msg)
                self.sink_hit(
                    "taint-format",
                    stmt.lineno,
                    "assert message",
                    msg_taint,
                )
            return
        if isinstance(stmt, ast.Delete):
            return
        # Imports, pass, global, etc: nothing flows.

    def handle_raise(self, stmt: ast.Raise) -> None:
        if stmt.exc is None:
            return
        exc = stmt.exc
        if isinstance(exc, ast.Call):
            taints = [self.eval(a) for a in exc.args] + [
                self.eval(kw.value) for kw in exc.keywords
            ]
            self.sink_hit(
                "taint-format",
                stmt.lineno,
                "exception message",
                _union(*taints) if taints else {},
            )
        else:
            self.eval(exc)

    def handle_assign(
        self, stmt: ast.Assign | ast.AnnAssign | ast.AugAssign
    ) -> None:
        if isinstance(stmt, ast.AugAssign):
            value_taint = self.eval(stmt.value)
            existing = self.taint_of_target(stmt.target)
            self.assign_target(
                stmt.target, _union(existing, value_taint)
            )
            return
        value = stmt.value
        value_taint = self.eval(value) if value is not None else {}
        # An inline ``# taint: source(secret)`` on the assignment line
        # taints the assigned value at this occurrence.
        kind = self.func.module.taint_markers.get(stmt.lineno)
        if kind == "source":
            origin = ("src", self.path, stmt.lineno, "declared source")
            chain = (
                _step(self.path, stmt.lineno, "declared secret source"),
            )
            value_taint = dict(value_taint)
            value_taint[origin] = chain
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        for target in targets:
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(target, ast.Name)
                and stmt.annotation is not None
            ):
                inferred = annotation_name(stmt.annotation)
                if inferred is not None:
                    self.var_types[target.id] = inferred
            if (
                isinstance(target, ast.Tuple)
                and isinstance(value, ast.Tuple)
                and len(target.elts) == len(value.elts)
            ):
                for sub_target, sub_value in zip(target.elts, value.elts):
                    self.assign_target(sub_target, self.eval(sub_value))
                continue
            self.assign_target(target, value_taint)
            if isinstance(target, ast.Name) and isinstance(
                value, ast.Call
            ):
                inferred = self.type_of_call(value)
                if inferred is not None:
                    self.var_types[target.id] = inferred

    def taint_of_target(self, target: ast.expr) -> Taint:
        if isinstance(target, ast.Name):
            return dict(self.env.get(target.id, {}))
        if isinstance(target, ast.Attribute):
            return self.eval(target)
        return {}

    def assign_target(self, target: ast.expr, taint: Taint) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = dict(taint)
            return
        if isinstance(target, ast.Starred):
            self.assign_target(target.value, taint)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.assign_target(element, taint)
            return
        if isinstance(target, ast.Attribute):
            owner_type = self.type_of(target.value)
            if owner_type is None:
                return
            self.ctx.store_attr(owner_type, target.attr, taint)
            params = _params_of(taint)
            if self.abstract and params:
                for origin, chain in params.items():
                    stores = self.summary.param_stores.setdefault(
                        origin[1], []
                    )
                    entry = ((owner_type, target.attr), chain)
                    if entry not in stores:
                        stores.append(entry)
                        self.ctx.changed = True
            return
        if isinstance(target, ast.Subscript):
            # Storing secret into a container taints the container.
            base = target.value
            if isinstance(base, ast.Name):
                merged = _union(self.env.get(base.id, {}), taint)
                self.env[base.id] = merged
            elif isinstance(base, ast.Attribute):
                self.assign_target(base, taint)

    # -- light type inference ------------------------------------------------

    def type_of(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return self.var_types.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = self.type_of(node.value)
            cls = self.ctx.codebase.resolve(owner)
            if cls is None:
                return None
            return self.ctx.codebase.merged_attr_types(cls).get(node.attr)
        if isinstance(node, ast.Call):
            return self.type_of_call(node)
        return None

    def type_of_call(self, call: ast.Call) -> str | None:
        callee = self.resolve_call(call)
        if callee is not None:
            return annotation_name(callee.node.returns)
        if isinstance(call.func, ast.Name):
            if self.ctx.codebase.resolve(call.func.id) is not None:
                return call.func.id
        return None

    # -- call resolution -----------------------------------------------------

    def resolve_call(self, call: ast.Call) -> _Func | None:
        func = call.func
        if isinstance(func, ast.Name):
            target = self.ctx.funcs_by_name.get(func.id)
            if target is not None:
                return target
            cls = self.ctx.codebase.resolve(func.id)
            if cls is not None:
                return self.ctx.methods.get((cls.name, "__init__"))
            return None
        if isinstance(func, ast.Attribute):
            receiver_type = self.type_of(func.value)
            cls = self.ctx.codebase.resolve(receiver_type)
            if cls is None:
                return None
            for ancestor in self.ctx.codebase.mro(cls):
                found = self.ctx.methods.get((ancestor.name, func.attr))
                if found is not None:
                    return found
        return None

    def call_name(self, call: ast.Call) -> str | None:
        if isinstance(call.func, ast.Name):
            return call.func.id
        if isinstance(call.func, ast.Attribute):
            return call.func.attr
        return None

    # -- expressions ---------------------------------------------------------

    def eval(self, node: ast.expr | None) -> Taint:
        if node is None:
            return {}
        if isinstance(node, ast.Name):
            return dict(self.env.get(node.id, {}))
        if isinstance(node, ast.Attribute):
            self.eval(node.value)
            return self.eval_attribute(node)
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, ast.JoinedStr):
            parts = [
                self.eval(value.value)
                for value in node.values
                if isinstance(value, ast.FormattedValue)
            ]
            return _union(*parts) if parts else {}
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value)
        if isinstance(node, ast.BinOp):
            return _union(self.eval(node.left), self.eval(node.right))
        if isinstance(node, ast.BoolOp):
            return _union(*[self.eval(v) for v in node.values])
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return _union(self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, ast.Compare):
            self.eval(node.left)
            for comparator in node.comparators:
                self.eval(comparator)
            return {}
        if isinstance(node, ast.Subscript):
            self.eval(node.slice)
            return self.eval(node.value)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return _union(*[self.eval(e) for e in node.elts])
        if isinstance(node, ast.Dict):
            parts = [self.eval(k) for k in node.keys if k is not None]
            parts += [self.eval(v) for v in node.values]
            return _union(*parts) if parts else {}
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.Await):
            return self.eval(node.value)
        if isinstance(node, ast.NamedExpr):
            taint = self.eval(node.value)
            self.assign_target(node.target, taint)
            return taint
        if isinstance(node, ast.Lambda):
            saved = dict(self.env)
            self.eval(node.body)
            self.env = saved
            return {}
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
        ):
            return self.eval_comprehension(node, [node.elt])
        if isinstance(node, ast.DictComp):
            return self.eval_comprehension(node, [node.key, node.value])
        return {}

    def eval_comprehension(
        self,
        node: ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp,
        elements: list[ast.expr],
    ) -> Taint:
        saved = dict(self.env)
        for generator in node.generators:
            taint = self.eval(generator.iter)
            self.assign_target(generator.target, taint)
            for condition in generator.ifs:
                self.eval(condition)
        result = _union(*[self.eval(e) for e in elements])
        self.env = saved
        return result

    def eval_attribute(self, node: ast.Attribute) -> Taint:
        owner_type = self.type_of(node.value)
        if owner_type is None:
            return {}
        out: Taint = {}
        if self.ctx.field_is_source(owner_type, node.attr):
            origin = (
                "src",
                self.path,
                node.lineno,
                f"{owner_type}.{node.attr}",
            )
            out[origin] = (
                _step(
                    self.path,
                    node.lineno,
                    f"read of secret field {owner_type}.{node.attr}",
                ),
            )
        stored = self.ctx.attr_taint_of(owner_type, node.attr)
        for origin, chain in stored.items():
            step = _step(
                self.path, node.lineno, f"read .{node.attr}"
            )
            _merge(out, {origin: _extend(chain, step)})
        return out

    # -- calls ---------------------------------------------------------------

    def eval_call(self, call: ast.Call) -> Taint:
        arg_taints: list[tuple[ast.expr, Taint]] = []
        for arg in call.args:
            arg_taints.append((arg, self.eval(arg)))
        kw_taints: list[tuple[str | None, Taint]] = []
        for keyword in call.keywords:
            kw_taints.append((keyword.arg, self.eval(keyword.value)))
        if isinstance(call.func, ast.Attribute):
            receiver_taint = self.eval(call.func.value)
        else:
            receiver_taint = {}

        self.check_call_sinks(call, arg_taints, kw_taints)

        name = self.call_name(call)
        callee = self.resolve_call(call)

        role = callee.role if callee is not None else None
        if role == "sanitizer" or (
            name is not None and name in self.sanitizer_names()
        ):
            return {}
        if role == "source" or (
            name is not None and name in self.source_names()
        ):
            origin = (
                "src",
                self.path,
                call.lineno,
                f"{name}()",
            )
            return {
                origin: (
                    _step(
                        self.path,
                        call.lineno,
                        f"secret from {name}()",
                    ),
                )
            }

        if callee is not None:
            return self.apply_summary(call, callee, arg_taints, kw_taints)

        # Dataclass construction without an explicit __init__: the
        # generated constructor stores each argument into its field,
        # where attribute reads can pick the taint back up.
        if (
            isinstance(call.func, ast.Name)
            and call.func.id in self.ctx.dataclass_fields
        ):
            self.apply_dataclass_ctor(call, arg_taints, kw_taints)
            return {}

        if name in PASSTHROUGH_CALLS:
            return _union(*[t for _, t in arg_taints])
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in PASSTHROUGH_METHODS
        ):
            return _union(
                receiver_taint, *[t for _, t in arg_taints]
            )
        # Unknown call: clean (the under-approximation contract).
        return {}

    def source_names(self) -> set:
        return self.ctx.source_func_names

    def sanitizer_names(self) -> set:
        return self.ctx.sanitizer_func_names

    def map_call_args(
        self,
        call: ast.Call,
        callee: _Func,
        arg_taints: ArgTaints,
        kw_taints: KwTaints,
    ) -> dict[int, Taint]:
        """Map call arguments to callee parameter indices."""
        mapped: dict[int, Taint] = {}
        offset = 1 if callee.cls is not None else 0
        for position, (arg, taint) in enumerate(arg_taints):
            if isinstance(arg, ast.Starred):
                continue
            mapped[position + offset] = taint
        for kw_name, taint in kw_taints:
            if kw_name is None:
                continue
            index = callee.param_index(kw_name)
            if index is not None:
                mapped[index] = taint
        return mapped

    def apply_summary(
        self,
        call: ast.Call,
        callee: _Func,
        arg_taints: ArgTaints,
        kw_taints: KwTaints,
    ) -> Taint:
        summary = self.ctx.summary_of(callee)
        mapped = self.map_call_args(call, callee, arg_taints, kw_taints)
        call_step = _step(
            self.path, call.lineno, f"into {callee.qualname}()"
        )
        result: Taint = {}
        # Concrete returns: calling this yields secret data, whatever
        # the arguments were.
        for origin, chain in summary.returns.items():
            if origin[0] != "src":
                continue
            return_step = _step(
                self.path,
                call.lineno,
                f"returned by {callee.qualname}()",
            )
            _merge(result, {origin: _extend(chain, return_step)})
        for index, arg_taint in mapped.items():
            if not arg_taint:
                continue
            param_return = summary.returns.get(("param", index))
            for origin, chain in arg_taint.items():
                if param_return is not None:
                    spliced = _extend(chain, call_step)
                    for step in param_return:
                        spliced = _extend(spliced, step)
                    _merge(result, {origin: spliced})
                # Flow through attribute stores: the callee stashes
                # this argument on an instance.
                if origin[0] == "src":
                    for (slot, store_chain) in summary.param_stores.get(
                        index, []
                    ):
                        stored_chain = _extend(chain, call_step)
                        for step in store_chain:
                            stored_chain = _extend(stored_chain, step)
                        self.ctx.store_attr(
                            slot[0], slot[1], {origin: stored_chain}
                        )
            # Internal sinks reached by this argument.
            for (
                param_index,
                rule,
                sink_path,
                sink_line,
                sink_symbol,
                note,
                sink_chain,
            ) in summary.param_sinks:
                if param_index != index:
                    continue
                for origin, chain in arg_taint.items():
                    spliced = _extend(chain, call_step)
                    for step in sink_chain:
                        spliced = _extend(spliced, step)
                    if origin[0] == "src":
                        self.report(
                            rule,
                            sink_path,
                            sink_line,
                            sink_symbol,
                            note,
                            spliced,
                        )
                    elif self.abstract:
                        self.record_param_sink(
                            origin[1],
                            rule,
                            sink_path,
                            sink_line,
                            sink_symbol,
                            note,
                            spliced,
                        )
        return result

    def apply_dataclass_ctor(
        self, call: ast.Call, arg_taints: ArgTaints, kw_taints: KwTaints
    ) -> None:
        cls_name = call.func.id  # type: ignore[union-attr]
        fields = self.ctx.dataclass_fields.get(cls_name)
        if fields is None:
            return
        for position, (arg, taint) in enumerate(arg_taints):
            if position < len(fields) and taint:
                self.ctx.store_attr(cls_name, fields[position], taint)
        for kw_name, taint in kw_taints:
            if kw_name in fields and taint:
                self.ctx.store_attr(cls_name, kw_name, taint)

    # -- sinks ---------------------------------------------------------------

    def check_call_sinks(
        self, call: ast.Call, arg_taints: ArgTaints, kw_taints: KwTaints
    ) -> None:
        name = self.call_name(call)
        lineno = call.lineno
        all_taint = _union(
            *[t for _, t in arg_taints], *[t for _, t in kw_taints]
        )
        if isinstance(call.func, ast.Name):
            if name == "print":
                self.sink_hit(
                    "taint-format", lineno, "print()", all_taint
                )
                return
            if name in HTTP_CTORS:
                self.sink_hit(
                    "taint-flow",
                    lineno,
                    f"{name}() HTTP material",
                    all_taint,
                )
                # Falls through: also a dataclass ctor, handled above.
        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            receiver = call.func.value
            receiver_name = (
                receiver.id if isinstance(receiver, ast.Name) else None
            )
            if receiver_name is None:
                receiver_name = _self_attr(receiver)
            receiver_type = self.type_of(receiver)
            if attr in LOG_METHODS and receiver_name in LOG_RECEIVERS:
                self.sink_hit(
                    "taint-format",
                    lineno,
                    f"{receiver_name}.{attr}() log message",
                    all_taint,
                )
                return
            if attr in ("dumps", "dump") and receiver_name == "json":
                self.sink_hit(
                    "taint-stats",
                    lineno,
                    f"json.{attr}() payload",
                    all_taint,
                )
                return
            if attr in PSP_SINK_METHODS and (
                receiver_type in PSP_TYPES or receiver_name == "psp"
            ):
                self.sink_hit(
                    "taint-upload",
                    lineno,
                    f"PSP {attr}()",
                    all_taint,
                )
                return
            if (
                attr in CACHE_KEY_METHODS
                and receiver_type in CACHE_TYPES
                and call.args
            ):
                self.sink_hit(
                    "taint-cache-key",
                    lineno,
                    f"cache {attr}() key",
                    arg_taints[0][1],
                )
                return
            if (
                attr in FLIGHT_KEY_METHODS
                and receiver_type in FLIGHT_TYPES
                and call.args
            ):
                self.sink_hit(
                    "taint-cache-key",
                    lineno,
                    "single-flight key",
                    arg_taints[0][1],
                )
                return
        # Functions annotated ``# taint: sink(public)``.
        callee = self.resolve_call(call)
        if (
            callee is not None
            and callee.role == "sink"
            or (
                callee is None
                and name is not None
                and name in self.ctx.sink_funcs
            )
        ):
            sink_name = callee.qualname if callee is not None else name
            self.sink_hit(
                "taint-flow",
                lineno,
                f"declared public sink {sink_name}()",
                all_taint,
            )

    def check_return_sinks(self) -> None:
        name = self.func.node.name
        rule = None
        note = None
        if name in REPR_METHODS:
            rule, note = "taint-format", f"{name}() string"
        elif name in STATS_METHODS:
            rule, note = "taint-stats", f"{name}() payload"
        if rule is None:
            return
        self.sink_hit(
            rule, self.func.node.lineno, note, self.returns
        )

    def sink_hit(
        self, rule: str, lineno: int, note: str, taint: Taint
    ) -> None:
        if not taint:
            return
        for origin, chain in sorted(
            taint.items(), key=lambda item: repr(item[0])
        ):
            final = _extend(
                chain, _step(self.path, lineno, f"reaches {note}")
            )
            if origin[0] == "src":
                self.report(
                    rule,
                    self.path,
                    lineno,
                    self.func.qualname,
                    note,
                    final,
                )
            elif self.abstract:
                self.record_param_sink(
                    origin[1],
                    rule,
                    self.path,
                    lineno,
                    self.func.qualname,
                    note,
                    final,
                )

    def record_param_sink(
        self,
        param_index: int,
        rule: str,
        path: str,
        line: int,
        symbol: str,
        note: str,
        chain: Chain,
    ) -> None:
        entry = (param_index, rule, path, line, symbol, note, chain)
        known = [
            (p, r, pa, li, sy, no)
            for p, r, pa, li, sy, no, _ in self.summary.param_sinks
        ]
        if (param_index, rule, path, line, symbol, note) in known:
            return
        self.summary.param_sinks.append(entry)
        self.ctx.changed = True

    def report(
        self,
        rule: str,
        path: str,
        line: int,
        symbol: str,
        note: str,
        chain: Chain,
    ) -> None:
        if self.emit is None:
            return
        origin_desc = (
            chain[0].note if chain else "a declared secret source"
        )
        self.emit.append(
            Finding(
                path=path,
                line=line,
                rule=rule,
                symbol=symbol,
                message=(
                    f"secret data ({origin_desc}) reaches {note}; "
                    "route through a sanitizer (key_digest / "
                    "seal_envelope) or suppress with a reason"
                ),
                witness=chain,
            )
        )


# -- structural check: dataclass implicit reprs -------------------------------


def _field_disables_repr(stmt: ast.AnnAssign) -> bool:
    value = stmt.value
    if not isinstance(value, ast.Call):
        return False
    func_name = None
    if isinstance(value.func, ast.Name):
        func_name = value.func.id
    elif isinstance(value.func, ast.Attribute):
        func_name = value.func.attr
    if func_name != "field":
        return False
    for keyword in value.keywords:
        if (
            keyword.arg == "repr"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is False
        ):
            return True
    return False


def _check_dataclass_reprs(
    codebase: Codebase, source_fields: set
) -> list[Finding]:
    """A ``@dataclass`` with a secret field renders its raw bytes in the
    generated ``__repr__`` unless the field opts out with
    ``field(repr=False)`` or the class writes its own ``__repr__``."""
    findings: list[Finding] = []
    for cls in codebase.classes:
        if not cls.is_dataclass:
            continue
        if cls.method("__repr__") is not None:
            continue
        for stmt in cls.node.body:
            if not (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ):
                continue
            field_name = stmt.target.id
            if (cls.name, field_name) not in source_fields:
                continue
            if _field_disables_repr(stmt):
                continue
            findings.append(
                Finding(
                    path=cls.path,
                    line=stmt.lineno,
                    rule="taint-format",
                    symbol=f"{cls.name}.{field_name}",
                    message=(
                        "secret field rendered by the generated "
                        "dataclass __repr__; declare it with "
                        "field(repr=False) or write a redacting "
                        "__repr__"
                    ),
                    witness=(
                        _step(
                            cls.path,
                            stmt.lineno,
                            f"secret field {cls.name}.{field_name}",
                        ),
                        _step(
                            cls.path,
                            cls.lineno,
                            "rendered by the implicit dataclass "
                            "__repr__",
                        ),
                    ),
                )
            )
    return findings


# -- driver -------------------------------------------------------------------


def _collect_funcs(codebase: Codebase) -> list[_Func]:
    funcs: list[_Func] = []
    for module in codebase.modules:
        for info in module.functions:
            funcs.append(
                _Func(
                    qualname=info.name,
                    node=info.node,
                    module=module,
                )
            )
        for cls in module.classes:
            for method in cls.methods:
                funcs.append(
                    _Func(
                        qualname=f"{cls.name}.{method.name}",
                        node=method.node,
                        module=module,
                        cls=cls,
                    )
                )
    return funcs


def _dataclass_field_order(codebase: Codebase) -> dict:
    fields: dict[str, list[str]] = {}
    for cls in codebase.classes:
        if not cls.is_dataclass:
            continue
        names: list[str] = []
        for stmt in cls.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                if stmt.target.id.startswith("_"):
                    continue
                names.append(stmt.target.id)
        fields[cls.name] = names
    return fields


def check(codebase: Codebase) -> list[Finding]:
    findings: list[Finding] = []
    all_funcs = _collect_funcs(codebase)
    source_fields = set(SOURCE_FIELDS)
    _attach_markers(codebase, all_funcs, source_fields, findings)

    funcs_by_name: dict[str, _Func] = {}
    methods: dict[tuple[str, str], _Func] = {}
    for func in all_funcs:
        if func.cls is None:
            funcs_by_name.setdefault(func.node.name, func)
        else:
            methods.setdefault((func.cls.name, func.node.name), func)

    source_func_names = set(SOURCE_FUNCS)
    sanitizer_func_names = set(SANITIZER_FUNCS)
    sink_funcs = set()
    for func in all_funcs:
        if func.role == "source":
            source_func_names.add(func.node.name)
        elif func.role == "sanitizer":
            sanitizer_func_names.add(func.node.name)
        elif func.role == "sink":
            sink_funcs.add(func.node.name)

    ctx = _Context(
        codebase=codebase,
        source_fields=source_fields,
        funcs_by_name=funcs_by_name,
        methods=methods,
        dataclass_fields=_dataclass_field_order(codebase),
        summaries={},
        attr_taint={},
        source_func_names=source_func_names,
        sanitizer_func_names=sanitizer_func_names,
        sink_funcs=sink_funcs,
    )

    # Phase 1: summary fixpoint.  Each round analyzes every function
    # with abstract parameter taint; attribute stores and summaries
    # accumulate until stable.
    for _ in range(MAX_ROUNDS):
        ctx.changed = False
        for func in all_funcs:
            if func.role == "sanitizer":
                # Body still analyzed for internal sinks, but its
                # summary must stay empty: callers get clean data.
                analysis = _FunctionAnalysis(ctx, func, abstract=True)
                analysis.summary = _Summary()  # throwaway
                analysis.run()
                continue
            _FunctionAnalysis(ctx, func, abstract=True).run()
        if not ctx.changed:
            break

    # Phase 2: the reporting pass — concrete flows only.
    raw: list[Finding] = []
    for func in all_funcs:
        _FunctionAnalysis(ctx, func, abstract=False, emit=raw).run()

    raw.extend(_check_dataclass_reprs(codebase, source_fields))

    # Dedup: one finding per (path, line, rule, symbol), keeping the
    # shortest witness chain (the raw list may carry the same arrival
    # via several call paths).
    best: dict[tuple, Finding] = {}
    for finding in raw:
        key = (finding.path, finding.line, finding.rule, finding.symbol)
        existing = best.get(key)
        if existing is None or len(finding.witness) < len(
            existing.witness
        ):
            best[key] = finding
    findings.extend(best.values())
    return findings
