"""AST collection: everything the rules share.

One pass over the analyzed files builds a :class:`Codebase` — classes,
their methods, the locks they create, the attributes they declare
guarded, light attribute-type inference, Protocol definitions, backend
registrations, and suppression comments.  The rules are then pure
functions over that model.

Declaration conventions recognized here (documented in
``tools/relint/README.md``):

* ``_GUARDED_BY = {"attr": "_lock", "counter": "_lock:writes"}`` — a
  class-level map from attribute name to the lock that guards it.  The
  ``:writes`` mode guards mutations only (reads of atomically-replaced
  scalars are allowed anywhere).
* ``self.attr = ...  # guarded-by: _lock`` — the inline equivalent, on
  the attribute's initializing assignment.
* ``def _helper(self):  # guarded-by: _lock`` — on a ``def`` line the
  comment means *callers hold the lock*: the body is analyzed as
  lock-held, and calling the helper without the lock is a violation.
* ``# relint: implements PSPBackend`` — on a ``class`` line, opts the
  class into protocol-conformance checking even when it is not
  registered with the backend registry (the composites).
* ``# relint: ignore[rule] -- reason`` — suppression with mandatory
  justification.
* ``# taint: source(secret)`` / ``# taint: sink(public)`` /
  ``# taint: sanitizer`` — secret-domain annotations for the
  ``taint-*`` rules.  On a ``def`` line they describe the function
  (returns secret / publishes its arguments / returns
  clean data however tainted its inputs); on a dataclass field or an
  assignment, ``source(secret)`` marks the stored value as secret.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from tools.relint.model import GuardSpec

GUARD_COMMENT = re.compile(r"#\s*guarded-by:\s*([A-Za-z_]\w*(?::\w+)?)")
SUPPRESS_COMMENT = re.compile(
    r"#\s*relint:\s*ignore\[([a-z\-]+(?:\s*,\s*[a-z\-]+)*)\]"
    r"(?:\s*--\s*(.*\S))?"
)
IMPLEMENTS_COMMENT = re.compile(
    r"#\s*relint:\s*implements\s+([A-Za-z_]\w*)"
)
#: Any ``# taint:`` marker at all (used to catch malformed spellings).
TAINT_COMMENT = re.compile(r"#\s*taint:\s*(\S[^#]*?)\s*(?:#|$)")
#: The three well-formed taint marker spellings.
TAINT_KINDS = {
    "source(secret)": "source",
    "sink(public)": "sink",
    "sanitizer": "sanitizer",
}

#: Callables whose result is a mutual-exclusion lock.
_LOCK_FACTORIES = {"Lock": "Lock", "RLock": "RLock"}


@dataclass
class MethodInfo:
    """One function defined in a class body."""

    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    lineno: int
    is_property: bool = False
    holds_lock: str | None = None  # "callers hold this lock" marker


@dataclass
class Registration:
    """One ``register_psp``/``register_storage`` call site."""

    kind: str  # "psp" | "storage"
    backend_name: str | None  # the string the backend is registered as
    class_name: str | None  # resolved factory class, when inferable
    path: str
    lineno: int


@dataclass
class ClassInfo:
    """Everything relint knows about one class definition."""

    name: str
    path: str
    node: ast.ClassDef
    lineno: int
    base_names: list[str] = field(default_factory=list)
    is_protocol: bool = False
    is_dataclass: bool = False
    methods: list[MethodInfo] = field(default_factory=list)
    guarded: dict[str, GuardSpec] = field(default_factory=dict)
    locks: dict[str, str] = field(default_factory=dict)  # attr -> kind
    attr_types: dict[str, str] = field(default_factory=dict)
    class_attrs: set[str] = field(default_factory=set)
    self_attrs: set[str] = field(default_factory=set)
    properties: set[str] = field(default_factory=set)
    #: Protocol-only: annotated class attributes without a value
    #: (``name: str``) that implementations must provide.
    proto_attrs: dict[str, int] = field(default_factory=dict)
    implements: list[str] = field(default_factory=list)

    def method(self, name: str) -> MethodInfo | None:
        for info in self.methods:
            if info.name == name:
                return info
        return None


@dataclass
class ModuleInfo:
    path: str
    lines: list[str]
    tree: ast.Module
    classes: list[ClassInfo] = field(default_factory=list)
    #: Module-level (top-level) function definitions.
    functions: list[MethodInfo] = field(default_factory=list)
    registrations: list[Registration] = field(default_factory=list)
    #: ``# taint:`` markers by 1-based line: line -> kind
    #: ("source" | "sink" | "sanitizer").
    taint_markers: dict[int, str] = field(default_factory=dict)
    #: Malformed declarations, surfaced as ``bad-declaration`` findings.
    problems: list[tuple[int, str]] = field(default_factory=list)


def annotation_name(node: ast.expr | None) -> str | None:
    """The class name an annotation resolves to, best effort.

    Handles ``X``, ``"X"`` (string annotations), ``X | None``,
    ``Optional[X]``, and ``module.X`` (the final attribute).  Generic
    containers resolve to their origin (``Sequence[BlobStore]`` →
    ``Sequence``), which the rules treat as unknown — receiver-type
    checks stay conservative.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
        return annotation_name(node)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = annotation_name(node.left)
        if left is not None and left != "None":
            return left
        return annotation_name(node.right)
    if isinstance(node, ast.Subscript):
        base = annotation_name(node.value)
        if base == "Optional":
            return annotation_name(
                node.slice if isinstance(node.slice, ast.expr) else None
            )
        return base
    return None


def _line_markers(
    lines: list[str], start: int, stop: int, pattern: re.Pattern[str]
) -> list[tuple[int, re.Match[str]]]:
    """Regex matches of ``pattern`` in 1-based source lines [start, stop]."""
    found = []
    for lineno in range(max(start, 1), min(stop, len(lines)) + 1):
        match = pattern.search(lines[lineno - 1])
        if match is not None:
            found.append((lineno, match))
    return found


def _self_attr(node: ast.expr) -> str | None:
    """``self.<attr>`` → attr name, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _value_type(node: ast.expr) -> str | None:
    """Infer a class name from an assignment's right-hand side."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    if isinstance(node, ast.BoolOp):
        # ``self._lock = lock or threading.Lock()``: any operand that is
        # a constructor call names the type.
        for operand in node.values:
            inferred = _value_type(operand)
            if inferred is not None:
                return inferred
    return None


def _param_annotations(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, str]:
    """Parameter name -> annotated class name, for type inference."""
    names: dict[str, str] = {}
    args = fn.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        inferred = annotation_name(arg.annotation)
        if inferred is not None:
            names[arg.arg] = inferred
    return names


def _is_property_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("property", "cached_property")
    if isinstance(node, ast.Attribute):
        # ``@maxsize.setter`` and friends count: same attribute name.
        return node.attr in ("setter", "getter", "deleter")
    return False


def _collect_method(
    cls: ClassInfo,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    lines: list[str],
) -> MethodInfo:
    info = MethodInfo(name=node.name, node=node, lineno=node.lineno)
    for decorator in node.decorator_list:
        if _is_property_decorator(decorator):
            info.is_property = True
            cls.properties.add(node.name)
    # A ``# guarded-by:`` comment anywhere on the signature lines (from
    # the ``def`` to the line before the first body statement) marks
    # the method as running with the lock already held.
    body_start = node.body[0].lineno if node.body else node.lineno
    for lineno, match in _line_markers(
        lines, node.lineno, max(node.lineno, body_start - 1), GUARD_COMMENT
    ):
        spec_text = match.group(1)
        if ":" in spec_text:
            raise _Problem(
                lineno,
                f"method marker {spec_text!r} must name a bare lock "
                "(no ':writes' mode on def lines)",
            )
        info.holds_lock = spec_text
    return info


class _Problem(Exception):
    """A malformed declaration, carrying its line and message."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(message)
        self.lineno = lineno
        self.message = message


def _parse_guarded_by_map(
    cls: ClassInfo, stmt: ast.Assign | ast.AnnAssign, module: ModuleInfo
) -> None:
    value = stmt.value
    if value is None:
        return
    if not isinstance(value, ast.Dict):
        module.problems.append(
            (stmt.lineno, f"{cls.name}._GUARDED_BY must be a dict literal")
        )
        return
    for key_node, value_node in zip(value.keys, value.values):
        if not (
            isinstance(key_node, ast.Constant)
            and isinstance(key_node.value, str)
            and isinstance(value_node, ast.Constant)
            and isinstance(value_node.value, str)
        ):
            module.problems.append(
                (
                    stmt.lineno,
                    f"{cls.name}._GUARDED_BY entries must be "
                    "str -> str literals",
                )
            )
            continue
        try:
            cls.guarded[key_node.value] = GuardSpec.parse(value_node.value)
        except ValueError as error:
            module.problems.append((value_node.lineno, str(error)))


def _scan_method_body(
    cls: ClassInfo, info: MethodInfo, module: ModuleInfo
) -> None:
    """Record self-attribute assignments: types, locks, inline guards."""
    params = _param_annotations(info.node)
    for node in ast.walk(info.node):
        target_attr: str | None = None
        value: ast.expr | None = None
        annotation: ast.expr | None = None
        if isinstance(node, ast.Assign):
            value = node.value
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    target_attr = attr
        elif isinstance(node, ast.AnnAssign):
            target_attr = _self_attr(node.target)
            value = node.value
            annotation = node.annotation
        elif isinstance(node, ast.AugAssign):
            target_attr = _self_attr(node.target)
        if target_attr is None:
            continue
        cls.self_attrs.add(target_attr)
        # Inline guard declaration on the assignment's line.
        for lineno, match in _line_markers(
            module.lines, node.lineno, node.lineno, GUARD_COMMENT
        ):
            try:
                cls.guarded[target_attr] = GuardSpec.parse(match.group(1))
            except ValueError as error:
                module.problems.append((lineno, str(error)))
        # Lock creation and type inference.
        inferred: str | None = None
        if annotation is not None:
            inferred = annotation_name(annotation)
        if value is not None:
            from_value = _value_type(value)
            if from_value in _LOCK_FACTORIES:
                cls.locks[target_attr] = _LOCK_FACTORIES[from_value]
                continue
            if from_value is not None:
                inferred = from_value
            elif isinstance(value, ast.Name) and value.id in params:
                inferred = params[value.id]
            elif isinstance(value, ast.BoolOp):
                for operand in value.values:
                    if (
                        isinstance(operand, ast.Name)
                        and operand.id in params
                    ):
                        inferred = params[operand.id]
                        break
        if inferred is not None and target_attr not in cls.attr_types:
            cls.attr_types[target_attr] = inferred


def _collect_class(node: ast.ClassDef, module: ModuleInfo) -> ClassInfo:
    cls = ClassInfo(
        name=node.name, path=module.path, node=node, lineno=node.lineno
    )
    for base in node.bases:
        name = annotation_name(base)
        if name is not None:
            cls.base_names.append(name)
    cls.is_protocol = "Protocol" in cls.base_names
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = annotation_name(target)
        if name == "dataclass":
            cls.is_dataclass = True
    # ``# relint: implements X`` on the class line or the line above.
    for _, match in _line_markers(
        module.lines, node.lineno - 1, node.lineno, IMPLEMENTS_COMMENT
    ):
        cls.implements.append(match.group(1))
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            try:
                info = _collect_method(cls, stmt, module.lines)
            except _Problem as problem:
                module.problems.append((problem.lineno, problem.message))
                info = MethodInfo(
                    name=stmt.name, node=stmt, lineno=stmt.lineno
                )
            cls.methods.append(info)
            _scan_method_body(cls, info, module)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if target.id == "_GUARDED_BY":
                        _parse_guarded_by_map(cls, stmt, module)
                    else:
                        cls.class_attrs.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            if stmt.target.id == "_GUARDED_BY":
                _parse_guarded_by_map(cls, stmt, module)
            elif stmt.value is None:
                if cls.is_protocol:
                    cls.proto_attrs[stmt.target.id] = stmt.lineno
            else:
                cls.class_attrs.add(stmt.target.id)
    return cls


def _factory_class_name(node: ast.expr) -> str | None:
    """Resolve a registration's factory expression to a class name."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Lambda):
        # ``lambda **kw: CloudStorage(name="memory", **kw)``
        if isinstance(node.body, ast.Call):
            return _factory_class_name(node.body.func)
    return None


def _collect_registrations(module: ModuleInfo) -> None:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            call_name = func.attr
        elif isinstance(func, ast.Name):
            call_name = func.id
        else:
            continue
        if call_name not in ("register_psp", "register_storage"):
            continue
        if len(node.args) < 2:
            continue
        backend_name = None
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            backend_name = first.value
        class_name = _factory_class_name(node.args[1])
        module.registrations.append(
            Registration(
                kind="psp" if call_name == "register_psp" else "storage",
                backend_name=backend_name,
                class_name=class_name,
                path=module.path,
                lineno=node.lineno,
            )
        )


def _collect_taint_markers(module: ModuleInfo) -> None:
    """Parse ``# taint:`` comments; malformed spellings become problems."""
    for lineno, line in enumerate(module.lines, start=1):
        match = TAINT_COMMENT.search(line)
        if match is None:
            continue
        spelled = match.group(1).strip()
        kind = TAINT_KINDS.get(spelled)
        if kind is None:
            module.problems.append(
                (
                    lineno,
                    f"bad taint marker {spelled!r}; expected one of "
                    + ", ".join(repr(k) for k in TAINT_KINDS),
                )
            )
            continue
        module.taint_markers[lineno] = kind


def parse_module(path: Path, display_path: str) -> ModuleInfo:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    module = ModuleInfo(
        path=display_path, lines=source.splitlines(), tree=tree
    )
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            module.classes.append(_collect_class(node, module))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.functions.append(
                MethodInfo(name=node.name, node=node, lineno=node.lineno)
            )
    _collect_registrations(module)
    _collect_taint_markers(module)
    return module


class Codebase:
    """The parsed modules plus cross-module resolution helpers."""

    def __init__(self, modules: list[ModuleInfo]) -> None:
        self.modules = modules
        self.classes: list[ClassInfo] = [
            cls for module in modules for cls in module.classes
        ]
        self._by_name: dict[str, ClassInfo] = {}
        for cls in self.classes:
            # First definition wins on (rare) name collisions; rules
            # stay deterministic either way.
            self._by_name.setdefault(cls.name, cls)

    def resolve(self, name: str | None) -> ClassInfo | None:
        if name is None:
            return None
        return self._by_name.get(name)

    def mro(self, cls: ClassInfo) -> list[ClassInfo]:
        """The class and its parsed ancestors, nearest first."""
        chain: list[ClassInfo] = []
        seen: set[str] = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current.name in seen:
                continue
            seen.add(current.name)
            chain.append(current)
            for base in current.base_names:
                parent = self.resolve(base)
                if parent is not None:
                    queue.append(parent)
        return chain

    def merged_guards(self, cls: ClassInfo) -> dict[str, GuardSpec]:
        merged: dict[str, GuardSpec] = {}
        for ancestor in reversed(self.mro(cls)):
            merged.update(ancestor.guarded)
        return merged

    def merged_locks(self, cls: ClassInfo) -> dict[str, str]:
        merged: dict[str, str] = {}
        for ancestor in reversed(self.mro(cls)):
            merged.update(ancestor.locks)
        return merged

    def merged_attr_types(self, cls: ClassInfo) -> dict[str, str]:
        merged: dict[str, str] = {}
        for ancestor in reversed(self.mro(cls)):
            merged.update(ancestor.attr_types)
        return merged

    def merged_properties(self, cls: ClassInfo) -> set[str]:
        names: set[str] = set()
        for ancestor in self.mro(cls):
            names.update(ancestor.properties)
        return names

    def find_method(
        self, cls: ClassInfo, name: str
    ) -> tuple[ClassInfo, MethodInfo] | None:
        for ancestor in self.mro(cls):
            info = ancestor.method(name)
            if info is not None:
                return ancestor, info
        return None

    def lock_owner(self, cls: ClassInfo, attr: str) -> ClassInfo | None:
        """The ancestor whose ``__init__`` creates ``self.<attr>``."""
        for ancestor in self.mro(cls):
            if attr in ancestor.locks:
                return ancestor
        return None

    def holds_lock(self, cls: ClassInfo, method_name: str) -> str | None:
        found = self.find_method(cls, method_name)
        if found is None:
            return None
        return found[1].holds_lock


# -- the lock-region walker ---------------------------------------------------


@dataclass
class NodeEvent:
    """One AST node seen while walking a method, with lock context."""

    node: ast.AST
    held: tuple[str, ...]  # lock attrs held, outermost first
    in_closure: bool


@dataclass
class AcquireEvent:
    """One ``with self.<lock>`` acquisition inside a method."""

    lock_attr: str
    held_before: tuple[str, ...]
    lineno: int


def walk_lock_regions(
    codebase: Codebase, cls: ClassInfo, method: MethodInfo
) -> tuple[list[NodeEvent], list[AcquireEvent]]:
    """Walk a method body tracking which instance locks are held.

    ``with self.<lock>`` blocks extend the held set for their body.
    Nested ``def``/``lambda`` bodies run *later*, so they are walked
    with an empty held set and flagged ``in_closure`` (deferred work
    never inherits the caller's critical section).  A ``# guarded-by``
    marker on the method seeds the initial held set — the caller-holds
    contract.
    """
    locks = codebase.merged_locks(cls)
    nodes: list[NodeEvent] = []
    acquires: list[AcquireEvent] = []
    initial: tuple[str, ...] = ()
    if method.holds_lock is not None and method.holds_lock in locks:
        initial = (method.holds_lock,)

    def lock_of(expr: ast.expr) -> str | None:
        attr = _self_attr(expr)
        if attr is not None and attr in locks:
            return attr
        return None

    def visit(node: ast.AST, held: tuple[str, ...], closure: bool) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: list[str] = []
            for item in node.items:
                attr = lock_of(item.context_expr)
                if attr is not None:
                    acquires.append(
                        AcquireEvent(attr, held, item.context_expr.lineno)
                    )
                    acquired.append(attr)
                else:
                    visit(item.context_expr, held, closure)
                if item.optional_vars is not None:
                    visit(item.optional_vars, held, closure)
            inner = held + tuple(acquired)
            for stmt in node.body:
                visit(stmt, inner, closure)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                visit(decorator, held, closure)
            for stmt in node.body:
                visit(stmt, (), True)
            return
        if isinstance(node, ast.Lambda):
            visit(node.body, (), True)
            return
        nodes.append(NodeEvent(node, held, closure))
        for child in ast.iter_child_nodes(node):
            visit(child, held, closure)

    for stmt in method.node.body:
        visit(stmt, initial, False)
    return nodes, acquires


def resolve_call_target(
    codebase: Codebase, cls: ClassInfo, call: ast.Call
) -> tuple[ClassInfo, MethodInfo] | None:
    """Resolve ``self.m()``, ``super().m()`` and ``self.attr.m()`` calls."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    receiver = func.value
    if isinstance(receiver, ast.Name) and receiver.id == "self":
        return codebase.find_method(cls, func.attr)
    if (
        isinstance(receiver, ast.Call)
        and isinstance(receiver.func, ast.Name)
        and receiver.func.id == "super"
    ):
        for base_name in cls.base_names:
            base = codebase.resolve(base_name)
            if base is not None:
                found = codebase.find_method(base, func.attr)
                if found is not None:
                    return found
        return None
    attr = _self_attr(receiver)
    if attr is not None:
        type_name = codebase.merged_attr_types(cls).get(attr)
        target = codebase.resolve(type_name)
        if target is not None:
            return codebase.find_method(target, func.attr)
    return None
