"""Per-module fact extraction for the whole-program analyzer.

One AST pass per file (the same parse the single-module rules use)
produces a :class:`ModuleSummary`: a plain-data, picklable fact sheet
that the :class:`~repro.analysis.graph.project.ProjectGraph` assembles
into the cross-module import and call graphs.  Keeping the summary
AST-free is what lets the engine drop each tree after its file is linted
and build the graph afterwards without re-reading anything.

Call references are recorded as small tagged tuples so resolution can
be finished later, once every module is known:

* ``("dotted", "time.sleep")`` — alias-resolved dotted call; local
  top-level functions/classes are qualified with the module name
  (``("dotted", "repro.streaming.wal.encode_frame")``);
* ``("self", "method")`` — ``self.method()`` inside a class body;
* ``("selfattr", "service", "recommend")`` — ``self.service.recommend()``,
  resolved later through the class's attribute-type table;
* ``("typed", <class ref>, "method")`` — ``var.method()`` where ``var``
  has a known class from an annotation or a constructor assignment;
* ``("attr", "method")`` — an attribute call whose receiver could not
  be typed; kept so name-based matchers (e.g. the blocking-call list)
  still see the tail.

``lambda`` bodies are deliberately *not* scanned for calls: a lambda
handed to ``run_in_executor``/``to_thread`` runs on a worker thread,
not in the enclosing (possibly async) function, so drawing a call edge
through it would be wrong for exactly the rules that need the graph.
Nested ``def``s become their own summaries (qualified with
``<locals>``) and get a call edge only where they are actually called.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

#: Call-reference tuple; see the module docstring for the encodings.
CallRef = tuple[str, ...]

_LOCK_FACTORIES = frozenset(
    {"threading.Lock", "threading.RLock", "threading.Condition", "multiprocessing.Lock"}
)

#: numpy array constructors whose ``dtype=`` keyword fixes the result dtype.
_NP_ARRAY_MAKERS = frozenset(
    {
        "numpy.asarray",
        "numpy.array",
        "numpy.zeros",
        "numpy.ones",
        "numpy.empty",
        "numpy.full",
        "numpy.zeros_like",
        "numpy.ones_like",
        "numpy.empty_like",
        "numpy.full_like",
    }
)

_WRITE_ATTRS = frozenset({"write_text", "write_bytes"})


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    ref: CallRef
    line: int
    col: int
    held_locks: tuple[str, ...] = ()


@dataclass(frozen=True)
class LockAcquire:
    """One lock acquisition (``with self.<lock>`` or ``<lock>.acquire()``)."""

    attr: str
    line: int
    col: int
    held_locks: tuple[str, ...] = ()
    blocking: bool = True  # False for .acquire(blocking=False) / timeout=...
    explicit: bool = False  # True for `.acquire()` calls (vs `with self.<lock>`)


@dataclass(frozen=True)
class WriteSite:
    """One raw (non-atomic) file-write expression."""

    line: int
    col: int
    what: str


@dataclass(frozen=True)
class DtypeSite:
    """One arithmetic BinOp with reduced operand provenance (REP010)."""

    left: CallRef
    right: CallRef
    line: int
    col: int


@dataclass(frozen=True)
class FunctionSummary:
    """One function or method (nested defs use ``<locals>`` qualnames)."""

    qualname: str  # "func", "Class.method", "outer.<locals>.inner"
    line: int
    is_async: bool = False
    cls: str | None = None
    params: tuple[str, ...] = ()
    returns: str | None = None  # alias-resolved annotation ref, best effort
    calls: tuple[CallSite, ...] = ()
    acquires: tuple[LockAcquire, ...] = ()
    writes: tuple[WriteSite, ...] = ()
    assigns: tuple[tuple[str, CallRef], ...] = ()
    dtype_sites: tuple[DtypeSite, ...] = ()


@dataclass(frozen=True)
class ClassSummary:
    """One class: bases, methods, lock attributes, typed attributes."""

    name: str
    line: int
    bases: tuple[str, ...] = ()  # alias-resolved refs ("repro.obs.registry.MetricsRegistry")
    lock_attrs: tuple[str, ...] = ()
    attr_types: tuple[tuple[str, str], ...] = ()  # self.<attr> -> class/"call:<fn>" ref
    methods: tuple[str, ...] = ()


@dataclass(frozen=True)
class ImportEdge:
    """One import statement, kept raw for later module resolution."""

    target: str  # dotted module as written (relative imports absolutized)
    names: tuple[str, ...] = ()  # names pulled by `from target import ...`
    line: int = 0
    lazy: bool = False  # inside a function body (deferred at runtime)


@dataclass
class ModuleSummary:
    """Everything the project graph needs to know about one module."""

    name: str
    relpath: str
    package: str
    imports: tuple[ImportEdge, ...] = ()
    aliases: dict[str, str] = field(default_factory=dict)
    reexports: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)


def module_name_for(relpath: str) -> str:
    """Dotted module name for a ``/``-separated repo-relative path.

    ``src/repro/edge/http.py`` -> ``repro.edge.http``;
    ``benchmarks/bench_scale.py`` -> ``benchmarks.bench_scale``;
    ``src/repro/edge/__init__.py`` -> ``repro.edge``.
    """
    parts = [part for part in relpath.split("/") if part]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "<module>"


def _annotation_ref(node: ast.expr | None, aliases: dict[str, str]) -> str | None:
    """Best-effort dotted class ref of a type annotation."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        head, _, rest = node.value.partition(".")
        resolved = aliases.get(head, head)
        return f"{resolved}.{rest}" if rest else resolved
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_ref(node.left, aliases)
        return left if left is not None else _annotation_ref(node.right, aliases)
    if isinstance(node, ast.Subscript):
        # Optional[X] / list[X]: the head type is what matters, except
        # Optional where the argument is the interesting part.
        base = _dotted(node.value, aliases)
        if base and base.rsplit(".", 1)[-1] == "Optional":
            inner = node.slice
            return _annotation_ref(inner, aliases)
        return base
    return _dotted(node, aliases)


def _dotted(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Alias-resolved dotted name of a Name/Attribute chain, or None."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(aliases.get(current.id, current.id))
    return ".".join(reversed(parts))


def _is_float_dtype(node: ast.expr, aliases: dict[str, str], bits: int) -> bool:
    token = f"float{bits}"
    if isinstance(node, ast.Constant) and node.value == token:
        return True
    dotted = _dotted(node, aliases)
    return dotted == f"numpy.{token}"


def _dtype_keyword(call: ast.Call) -> ast.expr | None:
    for keyword in call.keywords:
        if keyword.arg == "dtype":
            return keyword.value
    return None


def _write_mode_literal(call: ast.Call, *, mode_position: int) -> str | None:
    mode: ast.expr | None = None
    if len(call.args) > mode_position:
        mode = call.args[mode_position]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        if any(flag in mode.value for flag in ("w", "a", "x")):
            return mode.value
    return None


class _FunctionScan(ast.NodeVisitor):
    """Walk one function body collecting calls, locks, writes, dtypes.

    Lambda bodies are skipped entirely; nested def/async-def bodies are
    skipped here (they are summarized separately) but their *names* stay
    resolvable so ``inner()`` gets an edge to the nested summary.
    """

    def __init__(
        self,
        module: str,
        aliases: dict[str, str],
        cls: ClassSummary | None,
        qualname: str,
        toplevel: frozenset[str],
        local_funcs: dict[str, str],
    ) -> None:
        self.module = module
        self.aliases = aliases
        self.cls = cls
        self.qualname = qualname
        self.toplevel = toplevel
        self.local_funcs = local_funcs  # bare name -> qualified "<outer>.<locals>.<name>"
        self.calls: list[CallSite] = []
        self.acquires: list[LockAcquire] = []
        self.writes: list[WriteSite] = []
        self.assigns: list[tuple[str, CallRef]] = []
        self.dtype_sites: list[DtypeSite] = []
        self.var_types: dict[str, str] = {}
        self._lock_stack: list[str] = []

    # -- reference reduction --------------------------------------------
    def call_ref(self, func: ast.expr) -> CallRef:
        parts: list[str] = []
        current = func
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        parts.reverse()
        if isinstance(current, ast.Name):
            head = current.id
            if head == "self" and self.cls is not None:
                if len(parts) == 1:
                    return ("self", parts[0])
                if len(parts) == 2:
                    return ("selfattr", parts[0], parts[1])
                return ("attr", parts[-1])
            if not parts:
                if head in self.local_funcs:
                    return ("dotted", f"{self.module}.{self.local_funcs[head]}")
                if head in self.toplevel:
                    return ("dotted", f"{self.module}.{self.aliases.get(head, head)}")
                return ("dotted", self.aliases.get(head, head))
            if head in self.var_types and len(parts) == 1:
                return ("typed", self.var_types[head], parts[0])
            resolved_head = self.aliases.get(head, head)
            if "." not in resolved_head and head in self.toplevel:
                resolved_head = f"{self.module}.{resolved_head}"
            return ("dotted", ".".join([resolved_head, *parts]))
        if parts:
            return ("attr", parts[-1])
        return ("attr", "<expr>")

    def _expr_ref(self, node: ast.expr, depth: int = 0) -> CallRef:
        if depth > 4:
            return ("other",)
        if isinstance(node, ast.Name):
            return ("name", node.id)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.MatMult)
        ):
            return (
                "binop",
                self._expr_ref(node.left, depth + 1),  # type: ignore[arg-type]
                self._expr_ref(node.right, depth + 1),  # type: ignore[arg-type]
            )
        if isinstance(node, ast.Call):
            cast = self._cast_bits(node)
            if cast is not None:
                return (f"cast{cast}",)
            return ("call",) + (self.call_ref(node.func),)  # type: ignore[return-value]
        return ("other",)

    def _cast_bits(self, call: ast.Call) -> int | None:
        """32/64 when the call visibly fixes a float dtype, else None."""
        dotted = _dotted(call.func, self.aliases)
        for bits in (32, 64):
            if dotted == f"numpy.float{bits}":
                return bits
        if isinstance(call.func, ast.Attribute) and call.func.attr == "astype" and call.args:
            for bits in (32, 64):
                if _is_float_dtype(call.args[0], self.aliases, bits):
                    return bits
        if dotted in _NP_ARRAY_MAKERS:
            keyword = _dtype_keyword(call)
            if keyword is not None:
                for bits in (32, 64):
                    if _is_float_dtype(keyword, self.aliases, bits):
                        return bits
        return None

    # -- visitors --------------------------------------------------------
    def visit_Lambda(self, node: ast.Lambda) -> None:
        return  # deferred body: runs elsewhere, draws no call edges here

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return  # nested defs are summarized separately

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        taken: list[str] = []
        for item in node.items:
            attr = self._self_lock_attr(item.context_expr)
            if attr is not None:
                self.acquires.append(
                    LockAcquire(
                        attr,
                        item.context_expr.lineno,
                        item.context_expr.col_offset,
                        held_locks=tuple(self._lock_stack),
                    )
                )
                taken.append(attr)
            else:
                self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        self._lock_stack.extend(taken)
        for statement in node.body:
            self.visit(statement)
        for _ in taken:
            self._lock_stack.pop()

    def _self_lock_attr(self, node: ast.expr) -> str | None:
        if (
            self.cls is not None
            and isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in self.cls.lock_attrs
        ):
            return node.attr
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            self.assigns.append((name, self._expr_ref(node.value)))
            inferred = self._constructed_class(node.value)
            if inferred is not None:
                self.var_types[name] = inferred
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            ref = _annotation_ref(node.annotation, self.aliases)
            if ref is not None:
                self.var_types[node.target.id] = self._qualify_class_ref(ref)
            if node.value is not None:
                self.assigns.append((node.target.id, self._expr_ref(node.value)))
        self.generic_visit(node)

    def _qualify_class_ref(self, ref: str) -> str:
        if "." not in ref and ref in self.toplevel:
            return f"{self.module}.{ref}"
        return ref

    def _constructed_class(self, node: ast.expr) -> str | None:
        """``var = SomeClass(...)`` -> the (qualified) class ref."""
        if not isinstance(node, ast.Call):
            return None
        dotted = _dotted(node.func, self.aliases)
        if dotted is None:
            return None
        tail = dotted.rsplit(".", 1)[-1]
        if not tail or not tail[0].isupper():
            return None
        if "." not in dotted and dotted in self.toplevel:
            return f"{self.module}.{dotted}"
        return dotted

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.MatMult)):
            self.dtype_sites.append(
                DtypeSite(
                    self._expr_ref(node.left),
                    self._expr_ref(node.right),
                    node.lineno,
                    node.col_offset,
                )
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        ref = self.call_ref(node.func)
        self.calls.append(
            CallSite(ref, node.lineno, node.col_offset, held_locks=tuple(self._lock_stack))
        )
        self._scan_acquire(node, ref)
        self._scan_write(node, ref)
        self.generic_visit(node)

    def _scan_acquire(self, node: ast.Call, ref: CallRef) -> None:
        if not (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
            and self.cls is not None
            and isinstance(node.func.value, ast.Attribute)
            and isinstance(node.func.value.value, ast.Name)
            and node.func.value.value.id == "self"
            and node.func.value.attr in self.cls.lock_attrs
        ):
            return
        blocking = True
        for keyword in node.keywords:
            if keyword.arg == "blocking" and isinstance(keyword.value, ast.Constant):
                blocking = bool(keyword.value.value)
            if keyword.arg == "timeout":
                blocking = False
        if node.args and isinstance(node.args[0], ast.Constant):
            blocking = bool(node.args[0].value)
        self.acquires.append(
            LockAcquire(
                node.func.value.attr,
                node.lineno,
                node.col_offset,
                held_locks=tuple(self._lock_stack),
                blocking=blocking,
                explicit=True,
            )
        )

    def _scan_write(self, node: ast.Call, ref: CallRef) -> None:
        kind, *rest = ref
        dotted = rest[0] if kind == "dotted" and rest else ""
        if dotted in ("numpy.save", "numpy.savez", "numpy.savez_compressed"):
            self.writes.append(WriteSite(node.lineno, node.col_offset, f"`{dotted}`"))
            return
        if dotted in ("open", "io.open"):
            mode = _write_mode_literal(node, mode_position=1)
            if mode is not None:
                self.writes.append(
                    WriteSite(node.lineno, node.col_offset, f"`open(..., {mode!r})`")
                )
            return
        if isinstance(node.func, ast.Attribute):
            if node.func.attr == "open":
                mode = _write_mode_literal(node, mode_position=0)
                if mode is not None:
                    self.writes.append(
                        WriteSite(node.lineno, node.col_offset, f"`.open({mode!r})`")
                    )
            elif node.func.attr in _WRITE_ATTRS:
                self.writes.append(
                    WriteSite(node.lineno, node.col_offset, f"`.{node.func.attr}(...)`")
                )


def _lock_attr_names(class_node: ast.ClassDef, aliases: dict[str, str]) -> tuple[str, ...]:
    names: list[str] = []
    for node in ast.walk(class_node):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        if _dotted(node.value.func, aliases) not in _LOCK_FACTORIES:
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr not in names
            ):
                names.append(target.attr)
    return tuple(names)


def _iter_functions(
    body: list[ast.stmt], prefix: str
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{prefix}{node.name}"
            yield qual, node
            yield from _iter_functions(node.body, f"{qual}.<locals>.")


def summarize_module(
    tree: ast.Module,
    *,
    relpath: str,
    aliases: dict[str, str] | None = None,
    module_name: str | None = None,
) -> ModuleSummary:
    """Extract the :class:`ModuleSummary` of one parsed module."""
    name = module_name if module_name is not None else module_name_for(relpath)
    package = name.rsplit(".", 1)[0] if "." in name else name
    alias_map = dict(aliases or {})
    toplevel: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            toplevel.add(node.name)

    imports: list[ImportEdge] = []
    reexports: dict[str, str] = {}

    def record_imports(node: ast.AST, lazy: bool) -> None:
        for child in ast.iter_child_nodes(node):
            child_lazy = lazy or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if isinstance(child, ast.Import):
                for alias in child.names:
                    imports.append(ImportEdge(alias.name, (), child.lineno, lazy))
            elif isinstance(child, ast.ImportFrom):
                target = child.module or ""
                if child.level:
                    base = name.split(".")
                    # `from . import x` inside a package __init__ keeps
                    # the package itself; each extra dot strips one part.
                    anchor = base if relpath.endswith("__init__.py") else base[:-1]
                    anchor = anchor[: len(anchor) - (child.level - 1)]
                    target = ".".join(anchor + ([target] if target else []))
                names = tuple(alias.name for alias in child.names if alias.name != "*")
                imports.append(ImportEdge(target, names, child.lineno, lazy))
                if not lazy:
                    for alias in child.names:
                        if alias.name != "*":
                            local = alias.asname or alias.name
                            reexports[local] = f"{target}.{alias.name}"
            record_imports(child, child_lazy)

    record_imports(tree, False)

    classes: dict[str, ClassSummary] = {}
    functions: dict[str, FunctionSummary] = {}

    def scan_function(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        cls: ClassSummary | None,
    ) -> FunctionSummary:
        local_funcs = {
            child.name: f"{qualname}.<locals>.{child.name}"
            for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        scan = _FunctionScan(name, alias_map, cls, qualname, frozenset(toplevel), local_funcs)
        args = node.args
        params = tuple(
            arg.arg
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            if arg.arg not in ("self", "cls")
        )
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            ref = _annotation_ref(arg.annotation, alias_map)
            if ref is not None:
                scan.var_types[arg.arg] = scan._qualify_class_ref(ref)
        for statement in node.body:
            scan.visit(statement)
        returns_ref = _annotation_ref(node.returns, alias_map)
        if returns_ref is not None and "." not in returns_ref and returns_ref in toplevel:
            returns_ref = f"{name}.{returns_ref}"
        return FunctionSummary(
            qualname=qualname,
            line=node.lineno,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            cls=cls.name if cls is not None else None,
            params=params,
            returns=returns_ref,
            calls=tuple(scan.calls),
            acquires=tuple(scan.acquires),
            writes=tuple(scan.writes),
            assigns=tuple(scan.assigns),
            dtype_sites=tuple(scan.dtype_sites),
        )

    def class_attr_types(node: ast.ClassDef, summary: ClassSummary) -> tuple[tuple[str, str], ...]:
        out: dict[str, str] = {}
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            param_types: dict[str, str] = {}
            for arg in [*method.args.posonlyargs, *method.args.args, *method.args.kwonlyargs]:
                ref = _annotation_ref(arg.annotation, alias_map)
                if ref is not None:
                    if "." not in ref and ref in toplevel:
                        ref = f"{name}.{ref}"
                    param_types[arg.arg] = ref
            for statement in ast.walk(method):
                if not isinstance(statement, ast.Assign) or len(statement.targets) != 1:
                    continue
                target = statement.targets[0]
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                if attr in out or attr in summary.lock_attrs:
                    continue
                value = statement.value
                if isinstance(value, ast.Name) and value.id in param_types:
                    out[attr] = param_types[value.id]
                elif isinstance(value, ast.Call):
                    dotted = _dotted(value.func, alias_map)
                    if dotted is None:
                        continue
                    if "." not in dotted and dotted in toplevel:
                        dotted = f"{name}.{dotted}"
                    tail = dotted.rsplit(".", 1)[-1]
                    if tail and tail[0].isupper():
                        out[attr] = dotted
                    else:
                        out[attr] = f"call:{dotted}"
        return tuple(sorted(out.items()))

    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            bases = tuple(
                ref
                for ref in (_dotted(base, alias_map) for base in node.bases)
                if ref is not None
            )
            bases = tuple(
                f"{name}.{ref}" if "." not in ref and ref in toplevel else ref for ref in bases
            )
            summary = ClassSummary(
                name=node.name,
                line=node.lineno,
                bases=bases,
                lock_attrs=_lock_attr_names(node, alias_map),
                methods=tuple(
                    item.name
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                ),
            )
            summary = ClassSummary(
                name=summary.name,
                line=summary.line,
                bases=summary.bases,
                lock_attrs=summary.lock_attrs,
                attr_types=class_attr_types(node, summary),
                methods=summary.methods,
            )
            classes[node.name] = summary
            for qual, fn_node in _iter_functions(node.body, f"{node.name}."):
                functions[qual] = scan_function(fn_node, qual, summary)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for qual, fn_node in _iter_functions([node], ""):
                functions[qual] = scan_function(fn_node, qual, None)

    return ModuleSummary(
        name=name,
        relpath=relpath,
        package=package,
        imports=tuple(imports),
        aliases=alias_map,
        reexports=reexports,
        classes=classes,
        functions=functions,
    )
