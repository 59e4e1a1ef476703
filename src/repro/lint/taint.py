"""Interprocedural order/host taint engine — the N7xx substrate.

Every perf gate in this repo rests on bit-identical traces, and the
hazards that break them are *flow* hazards: an unsorted ``listdir``
result travels through three helpers before its order decides an
``env.schedule`` delay; a wall-clock read in an allow-listed file leaks
into a sim input through a return value.  The D1xx rules only see the
call site; this module sees the flow.  It is a forward taint analysis
layered on the PR-6 engine: per-function dataflow over the CFG
(:mod:`repro.lint.cfg`), joined across functions through summaries
resolved with the same one-scan/fixpoint pattern as
:mod:`repro.lint.callgraph`.

Taint kinds
-----------
``order``
    The value's *arrangement* depends on hash order, directory order, or
    completion order: iterating a ``set``, ``os.listdir``/``glob``/
    ``Path.iterdir`` results, ``as_completed``/``imap_unordered``
    streams, or an *unstable dict attribute* (a ``self.<attr>`` dict the
    module also ``del``s / ``pop``s from — its insertion order encodes
    mutation history, not content).
``host``
    Derived from the wall clock or the process environment
    (``time.time``, ``os.getenv``, ``os.environ[...]``): varies across
    hosts and runs, so a seed no longer pins behaviour.
``ident``
    Derived from ``id()`` / ``hash()``: object addresses and salted
    hashes change every process.

Two internal markers refine ``order``: ``uset`` tags a value that *is*
an unordered container (a set — deterministic content, arbitrary
iteration order; converting to a sequence or iterating degrades it to
``order``), and ``completion`` tags parallel completion-order streams
(so N702 can distinguish them from plain unordered data).

Sanitizers: ``sorted(...)`` (without an identity key), ``.sort()``,
``min``/``max``/``len`` (content-deterministic reductions), and
``math.fsum`` (exactly rounded, therefore order-independent) clear the
order-family kinds.  ``sum`` does **not**: float addition is
non-associative, so a ``sum`` over an order-tainted iterable is itself
recorded as an accumulation hazard (N703).

Sinks
-----
``schedule``   ``env.schedule(ev, delay, priority)`` / ``env.timeout``
               delays / ``env.process`` arguments (and the arguments of
               the generator call it starts) — values that steer the
               DES kernel; and the receiver or arguments of
               ``.succeed``/``.fail``/``.interrupt``/``.put``, which
               queue an event when called, so calling them in an
               arbitrary order orders the queue.
``tiebreak``   ``key=`` of ``sorted``/``.sort()``/``min``/``max``.
``compare``    the operands of an ordering comparison (``<``, ``<=``,
               ``>``, ``>=``) — a branch, comparator or flag that orders
               values.
``emit``       metric/trace emission — ``.observe/.inc/.add/.set`` on a
               receiver whose name looks like an instrument or span.
``accum``      float accumulation (``sum(...)`` or ``+=`` in a loop)
               over an order-tainted iterable.
``merge``      a completion-order loop with no ordering barrier (the
               :mod:`repro.core.sweep` ordered-merge idiom — keyed
               stores or a post-loop sort — is the blessed pattern).

Interprocedural model
---------------------
:func:`analyze_module` runs once per module and is **purely local** —
call results become symbolic ``("call", key, ...)`` tokens and
parameters become ``p:<i>`` markers — so its result is cacheable by
content hash alone (the incremental cache stores it; unchanged files
recompute nothing).  :func:`build_taint_index` then resolves the
symbolic layer globally: a RET fixpoint (which kinds/params reach each
function's return) and a SINKPARAM fixpoint (which parameters flow into
which sinks, transitively), producing concrete
:class:`TaintFinding`s — including call-site findings where a caller
hands a tainted value to a helper that launders it into a sink.

Approximations (deliberate, documented): only local names and
``self.<attr>`` within one function are tracked; lambdas are opaque;
call tokens are depth-capped (deeper nests degrade to the union of
their argument taints); handler dispatch and joins are may-analysis
(union), so the engine over- rather than under-reports, with
``# repro: noqa[N70x]`` as the reviewed escape hatch.
"""

from __future__ import annotations

import ast
import hashlib
import json
from typing import Any, Iterable, Mapping, Optional

from .cfg import build_cfg
from .resolver import ImportResolver
from .rules.determinism import WALL_CLOCK_CALLS

__all__ = [
    "TAINT_VERSION",
    "KINDS",
    "FnTaint",
    "ModuleTaint",
    "TaintFinding",
    "TaintIndex",
    "analyze_module",
    "build_taint_index",
]

#: Bumped whenever the engine's semantics change: cached per-module
#: summaries recorded under another version are recomputed.
TAINT_VERSION = 2

#: The reportable taint kinds (internal markers normalize into these).
KINDS = frozenset({"order", "host", "ident"})

#: order-family tokens: any of these makes a value order-hazardous.
_ORDERISH = frozenset({"order", "uset", "completion"})

#: Canonical callee names that return directory/glob listings in
#: filesystem order.
_LISTING_CALLS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)

#: Attribute-call tails that return unordered/filesystem-ordered streams
#: even when the receiver cannot be resolved (pathlib.Path and friends).
_LISTING_ATTRS = frozenset({"iterdir", "rglob", "scandir"})

#: Completion-order sources (the N702 family).
_COMPLETION_CALLS = frozenset({"concurrent.futures.as_completed"})
_COMPLETION_ATTRS = frozenset({"as_completed", "imap_unordered"})

#: Environment-variable reads (host taint, same catalog as D105).
_ENV_READS = frozenset({"os.getenv", "os.environ.get"})

#: Receiver-name fragments that mark ``.observe/.inc/.add/.set`` calls
#: as metric/trace emission rather than generic container mutation.
_EMIT_RECEIVERS = ("span", "tracer", "trace", "metric", "gauge",
                   "hist", "counter", "stat")
_EMIT_ATTRS = frozenset({"observe", "inc", "add", "set"})

#: Calls that queue a kernel event on their receiver's behalf.
_EVENT_TRIGGERS = frozenset({"succeed", "fail", "interrupt", "put"})

_ORDERING_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
#: Nodes whose bodies run in another frame (only the binding is ours).
_SCOPE_NODES = _FUNC_NODES + (ast.ClassDef, ast.Lambda)
_COMP_NODES = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


# ---------------------------------------------------------------------------
# tokens
#
# A taint value is a frozenset of tokens:
#   "order" | "host" | "ident" | "uset" | "completion"   concrete kinds
#   "p:<i>"                                              parameter marker
#   ("call", key, bound, (argtoks...), ((kw, toks)...))  symbolic call result
# ---------------------------------------------------------------------------

_EMPTY: frozenset = frozenset()
_MAX_CALL_DEPTH = 2


def _param_token(i: int) -> str:
    return f"p:{i}"


def _call_depth(tok: Any) -> int:
    if not isinstance(tok, tuple):
        return 0
    depth = 0
    for toks in tok[3] + tuple(t for _n, t in tok[4]):
        for sub in toks:
            depth = max(depth, _call_depth(sub))
    return depth + 1


def _make_call_token(
    key: str,
    bound: bool,
    args: "tuple[frozenset, ...]",
    kwargs: "tuple[tuple[str, frozenset], ...]",
) -> frozenset:
    """A call-result token set; degrades to the union of the argument
    taints when nesting would exceed the depth cap (loops like
    ``x = f(x)`` otherwise grow tokens without bound)."""
    tok = ("call", key, bound, args, kwargs)
    if _call_depth(tok) > _MAX_CALL_DEPTH:
        out: set = set()
        for toks in args + tuple(t for _n, t in kwargs):
            out |= toks
        return frozenset(out)
    return frozenset({tok})


def _seq_of(tokens: frozenset) -> frozenset:
    """The taint of a *sequence built from* ``tokens``: materializing an
    unordered container fixes an arbitrary order into the result."""
    if tokens & _ORDERISH:
        return (tokens - {"uset"}) | {"order"}
    return tokens


def _sanitize_order(tokens: frozenset) -> frozenset:
    return tokens - _ORDERISH


def normalize_kinds(tokens: Iterable[Any]) -> frozenset:
    """Collapse internal markers onto the three reportable kinds."""
    out: set = set()
    for tok in tokens:
        if tok in ("uset", "completion"):
            out.add("order")
        elif tok in KINDS:
            out.add(tok)
    return frozenset(out)


# ---------------------------------------------------------------------------
# per-function symbolic results
# ---------------------------------------------------------------------------


class FnTaint:
    """One function's local taint facts, with calls left symbolic."""

    __slots__ = ("qualname", "name", "params", "ret_tokens", "sink_hits",
                 "calls", "merges")

    def __init__(self, qualname: str, name: str, params: tuple) -> None:
        self.qualname = qualname
        self.name = name
        self.params = params
        #: tokens reaching any ``return`` expression
        self.ret_tokens: frozenset = _EMPTY
        #: (line, col, sink, tokens) — tainted values at local sinks
        self.sink_hits: list = []
        #: (line, col, key, bound, argtoks, kwargtoks) — resolved-callee
        #: call sites (for arg→callee-sink propagation)
        self.calls: list = []
        #: (line, col, has_barrier) — completion-order merge loops
        self.merges: list = []


class ModuleTaint:
    """Per-module symbolic taint results (the cacheable unit)."""

    __slots__ = ("path", "module", "functions")

    def __init__(self, path: str, module: Optional[str]) -> None:
        self.path = path
        self.module = module
        self.functions: dict[str, FnTaint] = {}

    # -- cache (de)serialization ----------------------------------------
    def to_payload(self) -> dict:
        return {
            "module": self.module,
            "functions": {
                q: {
                    "name": fn.name,
                    "params": list(fn.params),
                    "ret": _dump_tokens(fn.ret_tokens),
                    "sinks": [
                        [ln, col, sink, _dump_tokens(toks)]
                        for ln, col, sink, toks in fn.sink_hits
                    ],
                    "calls": [
                        [
                            ln,
                            col,
                            key,
                            bound,
                            [_dump_tokens(a) for a in args],
                            {n: _dump_tokens(t) for n, t in kwargs},
                        ]
                        for ln, col, key, bound, args, kwargs in fn.calls
                    ],
                    "merges": [list(m) for m in fn.merges],
                }
                for q, fn in sorted(self.functions.items())
            },
        }

    @classmethod
    def from_payload(cls, path: str, data: Mapping) -> "ModuleTaint":
        mt = cls(path, data.get("module"))
        for q, fd in data.get("functions", {}).items():
            fn = FnTaint(q, fd["name"], tuple(fd["params"]))
            fn.ret_tokens = _load_tokens(fd["ret"])
            fn.sink_hits = [
                (ln, col, sink, _load_tokens(toks))
                for ln, col, sink, toks in fd["sinks"]
            ]
            fn.calls = [
                (
                    ln,
                    col,
                    key,
                    bound,
                    tuple(_load_tokens(a) for a in args),
                    tuple(sorted((n, _load_tokens(t)) for n, t in kwargs.items())),
                )
                for ln, col, key, bound, args, kwargs in fd["calls"]
            ]
            fn.merges = [tuple(m) for m in fd["merges"]]
            mt.functions[q] = fn
        return mt


def _dump_tokens(tokens: frozenset) -> list:
    out = []
    for tok in tokens:
        if isinstance(tok, tuple):
            out.append(
                {
                    "c": tok[1],
                    "b": tok[2],
                    "a": [_dump_tokens(a) for a in tok[3]],
                    "k": {n: _dump_tokens(t) for n, t in tok[4]},
                }
            )
        else:
            out.append(tok)
    return sorted(out, key=repr)


def _load_tokens(data: Iterable) -> frozenset:
    out: set = set()
    for tok in data:
        if isinstance(tok, dict):
            out.add(
                (
                    "call",
                    tok["c"],
                    tok["b"],
                    tuple(_load_tokens(a) for a in tok["a"]),
                    tuple(sorted((n, _load_tokens(t)) for n, t in tok["k"].items())),
                )
            )
        else:
            out.add(tok)
    return frozenset(out)


# ---------------------------------------------------------------------------
# intra-function analysis
# ---------------------------------------------------------------------------


def _is_env_receiver(node: ast.AST) -> bool:
    """``env`` / ``self.env`` / ``self._env`` — the DES environment by
    the same strong convention the R5xx pack relies on."""
    return (isinstance(node, ast.Name) and node.id in ("env", "_env")) or (
        isinstance(node, ast.Attribute) and node.attr in ("env", "_env")
    )


def _self_attr_name(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _receiver_names(node: ast.AST) -> str:
    """Lower-cased dotted description of an attribute chain's names —
    the emit-sink receiver heuristic matches fragments against it."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        parts.append(_receiver_names(node.func))
    return ".".join(reversed(parts)).lower()


def _unstable_dict_attrs(tree: ast.Module) -> frozenset[str]:
    """``self.<attr>`` names the module ``del``s or ``.pop()``s from.

    A dict attribute that only ever grows iterates in insertion order —
    deterministic under a fixed op sequence.  One with deletions
    iterates in *mutation-history* order: two directories with identical
    contents can list differently, which is exactly the replay hazard.
    """
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    attr = _self_attr_name(target.value)
                    if attr is not None:
                        out.add(attr)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ("pop", "popitem"):
                attr = _self_attr_name(func.value)
                if attr is not None:
                    out.add(attr)
    return frozenset(out)


class _Intra:
    """Forward may-taint dataflow over one function's CFG."""

    def __init__(
        self,
        fn: ast.AST,
        qualname: str,
        resolver: ImportResolver,
        module: str,
        unstable_attrs: frozenset[str],
    ) -> None:
        self.fn = fn
        self.resolver = resolver
        self.module = module
        self.unstable_attrs = unstable_attrs
        args = fn.args
        self.params = tuple(
            p.arg for p in list(args.posonlyargs) + list(args.args)
        )
        self.out = FnTaint(qualname, fn.name, self.params)
        self.cfg = build_cfg(fn)

    # -- expression evaluation ------------------------------------------
    def eval(self, node: Optional[ast.AST], state: dict) -> frozenset:
        if node is None:
            return _EMPTY
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is not None:
            return method(node, state)
        # default: union over child expressions (BinOp, BoolOp, Compare,
        # IfExp, UnaryOp, Starred, FormattedValue, JoinedStr, Await, ...)
        out: set = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.keyword)):
                value = child.value if isinstance(child, ast.keyword) else child
                out |= self.eval(value, state)
        return frozenset(out)

    def _eval_Name(self, node: ast.Name, state: dict) -> frozenset:
        return state.get(node.id, _EMPTY)

    def _eval_Constant(self, node: ast.Constant, state: dict) -> frozenset:
        return _EMPTY

    def _eval_Lambda(self, node: ast.Lambda, state: dict) -> frozenset:
        return _EMPTY  # opaque: its body runs elsewhere

    def _eval_Attribute(self, node: ast.Attribute, state: dict) -> frozenset:
        attr = _self_attr_name(node)
        if attr is not None:
            return state.get(f"self.{attr}", _EMPTY)
        return self.eval(node.value, state)

    def _eval_Subscript(self, node: ast.Subscript, state: dict) -> frozenset:
        return self.eval(node.value, state) | self.eval(node.slice, state)

    def _eval_Set(self, node: ast.Set, state: dict) -> frozenset:
        out: set = {"uset"}
        for elt in node.elts:
            out |= self.eval(elt, state)
        return frozenset(out)

    def _eval_SetComp(self, node: ast.SetComp, state: dict) -> frozenset:
        return self._eval_comp(node, [node.elt], state) | {"uset"}

    def _eval_ListComp(self, node: ast.ListComp, state: dict) -> frozenset:
        return self._eval_comp(node, [node.elt], state)

    def _eval_GeneratorExp(self, node: ast.GeneratorExp, state: dict) -> frozenset:
        return self._eval_comp(node, [node.elt], state)

    def _eval_DictComp(self, node: ast.DictComp, state: dict) -> frozenset:
        return self._eval_comp(node, [node.key, node.value], state)

    def _eval_comp(
        self, node: ast.AST, results: list, state: dict
    ) -> frozenset:
        """Comprehensions: evaluate the result expression(s) in the
        comprehension's scope.  The produced sequence inherits ``order``
        when any generator is order-ish."""
        ext, out = self._comp_scope(node, state)
        for res in results:
            out |= self.eval(res, ext)
        return frozenset(out)

    def _comp_scope(self, node: ast.AST, state: dict) -> tuple[dict, set]:
        """Bind each comprehension target from its (element-tainted)
        iterable: the inner state, and the order kinds the produced
        sequence inherits."""
        ext = dict(state)
        seq_taint: set = set()
        for gen in node.generators:
            it = self.eval(gen.iter, ext)
            if it & _ORDERISH:
                seq_taint.add("order")
                if "completion" in it:
                    seq_taint.add("completion")
            self._bind(gen.target, self._elem_of(it), ext)
            for cond in gen.ifs:
                self.eval(cond, ext)  # conditions don't taint the result
        return ext, seq_taint

    def _eval_Call(self, node: ast.Call, state: dict) -> frozenset:
        func = node.func
        resolved = self.resolver.resolve(func)
        arg_union: set = set()
        for a in node.args:
            arg_union |= self.eval(a, state)
        for kw in node.keywords:
            arg_union |= self.eval(kw.value, state)

        # -- sources ----------------------------------------------------
        if resolved in WALL_CLOCK_CALLS or resolved in _ENV_READS:
            return frozenset({"host"})
        if resolved in _LISTING_CALLS:
            return frozenset({"order"})
        if resolved in _COMPLETION_CALLS:
            return frozenset({"completion", "order"}) | frozenset(arg_union)
        if isinstance(func, ast.Name) and func.id not in self.resolver.aliases:
            name = func.id
            if name in ("id", "hash"):
                return frozenset({"ident"})
            if name in ("set", "frozenset"):
                return frozenset({"uset"}) | _sanitize_order(frozenset(arg_union))
            if name == "sorted":
                return self._eval_sorted(node, state)
            if name in ("min", "max", "len", "any", "all"):
                return _sanitize_order(frozenset(arg_union))
            if name == "sum":
                return self._eval_sum(node, frozenset(arg_union))
            if name in ("list", "tuple", "iter", "reversed", "enumerate"):
                return _seq_of(frozenset(arg_union))
            if name == "dict":
                return frozenset(arg_union)
        if resolved == "math.fsum":
            # exactly-rounded: the one order-independent float reduction
            return _sanitize_order(frozenset(arg_union))
        if isinstance(func, ast.Attribute):
            attr = func.attr
            if attr in _LISTING_ATTRS or (
                attr == "glob" and resolved not in self.resolver.aliases
            ):
                return frozenset({"order"})
            if attr in _COMPLETION_ATTRS:
                return frozenset({"completion", "order"}) | frozenset(arg_union)
            if attr in ("keys", "values", "items"):
                owner = _self_attr_name(func.value)
                base = self.eval(func.value, state)
                if owner is not None and owner in self.unstable_attrs:
                    return frozenset({"order"}) | base
                return base
            if attr == "sort":
                return _EMPTY  # handled as a statement-level sanitizer

        # -- known project callee: leave symbolic -----------------------
        key = self._callee_key(func, resolved)
        if key is not None:
            args = tuple(self.eval(a, state) for a in node.args)
            kwargs = tuple(
                sorted(
                    (kw.arg, self.eval(kw.value, state))
                    for kw in node.keywords
                    if kw.arg is not None
                )
            )
            return _make_call_token(key, isinstance(func, ast.Attribute), args, kwargs)

        # -- unknown callee: conservative pass-through -------------------
        recv = (
            self.eval(func.value, state)
            if isinstance(func, ast.Attribute)
            else _EMPTY
        )
        return frozenset(arg_union) | recv

    def _eval_sorted(self, node: ast.Call, state: dict) -> frozenset:
        toks = _sanitize_order(
            self.eval(node.args[0], state) if node.args else _EMPTY
        )
        for kw in node.keywords:
            if kw.arg == "key":
                if isinstance(kw.value, ast.Name) and kw.value.id in ("id", "hash"):
                    toks = toks | {"ident"}
                else:
                    toks = toks | self.eval(kw.value, state)
        return toks

    def _eval_sum(self, node: ast.Call, arg_union: frozenset) -> frozenset:
        if arg_union & _ORDERISH:
            self._hit(node, "accum", arg_union)
        return _seq_of(arg_union) - {"uset"}

    def _callee_key(
        self, func: ast.AST, resolved: Optional[str]
    ) -> Optional[str]:
        """The summary-lookup key for a project call, mirroring the
        call-graph's resolution (dotted name, else bare tail)."""
        if resolved is not None:
            return resolved
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return f"{self.module}.{func.id}"
        return None

    # -- statements ------------------------------------------------------
    def _bind(self, target: ast.AST, tokens: frozenset, state: dict) -> None:
        if isinstance(target, ast.Name):
            state[target.id] = tokens
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, tokens, state)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, tokens, state)
        elif isinstance(target, ast.Attribute):
            attr = _self_attr_name(target)
            if attr is not None:
                state[f"self.{attr}"] = tokens
        elif isinstance(target, ast.Subscript):
            # keyed store: the ordered-merge barrier — content taints
            # survive, arrival-order taints do not.
            root = target.value
            if isinstance(root, ast.Name):
                state[root.id] = state.get(root.id, _EMPTY) | (
                    tokens - {"order", "completion"}
                )

    def _elem_of(self, it: frozenset) -> frozenset:
        return _seq_of(it) - {"uset"} if it & _ORDERISH else it

    def transfer(self, block, state: dict) -> dict:
        """OUT state of a block given its IN state (one simple stmt)."""
        stmt = block.stmt
        state = dict(state)
        if isinstance(stmt, ast.Assign):
            tokens = self.eval(stmt.value, state)
            for target in stmt.targets:
                self._bind(target, tokens, state)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, self.eval(stmt.value, state), state)
        elif isinstance(stmt, ast.AugAssign):
            tokens = self.eval(stmt.value, state)
            if isinstance(stmt.target, ast.Name):
                old = state.get(stmt.target.id, _EMPTY)
                self._bind(stmt.target, old | tokens, state)
            else:
                self._bind(stmt.target, tokens, state)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)) and block.kind == "stmt":
            if block.nodes and block.nodes[0] is stmt.iter:
                it = self.eval(stmt.iter, state)
                self._bind(stmt.target, self._elem_of(it), state)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)) and block.kind == "stmt":
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._bind(
                        item.optional_vars,
                        self.eval(item.context_expr, state),
                        state,
                    )
        elif isinstance(stmt, ast.Expr):
            call = stmt.value
            # `x.sort()` sanitizes x in place
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "sort"
                and isinstance(call.func.value, ast.Name)
            ):
                var = call.func.value.id
                state[var] = _sanitize_order(state.get(var, _EMPTY))
        return state

    # -- fixpoint --------------------------------------------------------
    def run(self) -> FnTaint:
        entry_state = {p: frozenset({_param_token(i)}) for i, p in enumerate(self.params)}
        in_states: dict[int, dict] = {self.cfg.entry.bid: entry_state}
        out_states: dict[int, dict] = {}
        worklist = [self.cfg.entry]
        rounds = 0
        while worklist and rounds < 40 * max(1, len(self.cfg.blocks)):
            rounds += 1
            block = worklist.pop(0)
            state = in_states.get(block.bid, {})
            out = self.transfer(block, state)
            if out_states.get(block.bid) == out:
                continue
            out_states[block.bid] = out
            for dst, _kind in block.succ:
                merged = self._join(in_states.get(dst.bid), out)
                if merged != in_states.get(dst.bid):
                    in_states[dst.bid] = merged
                    if dst not in worklist:
                        worklist.append(dst)
        # final pass: evaluate sinks / returns / merges with stable states
        for block in self.cfg.blocks:
            state = in_states.get(block.bid)
            if state is None:
                continue
            self._collect(block, state)
        return self.out

    @staticmethod
    def _join(a: Optional[dict], b: dict) -> dict:
        if a is None:
            return dict(b)
        merged = dict(a)
        for var, toks in b.items():
            merged[var] = merged.get(var, _EMPTY) | toks
        return merged

    # -- collection ------------------------------------------------------
    def _hit(self, node: ast.AST, sink: str, tokens: frozenset) -> None:
        if not tokens:
            return
        entry = (
            getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0),
            sink,
            tokens,
        )
        if entry not in self.out.sink_hits:
            self.out.sink_hits.append(entry)

    def _collect(self, block, state: dict) -> None:
        stmt = block.stmt
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            self.out.ret_tokens = self.out.ret_tokens | self.eval(stmt.value, state)
        if isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.Add):
            tokens = self.eval(stmt.value, state)
            if tokens:
                self._hit(stmt, "accum", tokens)
        if (
            isinstance(stmt, (ast.For, ast.AsyncFor))
            and block.kind == "stmt"
            and block.nodes
            and block.nodes[0] is stmt.iter
        ):
            it = self.eval(stmt.iter, state)
            if "completion" in it:
                self.out.merges.append(
                    (stmt.lineno, stmt.col_offset, self._merge_barrier(stmt))
                )
        for part in block.nodes:
            self._scan(part, state)

    def _scan(self, node: ast.AST, state: dict) -> None:
        """Check every call and ordering comparison evaluated in
        ``node`` at this function's own level; inside a comprehension,
        its targets carry their iterables' element taint."""
        if isinstance(node, _COMP_NODES):
            state, _ = self._comp_scope(node, state)
        elif isinstance(node, ast.Call):
            self._check_sinks(node, state)
            self._record_call(node, state)
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, _ORDERING_OPS) for op in node.ops
        ):
            operands = [node.left, *node.comparators]
            self._hit(node, "compare", self._union(operands, state))
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, _SCOPE_NODES):
                self._scan(child, state)

    def _union(self, exprs: Iterable[ast.AST], state: dict) -> frozenset:
        out: set = set()
        for e in exprs:
            out |= self.eval(e, state)
        return frozenset(out)

    def _check_sinks(self, call: ast.Call, state: dict) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            attr = func.attr
            if attr in ("schedule", "timeout", "process") and _is_env_receiver(
                func.value
            ):
                exprs: list = []
                if attr == "timeout":
                    exprs = call.args[:1]
                    exprs += [kw.value for kw in call.keywords if kw.arg == "delay"]
                elif attr == "schedule":
                    exprs = call.args[1:3]
                    exprs += [
                        kw.value
                        for kw in call.keywords
                        if kw.arg in ("delay", "priority")
                    ]
                else:  # process: the generator's arguments steer the work
                    for arg in call.args:
                        exprs.append(arg)
                        if isinstance(arg, ast.Call):
                            exprs += arg.args + [kw.value for kw in arg.keywords]
                self._hit(call, "schedule", self._union(exprs, state))
            elif attr in _EVENT_TRIGGERS:
                exprs = [func.value, *call.args, *(kw.value for kw in call.keywords)]
                self._hit(call, "schedule", self._union(exprs, state))
            elif attr in _EMIT_ATTRS and any(
                frag in _receiver_names(func.value) for frag in _EMIT_RECEIVERS
            ):
                exprs = [*call.args, *(kw.value for kw in call.keywords)]
                self._hit(call, "emit", self._union(exprs, state))
            elif attr == "sort":
                self._check_tiebreak(call, state)
        elif isinstance(func, ast.Name) and func.id in ("sorted", "min", "max"):
            self._check_tiebreak(call, state)

    def _check_tiebreak(self, call: ast.Call, state: dict) -> None:
        for kw in call.keywords:
            if kw.arg != "key":
                continue
            if isinstance(kw.value, ast.Name) and kw.value.id in ("id", "hash"):
                tokens: frozenset = frozenset({"ident"})
            else:
                tokens = self.eval(kw.value, state)
            self._hit(call, "tiebreak", tokens)

    def _record_call(self, call: ast.Call, state: dict) -> None:
        key = self._callee_key(call.func, self.resolver.resolve(call.func))
        if key is None:
            return
        args = tuple(self.eval(a, state) for a in call.args)
        kwargs = tuple(
            sorted(
                (kw.arg, self.eval(kw.value, state))
                for kw in call.keywords
                if kw.arg is not None
            )
        )
        if not any(args) and not any(t for _n, t in kwargs):
            return  # nothing tainted flows in; no propagation to record
        self.out.calls.append(
            (
                call.lineno,
                call.col_offset,
                key,
                isinstance(call.func, ast.Attribute),
                args,
                kwargs,
            )
        )

    def _merge_barrier(self, loop: ast.AST) -> bool:
        """Does a completion-order loop re-establish an order?  Keyed
        stores (``out[k] = v``) are the sweep ordered-merge idiom; an
        ``append``/``extend``/``yield`` needs a post-loop sort."""
        accumulators: set[str] = set()
        for node in ast.walk(loop):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return False
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in ("append", "extend", "add") and isinstance(
                    node.func.value, ast.Name
                ):
                    accumulators.add(node.func.value.id)
        if not accumulators:
            return True  # only keyed stores / scalars: order-safe
        end = getattr(loop, "end_lineno", loop.lineno) or loop.lineno
        for node in ast.walk(self.fn):
            if getattr(node, "lineno", 0) <= end:
                continue
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id == "sorted"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in accumulators
                ):
                    accumulators.discard(node.args[0].id)
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "sort"
                    and isinstance(func.value, ast.Name)
                    and func.value.id in accumulators
                ):
                    accumulators.discard(func.value.id)
        return not accumulators


def analyze_module(
    path: str, module: Optional[str], tree: ast.Module
) -> ModuleTaint:
    """The purely local phase: symbolic per-function taint results for
    one module (cacheable by content hash — no cross-file inputs)."""
    is_pkg = path.endswith("__init__.py")
    resolver = ImportResolver(tree, module=module, is_package=is_pkg)
    modname = module or "<module>"
    unstable = _unstable_dict_attrs(tree)
    mt = ModuleTaint(path, module)

    def add(fn: ast.AST, qualname: str) -> None:
        mt.functions[qualname] = _Intra(
            fn, qualname, resolver, modname, unstable
        ).run()

    for node in tree.body:
        if isinstance(node, _FUNC_NODES):
            add(node, f"{modname}.{node.name}")
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNC_NODES):
                    add(item, f"{modname}.{node.name}.{item.name}")
    return mt


# ---------------------------------------------------------------------------
# global resolution
# ---------------------------------------------------------------------------


class TaintFinding:
    """One resolved hazard: tainted kinds reaching a sink."""

    __slots__ = ("path", "line", "col", "sink", "kinds", "via")

    def __init__(self, path, line, col, sink, kinds, via=None) -> None:
        self.path = path
        self.line = line
        self.col = col
        self.sink = sink
        self.kinds = kinds
        self.via = via

    @property
    def lineno(self) -> int:  # duck-types as an AST node for ctx.report
        return self.line

    @property
    def col_offset(self) -> int:
        return self.col

    def key(self) -> tuple:
        return (self.path, self.line, self.col, self.sink,
                tuple(sorted(self.kinds)), self.via)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        via = f" via {self.via}" if self.via else ""
        return (
            f"<TaintFinding {self.sink}:{','.join(sorted(self.kinds))} "
            f"at {self.path}:{self.line}{via}>"
        )


class TaintIndex:
    """The project-wide resolved view the N7xx rules query."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleTaint] = {}
        self.functions: dict[str, FnTaint] = {}
        self.by_name: dict[str, list[str]] = {}
        #: qualname -> (concrete kinds reaching return, param idxs doing so)
        self.ret: dict[str, tuple[frozenset, frozenset]] = {}
        #: qualname -> {param idx: frozenset of sink names}
        self.sink_params: dict[str, dict[int, frozenset]] = {}
        self._findings: dict[str, list[TaintFinding]] = {}
        #: modules whose local phase was recomputed (vs. cache) this build
        self.recomputed = 0

    # -- queries ---------------------------------------------------------
    def findings_for(self, path: str) -> list[TaintFinding]:
        return self._findings.get(path, [])

    def summary(self, qualname: str) -> Optional[FnTaint]:
        return self.functions.get(qualname)

    def ret_of(self, qualname: str) -> tuple[frozenset, frozenset]:
        return self.ret.get(qualname, (_EMPTY, _EMPTY))

    def fingerprint(self) -> str:
        """Stable digest over every module's symbolic payload — editing
        one file can change findings in its callers, so the incremental
        cache keys on this (alongside the call-graph fingerprint)."""
        h = hashlib.sha256()
        h.update(f"taint-v{TAINT_VERSION};".encode())
        for path in sorted(self.modules):
            h.update(path.encode())
            h.update(
                json.dumps(
                    self.modules[path].to_payload(), sort_keys=True
                ).encode()
            )
            h.update(b";")
        return h.hexdigest()

    # -- resolution ------------------------------------------------------
    def _lookup(self, key: str, bound: bool) -> Optional[FnTaint]:
        hit = self.functions.get(key)
        if hit is not None:
            return hit
        candidates = self.by_name.get(key.rsplit(".", 1)[-1], ())
        if len(candidates) == 1:
            return self.functions[candidates[0]]
        return None

    @staticmethod
    def _offset(callee: FnTaint, bound: bool) -> int:
        return 1 if bound and callee.params[:1] in (("self",), ("cls",)) else 0

    def _arg_tokens(
        self,
        callee: FnTaint,
        param_idx: int,
        bound: bool,
        args: tuple,
        kwargs: tuple,
    ) -> Optional[frozenset]:
        """Tokens the call site supplies for the callee's ``param_idx``."""
        pos = param_idx - self._offset(callee, bound)
        if 0 <= pos < len(args):
            return args[pos]
        if 0 <= param_idx < len(callee.params):
            name = callee.params[param_idx]
            for kw, toks in kwargs:
                if kw == name:
                    return toks
        return None

    def _resolve(
        self, tokens: Iterable, depth: int = 0
    ) -> tuple[frozenset, frozenset]:
        """``tokens`` -> (concrete kind tokens, param indices)."""
        kinds: set = set()
        params: set = set()
        for tok in tokens:
            if isinstance(tok, str):
                if tok.startswith("p:"):
                    params.add(int(tok[2:]))
                else:
                    kinds.add(tok)
                continue
            _tag, key, bound, args, kwargs = tok
            callee = self._lookup(key, bound)
            if callee is None or depth > 4:
                # unknown callee: pass-through of its arguments
                for toks in args + tuple(t for _n, t in kwargs):
                    k, p = self._resolve(toks, depth + 1)
                    kinds |= k
                    params |= p
                continue
            ck, cp = self.ret_of(callee.qualname)
            kinds |= ck
            for idx in cp:
                supplied = self._arg_tokens(callee, idx, bound, args, kwargs)
                if supplied:
                    k, p = self._resolve(supplied, depth + 1)
                    kinds |= k
                    params |= p
        return frozenset(kinds), frozenset(params)

    def resolve_all(self) -> None:
        """Run the RET and SINKPARAM fixpoints, then materialize
        findings.  Monotone in both lattices; rounds are capped the same
        way the call-graph fixpoint is (chains here are short)."""
        # RET fixpoint
        for _round in range(8):
            changed = False
            for q, fn in self.functions.items():
                kinds, params = self._resolve(fn.ret_tokens)
                if (kinds, params) != self.ret.get(q, (_EMPTY, _EMPTY)):
                    self.ret[q] = (kinds, params)
                    changed = True
            if not changed:
                break
        # SINKPARAM fixpoint
        for q in self.functions:
            self.sink_params[q] = {}
        for _round in range(8):
            changed = False
            for q, fn in self.functions.items():
                mine = self.sink_params[q]
                for _ln, _col, sink, tokens in fn.sink_hits:
                    _kinds, params = self._resolve(tokens)
                    for i in params:
                        if sink not in mine.get(i, _EMPTY):
                            mine[i] = mine.get(i, _EMPTY) | {sink}
                            changed = True
                for _ln, _col, key, bound, args, kwargs in fn.calls:
                    callee = self._lookup(key, bound)
                    if callee is None:
                        continue
                    theirs = self.sink_params.get(callee.qualname, {})
                    for idx, sinks in theirs.items():
                        supplied = self._arg_tokens(callee, idx, bound, args, kwargs)
                        if not supplied:
                            continue
                        _kinds, params = self._resolve(supplied)
                        for i in params:
                            if not sinks <= mine.get(i, _EMPTY):
                                mine[i] = mine.get(i, _EMPTY) | sinks
                                changed = True
            if not changed:
                break
        # findings
        for path, mt in self.modules.items():
            out: list[TaintFinding] = []
            seen: set = set()

            def emit(f: TaintFinding) -> None:
                if f.kinds and f.key() not in seen:
                    seen.add(f.key())
                    out.append(f)

            for q, fn in mt.functions.items():
                for ln, col, sink, tokens in fn.sink_hits:
                    kinds, _params = self._resolve(tokens)
                    emit(
                        TaintFinding(
                            path, ln, col, sink, normalize_kinds(kinds)
                        )
                    )
                for ln, col, key, bound, args, kwargs in fn.calls:
                    callee = self._lookup(key, bound)
                    if callee is None:
                        continue
                    theirs = self.sink_params.get(callee.qualname, {})
                    for idx, sinks in theirs.items():
                        supplied = self._arg_tokens(callee, idx, bound, args, kwargs)
                        if not supplied:
                            continue
                        kinds, _params = self._resolve(supplied)
                        for sink in sorted(sinks):
                            emit(
                                TaintFinding(
                                    path,
                                    ln,
                                    col,
                                    sink,
                                    normalize_kinds(kinds),
                                    via=callee.name,
                                )
                            )
                for ln, col, barrier in fn.merges:
                    if not barrier:
                        emit(
                            TaintFinding(
                                path, ln, col, "merge", frozenset({"order"})
                            )
                        )
            out.sort(key=lambda f: (f.line, f.col, f.sink))
            self._findings[path] = out


def build_taint_index(
    sources: Mapping[str, tuple],
    texts: Optional[Mapping[str, str]] = None,
    cache=None,
) -> TaintIndex:
    """Build and resolve the project taint index from
    ``{path: (module_name, tree)}``.

    With ``texts`` (``{path: source}``) and a
    :class:`~repro.lint.cache.LintCache`, per-module symbolic results
    are served from the cache when the file's content hash matches —
    the global resolution phase (cheap token algebra, no AST walking)
    always runs.  ``TaintIndex.recomputed`` counts the modules whose
    local phase actually ran; ``tests/test_lint_cli.py`` asserts it
    stays at zero on a warm tree (via ``--statistics``).
    """
    index = TaintIndex()
    for path in sorted(sources):
        module, tree = sources[path]
        mt: Optional[ModuleTaint] = None
        text = texts.get(path) if texts is not None else None
        if cache is not None and text is not None:
            payload = cache.get_summary(path, text)
            if payload is not None:
                try:
                    mt = ModuleTaint.from_payload(path, payload)
                except (KeyError, TypeError, ValueError):
                    mt = None  # malformed entry: recompute
        if mt is None:
            mt = analyze_module(path, module, tree)
            index.recomputed += 1
            if cache is not None and text is not None:
                cache.put_summary(path, text, mt.to_payload())
        index.modules[path] = mt
        for q, fn in mt.functions.items():
            index.functions[q] = fn
            index.by_name.setdefault(fn.name, []).append(q)
    index.resolve_all()
    return index
