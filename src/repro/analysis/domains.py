"""Bit-width and bounds domain checks (SKY602).

The packed engine's correctness rests on two numeric contracts that
crash (or silently wrap) only at runtime, on the right input:

* **uint64 shift width.**  ``np.uint64(x) << s`` with ``s >= 64`` is
  undefined — numpy wraps the shift count on most platforms, so bit
  ``2**64`` quietly becomes bit ``1`` and a skyline gains phantom
  members.  Every shift in :mod:`repro.engine.packed` is therefore
  carefully pre-masked (``divmod(shift, WORD_BITS)``, ``bits & 63``)
  — an invariant nothing enforced until now.
* **Exponential table sizes.**  Presence, fold and down-closure tables
  grow as ``2**d`` / ``3**d``; built without a bound on ``d`` they
  allocate terabytes for an innocent-looking ``d = 40``.

This rule runs a small interval (constant-range) analysis over each
function — module-level integer constants, ``divmod``/``%``/``& c``
arithmetic, ``range()`` loop bounds, and branch narrowing from guards
like ``if bit_shift:`` or ``if not 1 <= d <= PACKED_MAX_D: raise`` —
and flags (a) any uint64-typed shift whose count is not provably
``< 64`` and (b) any numpy allocation whose size is exponential in an
unguarded variable.  Private helpers (``_popcounts``) with project
callers are exempt from (b): the bound is their public entry's
contract, visible in the call graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.base import ProjectRule, Violation, register_rule

__all__ = ["DomainBoundsRule", "IntRange"]

#: numpy allocation entry points whose size argument we bound-check.
_ALLOCATORS = frozenset({"zeros", "empty", "ones", "full"})

#: An exponential-size expression larger than this is suspicious
#: unless guarded (2**28 bools = 256 MiB; every legitimate constant
#: table in the repo stays below it).
_SIZE_BITS_LIMIT = 28


@dataclass(frozen=True)
class IntRange:
    """A conservative ``[lo, hi]`` integer interval (None = unbounded)."""

    lo: Optional[int] = None
    hi: Optional[int] = None

    @staticmethod
    def const(value: int) -> "IntRange":
        return IntRange(value, value)

    def join(self, other: "IntRange") -> "IntRange":
        lo = None if self.lo is None or other.lo is None else min(
            self.lo, other.lo
        )
        hi = None if self.hi is None or other.hi is None else max(
            self.hi, other.hi
        )
        return IntRange(lo, hi)


UNKNOWN = IntRange()


def _add(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return a + b


def _chain(node: ast.expr) -> List[str]:
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return parts[::-1]
    return []


class _Evaluator:
    """Range evaluation over one function, with a sequential env."""

    def __init__(self, consts: Dict[str, int]) -> None:
        self.consts = consts
        self.env: Dict[str, IntRange] = {}

    def copy(self) -> "_Evaluator":
        clone = _Evaluator(self.consts)
        clone.env = dict(self.env)
        return clone

    # -- expression ranges ---------------------------------------------

    def range_of(self, expr: ast.expr) -> IntRange:
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, bool) or not isinstance(
                expr.value, int
            ):
                return UNKNOWN
            return IntRange.const(expr.value)
        if isinstance(expr, ast.Name):
            found = self.env.get(expr.id)
            if found is not None:
                return found
            const = self.consts.get(expr.id)
            if const is not None:
                return IntRange.const(const)
            return UNKNOWN
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
            inner = self.range_of(expr.operand)
            return IntRange(
                None if inner.hi is None else -inner.hi,
                None if inner.lo is None else -inner.lo,
            )
        if isinstance(expr, ast.BinOp):
            return self._binop(expr)
        if isinstance(expr, ast.IfExp):
            narrowed = self.copy()
            narrowed.narrow(expr.test)
            then = narrowed.range_of(expr.body)
            other = self.range_of(expr.orelse)
            return then.join(other)
        if isinstance(expr, ast.Call):
            return self._call(expr)
        return UNKNOWN

    def _binop(self, expr: ast.BinOp) -> IntRange:
        left = self.range_of(expr.left)
        right = self.range_of(expr.right)
        op = expr.op
        if isinstance(op, ast.Add):
            return IntRange(_add(left.lo, right.lo), _add(left.hi, right.hi))
        if isinstance(op, ast.Sub):
            return IntRange(
                _add(left.lo, None if right.hi is None else -right.hi),
                _add(left.hi, None if right.lo is None else -right.lo),
            )
        if isinstance(op, ast.Mult):
            if (
                left.lo is not None and left.lo >= 0
                and right.lo is not None and right.lo >= 0
            ):
                hi = (
                    None
                    if left.hi is None or right.hi is None
                    else left.hi * right.hi
                )
                return IntRange(left.lo * right.lo, hi)
            return UNKNOWN
        if isinstance(op, ast.FloorDiv):
            if (
                right.lo is not None and right.lo > 0
                and left.lo is not None and left.lo >= 0
            ):
                hi = None if left.hi is None else left.hi // right.lo
                return IntRange(0, hi)
            return UNKNOWN
        if isinstance(op, ast.Mod):
            # Python %: with a positive divisor the result is [0, n-1].
            if right.lo is not None and right.lo > 0 and right.hi is not None:
                return IntRange(0, right.hi - 1)
            return UNKNOWN
        if isinstance(op, ast.BitAnd):
            # Masking idiom: `x & 63` lands in [0, 63].
            for side in (left, right):
                if (
                    side.lo is not None
                    and side.lo >= 0
                    and side.hi is not None
                ):
                    return IntRange(0, side.hi)
            return UNKNOWN
        if isinstance(op, ast.LShift):
            if (
                left.lo is not None and left.lo >= 0
                and right.lo is not None and right.lo >= 0
            ):
                hi = (
                    None
                    if left.hi is None or right.hi is None
                    else left.hi << min(right.hi, 1024)
                )
                return IntRange(left.lo << min(right.lo, 1024), hi)
            return UNKNOWN
        if isinstance(op, ast.RShift):
            if left.lo is not None and left.lo >= 0:
                return IntRange(0, left.hi)
            return UNKNOWN
        if isinstance(op, ast.Pow):
            if (
                left.lo is not None and left.lo >= 0
                and right.lo is not None and right.lo >= 0
            ):
                hi = (
                    None
                    if left.hi is None or right.hi is None
                    else left.hi ** min(right.hi, 256)
                )
                return IntRange(left.lo ** min(right.lo, 256), hi)
            return UNKNOWN
        return UNKNOWN

    def _call(self, expr: ast.Call) -> IntRange:
        # `.astype(...)` keeps the numeric range of its receiver, even
        # when the receiver is an arbitrary expression like (x & 63).
        if (
            isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "astype"
        ):
            return self.range_of(expr.func.value)
        chain = _chain(expr.func)
        tail = chain[-1] if chain else None
        # Casts keep the numeric range.
        if tail in ("uint64", "int64", "intp", "int"):
            if expr.args:
                return self.range_of(expr.args[0])
            return UNKNOWN
        if tail == "min" and len(chain) == 1 and expr.args:
            result = self.range_of(expr.args[0])
            for arg in expr.args[1:]:
                other = self.range_of(arg)
                hi = (
                    None
                    if result.hi is None and other.hi is None
                    else min(
                        x for x in (result.hi, other.hi) if x is not None
                    )
                )
                result = IntRange(result.lo, hi)
            return result
        if tail == "max" and len(chain) == 1 and expr.args:
            result = self.range_of(expr.args[0])
            for arg in expr.args[1:]:
                other = self.range_of(arg)
                lo = (
                    None
                    if result.lo is None and other.lo is None
                    else max(
                        x for x in (result.lo, other.lo) if x is not None
                    )
                )
                result = IntRange(lo, result.hi)
            return result
        if tail == "popcount" and expr.args:
            return IntRange(0, None)
        if tail == "len":
            return IntRange(0, None)
        return UNKNOWN

    # -- statement effects ---------------------------------------------

    def assign(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            value = stmt.value
            if isinstance(target, ast.Name):
                self.env[target.id] = self.range_of(value)
            elif isinstance(target, ast.Tuple) and isinstance(
                value, ast.Call
            ):
                chain = _chain(value.func)
                if (
                    chain == ["divmod"]
                    and len(value.args) == 2
                    and len(target.elts) == 2
                    and all(
                        isinstance(e, ast.Name) for e in target.elts
                    )
                ):
                    dividend = self.range_of(value.args[0])
                    divisor = self.range_of(value.args[1])
                    quot = UNKNOWN
                    rem = UNKNOWN
                    if (
                        divisor.lo is not None
                        and divisor.lo > 0
                        and divisor.hi is not None
                    ):
                        rem = IntRange(0, divisor.hi - 1)
                        if dividend.lo is not None and dividend.lo >= 0:
                            quot = IntRange(
                                0,
                                None
                                if dividend.hi is None
                                else dividend.hi // divisor.lo,
                            )
                    self.env[target.elts[0].id] = quot  # type: ignore[attr-defined]
                    self.env[target.elts[1].id] = rem  # type: ignore[attr-defined]
                else:
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            self.env[element.id] = UNKNOWN
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            if stmt.value is not None:
                self.env[stmt.target.id] = self.range_of(stmt.value)
        elif isinstance(stmt, ast.AugAssign) and isinstance(
            stmt.target, ast.Name
        ):
            self.env[stmt.target.id] = UNKNOWN

    # -- branch narrowing ----------------------------------------------

    def narrow(self, test: ast.expr, negate: bool = False) -> None:
        """Refine the env under ``test`` (or ``not test``)."""
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self.narrow(test.operand, not negate)
            return
        if isinstance(test, ast.Name) and not negate:
            # Truthiness: a non-negative counter is at least 1.
            current = self.env.get(test.id, UNKNOWN)
            if current.lo is not None and current.lo >= 0:
                self.env[test.id] = IntRange(
                    max(current.lo, 1), current.hi
                )
            return
        if isinstance(test, ast.Compare) and not negate:
            self._narrow_compare(test)

    def _narrow_compare(self, test: ast.Compare) -> None:
        operands = [test.left] + list(test.comparators)
        for i, op in enumerate(test.ops):
            left, right = operands[i], operands[i + 1]
            if isinstance(right, ast.Name):
                bound = self.range_of(left)
                self._apply_bound(right.id, op, bound, is_left=False)
            if isinstance(left, ast.Name):
                bound = self.range_of(right)
                self._apply_bound(left.id, op, bound, is_left=True)

    def _apply_bound(
        self, name: str, op: ast.cmpop, bound: IntRange, is_left: bool
    ) -> None:
        current = self.env.get(name, UNKNOWN)
        lo, hi = current.lo, current.hi
        if is_left:
            # name <op> bound
            if isinstance(op, ast.Lt) and bound.hi is not None:
                hi = bound.hi - 1 if hi is None else min(hi, bound.hi - 1)
            elif isinstance(op, (ast.LtE, ast.Eq)) and bound.hi is not None:
                hi = bound.hi if hi is None else min(hi, bound.hi)
            elif isinstance(op, ast.Gt) and bound.lo is not None:
                lo = bound.lo + 1 if lo is None else max(lo, bound.lo + 1)
            elif isinstance(op, (ast.GtE, ast.Eq)) and bound.lo is not None:
                lo = bound.lo if lo is None else max(lo, bound.lo)
        else:
            # bound <op> name
            if isinstance(op, ast.Lt) and bound.lo is not None:
                lo = bound.lo + 1 if lo is None else max(lo, bound.lo + 1)
            elif isinstance(op, (ast.LtE, ast.Eq)) and bound.lo is not None:
                lo = bound.lo if lo is None else max(lo, bound.lo)
            elif isinstance(op, ast.Gt) and bound.hi is not None:
                hi = bound.hi - 1 if hi is None else min(hi, bound.hi - 1)
            elif isinstance(op, (ast.GtE, ast.Eq)) and bound.hi is not None:
                hi = bound.hi if hi is None else min(hi, bound.hi)
        self.env[name] = IntRange(lo, hi)


def module_constants(tree: ast.Module) -> Dict[str, int]:
    """Top-level integer constants (``WORD_BITS = 64``, ``X = 1 << 26``)."""
    consts: Dict[str, int] = {}
    evaluator = _Evaluator(consts)
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            found = evaluator.range_of(stmt.value)
            if found.lo is not None and found.lo == found.hi:
                consts[target.id] = found.lo
            else:
                consts.pop(target.id, None)
    return consts


@register_rule
class DomainBoundsRule(ProjectRule):
    """SKY602 — provable bit-width and table-size bounds.

    (a) ``np.uint64``-typed shifts need a count provably ``< 64``;
    (b) numpy allocations exponential in a variable need that variable
    guarded (any comparison naming it counts — ``if not 1 <= d <=
    PACKED_MAX_D: raise`` or an enclosing ``b * 3**d <=
    _PRESENCE_LIMIT`` gate), unless the function is a private helper
    with project callers (the public entry owns the bound).  A
    ``3**d`` size counts two bits per unit of ``d``.
    """

    code = "SKY602"
    name = "bit-width-and-bounds"
    summary = (
        "uint64 shift counts must be provably < 64 and exponential "
        "(2**d / 3**d / 4**d) table allocations must be guarded by a "
        "dimension bound"
    )

    def check_project(self, project: object) -> Iterator[Violation]:
        from repro.analysis.callgraph import ProjectContext

        assert isinstance(project, ProjectContext)
        graph = project.callgraph
        has_callers: Set[str] = {
            site.callee
            for sites in graph.edges.values()
            for site in sites
        }
        consts_by_module: Dict[str, Dict[str, int]] = {}
        for module, context in project.modules.items():
            consts_by_module[module] = module_constants(context.tree)
        # Resolve integer constants imported from project modules.
        for module, context in project.modules.items():
            consts = consts_by_module[module]
            for node in ast.walk(context.tree):
                if not isinstance(node, ast.ImportFrom) or node.level:
                    continue
                source = consts_by_module.get(node.module or "")
                if source is None:
                    continue
                for alias in node.names:
                    if alias.name in source:
                        consts.setdefault(
                            alias.asname or alias.name, source[alias.name]
                        )

        for fid, info in graph.functions.items():
            context = project.modules.get(info.module)
            if context is None:
                continue
            consts = consts_by_module.get(info.module, {})
            walker = _FunctionWalker(self, context, consts)
            walker.private_guarded = (
                info.name.startswith("_") and fid in has_callers
            )
            yield from walker.run(info.node)


class _FunctionWalker:
    """Drives the evaluator through one function body in order."""

    def __init__(self, rule: DomainBoundsRule, context, consts) -> None:
        self.rule = rule
        self.context = context
        self.evaluator = _Evaluator(consts)
        self.private_guarded = False
        self.compare_names: Set[str] = set()
        self.findings: List[Violation] = []

    def run(self, function: ast.AST) -> Iterator[Violation]:
        # Any comparison naming a variable counts as a guard for the
        # allocation check (generous on purpose: a linter that cannot
        # see every guard shape must not cry wolf).
        for node in ast.walk(function):
            if isinstance(node, ast.Compare):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name):
                        self.compare_names.add(sub.id)
        self._block(getattr(function, "body", []))
        yield from self.findings

    # -- statement traversal -------------------------------------------

    def _block(self, body) -> None:
        for stmt in body:
            self._statement(stmt)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are their own entries
        if isinstance(stmt, ast.If):
            self._inspect(stmt.test)
            raises = all(
                isinstance(s, (ast.Raise, ast.Return, ast.Continue))
                for s in stmt.body
            )
            branch = self.evaluator.copy()
            branch.narrow(stmt.test)
            saved = self.evaluator
            self.evaluator = branch
            self._block(stmt.body)
            self.evaluator = saved
            self._block(stmt.orelse)
            if raises and not stmt.orelse:
                # `if not <bound>: raise` — the fall-through is bound.
                self.evaluator.narrow(
                    ast.UnaryOp(op=ast.Not(), operand=stmt.test)
                )
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._inspect(stmt.iter)
            self._bind_loop_target(stmt)
            self._block(stmt.body)
            self._block(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self._inspect(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._inspect(item.context_expr)
            self._block(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
            return
        # Simple statement: inspect expressions, then apply effects.
        for expr in ast.iter_child_nodes(stmt):
            if isinstance(expr, ast.expr):
                self._inspect(expr)
        self.evaluator.assign(stmt)

    def _bind_loop_target(self, stmt) -> None:
        target, it = stmt.target, stmt.iter
        inner = it
        if (
            isinstance(inner, ast.Call)
            and _chain(inner.func) == ["reversed"]
            and inner.args
        ):
            inner = inner.args[0]
        if (
            isinstance(target, ast.Name)
            and isinstance(inner, ast.Call)
            and _chain(inner.func) == ["range"]
            and inner.args
        ):
            if len(inner.args) == 1:
                stop = self.evaluator.range_of(inner.args[0])
                self.evaluator.env[target.id] = IntRange(
                    0, None if stop.hi is None else stop.hi - 1
                )
            else:
                start = self.evaluator.range_of(inner.args[0])
                stop = self.evaluator.range_of(inner.args[1])
                self.evaluator.env[target.id] = IntRange(
                    start.lo, None if stop.hi is None else stop.hi - 1
                )
            return
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                self.evaluator.env[node.id] = UNKNOWN

    # -- expression inspection -----------------------------------------

    def _inspect(
        self, expr: ast.expr, enclosed: Optional[Set[int]] = None
    ) -> None:
        if enclosed is None:
            # Shifts lexically inside a np.uint64(...) cast are uint64
            # shifts even when neither operand says so.
            enclosed = set()
            for node in ast.walk(expr):
                if isinstance(node, ast.Call):
                    chain = _chain(node.func)
                    if chain and chain[-1] == "uint64":
                        for sub in ast.walk(node):
                            if isinstance(sub, ast.BinOp) and isinstance(
                                sub.op, (ast.LShift, ast.RShift)
                            ):
                                enclosed.add(id(sub))
        if isinstance(expr, ast.IfExp):
            # Conditional guards (`x if top < 64 else y`) narrow the
            # body exactly like an if-statement.
            self._inspect(expr.test, enclosed)
            saved = self.evaluator
            branch = saved.copy()
            branch.narrow(expr.test)
            self.evaluator = branch
            self._inspect(expr.body, enclosed)
            self.evaluator = saved
            self._inspect(expr.orelse, enclosed)
            return
        if isinstance(expr, ast.Lambda):
            return  # runs elsewhere, with its own arguments
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.LShift, ast.RShift)
        ):
            if id(expr) in enclosed or self._is_uint64_context(expr):
                self._check_shift(expr)
        elif isinstance(expr, ast.Call):
            self._maybe_check_allocation(expr)
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._inspect(child, enclosed)

    def _is_uint64_context(self, shift: ast.BinOp) -> bool:
        """uint64 is provably involved in this shift's operands."""
        for operand in (shift.left, shift.right):
            for node in ast.walk(operand):
                if isinstance(node, ast.Call):
                    chain = _chain(node.func)
                    if chain and chain[-1] == "uint64":
                        return True
                    if (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr == "astype"
                        and any(
                            _chain(a)[-1:] == ["uint64"]
                            for a in node.args
                        )
                    ):
                        return True
        return False

    def _check_shift(self, shift: ast.BinOp) -> None:
        amount = self.evaluator.range_of(shift.right)
        if amount.hi is not None and amount.hi < 64:
            return
        if self.context.is_suppressed(shift.lineno, self.rule.code):
            return
        shown = (
            "unbounded" if amount.hi is None else f"up to {amount.hi}"
        )
        self.findings.append(
            self.context.violation(
                shift,
                self.rule.code,
                f"uint64 shift count can reach >= 64 ({shown}): numpy "
                "wraps the count modulo the word width, silently "
                "corrupting the bitset — mask it (`& 63` / "
                "`divmod(x, WORD_BITS)`) or guard the range first",
            )
        )

    def _maybe_check_allocation(self, call: ast.Call) -> None:
        chain = _chain(call.func)
        if not chain or chain[-1] not in _ALLOCATORS or not call.args:
            return
        shape = call.args[0]
        for node in ast.walk(shape):
            if not isinstance(node, ast.BinOp):
                continue
            if isinstance(node.op, ast.LShift):
                exponent, scale = node.right, 1
            elif isinstance(node.op, ast.Pow) and (
                isinstance(node.left, ast.Constant)
                and isinstance(node.left.value, int)
                and node.left.value >= 2
            ):
                # Bits per unit of exponent: 1 for 2**d, 2 for 3**d.
                exponent = node.right
                scale = (node.left.value - 1).bit_length()
            else:
                continue
            bits = self.evaluator.range_of(exponent)
            if bits.hi is not None and bits.hi * scale <= _SIZE_BITS_LIMIT:
                continue
            drivers = {
                sub.id
                for sub in ast.walk(exponent)
                if isinstance(sub, ast.Name)
                and sub.id not in self.evaluator.consts
            }
            if not drivers:
                continue  # explicit constant: the author meant it
            if drivers & self.compare_names:
                continue  # some comparison names the driver: guarded
            if self.private_guarded:
                continue  # private helper; callers own the bound
            if self.context.is_suppressed(call.lineno, self.rule.code):
                continue
            names = ", ".join(sorted(drivers))
            self.findings.append(
                self.context.violation(
                    call,
                    self.rule.code,
                    "exponential table allocation with no bound on "
                    f"{names!r}: size grows exponentially in {names} — guard the "
                    "dimension (e.g. `if not 1 <= d <= PACKED_MAX_D: "
                    "raise`) before allocating",
                )
            )
            return  # one finding per allocation is enough