"""Verdict checker, written apart from ``daf``.

Nothing here imports the program: formulas are parsed by a small parser
of this module's own and evaluated over an explicit truth table, and
grounded semantics is computed by a labelling of its own.  Each check
returns a list of problems (empty when the answer is right), so a test
can hand it a wrong answer and see it rejected.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Set, Tuple

_TOKEN = re.compile(r"\s*(<->|->|[~&|()]|[a-z][a-zA-Z0-9_]*)")


# ---------------------------------------------------------------------------
# formulas: parse to a nested tuple, then evaluate over a truth table


def parse(text: str):
    """Parse a propositional formula (``~ & | -> <->``, ``true``,
    ``false``, parentheses; ``~`` binds tightest, binary operators
    associate to the left) into a nested tuple."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot read {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tree, rest = _binary(tokens, 0)
    if rest != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return tree


_LEVELS = ["<->", "->", "|", "&"]


def _binary(tokens, i, level=0):
    if level == len(_LEVELS):
        return _unary(tokens, i)
    left, i = _binary(tokens, i, level + 1)
    while i < len(tokens) and tokens[i] == _LEVELS[level]:
        right, i = _binary(tokens, i + 1, level + 1)
        left = (_LEVELS[level], left, right)
    return left, i


def _unary(tokens, i):
    tok = tokens[i]
    if tok == "~":
        body, i = _unary(tokens, i + 1)
        return ("~", body), i
    if tok == "(":
        body, i = _binary(tokens, i + 1)
        if tokens[i] != ")":
            raise ValueError("missing ')'")
        return body, i + 1
    if tok in ("true", "false"):
        return (tok,), i + 1
    return ("atom", tok), i + 1


def atoms(tree) -> Set[str]:
    if tree[0] == "atom":
        return {tree[1]}
    out: Set[str] = set()
    for part in tree[1:]:
        out |= atoms(part)
    return out


class TruthTable:
    """Models of formulas as bit sets over every assignment to the
    atoms: bit ``r`` stands for the assignment in which atom ``i`` is
    true iff bit ``i`` of ``r`` is set."""

    def __init__(self, names: Iterable[str]):
        self.names = sorted(set(names))
        self.rows = 1 << len(self.names)
        self.full = (1 << self.rows) - 1
        self.pattern: Dict[str, int] = {}
        for i, name in enumerate(self.names):
            bits = bytearray(self.rows)
            for r in range(self.rows):
                bits[r] = (r >> i) & 1
            # bit r of the integer is bits[r]
            self.pattern[name] = int("".join("1" if b else "0"
                                             for b in reversed(bits)), 2)

    def models(self, tree) -> int:
        op = tree[0]
        if op == "atom":
            return self.pattern[tree[1]]
        if op == "true":
            return self.full
        if op == "false":
            return 0
        if op == "~":
            return self.full ^ self.models(tree[1])
        left, right = self.models(tree[1]), self.models(tree[2])
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "->":
            return (self.full ^ left) | right
        return self.full ^ (left ^ right)  # <->

    def entails(self, premise: int, conclusion: int) -> bool:
        return premise & ~conclusion & self.full == 0


class KbView:
    """A KB text read by the checker: its settled base (constraints,
    and facts, which count as settled) over the atoms of the KB and of
    the queries asked against it."""

    def __init__(self, kb_text: str, queries: Sequence[str] = ()):
        settled = []
        names: Set[str] = set()
        for raw in kb_text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, rest = line.partition(" ")
            if head in ("fact", "constraint"):
                tree = parse(rest)
                settled.append(tree)
                names |= atoms(tree)
            else:
                left, _, right = rest.partition("=>")
                right = re.sub(r"^\s*\[\d+\]", "", right)
                names |= atoms(parse(left)) | atoms(parse(right))
        self.queries = {q: parse(_body(q)) for q in queries}
        for tree in self.queries.values():
            names |= atoms(tree)
        self.table = TruthTable(names)
        self.settled = self.table.full
        for tree in settled:
            self.settled &= self.table.models(tree)

    def query_models(self, query: str) -> int:
        return self.table.models(self.queries[query])


def _body(query: str) -> str:
    if not query.startswith("O "):
        raise ValueError(f"not a query: {query!r}")
    return query[2:]


# ---------------------------------------------------------------------------
# verdict checks


def check_expected(verdicts: Dict[Tuple[str, str], bool],
                   expected: Dict[Tuple[str, str], bool]
                   ) -> List[Tuple[str, str]]:
    """Cells with a known verdict (the paper's) must get it.  Returns
    (query, problem) pairs, as every check of a verdict does."""
    return [(cell[0], f"{cell}: got {verdicts[cell]}, paper says {want}")
            for cell, want in expected.items()
            if cell in verdicts and verdicts[cell] != want]


def check_batch(view: KbView, derivable: Dict[str, bool],
                closure: bool = True) -> List[Tuple[str, str]]:
    """Within one KB and one semantics: no two derivable queries whose
    bodies are classical complements of each other, and (with
    ``closure``) the derivable set closed under classical consequence
    among the batch: O A derivable and A |= B give O B derivable."""
    problems = []
    full = view.table.full
    masks = {q: view.query_models(q) for q in derivable}
    for a, ok_a in derivable.items():
        if not ok_a:
            continue
        for b, ok_b in derivable.items():
            if a == b:
                continue
            if ok_b and masks[b] == full ^ masks[a]:
                problems.append((b, f"both {a} and {b} derivable"))
            if closure and not ok_b and view.table.entails(masks[a],
                                                           masks[b]):
                problems.append(
                    (b, f"{a} derivable and entails {b}, which is not"))
    return problems


def check_settled_consistent(view: KbView, derivable: Dict[str, bool]
                             ) -> List[Tuple[str, str]]:
    """Every derivable O A is jointly satisfiable with the settled
    base."""
    return [(q, f"{q} derivable but contradicts the settled base")
            for q, ok in derivable.items()
            if ok and view.settled & view.query_models(q) == 0]


# ---------------------------------------------------------------------------
# grounded semantics by labelling


def _index(nodes: Sequence[int], attacks: Iterable[Tuple[int, int]]):
    attackers: Dict[int, Set[int]] = {n: set() for n in nodes}
    targets: Dict[int, Set[int]] = {n: set() for n in nodes}
    for src, dst in attacks:
        attackers[dst].add(src)
        targets[src].add(dst)
    return attackers, targets


def grounded_labelling(nodes: Sequence[int],
                       attacks: Iterable[Tuple[int, int]]) -> Set[int]:
    """The grounded extension by propagation: a node goes IN once every
    attacker is OUT, and a node goes OUT once some attacker is IN.
    Each edge is looked at a bounded number of times."""
    attackers, targets = _index(nodes, attacks)
    live = {n: len(attackers[n]) for n in nodes}
    accepted: Set[int] = set()
    rejected: Set[int] = set()
    queue = [n for n in nodes if live[n] == 0]
    while queue:
        n = queue.pop()
        accepted.add(n)
        for t in targets[n]:
            if t in rejected:
                continue
            rejected.add(t)
            for u in targets[t]:
                live[u] -= 1
                if live[u] == 0 and u not in rejected:
                    queue.append(u)
    return accepted


def grounded_stages(nodes: Sequence[int],
                    attacks: Iterable[Tuple[int, int]]) -> List[Set[int]]:
    """Stage 0 is the unattacked nodes, stage i+1 the nodes whose every
    attacker is attacked by stage i, up to the first repeat."""
    attackers, targets = _index(nodes, attacks)
    stage = {n for n in nodes if not attackers[n]}
    stages = [stage]
    while True:
        hit = set()
        for n in stage:
            hit |= targets[n]
        following = {n for n in nodes if attackers[n] <= hit}
        if following == stage:
            return stages
        stage = following
        stages.append(stage)


def check_grounded(nodes: Sequence[int], attacks: Sequence[Tuple[int, int]],
                   grounded: Iterable[int]) -> List[str]:
    """The claimed grounded set is conflict-free, complete (it holds
    exactly the nodes it defends) and equal to the labelling's."""
    members = set(grounded)
    attackers, targets = _index(nodes, attacks)
    problems = []
    for src, dst in attacks:
        if src in members and dst in members:
            problems.append(f"conflict: {src} attacks {dst}")
            break
    hit = set()
    for n in members:
        hit |= targets[n]
    defended = {n for n in nodes if attackers[n] <= hit}
    if defended - members:
        problems.append(f"defended but left out: "
                        f"{sorted(defended - members)[:5]}")
    if members - defended:
        problems.append(f"undefended members: "
                        f"{sorted(members - defended)[:5]}")
    if members != grounded_labelling(nodes, attacks):
        problems.append("differs from the grounded labelling")
    return problems


def check_export(record: dict, dot_text: str) -> List[str]:
    """An export's grounded set and stages match the labelling of its
    own attacks, every child id precedes its parent, and the DOT file
    draws one attack line per JSON attack."""
    nodes = [a["id"] for a in record["arguments"]]
    attacks = [(e["from"], e["to"]) for e in record["attacks"]]
    problems = check_grounded(nodes, attacks, record["grounded"])
    stages = [sorted(s) for s in grounded_stages(nodes, attacks)]
    if stages != record["stages"]:
        problems.append(f"stages differ: {len(stages)} computed, "
                        f"{len(record['stages'])} exported")
    for a in record["arguments"]:
        if any(c >= a["id"] for c in a["children"]):
            problems.append(f"argument {a['id']} has a later child")
            break
    drawn = sum(1 for line in dot_text.splitlines()
                if "->" in line and "style=dashed" not in line)
    if drawn != len(record["attacks"]):
        problems.append(f"DOT draws {drawn} attacks, JSON has "
                        f"{len(record['attacks'])}")
    return problems


def check_conflict_edges(record: dict) -> List[str]:
    """A ``basic`` export's conflict edges, recomputed from its
    arguments: z attacks y, and every superargument of y (an argument
    whose constituents strictly include y's), when the body of z's
    obligation is the syntactic complement of y's (one is the other
    negated).  Missing and extra edges are both problems."""
    cs = {a["id"]: frozenset(a["cs"]) for a in record["arguments"]}
    containing: Dict[str, List[int]] = defaultdict(list)
    for a in record["arguments"]:
        for f in a["cs"]:
            containing[f].append(a["id"])
    deontic = [a for a in record["arguments"]
               if a["conclusion"].startswith("O ")]
    by_body: Dict[tuple, List[int]] = defaultdict(list)
    body = {}
    for a in deontic:
        body[a["id"]] = parse(a["conclusion"][2:])
        by_body[body[a["id"]]].append(a["id"])
    expected = set()
    for y in deontic:
        t = body[y["id"]]
        partners = by_body.get(("~", t), [])
        if t[0] == "~":
            partners = partners + by_body.get(t[1], [])
        if not partners:
            continue
        targets = [y["id"]] + [s for s in containing[y["conclusion"]]
                               if cs[y["id"]] < cs[s]]
        expected.update((z, s) for z in partners for s in targets)
    got = {(e["from"], e["to"]) for e in record["attacks"]
           if e["kind"] == "conflict"}
    problems = []
    if expected - got:
        problems.append(f"{len(expected - got)} conflict edges missing, "
                        f"e.g. {sorted(expected - got)[:3]}")
    if got - expected:
        problems.append(f"{len(got - expected)} conflict edges not due, "
                        f"e.g. {sorted(got - expected)[:3]}")
    return problems
