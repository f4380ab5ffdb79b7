//! Static concurrency analysis: lock-order cycles, guards held across
//! blocking calls, and atomics-ordering discipline.
//!
//! Unlike the token-local rules in [`crate::rules`], these checks need
//! a *cross-file* view: the lock-acquisition-order graph is global to
//! `crates/serve` + `crates/ingest`, and an edge added by one function
//! can close a cycle opened by another three files away. The pass
//! therefore runs once over the whole analysed file set:
//!
//! 1. **Symbol table** — every static/field declared `Mutex<..>` /
//!    `RwLock<..>` becomes a named lock; every `Atomic*` static/field
//!    becomes a named atomic. Names are the declared identifiers
//!    (`inflight`, `state`, `epoch`, ...), which is exactly the
//!    granularity the codebase's own comments argue order at.
//! 2. **Functions + call graph** — the item-level parser from
//!    [`crate::rules::functions`] gives every fn body; within a body
//!    the scan records, in token order: lock acquisitions (direct
//!    `x.lock()` / `.read()` / `.write()`, or through a `lock_*`
//!    poison-recovering helper), guard lifetimes (a `let`-bound guard
//!    lives to the end of its enclosing block or an explicit
//!    `drop(guard)`; a temporary lives to the end of its statement),
//!    calls to other analysed fns, and blocking operations.
//! 3. **Lock-order graph** — acquiring B while a guard on A is live
//!    adds the edge A→B; calling a fn whose body acquires B while
//!    holding A adds the same edge (one level of calls, matching the
//!    depth the codebase actually nests). Any edge whose target can
//!    reach its source back through the graph closes a cycle and is
//!    reported at the acquisition site (`lock-order-cycle`); a
//!    self-edge — re-acquiring a lock already held — is reported the
//!    same way, since `std::sync::Mutex` is not reentrant.
//! 4. **Guard-across-blocking** — a live guard at a blocking call
//!    (`fsync`/`sync_all`/`sync_data`, channel `recv`/`recv_timeout`,
//!    zero-argument thread `join()`, or a WAL `append`) stalls every
//!    other acquirer for the call's whole duration.
//! 5. **Atomics ordering** — loads/stores/RMWs with `Relaxed` on
//!    atomics whose *name* marks them as publication gates (`epoch`,
//!    `generation`, `ready`, `published`, `armed`, ...) are flagged:
//!    a Relaxed flag does not order the data it publishes. Counters
//!    (anything else) may stay Relaxed.
//!
//! Every rule honours the established
//! `// pmm-audit: allow(<rule>) — <reason>` escape hatch on the
//! offending line or the line above. `bad-allow` diagnostics are NOT
//! re-emitted here — [`crate::rules::check_source`] already reports
//! them once per file.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Token, TokenKind};
use crate::rules::{
    allow_suppresses, collect_allows, functions, is_keyword, strip_test_items, Allow, Violation,
};

/// Whether the concurrency rules apply to a workspace-relative path.
/// Scope mirrors the tentpole: the serving stack and the ingest path,
/// minus test code (same exemptions as the token-local rules).
pub fn conc_applicable(path: &str) -> bool {
    if path.split('/').any(|seg| seg == "tests") || path.ends_with("/tests.rs") {
        return false;
    }
    path.starts_with("crates/serve/src") || path.starts_with("crates/ingest/src")
}

/// Summary of one concurrency-analysis run.
#[derive(Debug)]
pub struct ConcReport {
    pub violations: Vec<Violation>,
    /// Distinct named locks in the symbol table.
    pub locks: usize,
    /// Distinct named atomics in the symbol table.
    pub atomics: usize,
    /// Functions analysed.
    pub fns: usize,
    /// Lock-order edges derived (deduplicated by `from→to`).
    pub edges: usize,
}

/// The types whose declarations name a lock.
const LOCK_TYPES: &[&str] = &["Mutex", "RwLock"];
/// The types whose declarations name an atomic.
const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool", "AtomicU8", "AtomicU16", "AtomicU32", "AtomicU64", "AtomicUsize",
    "AtomicI8", "AtomicI16", "AtomicI32", "AtomicI64", "AtomicIsize",
];
/// Atomic RMW/access methods whose ordering argument we inspect.
const ATOMIC_METHODS: &[&str] = &[
    "load", "store", "swap", "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
    "fetch_max", "fetch_min", "compare_exchange", "compare_exchange_weak", "fetch_update",
];

/// Whether an atomic's declared name marks it as a publication gate
/// (epoch/generation handoffs, readiness flags) rather than a counter.
fn publication_gate(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.contains("epoch")
        || lower.contains("generation")
        || matches!(lower.as_str(), "ready" | "published" | "armed" | "sealed" | "committed")
}

/// One event inside a function body, in token order. `at` is the
/// event's token index, used to expire guard extents.
enum Event {
    /// Acquire `lock`; the guard stays live until token `until`
    /// (exclusive). `var` is the guard binding, if `let`-bound.
    Acquire { at: usize, lock: String, line: u32, until: usize, var: Option<String> },
    /// A call to another analysed fn (one-level lock propagation).
    Call { at: usize, callee: String, line: u32 },
    /// A blocking operation (`op` names it for the report).
    Block { at: usize, op: &'static str, line: u32 },
    /// `drop(var)` — ends the named guard early.
    DropVar { at: usize, var: String },
}

impl Event {
    fn at(&self) -> usize {
        match self {
            Event::Acquire { at, .. }
            | Event::Call { at, .. }
            | Event::Block { at, .. }
            | Event::DropVar { at, .. } => *at,
        }
    }
}

struct FileInfo {
    path: String,
    code: Vec<Token>,
    allows: Vec<Allow>,
}

/// One derived lock-order edge: `from` was held when `to` was taken.
struct Edge {
    from: String,
    to: String,
    file: usize,
    line: u32,
    via: String,
}

/// Runs the concurrency pass over `(workspace-relative path, source)`
/// pairs. Files outside the serve/ingest scope are skipped, so the
/// caller may hand over the whole workspace.
pub fn check_concurrency(files: &[(String, String)]) -> ConcReport {
    let infos: Vec<FileInfo> = files
        .iter()
        .filter(|(path, _)| conc_applicable(path))
        .map(|(path, src)| {
            let tokens = lex(src);
            let (allows, _) = collect_allows(path, &tokens);
            let code = strip_test_items(
                tokens.into_iter().filter(|t| t.kind != TokenKind::Comment).collect(),
            );
            FileInfo { path: path.clone(), code, allows }
        })
        .collect();

    // Pass 1: symbol tables (locks + atomics) across all files.
    let mut locks: BTreeSet<String> = BTreeSet::new();
    let mut atomics: BTreeSet<String> = BTreeSet::new();
    for info in &infos {
        collect_decls(&info.code, &mut locks, &mut atomics);
    }

    // Pass 2: per-fn direct acquisitions (the call-graph summaries).
    // `lock_*`-named helpers are treated as guard constructors: a call
    // to one counts as a direct acquisition *in the caller*.
    let mut fn_events: Vec<(usize, crate::rules::Fn_, Vec<Event>)> = Vec::new();
    for (fidx, info) in infos.iter().enumerate() {
        for f in functions(&info.code) {
            let events = scan_body(&info.code, &f, &locks, &BTreeMap::new());
            fn_events.push((fidx, f, events));
        }
    }
    // Direct-acquisition summary per fn name (union over same-named
    // fns — deterministic, mildly over-approximate).
    let mut summaries: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (_, f, events) in &fn_events {
        let entry = summaries.entry(f.name.clone()).or_default();
        for e in events {
            if let Event::Acquire { lock, .. } = e {
                entry.insert(lock.clone());
            }
        }
    }

    // Pass 3: re-scan with summaries available so `lock_*` helper
    // calls resolve to the locks they take, then derive edges and the
    // guard-across-blocking findings.
    let mut edges: Vec<Edge> = Vec::new();
    let mut raw: Vec<Violation> = Vec::new();
    for (fidx, info) in infos.iter().enumerate() {
        for f in functions(&info.code) {
            let events = scan_body(&info.code, &f, &locks, &summaries);
            walk_events(&events, &summaries, fidx, &f.name, info, &mut edges, &mut raw);
        }
    }

    // Pass 4: cycle detection over the full edge set. An edge closes a
    // cycle when its target reaches back to its source (a self-edge
    // trivially does: std mutexes are not reentrant).
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    for e in &edges {
        let info = &infos[e.file];
        if e.from == e.to {
            raw.push(Violation {
                path: info.path.clone(),
                line: e.line,
                rule: "lock-order-cycle",
                msg: format!(
                    "fn `{}` re-acquires `{}` while already holding it — std mutexes are not reentrant, this self-deadlocks",
                    e.via, e.from
                ),
            });
        } else if let Some(chain) = find_path(&adj, &e.to, &e.from) {
            raw.push(Violation {
                path: info.path.clone(),
                line: e.line,
                rule: "lock-order-cycle",
                msg: format!(
                    "fn `{}` takes `{}` while holding `{}`, but another path orders {} — the orders can deadlock",
                    e.via,
                    e.to,
                    e.from,
                    chain.join(" -> "),
                ),
            });
        }
    }

    // Pass 5: atomics-ordering over whole files (no hold tracking).
    for info in &infos {
        scan_atomics(&info.path, &info.code, &atomics, &mut raw);
    }

    // Line-attached suppression, per file, then a deterministic order.
    let mut violations: Vec<Violation> = Vec::new();
    for v in raw {
        let allows = infos
            .iter()
            .find(|i| i.path == v.path)
            .map(|i| i.allows.as_slice())
            .unwrap_or(&[]);
        if !allow_suppresses(allows, v.rule, v.line) {
            violations.push(v);
        }
    }
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    violations.dedup_by(|a, b| (&a.path, a.line, a.rule, &a.msg) == (&b.path, b.line, b.rule, &b.msg));

    let edge_set: BTreeSet<(String, String)> =
        edges.iter().map(|e| (e.from.clone(), e.to.clone())).collect();
    ConcReport {
        violations,
        locks: locks.len(),
        atomics: atomics.len(),
        fns: fn_events.len(),
        edges: edge_set.len(),
    }
}

/// Finds `name: [wrappers] LockType<..>` declarations (statics and
/// struct fields). Walking back from the type ident, the tokens of a
/// type position (`<`, `[`, `&`, idents, `::`) are skipped until the
/// single `:` introducing the declaration; an expression position
/// (`Mutex::new(..)`, `=`, `(`) bails out.
fn collect_decls(code: &[Token], locks: &mut BTreeSet<String>, atomics: &mut BTreeSet<String>) {
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let is_lock = LOCK_TYPES.contains(&t.text.as_str());
        let is_atomic = ATOMIC_TYPES.contains(&t.text.as_str());
        if !is_lock && !is_atomic {
            continue;
        }
        if let Some(name) = declared_name(code, i) {
            if is_lock {
                locks.insert(name);
            } else {
                atomics.insert(name);
            }
        }
    }
}

/// Walks backwards from the type ident at `i` to the identifier being
/// declared, or `None` when `i` is not a declaration's type position.
fn declared_name(code: &[Token], i: usize) -> Option<String> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        match &code[j].kind {
            // Path separator `::` (lexed as two `:`): skip the pair
            // and the preceding path segment.
            TokenKind::Punct(':') if j > 0 && code[j - 1].is_punct(':') => {
                j -= 1;
            }
            // The single `:` that introduces the declared type: the
            // ident before it is the name.
            TokenKind::Punct(':') => {
                let cand = code.get(j.checked_sub(1)?)?;
                return (cand.kind == TokenKind::Ident && !is_keyword(cand))
                    .then(|| cand.text.clone());
            }
            // Type-position wrappers: `Vec<`, `[Mutex<..>; 3]`, `&`.
            TokenKind::Punct('<') | TokenKind::Punct('[') | TokenKind::Punct('&')
            | TokenKind::Punct('\'') => {}
            TokenKind::Ident if !is_keyword(&code[j]) => {}
            _ => return None,
        }
    }
    None
}

/// Whether calling `name` hands a guard back to the caller: the
/// codebase's poison-recovering helpers are all `lock_*`-named.
fn is_guard_helper(name: &str) -> bool {
    name.starts_with("lock_")
}

/// Scans one fn body into an ordered event list. `summaries` resolves
/// argument-less `lock_*` helper calls; pass an empty map for the
/// summary-building first pass.
fn scan_body(
    code: &[Token],
    f: &crate::rules::Fn_,
    locks: &BTreeSet<String>,
    summaries: &BTreeMap<String, BTreeSet<String>>,
) -> Vec<Event> {
    let (start, end) = f.body;
    // Brace depth per token, and the close index of the innermost open
    // block at each point, for `let`-bound guard lifetimes.
    let mut events = Vec::new();
    let mut i = start;
    while i < end {
        let t = &code[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let next_is = |off: usize, c: char| code.get(i + off).is_some_and(|n| n.is_punct(c));

        // drop(guard)
        if t.is_ident("drop") && next_is(1, '(') {
            if let Some(var) = code.get(i + 2).filter(|v| v.kind == TokenKind::Ident) {
                if next_is(3, ')') {
                    events.push(Event::DropVar { at: i, var: var.text.clone() });
                    i += 4;
                    continue;
                }
            }
        }

        // Direct acquisition: NAME.lock() / NAME.read() / NAME.write()
        if locks.contains(&t.text)
            && next_is(1, '.')
            && code
                .get(i + 2)
                .is_some_and(|m| m.is_ident("lock") || m.is_ident("read") || m.is_ident("write"))
            && next_is(3, '(')
        {
            let closer = matching_paren(code, i + 3, end);
            let (until, var) = guard_extent(code, i, closer, end);
            events.push(Event::Acquire { at: i, lock: t.text.clone(), line: t.line, until, var });
            i += 4;
            continue;
        }

        // Helper acquisition: lock_clean(&self.delta), self.lock_state(), ...
        if is_guard_helper(&t.text) && next_is(1, '(') {
            let close = matching_paren(code, i + 1, end);
            let arg_lock = code[i + 2..close.min(end)]
                .iter()
                .find(|a| a.kind == TokenKind::Ident && locks.contains(&a.text))
                .map(|a| a.text.clone());
            let resolved = arg_lock.or_else(|| {
                summaries.get(&t.text).and_then(|s| s.iter().next().cloned())
            });
            if let Some(lock) = resolved {
                let (until, var) = guard_extent(code, i, close, end);
                events.push(Event::Acquire { at: i, lock, line: t.line, until, var });
            }
            i = close;
            continue;
        }

        // Blocking operations while a guard could be live.
        let blocking: Option<&'static str> = if next_is(1, '(') {
            match t.text.as_str() {
                "sync_all" | "sync_data" | "fsync" => Some("fsync"),
                "recv" | "recv_timeout" => Some("channel recv"),
                // Zero-argument `.join()` is a thread join; `join(sep)`
                // (slices, paths) takes an argument and is cheap.
                "join" if next_is(2, ')') => Some("thread join"),
                "append" if i >= 2 && code[i - 1].is_punct('.')
                    && code[i - 2].text.contains("wal") => Some("WAL append"),
                _ => None,
            }
        } else {
            None
        };
        if let Some(op) = blocking {
            events.push(Event::Block { at: i, op, line: t.line });
            i += 1;
            continue;
        }

        // Calls to other fns (one-level lock propagation). Skip
        // keywords and the patterns already consumed above.
        if !is_keyword(t) && next_is(1, '(') {
            events.push(Event::Call { at: i, callee: t.text.clone(), line: t.line });
        }
        i += 1;
    }
    events
}

/// Determines how long the guard produced at token `i` stays live.
/// `closer` is the index just past the acquisition call's `)`.
///
/// - Method-chained (`lock_clean(&x).total()`, `if b.lock_x().admit()`)
///   — the guard is a temporary consumed by the chain; it dies at the
///   chain's end. (Slightly early for a chained `let` statement, where
///   Rust keeps it to the `;`; exact for `if`/`while` conditions,
///   which are their own temporary scope. A `match` scrutinee guard
///   living across the arms is a known blind spot.)
/// - `let`-bound (`let st = lock_state(..)`) — to the end of the
///   enclosing block, with the binding name for `drop()` tracking.
/// - Otherwise — to the end of the statement.
fn guard_extent(code: &[Token], i: usize, closer: usize, body_end: usize) -> (usize, Option<String>) {
    // `.unwrap()` / `.expect(..)` / `.unwrap_or_else(..)` on a
    // LockResult hand back the guard itself — skip them before
    // deciding whether the guard is consumed by a chain.
    let mut closer = closer;
    while code.get(closer).is_some_and(|t| t.is_punct('.'))
        && code.get(closer + 1).is_some_and(|m| {
            m.is_ident("unwrap") || m.is_ident("expect") || m.is_ident("unwrap_or_else")
        })
        && code.get(closer + 2).is_some_and(|t| t.is_punct('('))
    {
        closer = matching_paren(code, closer + 2, body_end);
    }
    if code.get(closer).is_some_and(|t| t.is_punct('.')) {
        return (chain_end(code, closer, body_end), None);
    }
    // Scan back to the statement start for a `let` binding.
    let mut j = i;
    let mut var = None;
    let mut is_let = false;
    while j > 0 {
        j -= 1;
        match &code[j].kind {
            TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}') => break,
            TokenKind::Ident if code[j].is_ident("let") => {
                is_let = true;
                let mut k = j + 1;
                if code.get(k).is_some_and(|t| t.is_ident("mut")) {
                    k += 1;
                }
                var = code.get(k).filter(|t| t.kind == TokenKind::Ident).map(|t| t.text.clone());
                break;
            }
            _ => {}
        }
    }
    // Forward: end of enclosing block (depth dips below zero) for a
    // binding, or the first top-level `;` for a temporary.
    let mut depth = 0i32;
    let mut k = i;
    while k < body_end {
        match &code[k].kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return (k, var);
                }
            }
            TokenKind::Punct(';') if depth == 0 && !is_let => return (k, var),
            _ => {}
        }
        k += 1;
    }
    (body_end, var)
}

/// Walks a method/field chain starting at the `.` at `k` and returns
/// the index just past it (`.get(x).cloned()` → past the last `)`).
fn chain_end(code: &[Token], mut k: usize, end: usize) -> usize {
    while k < end && code[k].is_punct('.') {
        k += 1;
        match code.get(k).map(|t| &t.kind) {
            Some(TokenKind::Ident) | Some(TokenKind::Number) => {
                k += 1;
                if k < end && code[k].is_punct('(') {
                    k = matching_paren(code, k, end);
                }
            }
            _ => break,
        }
    }
    k
}

/// The matching `)` for the `(` at `open` (clamped to `end`).
fn matching_paren(code: &[Token], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut k = open;
    while k < end {
        if code[k].is_punct('(') {
            depth += 1;
        } else if code[k].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    end
}

/// Replays one fn's events, deriving lock-order edges and
/// guard-across-blocking findings from the live-guard set.
fn walk_events(
    events: &[Event],
    summaries: &BTreeMap<String, BTreeSet<String>>,
    fidx: usize,
    fn_name: &str,
    info: &FileInfo,
    edges: &mut Vec<Edge>,
    raw: &mut Vec<Violation>,
) {
    // (lock, until-token, binding) for every live guard. Before each
    // event, guards whose extent ended at or before the event's token
    // position are expired.
    let mut held: Vec<(String, usize, Option<String>)> = Vec::new();
    for e in events {
        let at = e.at();
        held.retain(|(_, until, _)| *until > at);
        match e {
            Event::Acquire { lock, line, until, var, .. } => {
                for (from, _, _) in &held {
                    edges.push(Edge {
                        from: from.clone(),
                        to: lock.clone(),
                        file: fidx,
                        line: *line,
                        via: fn_name.to_string(),
                    });
                }
                held.push((lock.clone(), *until, var.clone()));
            }
            Event::Call { callee, line, .. } => {
                if held.is_empty() {
                    continue;
                }
                if let Some(acquired) = summaries.get(callee) {
                    for to in acquired {
                        for (from, _, _) in &held {
                            edges.push(Edge {
                                from: from.clone(),
                                to: to.clone(),
                                file: fidx,
                                line: *line,
                                via: fn_name.to_string(),
                            });
                        }
                    }
                }
            }
            Event::Block { op, line, .. } => {
                if let Some((lock, _, _)) = held.first() {
                    raw.push(Violation {
                        path: info.path.clone(),
                        line: *line,
                        rule: "guard-across-blocking",
                        msg: format!(
                            "fn `{fn_name}` holds the `{lock}` guard across a blocking {op} — every other acquirer stalls for its duration"
                        ),
                    });
                }
            }
            Event::DropVar { var, .. } => {
                held.retain(|(_, _, v)| v.as_deref() != Some(var.as_str()));
            }
        }
    }
}

/// Flags `Relaxed` accesses on publication-gating atomics anywhere in
/// a file's code tokens.
fn scan_atomics(path: &str, code: &[Token], atomics: &BTreeSet<String>, raw: &mut Vec<Violation>) {
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || !atomics.contains(&t.text) || !publication_gate(&t.text) {
            continue;
        }
        let Some(m) = code.get(i + 1).filter(|n| n.is_punct('.')).and(code.get(i + 2)) else {
            continue;
        };
        if m.kind != TokenKind::Ident
            || !ATOMIC_METHODS.contains(&m.text.as_str())
            || !code.get(i + 3).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        let close = matching_paren(code, i + 3, code.len());
        if code[i + 4..close].iter().any(|a| a.is_ident("Relaxed")) {
            raw.push(Violation {
                path: path.into(),
                line: t.line,
                rule: "atomics-ordering",
                msg: format!(
                    "`{}` gates data publication but is accessed with Ordering::Relaxed via `{}` — handoffs need Acquire/Release",
                    t.text, m.text
                ),
            });
        }
    }
}

/// Shortest path from `from` to `to` in the edge adjacency (BFS,
/// deterministic via BTree ordering); `None` when unreachable.
fn find_path<'a>(
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<String>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(from);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut chain = vec![n.to_string()];
            let mut cur = n;
            while let Some(&p) = prev.get(cur) {
                chain.push(p.to_string());
                cur = p;
            }
            chain.reverse();
            return Some(chain);
        }
        for &next in adj.get(n).into_iter().flatten() {
            if next != from && !prev.contains_key(next) {
                prev.insert(next, n);
                queue.push_back(next);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> ConcReport {
        check_concurrency(&[("crates/serve/src/probe.rs".into(), src.into())])
    }

    fn rules(r: &ConcReport) -> Vec<&'static str> {
        r.violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn symbol_table_finds_statics_fields_and_params() {
        let r = run(
            "use std::sync::Mutex;\n\
             static GLOBAL: Mutex<u64> = Mutex::new(0);\n\
             struct S { inner: Mutex<Vec<u8>>, epoch: std::sync::atomic::AtomicU64 }\n\
             fn helper(m: &Mutex<u64>) -> u64 { 0 }\n",
        );
        assert_eq!(r.locks, 3); // GLOBAL, inner, m
        assert_eq!(r.atomics, 1); // epoch
        assert!(r.violations.is_empty());
    }

    #[test]
    fn opposite_orders_cycle_and_consistent_orders_do_not() {
        let bad = run(
            "use std::sync::Mutex;\n\
             static A: Mutex<u64> = Mutex::new(0);\n\
             static B: Mutex<u64> = Mutex::new(0);\n\
             fn ab() { let ga = A.lock().unwrap_or_else(std::sync::PoisonError::into_inner); let gb = B.lock().unwrap_or_else(std::sync::PoisonError::into_inner); }\n\
             fn ba() { let gb = B.lock().unwrap_or_else(std::sync::PoisonError::into_inner); let ga = A.lock().unwrap_or_else(std::sync::PoisonError::into_inner); }\n",
        );
        assert_eq!(rules(&bad), vec!["lock-order-cycle", "lock-order-cycle"]);
        let good = run(
            "use std::sync::Mutex;\n\
             static A: Mutex<u64> = Mutex::new(0);\n\
             static B: Mutex<u64> = Mutex::new(0);\n\
             fn ab() { let ga = A.lock().unwrap_or_else(std::sync::PoisonError::into_inner); let gb = B.lock().unwrap_or_else(std::sync::PoisonError::into_inner); }\n\
             fn ab2() { let ga = A.lock().unwrap_or_else(std::sync::PoisonError::into_inner); let gb = B.lock().unwrap_or_else(std::sync::PoisonError::into_inner); }\n",
        );
        assert!(good.violations.is_empty());
        assert_eq!(good.edges, 1);
    }

    #[test]
    fn cycle_through_one_level_of_calls() {
        let r = run(
            "use std::sync::Mutex;\n\
             static C: Mutex<u64> = Mutex::new(0);\n\
             static D: Mutex<u64> = Mutex::new(0);\n\
             fn take_d() { let gd = D.lock().unwrap_or_else(std::sync::PoisonError::into_inner); }\n\
             fn c_then_call() { let gc = C.lock().unwrap_or_else(std::sync::PoisonError::into_inner); take_d(); }\n\
             fn dc() { let gd = D.lock().unwrap_or_else(std::sync::PoisonError::into_inner); let gc = C.lock().unwrap_or_else(std::sync::PoisonError::into_inner); }\n",
        );
        assert_eq!(rules(&r), vec!["lock-order-cycle", "lock-order-cycle"]);
    }

    #[test]
    fn chained_temporaries_and_drop_end_the_hold() {
        let r = run(
            "use std::sync::Mutex;\n\
             static P: Mutex<Vec<u64>> = Mutex::new(Vec::new());\n\
             fn chained(f: &std::fs::File) { let n = P.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len(); let _ = f.sync_all(); }\n\
             fn dropped(f: &std::fs::File) { let g = P.lock().unwrap_or_else(std::sync::PoisonError::into_inner); drop(g); let _ = f.sync_all(); }\n",
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn guard_across_blocking_variants() {
        let r = run(
            "use std::sync::Mutex;\n\
             static P: Mutex<u64> = Mutex::new(0);\n\
             fn a(f: &std::fs::File) { let g = P.lock().unwrap_or_else(std::sync::PoisonError::into_inner); let _ = f.sync_all(); }\n\
             fn b(rx: &std::sync::mpsc::Receiver<u64>) { let g = P.lock().unwrap_or_else(std::sync::PoisonError::into_inner); let _ = rx.recv(); }\n\
             fn c(h: std::thread::JoinHandle<()>) { let g = P.lock().unwrap_or_else(std::sync::PoisonError::into_inner); let _ = h.join(); }\n\
             fn d(parts: Vec<String>) -> String { let g = P.lock().unwrap_or_else(std::sync::PoisonError::into_inner); parts.join(\"-\") }\n",
        );
        // Three real blocks; `parts.join(\"-\")` takes an argument and
        // is not a thread join.
        assert_eq!(
            rules(&r),
            vec!["guard-across-blocking", "guard-across-blocking", "guard-across-blocking"]
        );
    }

    #[test]
    fn atomics_ordering_gates_vs_counters() {
        let r = run(
            "use std::sync::atomic::{AtomicU64, Ordering};\n\
             static SWAP_EPOCH: AtomicU64 = AtomicU64::new(0);\n\
             static HITS: AtomicU64 = AtomicU64::new(0);\n\
             fn bad() -> u64 { SWAP_EPOCH.load(Ordering::Relaxed) }\n\
             fn good() -> u64 { SWAP_EPOCH.load(Ordering::Acquire) }\n\
             fn counter() { HITS.fetch_add(1, Ordering::Relaxed); }\n",
        );
        assert_eq!(rules(&r), vec!["atomics-ordering"]);
    }

    #[test]
    fn allow_suppresses_each_rule() {
        let r = run(
            "use std::sync::Mutex;\n\
             use std::sync::atomic::{AtomicU64, Ordering};\n\
             static P: Mutex<u64> = Mutex::new(0);\n\
             static EPOCH: AtomicU64 = AtomicU64::new(0);\n\
             fn a(f: &std::fs::File) {\n\
                 let g = P.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n\
                 // pmm-audit: allow(guard-across-blocking) — test: sync of an empty file, returns immediately\n\
                 let _ = f.sync_all();\n\
             }\n\
             fn b() -> u64 {\n\
                 // pmm-audit: allow(atomics-ordering) — test: advisory read\n\
                 EPOCH.load(Ordering::Relaxed)\n\
             }\n",
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn scope_excludes_other_crates_and_tests() {
        let src = "use std::sync::Mutex;\n\
                   static P: Mutex<u64> = Mutex::new(0);\n\
                   fn a(f: &std::fs::File) { let g = P.lock().unwrap_or_else(std::sync::PoisonError::into_inner); let _ = f.sync_all(); }\n";
        let out = check_concurrency(&[("crates/tensor/src/probe.rs".into(), src.into())]);
        assert!(out.violations.is_empty());
        let out = check_concurrency(&[("crates/serve/tests/probe.rs".into(), src.into())]);
        assert!(out.violations.is_empty());
    }

    #[test]
    fn cross_file_edges_close_cycles() {
        let ab = "use std::sync::Mutex;\n\
                  static A: Mutex<u64> = Mutex::new(0);\n\
                  static B: Mutex<u64> = Mutex::new(0);\n\
                  fn ab() { let ga = A.lock().unwrap_or_else(std::sync::PoisonError::into_inner); let gb = B.lock().unwrap_or_else(std::sync::PoisonError::into_inner); }\n";
        let ba = "use std::sync::Mutex;\n\
                  static A: Mutex<u64> = Mutex::new(0);\n\
                  static B: Mutex<u64> = Mutex::new(0);\n\
                  fn ba() { let gb = B.lock().unwrap_or_else(std::sync::PoisonError::into_inner); let ga = A.lock().unwrap_or_else(std::sync::PoisonError::into_inner); }\n";
        let out = check_concurrency(&[
            ("crates/serve/src/one.rs".into(), ab.into()),
            ("crates/ingest/src/two.rs".into(), ba.into()),
        ]);
        assert_eq!(out.violations.len(), 2);
        let paths: Vec<&str> = out.violations.iter().map(|v| v.path.as_str()).collect();
        assert_eq!(paths, vec!["crates/ingest/src/two.rs", "crates/serve/src/one.rs"]);
    }
}
