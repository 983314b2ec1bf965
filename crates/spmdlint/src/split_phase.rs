//! SPMD001 and SPMD006 — the split-phase protocols.
//!
//! **SPMD001**, begin/finish pairing: every split-phase begin (`iall_reduce` returning a
//! `ReduceRequest`, `halo.begin` returning a `PendingExchange`) must
//! reach its finish (`reduce_finish`, `finish`) on **every** control-flow
//! path. The walker interprets a
//! function body statement-by-statement over the token tree:
//! `if`/`else` and `match` arms are merged with AND semantics (finished
//! only if finished on every arm), loops with OR, and `return` / `?` are
//! early-exit points that must not strand a live handle.
//!
//! Consumption is occurrence-based: once a handle is let-bound, any later
//! mention of the binding on a path counts as reaching the finish (the
//! finish call takes the handle by value, so mentioning it without
//! finishing does not compile) — except a call of one of its other
//! methods (`handle.method()`), which only borrows it. Handles that
//! escape — tail expressions, `return` values, results passed straight
//! into another call, or stores into existing places — are the caller's
//! obligation and are not tracked. Suppress a deliberate violation with
//! `// LINT: split-phase-ok(<reason>)` next to the begin site.
//!
//! **SPMD006**, the `#[must_use]` registry: the handle types whose
//! silent drop loses messages ([`MUST_USE_TYPES`]) must carry the
//! attribute.

use std::collections::BTreeSet;
use std::path::Path;

use crate::hygiene::SAFETY_WINDOW;
use crate::lexer::has_word;
use crate::tree::{FnItem, Tree};
use crate::{Finding, SrcInfo};

/// One family of split-phase operations.
struct BeginClass {
    /// Method names that open the phase.
    begins: &'static [&'static str],
    /// Method name that closes it (for diagnostics).
    finish: &'static str,
    /// Handle type name (for diagnostics).
    handle: &'static str,
    /// When true, a begin only counts if the receiver chain mentions a
    /// halo-ish binding (`ctx.halo.begin(…)`), so unrelated `begin`
    /// methods (recorders, scope guards) are ignored.
    contextual_halo: bool,
}

const CLASSES: &[BeginClass] = &[
    BeginClass {
        begins: &["iall_reduce"],
        finish: "reduce_finish",
        handle: "ReduceRequest",
        contextual_halo: false,
    },
    BeginClass {
        begins: &["begin"],
        finish: "finish",
        handle: "PendingExchange",
        contextual_halo: true,
    },
];

/// `(file, type)` pairs that must be `#[must_use]`: dropping one of
/// these silently abandons an in-flight message or a borrowed ghost
/// region.
pub const MUST_USE_TYPES: &[(&str, &str)] = &[
    ("crates/comm/src/types.rs", "RecvRequest"),
    ("crates/comm/src/types.rs", "ReduceRequest"),
    // Generic over the field width (`PendingExchange<E>`): one handle
    // for full- and single-precision exchanges.
    ("crates/blockgrid/src/halo.rs", "PendingExchange"),
    // Dropping a job handle silently discards the tenant's result.
    ("crates/serve/src/job.rs", "JobHandle"),
];

/// The classes match call sites by method name, so a renamed begin or
/// finish would silently stop being tracked: report every registered
/// name that no non-test `fn` in the workspace (`defined`) carries.
pub fn audit_registry(defined: &BTreeSet<String>, findings: &mut Vec<Finding>) {
    for class in CLASSES {
        for name in class.begins.iter().chain([&class.finish]) {
            if !defined.contains(*name) {
                findings.push(Finding {
                    code: "SPMD001",
                    path: "crates/spmdlint/src/split_phase.rs".to_string(),
                    line: 1,
                    message: format!(
                        "stale split-phase registry entry: no fn `{name}` ({} protocol) is \
                         defined in the workspace — renamed? Update CLASSES so the pairing \
                         stays checked",
                        class.handle
                    ),
                });
            }
        }
    }
}

/// A live split-phase handle on the current path.
#[derive(Clone)]
struct Handle {
    var: String,
    class: usize,
    begin_line: u32,
    consumed: bool,
}

/// Run SPMD001 over every non-test function of a file.
pub fn check(src: &SrcInfo<'_>, fns: &[FnItem], findings: &mut Vec<Finding>) {
    for f in fns.iter().filter(|f| !f.is_test) {
        let mut walker = Walker { src, findings };
        let mut handles = Vec::new();
        walker.walk_block(&f.body, f.close_line, &mut handles);
    }
}

struct Walker<'a, 'b> {
    src: &'a SrcInfo<'a>,
    findings: &'b mut Vec<Finding>,
}

impl Walker<'_, '_> {
    fn emit(&mut self, line: u32, message: String) {
        self.findings.push(Finding {
            code: "SPMD001",
            path: self.src.rel.to_string(),
            line,
            message,
        });
    }

    /// Report every live unconsumed handle stranded by an early exit at
    /// `line`, then mark them reported so each handle yields one finding.
    fn early_exit(&mut self, handles: &mut [Handle], line: u32, what: &str) {
        for h in handles {
            if h.consumed {
                continue;
            }
            h.consumed = true;
            let c = &CLASSES[h.class];
            self.emit(
                h.begin_line,
                format!(
                    "{} `{}` begun here (line {}) is not {}ed on the {} path at line {}",
                    c.handle, h.var, h.begin_line, c.finish, what, line
                ),
            );
        }
    }

    /// Interpret one block (function body, branch arm, nested block).
    /// Handles created inside the block are checked against its closing
    /// line and removed; consumption of inherited handles is left in
    /// `handles` for the caller to merge.
    fn walk_block(&mut self, items: &[Tree], close_line: u32, handles: &mut Vec<Handle>) {
        let baseline = handles.len();
        let mut i = 0;
        // Per-statement state.
        let mut pending_let: Option<Option<String>> = None; // Some(var) / let _
        let mut last_begin: Option<(usize, u32)> = None; // (class, line)
        let mut assigned = false;
        let mut returning = false;

        while i < items.len() {
            let t = &items[i];
            match t {
                Tree::Leaf(tok) if tok.is_punct(b';') => {
                    if returning {
                        self.early_exit(handles, tok.line(), "return");
                    } else if let Some((class, bline)) = last_begin {
                        match &pending_let {
                            Some(Some(var)) => {
                                if !self.src.annotated(bline, "split-phase-ok") {
                                    handles.push(Handle {
                                        var: var.clone(),
                                        class,
                                        begin_line: bline,
                                        consumed: false,
                                    });
                                }
                            }
                            Some(None) => {
                                let c = &CLASSES[class];
                                if !self.src.annotated(bline, "split-phase-ok") {
                                    self.emit(
                                        bline,
                                        format!(
                                            "{} from `{}` is discarded via `let _` — \
                                             call `{}` instead",
                                            c.handle, c.begins[0], c.finish
                                        ),
                                    );
                                }
                            }
                            None if assigned => {} // stored into an existing place
                            None => {
                                let c = &CLASSES[class];
                                if !self.src.annotated(bline, "split-phase-ok") {
                                    self.emit(
                                        bline,
                                        format!(
                                            "{} returned by this call is dropped in statement \
                                             position — it must reach `{}`",
                                            c.handle, c.finish
                                        ),
                                    );
                                }
                            }
                        }
                    }
                    pending_let = None;
                    last_begin = None;
                    assigned = false;
                    returning = false;
                    i += 1;
                }
                Tree::Leaf(tok) if tok.is_punct(b',') => {
                    // Value handed to an enclosing call/aggregate: escape.
                    last_begin = None;
                    i += 1;
                }
                Tree::Leaf(tok) if tok.is_punct(b'?') => {
                    self.early_exit(handles, tok.line(), "`?` early-exit");
                    i += 1;
                }
                Tree::Leaf(tok) if tok.is_punct(b'=') => {
                    let next_eq =
                        matches!(items.get(i + 1), Some(n) if n.is_punct(b'=') || n.is_punct(b'>'));
                    let prev_op = i > 0
                        && matches!(&items[i - 1], Tree::Leaf(p) if p.ident().is_none()
                            && !p.is_punct(b';') && !p.is_punct(b',') && !p.is_punct(b'{'));
                    if !next_eq && !prev_op && pending_let.is_none() {
                        assigned = true;
                    }
                    i += 1;
                }
                Tree::Leaf(tok) if tok.is_ident("let") => {
                    i = self.handle_let(items, i, handles, &mut pending_let);
                }
                Tree::Leaf(tok) if tok.is_ident("return") => {
                    returning = true;
                    i += 1;
                }
                Tree::Leaf(tok) if tok.is_ident("if") => {
                    i = self.handle_branches(items, i + 1, handles, false);
                }
                Tree::Leaf(tok) if tok.is_ident("match") => {
                    i = self.handle_match(items, i + 1, handles);
                }
                Tree::Leaf(tok) if tok.is_ident("while") || tok.is_ident("for") => {
                    i = self.handle_loop(items, i + 1, handles, true);
                }
                Tree::Leaf(tok) if tok.is_ident("loop") => {
                    i = self.handle_loop(items, i + 1, handles, false);
                }
                Tree::Leaf(tok) if tok.is_ident("fn") || tok.is_ident("macro_rules") => {
                    // Nested item: a different scope — skip its body.
                    i = skip_item(items, i);
                }
                Tree::Leaf(tok) if tok.is_ident("else") => {
                    // `let … else { diverge }`: walk for findings; state
                    // after the statement is the non-diverging path.
                    if let Some(Tree::Group {
                        items: g,
                        close_line: cl,
                        ..
                    }) = items.get(i + 1)
                    {
                        let mut clone = handles.to_vec();
                        self.walk_block(g, *cl, &mut clone);
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                Tree::Leaf(tok) => {
                    if let Some(name) = tok.ident() {
                        mention(items, i, name, handles);
                        if !returning {
                            if let Some(class) = begin_class_at(items, i) {
                                last_begin = Some((class, tok.line()));
                            }
                        }
                    }
                    i += 1;
                }
                Tree::Group {
                    items: g,
                    close_line: cl,
                    ..
                } => {
                    // Call arguments, plain/unsafe blocks, aggregates:
                    // sequential semantics.
                    self.walk_block(g, *cl, handles);
                    i += 1;
                }
            }
        }

        if returning {
            self.early_exit(handles, close_line, "return");
        }
        // `last_begin` still set: tail expression — the block's value,
        // consumed by whoever evaluates the block. Escape, not a finding.
        for h in &handles[baseline..] {
            if !h.consumed {
                let c = &CLASSES[h.class];
                self.emit(
                    h.begin_line,
                    format!(
                        "{} `{}` begun here (line {}) never reaches `{}` on the fall-through \
                         path before its scope ends at line {}",
                        c.handle, h.var, h.begin_line, c.finish, close_line
                    ),
                );
            }
        }
        handles.truncate(baseline);
    }

    /// Parse a `let` statement's pattern: shadow-check + extract the
    /// bound variable, then resume the dispatcher just after the `=` (or
    /// at the `;` for `let x;`).
    fn handle_let(
        &mut self,
        items: &[Tree],
        at: usize,
        handles: &mut [Handle],
        pending_let: &mut Option<Option<String>>,
    ) -> usize {
        let mut var: Option<String> = None;
        let mut j = at + 1;
        while j < items.len() {
            match &items[j] {
                Tree::Leaf(t) if t.is_punct(b'=') => {
                    // `let p = …` — stop unless this is `==`.
                    if !matches!(items.get(j + 1), Some(n) if n.is_punct(b'=')) {
                        j += 1;
                        break;
                    }
                    j += 2;
                }
                Tree::Leaf(t) if t.is_punct(b';') => break,
                Tree::Leaf(t) if t.is_punct(b':') => {
                    // Type ascription: skip to `=`/`;` without treating
                    // type names as pattern bindings.
                    while j < items.len() && !items[j].is_punct(b'=') && !items[j].is_punct(b';') {
                        j += 1;
                    }
                }
                Tree::Leaf(t) => {
                    if let Some(name) = t.ident() {
                        if !matches!(name, "mut" | "ref" | "box") {
                            // Rebinding an unconsumed handle's name loses
                            // the old handle.
                            if let Some(h) =
                                handles.iter_mut().find(|h| h.var == name && !h.consumed)
                            {
                                h.consumed = true;
                                let c = &CLASSES[h.class];
                                let (bline, hvar) = (h.begin_line, h.var.clone());
                                if !self.src.annotated(bline, "split-phase-ok") {
                                    self.emit(
                                        bline,
                                        format!(
                                            "{} `{}` begun here (line {}) is shadowed by a new \
                                             `let {}` at line {} before `{}`",
                                            c.handle,
                                            hvar,
                                            bline,
                                            hvar,
                                            t.line(),
                                            c.finish
                                        ),
                                    );
                                }
                            }
                            if var.is_none() {
                                var = Some(name.to_string());
                            }
                        }
                    }
                    j += 1;
                }
                Tree::Group { .. } => j += 1, // tuple/struct pattern pieces
            }
        }
        *pending_let = Some(var);
        j
    }

    /// Walk an `if`/`else if`/`else` chain starting at the condition.
    /// Returns the index past the chain. `as_loop` reuses this for loop
    /// headers (single body, OR merge).
    fn handle_branches(
        &mut self,
        items: &[Tree],
        cond_start: usize,
        handles: &mut [Handle],
        _as_loop: bool,
    ) -> usize {
        let Some((body_idx, _)) = self.walk_header(items, cond_start, handles) else {
            return cond_start;
        };
        let mut branch_flags: Vec<Vec<bool>> = Vec::new();
        let mut k = body_idx;
        let mut has_else = false;
        while let Some(Tree::Group {
            items: g,
            close_line: cl,
            ..
        }) = items.get(k)
        {
            let mut clone = handles.to_vec();
            self.walk_block(g, *cl, &mut clone);
            branch_flags.push(clone.iter().map(|h| h.consumed).collect());
            if matches!(items.get(k + 1), Some(t) if t.is_ident("else")) {
                match items.get(k + 2) {
                    Some(Tree::Group { .. }) => {
                        has_else = true;
                        k += 2;
                        // final else: loop once more to walk it, then stop
                        let Some(Tree::Group {
                            items: g,
                            close_line: cl,
                            ..
                        }) = items.get(k)
                        else {
                            break;
                        };
                        let mut clone = handles.to_vec();
                        self.walk_block(g, *cl, &mut clone);
                        branch_flags.push(clone.iter().map(|h| h.consumed).collect());
                        k += 1;
                        break;
                    }
                    Some(t) if t.is_ident("if") => match self.walk_header(items, k + 3, handles) {
                        Some((next_body, _)) => k = next_body,
                        None => {
                            k += 3;
                            break;
                        }
                    },
                    _ => {
                        k += 1;
                        break;
                    }
                }
            } else {
                k += 1;
                break;
            }
        }
        if !has_else {
            branch_flags.push(handles.iter().map(|h| h.consumed).collect());
        }
        merge_all(handles, &branch_flags);
        k
    }

    /// Walk a `match` expression starting at the scrutinee.
    fn handle_match(
        &mut self,
        items: &[Tree],
        scrut_start: usize,
        handles: &mut [Handle],
    ) -> usize {
        let Some((body_idx, _)) = self.walk_header(items, scrut_start, handles) else {
            return scrut_start;
        };
        let Some(Tree::Group {
            items: g,
            close_line: group_close,
            ..
        }) = items.get(body_idx)
        else {
            return body_idx;
        };
        let mut branch_flags: Vec<Vec<bool>> = Vec::new();
        let mut p = 0;
        while p < g.len() {
            // Pattern (and optional guard) up to the top-level `=>`.
            let mut arrow = None;
            let mut q = p;
            while q + 1 < g.len() {
                if g[q].is_punct(b'=') && g[q + 1].is_punct(b'>') {
                    arrow = Some(q);
                    break;
                }
                q += 1;
            }
            let Some(arrow) = arrow else { break };
            let body = arrow + 2;
            let mut clone = handles.to_vec();
            let next = match g.get(body) {
                Some(Tree::Group {
                    delim: b'{',
                    items: arm,
                    close_line: cl,
                    ..
                }) => {
                    self.walk_block(arm, *cl, &mut clone);
                    let mut n = body + 1;
                    if matches!(g.get(n), Some(t) if t.is_punct(b',')) {
                        n += 1;
                    }
                    n
                }
                Some(_) => {
                    // Expression arm: up to the next top-level `,`.
                    let mut r = body;
                    while r < g.len() && !g[r].is_punct(b',') {
                        r += 1;
                    }
                    self.walk_block(&g[body..r], *group_close, &mut clone);
                    r + 1
                }
                None => break,
            };
            branch_flags.push(clone.iter().map(|h| h.consumed).collect());
            p = next;
        }
        if !branch_flags.is_empty() {
            merge_all(handles, &branch_flags);
        }
        body_idx + 1
    }

    /// Walk a loop (`while`/`for`: body may run zero times — but we still
    /// merge with OR, accepting the approximation; `loop`: runs at least
    /// once). Returns the index past the body.
    fn handle_loop(
        &mut self,
        items: &[Tree],
        header_start: usize,
        handles: &mut [Handle],
        has_header: bool,
    ) -> usize {
        let body_idx = if has_header {
            match self.walk_header(items, header_start, handles) {
                Some((idx, _)) => idx,
                None => return header_start,
            }
        } else {
            header_start
        };
        let Some(Tree::Group {
            items: g,
            close_line: cl,
            ..
        }) = items.get(body_idx)
        else {
            return body_idx;
        };
        let mut clone = handles.to_vec();
        self.walk_block(g, *cl, &mut clone);
        for (h, c) in handles.iter_mut().zip(&clone) {
            h.consumed |= c.consumed;
        }
        body_idx + 1
    }

    /// Consume occurrences in a condition/scrutinee/loop header: the
    /// tokens up to the first top-level `{` group that is not a pattern
    /// (i.e. not followed by `=`). Returns `(body_index, header_len)`.
    fn walk_header(
        &mut self,
        items: &[Tree],
        start: usize,
        handles: &mut [Handle],
    ) -> Option<(usize, usize)> {
        let mut k = start;
        while k < items.len() {
            if items[k].is_group(b'{') && !matches!(items.get(k + 1), Some(n) if n.is_punct(b'=')) {
                // Consume identifier occurrences in the header.
                let header = &items[start..k];
                consume_occurrences(header, handles);
                return Some((k, k - start));
            }
            if items[k].is_punct(b';') {
                return None; // malformed — bail out of this construct
            }
            k += 1;
        }
        None
    }
}

/// Mark every handle mentioned anywhere in `items` as consumed.
fn consume_occurrences(items: &[Tree], handles: &mut [Handle]) {
    for (i, t) in items.iter().enumerate() {
        match t {
            Tree::Leaf(tok) => {
                if let Some(name) = tok.ident() {
                    mention(items, i, name, handles);
                }
            }
            Tree::Group { items, .. } => consume_occurrences(items, handles),
        }
    }
}

/// The identifier `name` at `items[at]` mentions a live handle: it
/// consumes the handle, unless it only calls a method of it other than
/// its finish (`handle.method()` borrows; `handle.finish(…)`, named
/// like its class's finish, finishes).
fn mention(items: &[Tree], at: usize, name: &str, handles: &mut [Handle]) {
    let Some(h) = handles.iter_mut().find(|h| h.var == name) else {
        return;
    };
    let method = match (items.get(at + 1), items.get(at + 2)) {
        (Some(dot), Some(m)) if dot.is_punct(b'.') => m.ident(),
        _ => None,
    };
    if method.is_none_or(|m| m == CLASSES[h.class].finish) {
        h.consumed = true;
    }
}

/// AND-merge branch consumption flags back into the inherited handles.
fn merge_all(handles: &mut [Handle], branch_flags: &[Vec<bool>]) {
    for (idx, h) in handles.iter_mut().enumerate() {
        h.consumed = branch_flags
            .iter()
            .all(|f| f.get(idx).copied().unwrap_or(true));
    }
}

/// Skip a nested `fn`/`macro_rules` item: advance past its body group.
fn skip_item(items: &[Tree], at: usize) -> usize {
    let mut j = at + 1;
    while j < items.len() {
        if items[j].is_punct(b';') {
            return j + 1;
        }
        if items[j].is_group(b'{') {
            return j + 1;
        }
        j += 1;
    }
    j
}

/// Classify `items[at]` as a split-phase begin call: the identifier must
/// be invoked (`.name(…)` / `::name(…)`) and, for contextual classes,
/// the receiver chain must mention a halo-ish binding.
fn begin_class_at(items: &[Tree], at: usize) -> Option<usize> {
    let name = items[at].ident()?;
    let class = CLASSES.iter().position(|c| c.begins.contains(&name))?;
    // Must be a call: previous sibling `.`/`:` and next a `(…)` group.
    let called = at > 0
        && (items[at - 1].is_punct(b'.') || items[at - 1].is_punct(b':'))
        && matches!(items.get(at + 1), Some(g) if g.is_group(b'('));
    if !called {
        return None;
    }
    if CLASSES[class].contextual_halo && !receiver_is_halo(items, at) {
        return None;
    }
    Some(class)
}

/// Walk the receiver chain left of `.begin(` looking for a halo-ish
/// name: `ctx.halo.begin(…)`, `self.exchange.begin(…)`.
fn receiver_is_halo(items: &[Tree], at: usize) -> bool {
    let mut j = at.wrapping_sub(1); // the `.`
    while j > 0 {
        j -= 1;
        match &items[j] {
            Tree::Leaf(t) => {
                if let Some(name) = t.ident() {
                    let lower = name.to_ascii_lowercase();
                    if lower.contains("halo") || lower.contains("exchange") {
                        return true;
                    }
                } else if !t.is_punct(b'.') {
                    return false;
                }
            }
            Tree::Group { delim: b'(', .. } | Tree::Group { delim: b'[', .. } => continue,
            Tree::Group { .. } => return false,
        }
    }
    false
}

/// SPMD006: check that the listed split-phase handle types are
/// `#[must_use]`.
pub fn audit_must_use(root: &Path, findings: &mut Vec<Finding>) {
    for (rel, ty) in MUST_USE_TYPES {
        let path = root.join(rel);
        let Ok(text) = std::fs::read_to_string(&path) else {
            findings.push(Finding {
                code: "SPMD006",
                path: (*rel).to_string(),
                line: 1,
                message: format!("missing (expected to define {ty})"),
            });
            continue;
        };
        let lines: Vec<&str> = text.lines().collect();
        let decl = lines
            .iter()
            .position(|l| has_word(l, "struct") && has_word(l, ty));
        let Some(decl) = decl else {
            findings.push(Finding {
                code: "SPMD006",
                path: (*rel).to_string(),
                line: 1,
                message: format!("type {ty} not found"),
            });
            continue;
        };
        let lo = decl.saturating_sub(SAFETY_WINDOW);
        // Both `#[must_use]` and `#[must_use = "reason"]` count.
        let marked = lines[lo..=decl].iter().any(|l| l.contains("#[must_use"));
        if !marked {
            findings.push(Finding {
                code: "SPMD006",
                path: (*rel).to_string(),
                line: (decl + 1) as u32,
                message: format!("{ty} must be #[must_use] (dropping it loses in-flight messages)"),
            });
        }
    }
}
