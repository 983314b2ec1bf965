//! SPMD002 — collectives under rank-dependent control flow.
//!
//! Every rank must execute the same collective sequence, or the program
//! deadlocks (some ranks wait in a barrier the others never enter). The
//! pass taints rank-derived bindings — `rank`, `is_root`, anything let-
//! bound from a tainted initializer — and flags collective calls that
//! sit lexically inside an `if`/`match`/loop whose condition or
//! scrutinee mentions a tainted name.
//!
//! Two escapes keep the signal clean:
//!
//! - **Balanced arms**: when every arm of a rank-dependent `if`/`else`
//!   or `match` performs the *same* collective sequence (e.g. a barrier
//!   in both arms), all ranks still agree — no finding.
//! - **Annotation**: `// LINT: collective-uniform(<reason>)` on or just
//!   above the call line vouches that the condition is rank-uniform in
//!   practice (e.g. a config flag replicated on every rank).

use std::collections::HashSet;

use crate::tree::{FnItem, Tree};
use crate::{Finding, SrcInfo};

/// Names whose *call* is a collective: all ranks must reach it together.
const COLLECTIVES: &[&str] = &["all_reduce", "iall_reduce", "reduce_finish", "barrier"];

/// Collectives that need a halo-ish receiver to count (`begin`, `finish`
/// and `exchange` are too generic otherwise).
const HALO_COLLECTIVES: &[&str] = &["begin", "finish", "exchange", "exchange_lanes"];

/// Run SPMD002 over every function of a file (test code included — the
/// balanced-arms rule keeps legitimate rank-scripted tests quiet).
pub fn check(src: &SrcInfo<'_>, fns: &[FnItem], findings: &mut Vec<Finding>) {
    for f in fns {
        let tainted = tainted_names(&f.body);
        walk(src, &f.body, &tainted, None, findings);
    }
}

/// Seed + propagate the rank-taint set through `let` initializers.
fn tainted_names(body: &[Tree]) -> HashSet<String> {
    let mut tainted: HashSet<String> = HashSet::new();
    let mut lets: Vec<(Vec<String>, Vec<String>)> = Vec::new(); // (pattern, init idents)
    collect_lets(body, &mut lets);
    // Two passes are enough for the chains this codebase builds
    // (`let me = comm.rank(); let root = me == 0;`).
    for _ in 0..2 {
        for (pattern, init) in &lets {
            if init.iter().any(|n| is_rank_name(n) || tainted.contains(n)) {
                for p in pattern {
                    tainted.insert(p.clone());
                }
            }
        }
    }
    tainted
}

/// A name that denotes the calling rank's identity.
fn is_rank_name(name: &str) -> bool {
    name == "rank" || name == "is_root" || name == "myrank" || name.ends_with("_rank")
}

/// Collect `(pattern idents, initializer idents)` for every `let` in the
/// body, recursively.
fn collect_lets(items: &[Tree], out: &mut Vec<(Vec<String>, Vec<String>)>) {
    let mut i = 0;
    while i < items.len() {
        if items[i].is_ident("let") {
            let mut pattern = Vec::new();
            let mut j = i + 1;
            while j < items.len() && !items[j].is_punct(b'=') && !items[j].is_punct(b';') {
                collect_idents(&items[j..j + 1], &mut pattern);
                j += 1;
            }
            if j < items.len() && items[j].is_punct(b'=') {
                let mut init = Vec::new();
                let mut k = j + 1;
                while k < items.len() && !items[k].is_punct(b';') {
                    collect_idents(&items[k..k + 1], &mut init);
                    k += 1;
                }
                pattern.retain(|p| !matches!(p.as_str(), "mut" | "ref" | "box"));
                out.push((pattern, init));
                i = k;
                continue;
            }
            i = j;
        } else if let Tree::Group { items: g, .. } = &items[i] {
            collect_lets(g, out);
            i += 1;
        } else {
            i += 1;
        }
    }
}

fn collect_idents(items: &[Tree], out: &mut Vec<String>) {
    for t in items {
        match t {
            Tree::Leaf(tok) => {
                if let Some(n) = tok.ident() {
                    out.push(n.to_string());
                }
            }
            Tree::Group { items, .. } => collect_idents(items, out),
        }
    }
}

/// Recursive walk flagging collectives inside rank-divergent regions.
/// `diverged` carries the line of the enclosing rank-dependent condition.
fn walk(
    src: &SrcInfo<'_>,
    items: &[Tree],
    tainted: &HashSet<String>,
    diverged: Option<u32>,
    findings: &mut Vec<Finding>,
) {
    let mut i = 0;
    while i < items.len() {
        let t = &items[i];
        if t.is_ident("if") || t.is_ident("while") {
            let (header_end, body_idx) = header_span(items, i + 1);
            let header = &items[i + 1..header_end];
            let cond_tainted = mentions_tainted(header, tainted);
            let cond_line = t.line();
            let (arms, past, has_else) = branch_arms(items, body_idx);
            let inner = if cond_tainted && !t.is_ident("while") && arms_balanced(&arms, has_else) {
                diverged // balanced: all ranks agree, keep outer context
            } else if cond_tainted {
                Some(cond_line)
            } else {
                diverged
            };
            for (arm, _) in &arms {
                walk(src, arm, tainted, inner, findings);
            }
            i = past;
        } else if t.is_ident("for") {
            let (header_end, body_idx) = header_span(items, i + 1);
            let header = &items[i + 1..header_end];
            let inner = if mentions_tainted(header, tainted) {
                Some(t.line())
            } else {
                diverged
            };
            if let Some(Tree::Group { items: g, .. }) = items.get(body_idx) {
                walk(src, g, tainted, inner, findings);
                i = body_idx + 1;
            } else {
                i += 1;
            }
        } else if t.is_ident("match") {
            let (header_end, body_idx) = header_span(items, i + 1);
            let header = &items[i + 1..header_end];
            let cond_tainted = mentions_tainted(header, tainted);
            let cond_line = t.line();
            if let Some(Tree::Group { items: g, .. }) = items.get(body_idx) {
                let arms = match_arms(g);
                let seqs: Vec<Vec<String>> = arms
                    .iter()
                    .map(|a| {
                        let mut s = Vec::new();
                        collective_sequence(a, &mut s);
                        s
                    })
                    .collect();
                let balanced = !seqs.is_empty() && seqs.iter().all(|s| *s == seqs[0]);
                let inner = if cond_tainted && !balanced {
                    Some(cond_line)
                } else {
                    diverged
                };
                for a in &arms {
                    walk(src, a, tainted, inner, findings);
                }
                i = body_idx + 1;
            } else {
                i += 1;
            }
        } else if let Some(name) = collective_at(items, i) {
            if let Some(cond_line) = diverged {
                let line = t.line();
                if !src.annotated(line, "collective-uniform") {
                    findings.push(Finding {
                        code: "SPMD002",
                        path: src.rel.to_string(),
                        line,
                        message: format!(
                            "collective `{name}` executes under a rank-dependent condition \
                             (line {cond_line}); all ranks must reach it or none — \
                             restructure, balance the arms, or annotate \
                             `// LINT: collective-uniform(<reason>)`"
                        ),
                    });
                }
            }
            i += 1;
        } else if let Tree::Group { items: g, .. } = t {
            walk(src, g, tainted, diverged, findings);
            i += 1;
        } else {
            i += 1;
        }
    }
}

/// `(header_end, body_idx)`: tokens `[start..header_end)` are the
/// condition; `body_idx` indexes the first non-pattern `{` group.
fn header_span(items: &[Tree], start: usize) -> (usize, usize) {
    let mut k = start;
    while k < items.len() {
        if items[k].is_group(b'{') && !matches!(items.get(k + 1), Some(n) if n.is_punct(b'=')) {
            return (k, k);
        }
        if items[k].is_punct(b';') {
            break;
        }
        k += 1;
    }
    (k, k)
}

/// Collect the arm blocks of an `if`/`else if`/`else` chain starting at
/// the `then` block. Walks nested `else if` headers for their own taint
/// (they are re-examined by the caller's recursive walk of each arm).
/// Returns `(arms, index_past_chain, has_final_else)`.
fn branch_arms(items: &[Tree], body_idx: usize) -> (Vec<(&[Tree], u32)>, usize, bool) {
    let mut arms: Vec<(&[Tree], u32)> = Vec::new();
    let mut k = body_idx;
    let mut has_else = false;
    while let Some(Tree::Group {
        delim: b'{',
        items: g,
        open_line,
        ..
    }) = items.get(k)
    {
        arms.push((g, *open_line));
        if matches!(items.get(k + 1), Some(t) if t.is_ident("else")) {
            match items.get(k + 2) {
                Some(Tree::Group { .. }) => {
                    has_else = true;
                    k += 2;
                    // final else block: captured by the loop head above
                    if let Some(Tree::Group {
                        delim: b'{',
                        items: g,
                        open_line,
                        ..
                    }) = items.get(k)
                    {
                        arms.push((g, *open_line));
                    }
                    k += 1;
                    break;
                }
                Some(t) if t.is_ident("if") => {
                    let (_, next_body) = header_span(items, k + 3);
                    k = next_body;
                }
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
    (arms, k.max(body_idx + 1), has_else)
}

/// Split a `match` body group into arm-body slices (brace arms yield the
/// group contents, expression arms the tokens up to the top-level `,`).
fn match_arms(g: &[Tree]) -> Vec<&[Tree]> {
    let mut arms = Vec::new();
    let mut p = 0;
    while p < g.len() {
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
        match g.get(body) {
            Some(Tree::Group {
                delim: b'{',
                items: arm,
                ..
            }) => {
                arms.push(arm.as_slice());
                p = body + 1;
                if matches!(g.get(p), Some(t) if t.is_punct(b',')) {
                    p += 1;
                }
            }
            Some(_) => {
                let mut r = body;
                while r < g.len() && !g[r].is_punct(b',') {
                    r += 1;
                }
                arms.push(&g[body..r]);
                p = r + 1;
            }
            None => break,
        }
    }
    arms
}

/// True when every arm (plus the implicit empty arm when there is no
/// `else`) performs the same collective sequence.
fn arms_balanced(arms: &[(&[Tree], u32)], has_else: bool) -> bool {
    let mut seqs: Vec<Vec<String>> = arms
        .iter()
        .map(|(a, _)| {
            let mut s = Vec::new();
            collective_sequence(a, &mut s);
            s
        })
        .collect();
    if !has_else {
        seqs.push(Vec::new());
    }
    !seqs.is_empty() && seqs.iter().all(|s| *s == seqs[0])
}

/// Ordered collective call names within `items`, recursively.
fn collective_sequence(items: &[Tree], out: &mut Vec<String>) {
    for (i, t) in items.iter().enumerate() {
        if let Some(name) = collective_at(items, i) {
            out.push(name.to_string());
        }
        if let Tree::Group { items: g, .. } = t {
            collective_sequence(g, out);
        }
    }
}

/// The collective name called at `items[at]`, if any.
fn collective_at(items: &[Tree], at: usize) -> Option<&str> {
    let name = items[at].ident()?;
    let called = at > 0
        && (items[at - 1].is_punct(b'.') || items[at - 1].is_punct(b':'))
        && matches!(items.get(at + 1), Some(g) if g.is_group(b'('));
    if !called {
        return None;
    }
    if COLLECTIVES.contains(&name) {
        return Some(name);
    }
    if HALO_COLLECTIVES.contains(&name) && receiver_is_halo(items, at) {
        return Some(name);
    }
    None
}

/// Same receiver heuristic as SPMD001: `ctx.halo.begin(…)`.
fn receiver_is_halo(items: &[Tree], at: usize) -> bool {
    let mut j = at.wrapping_sub(1);
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

fn mentions_tainted(items: &[Tree], tainted: &HashSet<String>) -> bool {
    items.iter().any(|t| match t {
        Tree::Leaf(tok) => tok
            .ident()
            .is_some_and(|n| is_rank_name(n) || tainted.contains(n)),
        Tree::Group { items, .. } => mentions_tainted(items, tainted),
    })
}
