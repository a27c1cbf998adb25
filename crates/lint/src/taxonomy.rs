//! R4 — taxonomy completeness, the cross-file structural rule.
//!
//! Every mechanism has exactly one public provider-taking entry, its
//! `*_into` function (`run_into`, `run_top_k_into`, `measure_split_into`):
//! the one copy of its decision loop, with the caller passing in the noise
//! provider. Each core type that exposes one must:
//!
//! 1. expose **only one** — a second public `*_into` entry is the fan-out
//!    of drifting copies this rule exists to stop from growing back (the
//!    Chen–Machanavajjhala hazard: variants that drift apart lose their
//!    privacy guarantee), and
//! 2. appear in the `scratch_equivalence` suite (otherwise nothing proves
//!    the entry bit-identical to the reference across providers).
//!
//! Exemptions use the same allow syntax as the token rules:
//! `// lint:allow(taxonomy): reason` on (or above) the `fn` line takes
//! that entry out of the inventory, and a file-level
//! `// lint:allow-file(taxonomy): reason` skips a whole file (the broken
//! zoo is an attack target, not a served mechanism).

use crate::allow;
use crate::lexer::{lex, Token, TokenKind};
use crate::{Diagnostic, Rule};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// One public `*_into` entry found in the core sources.
#[derive(Debug)]
struct IntoFn {
    name: String,
    file: PathBuf,
    line: u32,
}

/// Everything R4 extracts from the tree before cross-checking.
#[derive(Debug, Default)]
pub struct Inventory {
    /// type name → its public `*_into` entries, in source order.
    types: BTreeMap<String, Vec<IntoFn>>,
    /// Identifiers appearing in the equivalence suite.
    equivalence_idents: Vec<String>,
}

impl Inventory {
    /// Sorted list of mechanism type names exposing a public `*_into`
    /// entry — the seed for the exhaustiveness test that pins today's
    /// taxonomy.
    pub fn mechanism_types(&self) -> Vec<String> {
        self.types.keys().cloned().collect()
    }
}

/// Collects the inventory from the core sources and the equivalence suite.
pub fn inventory(core_src: &Path, equivalence: &Path) -> io::Result<Inventory> {
    let mut inv = Inventory::default();
    for file in crate::rust_files(core_src)? {
        collect_into_fns(&file, &mut inv)?;
    }
    let eq_src = std::fs::read_to_string(equivalence)?;
    inv.equivalence_idents = lex(&eq_src)
        .tokens
        .into_iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text)
        .collect();
    Ok(inv)
}

/// Runs the cross-checks over a collected inventory.
pub fn check(inv: &Inventory, equivalence: &Path, out: &mut Vec<Diagnostic>) {
    let mut flag = |file: &Path, line: u32, message: String| {
        out.push(Diagnostic {
            file: file.to_path_buf(),
            line,
            rule: Rule::Taxonomy,
            allow: crate::AllowState::None,
            message,
        });
    };
    for (ty, fns) in &inv.types {
        let Some(first) = fns.first() else { continue };
        for extra in &fns[1..] {
            flag(
                &extra.file,
                extra.line,
                format!(
                    "`{ty}::{}` is a second public provider-taking entry beside \
                     `{ty}::{}`: each mechanism keeps one `_into` entry and callers \
                     pass the provider (drifting copies lose the privacy proof)",
                    extra.name, first.name
                ),
            );
        }
        if !inv.equivalence_idents.iter().any(|i| i == ty) {
            flag(
                &first.file,
                first.line,
                format!(
                    "`{ty}` exposes `{}` but never appears in the scratch_equivalence \
                     suite ({}): nothing proves it bit-identical to the reference",
                    first.name,
                    equivalence.display()
                ),
            );
        }
    }
}

/// Collects the public `fn *_into` entries per impl type from one file.
fn collect_into_fns(path: &Path, inv: &mut Inventory) -> io::Result<()> {
    let src = std::fs::read_to_string(path)?;
    let lexed = lex(&src);
    let allows = allow::parse(&lexed.comments);
    if allows.is_allowed(Rule::Taxonomy, u32::MAX) {
        // File-level allow: nothing in this file participates in R4.
        return Ok(());
    }
    let toks = &lexed.tokens;
    let is_ident = |k: usize, text: &str| toks[k].kind == TokenKind::Ident && toks[k].text == text;
    let mut i = 0usize;
    while i < toks.len() {
        if is_ident(i, "impl") {
            if let Some((ty, body_start)) = parse_impl_header(toks, i + 1) {
                let body_end = matching_brace(toks, body_start);
                for j in body_start + 1..body_end.saturating_sub(1) {
                    // `pub fn name` only: `pub(crate) fn` ends in `)`.
                    if is_ident(j - 1, "pub")
                        && is_ident(j, "fn")
                        && toks[j + 1].kind == TokenKind::Ident
                        && toks[j + 1].text.ends_with("_into")
                        && !allows.is_allowed(Rule::Taxonomy, toks[j].line)
                    {
                        inv.types.entry(ty.clone()).or_default().push(IntoFn {
                            name: toks[j + 1].text.clone(),
                            file: path.to_path_buf(),
                            line: toks[j].line,
                        });
                    }
                }
                i = body_end;
                continue;
            }
        }
        i += 1;
    }
    Ok(())
}

/// Parses an impl header starting right after the `impl` token. Returns the
/// implemented type's name (the path after `for` when present, the
/// self-type otherwise) and the index of the body's `{`.
fn parse_impl_header(toks: &[Token], mut i: usize) -> Option<(String, usize)> {
    // Skip `<generics>` (angle depth; impl headers contain no `->`).
    if matches!(toks.get(i).map(|t| &t.kind), Some(TokenKind::Punct('<'))) {
        let mut depth = 0i32;
        while i < toks.len() {
            match toks[i].kind {
                TokenKind::Punct('<') => depth += 1,
                TokenKind::Punct('>') => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    let mut ty: Option<String> = None;
    let mut depth = 0i32;
    while i < toks.len() {
        match &toks[i].kind {
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') => depth -= 1,
            TokenKind::Punct('{') if depth <= 0 => return ty.map(|t| (t, i)),
            TokenKind::Ident if depth <= 0 => {
                let t = toks[i].text.as_str();
                if t == "for" {
                    ty = None; // the self-type follows; restart capture
                } else if t == "where" {
                    // bounds only from here on; keep the captured type
                } else if ty.is_none() && t != "dyn" {
                    ty = Some(t.to_string());
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impl_header_variants_resolve_the_self_type() {
        let cases = [
            ("impl NoisyTopKWithGap { }", "NoisyTopKWithGap"),
            (
                "impl<R: Rng + ?Sized> DrawProvider for ScratchDraws<'_, R> { }",
                "ScratchDraws",
            ),
            ("impl Default for SvtScratch { }", "SvtScratch"),
            ("impl<T> Foo<T> where T: Clone { }", "Foo"),
        ];
        for (src, want) in cases {
            let toks = lex(src).tokens;
            let (ty, _) = parse_impl_header(&toks, 1).expect(src);
            assert_eq!(ty, want, "{src}");
        }
    }
}
