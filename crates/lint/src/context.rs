//! Per-file lint context: which crate a file belongs to, whether the
//! rules apply to it, and which byte regions are test code.

use crate::ast::Ast;
use crate::lexer::Lexed;

/// Library crates. UDM003, UDM005 and UDM006 cover their non-test
/// code, and each crate root declares clippy's panic lints for it.
pub const LIBRARY_CRATES: [&str; 7] = [
    "core",
    "kde",
    "microcluster",
    "cluster",
    "classify",
    "data",
    "serve",
];

/// How the rules treat one file.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Root-relative path (forward slashes), as shown in diagnostics.
    pub rel_path: String,
    /// Library-crate `src/` code (UDM003/UDM005/UDM006 apply).
    pub is_library: bool,
    /// Entire file is test/bench code (`tests/`, `benches/`, examples).
    pub is_test_file: bool,
    /// Byte ranges of `#[cfg(test)]` / `#[test]` items.
    pub test_regions: Vec<(usize, usize)>,
}

impl FileContext {
    /// Builds the context for a parsed file. Test regions come from the
    /// AST: exact item extents and full `cfg` predicate evaluation. In
    /// `fixture_mode` every file is treated as library non-test code so
    /// every rule fires.
    pub fn new(rel_path: &str, lexed: &Lexed, ast: &Ast, fixture_mode: bool) -> Self {
        let rel_path = rel_path.replace('\\', "/");
        let parts: Vec<&str> = rel_path.split('/').collect();
        let crate_name = if parts.len() >= 2 && parts[0] == "crates" {
            parts[1]
        } else {
            ""
        };
        let in_src = parts.contains(&"src");
        let is_test_file = !fixture_mode
            && (parts.contains(&"tests")
                || parts.contains(&"benches")
                || parts.contains(&"examples"));
        let mut test_regions = Vec::new();
        ast.visit_items(&mut |item, ancestors| {
            // Only the outermost test-gated item opens a region.
            if item.is_test_gated() && !ancestors.iter().any(|a| a.is_test_gated()) {
                let (s, e) = item.span;
                if let (Some(st), Some(et)) = (
                    lexed.toks.get(s),
                    e.checked_sub(1).and_then(|k| lexed.toks.get(k)),
                ) {
                    test_regions.push((st.start, et.end));
                }
            }
        });
        FileContext {
            is_library: fixture_mode || (in_src && LIBRARY_CRATES.contains(&crate_name)),
            is_test_file,
            test_regions,
            rel_path,
        }
    }

    /// True if the byte offset lies inside test code.
    pub fn in_test(&self, offset: usize) -> bool {
        self.is_test_file
            || self
                .test_regions
                .iter()
                .any(|&(s, e)| offset >= s && offset < e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn context(rel_path: &str, src: &str, fixture_mode: bool) -> FileContext {
        let l = lex(src);
        FileContext::new(rel_path, &l, &parse(&l), fixture_mode)
    }

    #[test]
    fn cfg_test_module_region_covers_body() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() { x.unwrap(); }\n}\nfn c() {}";
        let ctx = context("crates/core/src/x.rs", src, false);
        assert_eq!(ctx.test_regions.len(), 1);
        let unwrap_pos = src.find("unwrap").unwrap();
        assert!(ctx.in_test(unwrap_pos));
        assert!(!ctx.in_test(src.find("fn a").unwrap()));
        assert!(!ctx.in_test(src.find("fn c").unwrap()));
    }

    #[test]
    fn test_fn_attribute_region() {
        let src = "#[test]\nfn t() { y.unwrap(); }\nfn real() {}";
        let ctx = context("crates/kde/src/x.rs", src, false);
        assert!(ctx.in_test(src.find("y.unwrap").unwrap()));
        assert!(!ctx.in_test(src.find("fn real").unwrap()));
    }

    #[test]
    fn library_and_test_file_classification() {
        let c = context("crates/kde/src/estimator.rs", "", false);
        assert!(c.is_library && !c.is_test_file);
        let c = context("crates/cli/src/main.rs", "", false);
        assert!(!c.is_library);
        let c = context("crates/core/tests/int.rs", "", false);
        assert!(c.is_test_file);
    }

    #[test]
    fn fixture_mode_enables_everything() {
        let c = context("udm002.rs", "", true);
        assert!(c.is_library && !c.is_test_file);
    }

    #[test]
    fn derive_attributes_do_not_open_regions() {
        let src = "#[derive(Debug)]\nstruct S;\nfn f() { x.unwrap(); }";
        let ctx = context("crates/core/src/x.rs", src, false);
        assert!(ctx.test_regions.is_empty());
        assert!(!ctx.in_test(src.find("unwrap").unwrap()));
    }
}
