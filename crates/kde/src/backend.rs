//! The one-value density-backend spec.
//!
//! Every density consumer in the workspace reads the fitted micro-cluster
//! mixture `udm_microcluster::MicroClusterKde` directly; there is no
//! backend to choose. [`BackendSpec`] stays only because the perf ledger
//! (`perfbench/`) names it.

use udm_core::{Result, UdmError};

/// Kept only because the perf ledger names it; `Exact` is its one value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BackendSpec {
    /// The fitted micro-cluster mixture — every pseudo-point, every query.
    #[default]
    Exact,
}

impl BackendSpec {
    /// Parses `exact`, the only spec.
    ///
    /// # Errors
    ///
    /// [`UdmError::InvalidConfig`] on anything else.
    pub fn parse(text: &str) -> Result<Self> {
        match text {
            "exact" => Ok(BackendSpec::Exact),
            other => Err(UdmError::InvalidConfig(format!(
                "unknown density backend `{other}` (expected exact)"
            ))),
        }
    }
}

impl std::fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("exact")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_and_validates() {
        assert_eq!(BackendSpec::parse("exact").unwrap(), BackendSpec::Exact);
        assert_eq!(BackendSpec::Exact.to_string(), "exact");
        for bad in [
            "",
            "fast",
            "Exact",
            " exact",
            "exact:1",
            "coreset",
            "coreset:0.1",
        ] {
            assert!(BackendSpec::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn removed_hbe_specs_are_rejected_with_the_grammar() {
        for removed in ["hbe", "hbe:0.2", "hbe:0.2,0.05", "coreset:0.1"] {
            let err = BackendSpec::parse(removed).unwrap_err().to_string();
            assert!(
                err.contains(&format!("unknown density backend `{removed}`"))
                    && err.contains("(expected exact)"),
                "`{removed}` → {err}"
            );
        }
    }
}
