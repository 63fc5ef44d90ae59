//! The density-backend spec shared by the CLI and the HTTP API.
//!
//! Every density consumer in the workspace — the subspace classifier's
//! roll-up oracle, the serving daemon's batcher and request handlers,
//! the CLI drills — reads one estimator type, the micro-cluster mixture
//! `udm_microcluster::MicroClusterKde`. [`BackendSpec`] picks *which*
//! mixture answers:
//!
//! | spec | rows read per query | error |
//! |------|---------------------|-------|
//! | `Exact` | all `q` pseudo-points | none — the fitted mixture itself |
//! | `Coreset { eps }` | `q' ≤ q` merged pseudo-points | certified `L∞ ≤ eps · f_max` on every subspace |
//!
//! The coreset reduction lives in `udm_microcluster::backend` (it needs
//! the micro-cluster estimator, which this crate cannot see); this
//! module owns the spec grammar (`exact | coreset:EPS`) and the
//! per-backend query metrics.

use serde::{Deserialize, Serialize};
use udm_core::{Result, UdmError};

/// Which micro-cluster mixture a consumer reads, with its accuracy knob.
/// Parsed from / rendered to the shared CLI & HTTP grammar
/// `exact | coreset:EPS`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum BackendSpec {
    /// The exact micro-cluster mixture — every pseudo-point, every query.
    #[default]
    Exact,
    /// Deterministic coreset: pseudo-points greedily merged while a
    /// certified `L∞` error budget of `eps · f_max` holds, where
    /// `f_max` bounds the peak density of every subspace marginal.
    Coreset {
        /// Relative `L∞` budget in `(0, 1)`.
        eps: f64,
    },
}

impl BackendSpec {
    /// The backend's short name — the metrics key and the display/parse
    /// discriminant.
    pub fn name(&self) -> &'static str {
        match self {
            BackendSpec::Exact => "exact",
            BackendSpec::Coreset { .. } => "coreset",
        }
    }

    /// Validates the accuracy knob.
    ///
    /// # Errors
    ///
    /// [`UdmError::InvalidConfig`] when `eps` leaves `(0, 1)`.
    pub fn validate(&self) -> Result<()> {
        match self {
            BackendSpec::Exact => Ok(()),
            BackendSpec::Coreset { eps } if eps.is_finite() && *eps > 0.0 && *eps < 1.0 => Ok(()),
            BackendSpec::Coreset { eps } => Err(UdmError::InvalidConfig(format!(
                "backend eps must be in (0, 1), got {eps}"
            ))),
        }
    }

    /// Parses the shared spec grammar: `exact` or `coreset:EPS`.
    ///
    /// # Errors
    ///
    /// [`UdmError::InvalidConfig`] on an unknown backend name, a
    /// malformed number, or `eps` outside `(0, 1)`.
    pub fn parse(text: &str) -> Result<Self> {
        let bad = |msg: String| UdmError::InvalidConfig(msg);
        let (head, args) = match text.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (text, None),
        };
        let spec = match (head.trim(), args) {
            ("exact", None) => BackendSpec::Exact,
            ("exact", Some(_)) => {
                return Err(bad(format!(
                    "backend spec `{text}`: exact takes no arguments"
                )))
            }
            ("coreset", Some(a)) => BackendSpec::Coreset {
                eps: a
                    .trim()
                    .parse::<f64>()
                    .map_err(|_| bad(format!("backend spec `{text}`: bad eps `{a}`")))?,
            },
            ("coreset", None) => {
                return Err(bad(format!("backend spec `{text}`: coreset needs `:EPS`")))
            }
            (other, _) => {
                return Err(bad(format!(
                    "unknown density backend `{other}` (expected exact | coreset:EPS)"
                )))
            }
        };
        spec.validate()?;
        Ok(spec)
    }
}

impl std::fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendSpec::Exact => write!(f, "exact"),
            BackendSpec::Coreset { eps } => write!(f, "coreset:{eps}"),
        }
    }
}

/// Records one answered query under `spec`: the per-backend query
/// counter and latency histogram (`udm_backend_{exact,coreset}_…`).
/// Consumers call it once per answered query, not per density read.
pub fn record_query(spec: &BackendSpec, seconds: f64) {
    match spec {
        BackendSpec::Exact => {
            udm_observe::counter_inc!("udm_backend_exact_queries_total");
            udm_observe::histogram_observe!("udm_backend_exact_query_seconds", seconds);
        }
        BackendSpec::Coreset { .. } => {
            udm_observe::counter_inc!("udm_backend_coreset_queries_total");
            udm_observe::histogram_observe!("udm_backend_coreset_query_seconds", seconds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_and_validates() {
        assert_eq!(BackendSpec::parse("exact").unwrap(), BackendSpec::Exact);
        assert_eq!(
            BackendSpec::parse("coreset:0.1").unwrap(),
            BackendSpec::Coreset { eps: 0.1 }
        );
        for bad in [
            "",
            "fast",
            "coreset",
            "coreset:",
            "coreset:2.0",
            "coreset:nan",
            "exact:1",
        ] {
            assert!(BackendSpec::parse(bad).is_err(), "accepted `{bad}`");
        }
        for spec in [BackendSpec::Exact, BackendSpec::Coreset { eps: 0.25 }] {
            let text = spec.to_string();
            assert_eq!(BackendSpec::parse(&text).unwrap(), spec, "via `{text}`");
        }
    }

    #[test]
    fn removed_hbe_specs_are_rejected_with_the_grammar() {
        for removed in ["hbe", "hbe:0.2", "hbe:0.2,0.05"] {
            let err = BackendSpec::parse(removed).unwrap_err().to_string();
            assert!(
                err.contains("unknown density backend `hbe`")
                    && err.contains("exact | coreset:EPS"),
                "`{removed}` → {err}"
            );
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(BackendSpec::Exact.name(), "exact");
        assert_eq!(BackendSpec::Coreset { eps: 0.1 }.name(), "coreset");
    }

    #[test]
    fn record_query_touches_registry() {
        record_query(&BackendSpec::Exact, 0.001);
        record_query(&BackendSpec::Coreset { eps: 0.1 }, 0.001);
        let snap = udm_observe::Snapshot::capture();
        if udm_observe::enabled() {
            for name in [
                "udm_backend_exact_queries_total",
                "udm_backend_coreset_queries_total",
            ] {
                assert!(snap.counters.iter().any(|c| c.name == name), "{name}");
            }
        }
    }
}
