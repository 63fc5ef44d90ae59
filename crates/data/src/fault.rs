//! Deterministic fault injection for streaming ingest.
//!
//! Real uncertain-data sources are exactly the ones that emit garbage:
//! sensors report NaN after a brownout, imputation pipelines mislabel a
//! column and produce negative or absurdly inflated ψ, collectors replay
//! or reorder batches, and UDP-style transports truncate and drop
//! records. The uncertain-mining literature stresses that error models in
//! the wild are misspecified, so the ingest path must be exercised
//! against corrupted input rather than assume clean ψ.
//!
//! [`FaultyStream`] wraps any materialized record source and injects a
//! configurable, seeded mix of faults, producing [`RawRecord`]s — the
//! *unvalidated* wire form of a stream record, which (unlike
//! [`UncertainPoint`]) is allowed to hold non-finite cells, negative
//! errors and wrong arity. The quarantine policy engine in
//! `udm-microcluster` consumes these records and decides per record to
//! accept, repair, quarantine or reject.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use udm_core::{ClassLabel, Result, UdmError, UncertainDataset, UncertainPoint};

/// A stream record *before* validation: the wire form of an arrival.
///
/// Unlike [`UncertainPoint`], nothing is guaranteed: values may be
/// non-finite, errors negative or non-finite, and the arity may disagree
/// with the stream's dimensionality. [`RawRecord::into_point`] performs
/// the validating conversion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawRecord {
    /// Position in the stream (0-based); stable across fault injection so
    /// recovery drills can replay "every record with `seq > k`".
    pub seq: u64,
    /// Claimed arrival timestamp (may be duplicated or out of order).
    pub timestamp: u64,
    /// Cell values (possibly NaN/±∞, possibly truncated).
    pub values: Vec<f64>,
    /// Cell errors ψ (possibly negative, non-finite or truncated).
    pub errors: Vec<f64>,
    /// Class label, if the source was labelled.
    pub label: Option<ClassLabel>,
}

impl RawRecord {
    /// Wraps a clean point as a raw record with stream position `seq`.
    pub fn from_point(seq: u64, point: &UncertainPoint) -> Self {
        RawRecord {
            seq,
            timestamp: point.timestamp(),
            values: point.values().to_vec(),
            errors: point.errors().to_vec(),
            label: point.label(),
        }
    }

    /// Validating conversion into an [`UncertainPoint`].
    ///
    /// # Errors
    ///
    /// Exactly the [`UncertainPoint::new`] invariants: equal arity,
    /// finite values, finite non-negative errors.
    pub fn into_point(self) -> Result<UncertainPoint> {
        let mut p = UncertainPoint::new(self.values, self.errors)?.with_timestamp(self.timestamp);
        if let Some(l) = self.label {
            p = p.with_label(l);
        }
        Ok(p)
    }
}

/// The corruption modes [`FaultyStream`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultKind {
    /// One cell value becomes NaN.
    NanCell,
    /// One cell value becomes ±∞.
    InfCell,
    /// One cell error ψ becomes negative.
    NegativeError,
    /// One cell error ψ is multiplied by a huge factor.
    InflatedError,
    /// The record claims the same timestamp as its predecessor.
    DuplicateTimestamp,
    /// The record claims a timestamp earlier than its predecessor.
    OutOfOrderTimestamp,
    /// Trailing cells are cut off (arity mismatch).
    Truncated,
    /// The record and its next `burst_len − 1` successors vanish.
    BurstDrop,
}

impl FaultKind {
    /// Every fault kind, in declaration order.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::NanCell,
        FaultKind::InfCell,
        FaultKind::NegativeError,
        FaultKind::InflatedError,
        FaultKind::DuplicateTimestamp,
        FaultKind::OutOfOrderTimestamp,
        FaultKind::Truncated,
        FaultKind::BurstDrop,
    ];

    /// Stable snake_case name (report keys, CLI output).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::NanCell => "nan_cell",
            FaultKind::InfCell => "inf_cell",
            FaultKind::NegativeError => "negative_error",
            FaultKind::InflatedError => "inflated_error",
            FaultKind::DuplicateTimestamp => "duplicate_timestamp",
            FaultKind::OutOfOrderTimestamp => "out_of_order_timestamp",
            FaultKind::Truncated => "truncated",
            FaultKind::BurstDrop => "burst_drop",
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "ALL contains every variant by construction"
    )]
    fn index(self) -> usize {
        FaultKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind in ALL")
    }
}

/// Which faults to inject, how often, and how hard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Per-record probability of injecting *some* fault, in `[0, 1]`.
    pub rate: f64,
    /// Relative weight of each [`FaultKind`] (indexed as
    /// [`FaultKind::ALL`], so always 8 entries); kinds with weight 0
    /// never fire. Weights need not sum to 1.
    pub weights: Vec<f64>,
    /// Records removed per [`FaultKind::BurstDrop`] event (≥ 1).
    pub burst_len: usize,
    /// Multiplier applied by [`FaultKind::InflatedError`] (> 1).
    pub inflation: f64,
}

impl FaultPlan {
    /// A plan injecting every fault kind with equal weight at `rate`.
    pub fn uniform(rate: f64) -> Self {
        FaultPlan {
            rate,
            weights: vec![1.0; 8],
            burst_len: 3,
            inflation: 1e6,
        }
    }

    /// A plan injecting only `kind` at `rate`.
    pub fn only(kind: FaultKind, rate: f64) -> Self {
        let mut weights = vec![0.0; 8];
        weights[kind.index()] = 1.0;
        FaultPlan {
            rate,
            weights,
            burst_len: 3,
            inflation: 1e6,
        }
    }

    fn validate(&self) -> Result<()> {
        if !(self.rate.is_finite() && (0.0..=1.0).contains(&self.rate)) {
            return Err(UdmError::InvalidValue {
                what: "fault rate",
                value: self.rate,
            });
        }
        if self.weights.len() != FaultKind::ALL.len() {
            return Err(UdmError::InvalidConfig(format!(
                "fault plan needs {} weights, got {}",
                FaultKind::ALL.len(),
                self.weights.len()
            )));
        }
        let total: f64 = self.weights.iter().sum();
        if self.weights.iter().any(|&w| !(w.is_finite() && w >= 0.0)) || total <= 0.0 {
            return Err(UdmError::InvalidConfig(
                "fault weights must be finite, non-negative and not all zero".into(),
            ));
        }
        if self.burst_len == 0 {
            return Err(UdmError::InvalidConfig(
                "burst_len must be at least 1".into(),
            ));
        }
        if !(self.inflation.is_finite() && self.inflation > 1.0) {
            return Err(UdmError::InvalidValue {
                what: "error inflation factor",
                value: self.inflation,
            });
        }
        Ok(())
    }
}

/// Count of injected faults per kind, plus records dropped entirely.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultLog {
    counts: Vec<u64>,
    /// Records removed from the stream by burst drops.
    pub dropped: u64,
}

impl Default for FaultLog {
    fn default() -> Self {
        FaultLog {
            counts: vec![0; FaultKind::ALL.len()],
            dropped: 0,
        }
    }
}

impl FaultLog {
    /// Number of injection events of `kind`.
    pub fn count(&self, kind: FaultKind) -> u64 {
        self.counts.get(kind.index()).copied().unwrap_or(0)
    }

    /// Total injection events across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl std::fmt::Display for FaultLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} faults injected (", self.total())?;
        let mut first = true;
        for kind in FaultKind::ALL {
            let c = self.count(kind);
            if c > 0 {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{} {}", kind.name(), c)?;
                first = false;
            }
        }
        write!(f, "), {} records dropped", self.dropped)
    }
}

/// A seeded fault-injecting adapter over a materialized record source.
///
/// The source order is preserved; `seq` numbers refer to the *clean*
/// stream, so a downstream consumer can correlate faulty arrivals with
/// their pristine originals (and recovery drills can replay exact tails).
///
/// # Example
///
/// ```
/// use udm_core::UncertainPoint;
/// use udm_core::UncertainDataset;
/// use udm_data::fault::{FaultKind, FaultPlan, FaultyStream};
///
/// let data = UncertainDataset::from_points(
///     (0..50).map(|i| UncertainPoint::exact(vec![i as f64]).unwrap()).collect(),
/// ).unwrap();
/// let stream = FaultyStream::new(&data, FaultPlan::only(FaultKind::NanCell, 0.2), 7).unwrap();
/// let (records, log) = stream.records();
/// assert_eq!(records.len(), 50); // NanCell corrupts in place, drops nothing
/// assert!(log.count(FaultKind::NanCell) > 0);
/// assert!(records.iter().any(|r| r.values.iter().any(|v| v.is_nan())));
/// ```
#[derive(Debug, Clone)]
pub struct FaultyStream {
    source: Vec<RawRecord>,
    plan: FaultPlan,
    seed: u64,
}

impl FaultyStream {
    /// Wraps a dataset (ordered as a stream) with a validated fault plan.
    ///
    /// # Errors
    ///
    /// [`UdmError::InvalidConfig`] / [`UdmError::InvalidValue`] for an
    /// invalid plan.
    pub fn new(source: &UncertainDataset, plan: FaultPlan, seed: u64) -> Result<Self> {
        plan.validate()?;
        let records = source
            .iter()
            .enumerate()
            .map(|(i, p)| RawRecord::from_point(i as u64, p))
            .collect();
        Ok(FaultyStream {
            source: records,
            plan,
            seed,
        })
    }

    /// Wraps pre-built raw records (e.g. a replayed tail).
    ///
    /// # Errors
    ///
    /// As [`FaultyStream::new`].
    pub fn from_records(source: Vec<RawRecord>, plan: FaultPlan, seed: u64) -> Result<Self> {
        plan.validate()?;
        Ok(FaultyStream { source, plan, seed })
    }

    /// Number of records in the clean source.
    pub fn source_len(&self) -> usize {
        self.source.len()
    }

    /// Materializes the faulty stream. Deterministic in the seed: calling
    /// twice yields identical records and log.
    pub fn records(&self) -> (Vec<RawRecord>, FaultLog) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut log = FaultLog::default();
        let mut out: Vec<RawRecord> = Vec::with_capacity(self.source.len());
        let mut drop_remaining = 0usize;
        let total_w: f64 = self.plan.weights.iter().sum();
        for rec in &self.source {
            // Consume the per-record draw unconditionally so the fault
            // positions of kind A are unchanged by toggling kind B.
            let fault_draw = rng.gen::<f64>();
            let kind_draw = rng.gen::<f64>() * total_w;
            if drop_remaining > 0 {
                drop_remaining -= 1;
                log.dropped += 1;
                continue;
            }
            if fault_draw >= self.plan.rate {
                out.push(rec.clone());
                continue;
            }
            let mut pick = kind_draw;
            let mut kind = FaultKind::BurstDrop;
            for k in FaultKind::ALL {
                let w = self.plan.weights[k.index()];
                if pick < w {
                    kind = k;
                    break;
                }
                pick -= w;
            }
            log.counts[kind.index()] += 1;
            let mut rec = rec.clone();
            let dim = rec.values.len();
            let cell = if dim == 0 { 0 } else { rng.gen_range(0..dim) };
            match kind {
                FaultKind::NanCell => {
                    if dim > 0 {
                        rec.values[cell] = f64::NAN;
                    }
                }
                FaultKind::InfCell => {
                    if dim > 0 {
                        rec.values[cell] = if rng.gen::<f64>() < 0.5 {
                            f64::INFINITY
                        } else {
                            f64::NEG_INFINITY
                        };
                    }
                }
                FaultKind::NegativeError => {
                    if dim > 0 {
                        rec.errors[cell] = -(rec.errors[cell].abs() + rng.gen::<f64>() + 0.1);
                    }
                }
                FaultKind::InflatedError => {
                    if dim > 0 {
                        rec.errors[cell] = (rec.errors[cell].abs() + 1.0) * self.plan.inflation;
                    }
                }
                FaultKind::DuplicateTimestamp => {
                    if let Some(prev) = out.last() {
                        rec.timestamp = prev.timestamp;
                    }
                }
                FaultKind::OutOfOrderTimestamp => {
                    let jump = rng.gen_range(1..51u64);
                    rec.timestamp = rec.timestamp.saturating_sub(jump);
                }
                FaultKind::Truncated => {
                    let keep = if dim == 0 { 0 } else { rng.gen_range(0..dim) };
                    rec.values.truncate(keep);
                    rec.errors.truncate(keep);
                }
                FaultKind::BurstDrop => {
                    drop_remaining = self.plan.burst_len - 1;
                    log.dropped += 1;
                    continue;
                }
            }
            out.push(rec);
        }
        (out, log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(n: usize) -> UncertainDataset {
        UncertainDataset::from_points(
            (0..n)
                .map(|i| {
                    UncertainPoint::new(vec![i as f64, -(i as f64)], vec![0.1, 0.2])
                        .unwrap()
                        .with_label(ClassLabel((i % 2) as u32))
                        .with_timestamp(i as u64)
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn zero_rate_is_identity() {
        let d = clean(40);
        let s = FaultyStream::new(&d, FaultPlan::uniform(0.0), 1).unwrap();
        let (records, log) = s.records();
        assert_eq!(log.total(), 0);
        assert_eq!(log.dropped, 0);
        assert_eq!(records.len(), 40);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.clone().into_point().unwrap(), *d.point(i));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let d = clean(200);
        let s = FaultyStream::new(&d, FaultPlan::uniform(0.3), 11).unwrap();
        let (a, la) = s.records();
        let (b, lb) = s.records();
        assert_eq!(la, lb);
        // RawRecord is PartialEq but NaN != NaN, so compare bit patterns.
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seq, y.seq);
            assert_eq!(x.timestamp, y.timestamp);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x.values), bits(&y.values));
            assert_eq!(bits(&x.errors), bits(&y.errors));
        }
        let other = FaultyStream::new(&d, FaultPlan::uniform(0.3), 12).unwrap();
        let (_, lc) = other.records();
        assert_ne!(la, lc);
    }

    #[test]
    fn each_kind_produces_its_signature() {
        let d = clean(400);
        let case = |kind: FaultKind| {
            let s = FaultyStream::new(&d, FaultPlan::only(kind, 0.25), 5).unwrap();
            let (records, log) = s.records();
            assert!(log.count(kind) > 0, "{kind:?} never fired");
            (records, log)
        };

        let (records, _) = case(FaultKind::NanCell);
        assert!(records.iter().any(|r| r.values.iter().any(|v| v.is_nan())));

        let (records, _) = case(FaultKind::InfCell);
        assert!(records
            .iter()
            .any(|r| r.values.iter().any(|v| v.is_infinite())));

        let (records, _) = case(FaultKind::NegativeError);
        assert!(records.iter().any(|r| r.errors.iter().any(|e| *e < 0.0)));

        let (records, _) = case(FaultKind::InflatedError);
        assert!(records.iter().any(|r| r.errors.iter().any(|e| *e > 1e5)));

        let (records, _) = case(FaultKind::Truncated);
        assert!(records.iter().any(|r| r.values.len() < 2));

        let (records, log) = case(FaultKind::BurstDrop);
        assert!(log.dropped > 0);
        assert!(records.len() < 400);
        assert_eq!(records.len() as u64 + log.dropped, 400);

        let (records, _) = case(FaultKind::DuplicateTimestamp);
        let dup = records.windows(2).any(|w| w[0].timestamp == w[1].timestamp);
        assert!(dup, "no duplicated timestamps");

        let (records, _) = case(FaultKind::OutOfOrderTimestamp);
        let ooo = records.windows(2).any(|w| w[1].timestamp < w[0].timestamp);
        assert!(ooo, "no out-of-order timestamps");
    }

    #[test]
    fn seq_numbers_survive_injection() {
        let d = clean(300);
        let s = FaultyStream::new(&d, FaultPlan::uniform(0.4), 9).unwrap();
        let (records, _) = s.records();
        // seq strictly increasing (drops leave gaps, never reorders).
        assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn labels_are_preserved() {
        let d = clean(50);
        let s = FaultyStream::new(&d, FaultPlan::only(FaultKind::NanCell, 0.5), 3).unwrap();
        let (records, _) = s.records();
        assert!(records.iter().all(|r| r.label.is_some()));
    }

    #[test]
    fn invalid_plans_rejected() {
        let d = clean(5);
        assert!(FaultyStream::new(&d, FaultPlan::uniform(1.5), 0).is_err());
        assert!(FaultyStream::new(&d, FaultPlan::uniform(f64::NAN), 0).is_err());
        let mut p = FaultPlan::uniform(0.1);
        p.weights = vec![0.0; 8];
        assert!(FaultyStream::new(&d, p, 0).is_err());
        let mut p = FaultPlan::uniform(0.1);
        p.weights = vec![1.0; 3];
        assert!(FaultyStream::new(&d, p, 0).is_err());
        let mut p = FaultPlan::uniform(0.1);
        p.burst_len = 0;
        assert!(FaultyStream::new(&d, p, 0).is_err());
        let mut p = FaultPlan::uniform(0.1);
        p.inflation = 0.5;
        assert!(FaultyStream::new(&d, p, 0).is_err());
    }

    #[test]
    fn raw_record_point_roundtrip_and_validation() {
        let p = UncertainPoint::new(vec![1.0], vec![0.5])
            .unwrap()
            .with_label(ClassLabel(3))
            .with_timestamp(42);
        let r = RawRecord::from_point(7, &p);
        assert_eq!(r.seq, 7);
        assert_eq!(r.clone().into_point().unwrap(), p);

        let mut bad = r.clone();
        bad.values[0] = f64::NAN;
        assert!(bad.into_point().is_err());
        let mut bad = r.clone();
        bad.errors[0] = -1.0;
        assert!(bad.into_point().is_err());
        let mut bad = r;
        bad.errors.pop();
        assert!(bad.into_point().is_err());
    }

    #[test]
    fn fault_log_display_lists_kinds() {
        let d = clean(200);
        let s = FaultyStream::new(&d, FaultPlan::only(FaultKind::NanCell, 0.3), 2).unwrap();
        let (_, log) = s.records();
        let text = log.to_string();
        assert!(text.contains("nan_cell"), "{text}");
        assert!(text.contains("records dropped"), "{text}");
    }
}
