//! Order statistics over measured samples.

/// Nearest-rank percentile (`p` in `[0, 100]`) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Mean of the middle half: the values between the quartiles, with
/// `len / 4` dropped at each end.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let v = sorted(values);
    let middle = &v[v.len() / 4..v.len() - v.len() / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Quantile `q` in `[0, 1]` of a fixed-bucket histogram, linearly
/// interpolated inside the bucket that holds it. `counts` has one more
/// entry than `bounds` (the `+Inf` bucket, reported at the last bound).
pub fn bucket_quantile(bounds: &[f64], counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = q * total as f64;
    let mut seen = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        let next = seen + c as f64;
        if next >= target && c > 0 {
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
            let hi = bounds.get(i).copied().unwrap_or(lo);
            return lo + (hi - lo) * ((target - seen) / c as f64);
        }
        seen = next;
    }
    bounds.last().copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(interquartile_mean(&[9.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(interquartile_mean(&[4.0]), 4.0);
    }

    #[test]
    fn bucket_interpolation() {
        let bounds = [1.0, 2.0];
        assert_eq!(bucket_quantile(&bounds, &[0, 10, 0], 0.5), 1.5);
        assert_eq!(bucket_quantile(&bounds, &[0, 0, 0], 0.5), 0.0);
    }
}
