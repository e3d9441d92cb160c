//! Percentiles and the hand-written JSON the results are printed as (the
//! workspace carries no JSON crate).

/// Nearest-rank percentile of ascending `sorted`; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = ((p * sorted.len() as f64).ceil() as usize).max(1);
    sorted.get(rank.min(sorted.len()) - 1).copied()
}

/// Median of ascending `sorted`.
pub fn median(sorted: &[f64]) -> Option<f64> {
    percentile(sorted, 0.5)
}

/// Latencies of one request kind: successful round trips plus failed or
/// refused requests, which rank above every success.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    ok_us: Vec<f64>,
    failed: usize,
}

impl Latencies {
    pub fn push(&mut self, micros: f64, ok: bool) {
        if ok {
            self.ok_us.push(micros);
        } else {
            self.failed += 1;
        }
    }

    pub fn samples(&self) -> usize {
        self.ok_us.len() + self.failed
    }

    /// Nearest-rank percentile over every attempt.  A rank that lands on a
    /// failed request reads `censor_us` — the whole timed run, since the
    /// request never delivered within it — so fixing a failure can only
    /// lower a percentile, never read as a latency regression.
    pub fn percentile(&mut self, p: f64, censor_us: f64) -> f64 {
        self.ok_us.sort_by(f64::total_cmp);
        let n = self.samples();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
        self.ok_us.get(rank - 1).copied().unwrap_or(censor_us)
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (never expected) print as 0.
pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn failures_rank_above_successes() {
        let mut l = Latencies::default();
        for i in 1..=98 {
            l.push(f64::from(i), true);
        }
        l.push(1.0, false);
        l.push(1.0, false);
        assert_eq!(l.percentile(0.5, 1e6), 50.0);
        assert_eq!(l.percentile(0.99, 1e6), 1e6);
    }
}
