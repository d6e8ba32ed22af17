//! Statistics and process probes used to turn raw timings into metrics.

/// The median of `samples` (the mean of the two middle values for an even
/// count), or `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile value (nearest-rank).
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Number of samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// The fewest samples that must lie beyond a tail percentile before it is
/// reported; with fewer, the "percentile" is one or two unlucky samples.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, refused (`None`)
/// unless at least [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() || !(q > 0.0 && q < 1.0) {
        return None;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let beyond = samples.len() - rank;
    if beyond < MIN_SAMPLES_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: samples.len(),
        beyond,
    })
}

/// Parses the peak resident set size (`VmHWM`) out of a `/proc/<pid>/status`
/// text, in MiB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kib / 1024.0)
}

/// This process's peak resident set size in MiB, where the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Lowers this process's `VmHWM` to its current resident set size, where
/// the kernel allows it (Linux 4.0+), so that a later [`peak_rss_mb`] covers
/// only what ran since. Returns whether the reset took effect.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_reports_its_evidence() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = tail_percentile(&samples, 0.9).expect("ten samples beyond p90");
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.samples, 100);
        assert_eq!(p90.beyond, 10);
    }

    #[test]
    fn tail_percentile_refuses_thin_tails() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(tail_percentile(&samples, 0.9).is_none(), "only 9 beyond");
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&many, 0.99).map(|p| p.value), Some(990.0));
        assert!(tail_percentile(&many[..999], 0.99).is_none());
        assert!(tail_percentile(&many, 1.0).is_none());
    }

    #[test]
    fn vm_hwm_is_parsed_in_mib() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn this_process_reports_and_resets_its_peak_rss() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        let ballast = vec![1u8; 64 << 20];
        std::hint::black_box(&ballast);
        let before = peak_rss_mb().expect("VmHWM is reported");
        drop(ballast);
        if reset_peak_rss() {
            let after = peak_rss_mb().expect("VmHWM is reported");
            assert!(after < before - 32.0, "reset left {after} MiB of {before}");
        }
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in ["setup_s", "curation.dedup.busy_pct", "p50-ms", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "slash/y",
            "ü",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
