//! Order statistics and the derived metrics the benchmark reports. Pure
//! functions over plain numbers, so each derivation is unit-tested apart
//! from the simulator.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of `values`. Returns 0 for an
/// empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `part / whole`, or 0 when `whole` is 0 (a ratio with no base).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// A rate pooled over several inputs: total work over total time.
pub fn pooled_rate(work: &[f64], walls: &[f64]) -> f64 {
    ratio(work.iter().sum(), walls.iter().sum())
}

/// Share of the lockstep oracle's time not spent in the out-of-order core:
/// one minus (OoO-only `run_case` time / `diff_case` time), both summed
/// over the cases the oracle compared. 0 when it compared none.
pub fn lockstep_share(ooo_only_us: f64, diff_us: f64) -> f64 {
    if diff_us == 0.0 {
        0.0
    } else {
        1.0 - ooo_only_us / diff_us
    }
}

/// Engine cost not spent inside a layer call: the 1-worker `run_corpus`
/// wall minus the summed per-case layer time of the same corpus.
pub fn engine_overhead_us(wall_1_worker_us: f64, layer_sum_us: f64) -> f64 {
    wall_1_worker_us - layer_sum_us
}

/// Parallel speed-up: wall at one worker over wall at `nproc` workers.
pub fn speedup(wall_1_worker_us: f64, wall_n_workers_us: f64) -> f64 {
    ratio(wall_1_worker_us, wall_n_workers_us)
}

/// Online scan cost of the streaming checker: simulate time with the
/// checker attached as a trace sink minus the same runs without it.
pub fn online_scan_us(with_sink_us: f64, without_sink_us: f64) -> f64 {
    with_sink_us - without_sink_us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn ratios_have_a_zero_base_fallback() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(speedup(300.0, 200.0), 1.5);
    }

    #[test]
    fn pooled_rate_weights_inputs_by_their_time() {
        // 585 cases in 0.1 s and 585 in 0.3 s: 1170 / 0.4 s, not the mean
        // of 5850/s and 1950/s.
        assert!((pooled_rate(&[585.0, 585.0], &[0.1, 0.3]) - 2925.0).abs() < 1e-9);
        assert_eq!(pooled_rate(&[], &[]), 0.0);
    }

    #[test]
    fn lockstep_share_is_the_non_ooo_part_of_diff_time() {
        // diff_case took 600 µs, the OoO core alone 150 µs: 75% is lockstep.
        assert!((lockstep_share(150.0, 600.0) - 0.75).abs() < 1e-12);
        assert_eq!(lockstep_share(0.0, 0.0), 0.0);
        assert_eq!(lockstep_share(10.0, 10.0), 0.0);
    }

    #[test]
    fn overheads_are_plain_differences() {
        assert_eq!(engine_overhead_us(1_000.0, 900.0), 100.0);
        assert_eq!(online_scan_us(1_050.0, 1_000.0), 50.0);
        // Noise may make either negative; it is reported, not clamped.
        assert_eq!(engine_overhead_us(900.0, 1_000.0), -100.0);
    }
}
