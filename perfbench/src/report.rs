//! Metric names and units, and the result line the benchmark prints.

use std::fmt::Write as _;

/// End-to-end metrics (untraced runs), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_s", "s"),
    ("turnaround_s", "s"),
    ("incremental_s", "s"),
    ("gate_cycles_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.parse_s", "s"),
    ("sdf.parse_s", "s"),
    ("wave.vcd_parse_s", "s"),
    ("wave.saif_write_s", "s"),
    ("graph.build_s", "s"),
    ("gpu.device_new_s", "s"),
    ("core.session_new_s", "s"),
    ("core.run_s", "s"),
    ("core.ns_per_toggle", "ns"),
    ("core.toggles", "count"),
    ("core.launches", "count"),
    ("core.segments", "count"),
    ("core.spill_run_s", "s"),
    ("core.waveform_rebuild_s", "s"),
    ("core.d2h_batches", "count"),
    ("core.d2h_bytes", "count"),
    ("core.incremental_s", "s"),
    ("core.plan_cache_hits", "count"),
    ("core.plan_cache_misses", "count"),
    ("core.cone_plan_hits", "count"),
    ("core.spec_hit_rate", "ratio"),
    ("core.overflow_repairs", "count"),
    ("power.classify_s", "s"),
    ("power.estimate_s", "s"),
    ("power.sta_s", "s"),
    ("power.flow_residual_s", "s"),
    ("refsim.run_s", "s"),
    ("refsim.speedup", "ratio"),
    ("trace.residual_s", "s"),
    ("trace.overhead_s", "s"),
    ("error_rate", "ratio"),
];

/// The unit of a known metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Formats a number with every digit `f64` carries (shortest round-trip
/// form), or `None` if it is not finite.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Median of `values` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `{"n", "min", "q1", "median", "q3", "max"}` of a sample set, quartiles
/// by the exclusive method of Python's `statistics.quantiles`.
pub fn summary(values: &[f64]) -> String {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return "{\"n\": 0}".to_string();
    }
    let quartile = |i: usize| {
        if n < 2 {
            return v[0];
        }
        let pos = (n + 1) as f64 * i as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    format!(
        "{{\"n\": {n}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}}}",
        json_number(v[0]),
        json_number(quartile(1)),
        json_number(median(&v)),
        json_number(quartile(3)),
        json_number(v[n - 1])
    )
}

/// The last line of the benchmark's output: correctness counts and the
/// metrics of the selected kind, each with its unit.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&'static str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let unit = unit_of(name).expect("metric names come from the tables above");
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn summary_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = summary(&[7.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(s.contains("\"q1\": 2, \"median\": 4, \"q3\": 6"), "{s}");
        let s = summary(&[4.0, 3.0, 2.0, 1.0]);
        assert!(
            s.contains("\"q1\": 1.25, \"median\": 2.5, \"q3\": 3.75"),
            "{s}"
        );
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_line(3, 0, &[("sim_s", 0.123456789012)]);
        assert!(line.contains("\"value\": 0.123456789012, \"unit\": \"s\""));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
    }
}
