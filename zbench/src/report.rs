//! What a run prints: every metric by name with its unit (and sample
//! count), then — as the last line of standard output — the one JSON
//! object the driver reads.

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How the value was reduced (`median of 40`, `exact`, …).
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, note: impl Into<String>) -> Self {
        Metric { name, unit, value, note: note.into() }
    }
}

/// Prints `metrics` as an aligned table under `title`.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in metrics {
        println!("  {:<width$}  {:>16} {:<6} {}", m.name, format_value(m.value), m.unit, m.note);
    }
}

/// All digits the measurement has, and never exponent notation (Rust's
/// `Display` for `f64` prints the shortest string that round-trips).
fn format_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The driver's result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                zaatar_obs::json::escape(m.name),
                format_value(m.value),
                zaatar_obs::json::escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_exactly_the_contract_keys() {
        let metrics = vec![
            Metric::new("setup_s", "s", 0.812_7, "median of 3"),
            Metric::new("wire_bytes_per_instance", "B", 475_466.0, "exact"),
            Metric::new("tiny", "s", 1.25e-7, ""),
        ];
        let line = result_line(true, 40, 0, &metrics);
        assert!(!line.contains('\n'));
        let parsed = zaatar_obs::json::parse(&line).unwrap();
        let obj = parsed.as_object().unwrap();
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(obj["correct"].as_bool(), Some(true));
        assert_eq!(obj["attempted"].as_u64(), Some(40));
        let m = obj["metrics"].as_object().unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m["setup_s"].as_object().unwrap()["value"].as_f64(), Some(0.8127));
        assert_eq!(m["tiny"].as_object().unwrap()["value"].as_f64(), Some(1.25e-7));
        assert_eq!(m["wire_bytes_per_instance"].as_object().unwrap()["unit"].as_str(), Some("B"));
    }

    #[test]
    fn non_finite_values_never_reach_the_result_line() {
        let line = result_line(false, 1, 1, &[Metric::new("x", "s", f64::NAN, "")]);
        assert!(zaatar_obs::json::parse(&line).is_ok());
    }
}
