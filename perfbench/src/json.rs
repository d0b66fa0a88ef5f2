//! The few JSON shapes the benchmark prints, written by hand (the
//! repository builds offline and carries no JSON library).

/// A JSON string literal.
pub fn string(s: &str) -> String {
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

/// A JSON number with every digit Rust prints for the value. Non-finite
/// values have no JSON form; callers never pass one.
pub fn number(value: f64) -> String {
    assert!(
        value.is_finite(),
        "non-finite value {value} has no JSON form"
    );
    format!("{value}")
}

/// `{"name": {"value": v, "unit": u}, ...}` in the given order.
pub fn metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                string(name),
                number(*value),
                string(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn metrics_render_in_order() {
        let rendered = metrics(&[("a_ms".into(), 1.25, "ms"), ("n".into(), 3.0, "count")]);
        assert_eq!(
            rendered,
            "{\"a_ms\":{\"value\":1.25,\"unit\":\"ms\"},\"n\":{\"value\":3,\"unit\":\"count\"}}"
        );
    }
}
