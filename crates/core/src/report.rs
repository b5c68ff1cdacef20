//! The byte-stable JSON layout every golden and `BENCH_*.json` artefact
//! in the workspace is written in ([`json_pretty`]), with the scalar
//! renderers it is fed from.

pub use distmsm_telemetry::export::{json_num, json_str};

/// One top-level member of a [`json_pretty`] document. Scalars arrive
/// already rendered ([`json_str`], [`json_num`], `to_string`).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonField {
    /// A scalar value.
    Scalar(String),
    /// An array of scalars, rendered inline: `[a, b, c]`.
    Inline(Vec<String>),
    /// An array of objects, one inline `{"k": v, ...}` per line.
    Rows(Vec<Vec<(&'static str, String)>>),
}

/// The byte-stable artefact layout every golden and `BENCH_*.json` in
/// the tree shares: one top-level key per line in the given order,
/// scalar arrays inline, arrays of objects one inline object per line,
/// no trailing newline.
pub fn json_pretty(members: &[(&str, JsonField)]) -> String {
    let lines: Vec<String> = members
        .iter()
        .map(|(key, field)| {
            let value = match field {
                JsonField::Scalar(v) => v.clone(),
                JsonField::Inline(items) => format!("[{}]", items.join(", ")),
                JsonField::Rows(rows) => {
                    let rows: Vec<String> = rows
                        .iter()
                        .map(|row| {
                            let kv: Vec<String> =
                                row.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
                            format!("    {{{}}}", kv.join(", "))
                        })
                        .collect();
                    let end = if rows.is_empty() { "" } else { "\n" };
                    format!("[\n{}{end}  ]", rows.join(",\n"))
                }
            };
            format!("  {}: {value}", json_str(key))
        })
        .collect();
    format!("{{\n{}\n}}", lines.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_pretty_is_the_golden_layout() {
        use JsonField::{Inline, Rows, Scalar};
        let doc = json_pretty(&[
            ("kind", Scalar(json_str("t\"x"))),
            ("nan", Scalar(json_num(f64::NAN))),
            ("ids", Inline(vec!["1".into(), "2".into()])),
            ("none", Inline(Vec::new())),
            ("rows", Rows(vec![vec![("a", "1".into()), ("b", "true".into())], vec![("a", "2".into())]])),
            ("empty", Rows(Vec::new())),
        ]);
        assert_eq!(
            doc,
            "{\n  \"kind\": \"t\\\"x\",\n  \"nan\": 0,\n  \"ids\": [1, 2],\n  \"none\": [],\n  \
             \"rows\": [\n    {\"a\": 1, \"b\": true},\n    {\"a\": 2}\n  ],\n  \"empty\": [\n  ]\n}"
        );
    }
}
