//! Reader for the flat JSON objects this crate writes one field per line
//! (repro records and serve reports): no nesting, no arrays.

use std::fmt::Display;
use std::str::FromStr;

/// A flat JSON object as raw `(key, value)` pairs, in document order.
pub(crate) struct FlatObject(Vec<(String, String)>);

impl FlatObject {
    /// Split `text` into its fields. Returns the first unparseable line.
    pub(crate) fn parse(text: &str) -> Result<Self, String> {
        let mut fields = Vec::new();
        for line in text.lines() {
            let line = line.trim().trim_end_matches(',');
            if line.is_empty() || line == "{" || line == "}" {
                continue;
            }
            let Some((k, v)) = line.split_once(':') else {
                return Err(format!("unparseable line {line:?}"));
            };
            let k = k
                .trim()
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .ok_or_else(|| format!("bad key in line {line:?}"))?;
            fields.push((k.to_string(), v.trim().to_string()));
        }
        Ok(FlatObject(fields))
    }

    /// The raw value text of field `k`.
    fn raw(&self, k: &str) -> Result<&str, String> {
        self.0
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing field {k:?}"))
    }

    /// Field `k` as a string (its quotes removed).
    pub(crate) fn str(&self, k: &str) -> Result<String, String> {
        let v = self.raw(k)?;
        v.strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .map(str::to_string)
            .ok_or_else(|| format!("field {k:?} is not a string: {v}"))
    }

    /// Field `k` parsed as a number or boolean.
    pub(crate) fn get<T: FromStr>(&self, k: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.raw(k)?
            .parse::<T>()
            .map_err(|e| format!("field {k:?}: {e}"))
    }
}
