//! The one `name@k=v,…` parser.
//!
//! Scenario specs (`clustered@pin=90,pcross=5`), the jitter network
//! model's suffix (`jitter:2,j=3,drop=50`) and the harness's manager
//! names (`Online-Dynamic@phi=2,c=8,n=16`) all carry the same
//! comma-separated `key=value` list. [`Params`] splits it once, rejects a
//! key given twice, hands out typed values, and — at
//! [`finish`](Params::finish) — rejects any key nobody asked for. Every
//! failure is a [`ParamError`] naming the full spec, which converts into
//! each builder's own typed error.

use std::fmt::Display;
use std::str::FromStr;

/// What is wrong with a `k=v,…` list, and in which spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamError {
    /// The full spec as given (base name + parameter list).
    pub spec: String,
    /// What exactly is wrong with the list.
    pub reason: String,
}

/// A parsed `k=v,…` list that tracks which keys were consumed.
#[derive(Debug)]
pub struct Params<'a> {
    spec: &'a str,
    /// `(key, value, consumed)` in input order.
    entries: Vec<(&'a str, &'a str, bool)>,
}

impl<'a> Params<'a> {
    /// Split `name@k=v,…` into the base name and its parameters. The base
    /// comes back even when the list is malformed, so a caller can report
    /// an unknown name ahead of a bad suffix.
    pub fn split(spec: &'a str) -> (&'a str, Result<Self, ParamError>) {
        match spec.split_once('@') {
            Some((base, list)) => (base, Self::list(spec, Some(list))),
            None => (spec, Self::list(spec, None)),
        }
    }

    /// Parse a bare `k=v,…` list belonging to `spec` (`None` = no list).
    /// Keys and values are trimmed; each key may appear at most once —
    /// `phi=2,phi=3` is almost certainly a typo, and letting the last
    /// value win would corrupt a sweep without any visible symptom.
    pub fn list(spec: &'a str, list: Option<&'a str>) -> Result<Self, ParamError> {
        let mut p = Params {
            spec,
            entries: Vec::new(),
        };
        for kv in list.into_iter().flat_map(|l| l.split(',')) {
            let Some((k, v)) = kv.split_once('=') else {
                return Err(p.error(format!("`{kv}` is not a `key=value` pair")));
            };
            let (k, v) = (k.trim(), v.trim());
            if p.entries.iter().any(|&(pk, _, _)| pk == k) {
                return Err(p.error(format!("duplicate parameter key `{k}`")));
            }
            p.entries.push((k, v, false));
        }
        Ok(p)
    }

    /// A [`ParamError`] about this spec.
    pub fn error(&self, reason: String) -> ParamError {
        ParamError {
            spec: self.spec.to_string(),
            reason,
        }
    }

    /// True when the spec carried no parameters at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value of `key` parsed as `T`, or `None` if the key is absent.
    pub fn get<T>(&mut self, key: &str) -> Result<Option<T>, ParamError>
    where
        T: FromStr,
        T::Err: Display,
    {
        let Some(entry) = self.entries.iter_mut().find(|e| e.0 == key) else {
            return Ok(None);
        };
        entry.2 = true;
        let v = entry.1;
        match v.parse() {
            Ok(t) => Ok(Some(t)),
            Err(e) => Err(self.error(format!("invalid value for `{key}`: {e} (`{v}`)"))),
        }
    }

    /// Integer value of `key`, or `default` when absent.
    pub fn u64_or(&mut self, key: &str, default: u64) -> Result<u64, ParamError> {
        Ok(self.get(key)?.unwrap_or(default))
    }

    /// `key` as a whole percentage (0–100) turned into a probability;
    /// `default` percent when absent.
    pub fn pct_or(&mut self, key: &str, default: u64) -> Result<f64, ParamError> {
        let v = self.u64_or(key, default)?;
        if v > 100 {
            return Err(self.error(format!("`{key}` is a percentage, max 100 (got {v})")));
        }
        Ok(v as f64 / 100.0)
    }

    /// Done reading: any key nobody consumed is unknown.
    pub fn finish(self) -> Result<(), ParamError> {
        match self.entries.iter().find(|e| !e.2) {
            Some(&(k, _, _)) => Err(self.error(format!("unknown parameter key `{k}`"))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_and_hands_out_typed_values() {
        let (base, p) = Params::split("Online-Dynamic@phi=0.5, n = 16");
        let mut p = p.unwrap();
        assert_eq!(base, "Online-Dynamic");
        assert!(!p.is_empty());
        assert_eq!(p.get::<f64>("phi").unwrap(), Some(0.5));
        assert_eq!(p.get::<usize>("n").unwrap(), Some(16));
        assert_eq!(p.get::<f64>("c").unwrap(), None);
        assert_eq!(p.u64_or("s", 64).unwrap(), 64);
        p.finish().unwrap();

        let (base, p) = Params::split("fig2-shape");
        assert_eq!(base, "fig2-shape");
        assert!(p.unwrap().is_empty());
    }

    #[test]
    fn every_malformation_names_spec_and_key() {
        let reason = |spec: &'static str| {
            let (base, p) = Params::split(spec);
            assert_eq!(base, "x", "the base survives a bad list");
            let e = p
                .and_then(|mut p| {
                    p.pct_or("k", 0)?;
                    p.finish()
                })
                .unwrap_err();
            assert_eq!(e.spec, spec);
            e.reason
        };
        assert!(reason("x@").contains("not a `key=value` pair"));
        assert!(reason("x@k").contains("`k` is not a `key=value` pair"));
        assert!(reason("x@k=1,k=2").contains("duplicate parameter key `k`"));
        assert!(reason("x@bogus=1").contains("unknown parameter key `bogus`"));
        assert!(reason("x@k=abc").contains("invalid value for `k`"));
        assert!(reason("x@k=101").contains("max 100"));
    }
}
