//! A small `--flag value` argument parser (keeps `clap` out of the
//! dependency tree).

use std::collections::BTreeMap;

/// Parsed command-line flags: `--key value` pairs plus positional words.
#[derive(Clone, Debug, Default)]
pub struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

/// Errors from flag parsing and typed access.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` had no following value.
    MissingValue(String),
    /// A required flag is absent.
    Required(String),
    /// A flag value failed to parse as the requested type.
    Invalid {
        flag: String,
        value: String,
        expected: &'static str,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "flag --{flag} expects a value"),
            ArgError::Required(flag) => write!(f, "missing required flag --{flag}"),
            ArgError::Invalid {
                flag,
                value,
                expected,
            } => {
                write!(f, "--{flag} {value:?}: expected {expected}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse a word list where the named `switches` are boolean flags that
    /// take no value (`--verbose`); every other `--flag` consumes the
    /// following word, which must not itself start with `--`. Query
    /// switches with [`Args::has`].
    pub fn parse_with_switches(words: &[String], switches: &[&str]) -> Result<Self, ArgError> {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut iter = words.iter();
        while let Some(word) = iter.next() {
            if let Some(name) = word.strip_prefix("--") {
                if switches.contains(&name) {
                    flags.insert(name.to_string(), "true".to_string());
                } else {
                    // A following `--word` is the next flag, not a value:
                    // a stale or mistyped switch must fail, not eat it.
                    let value = iter
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| ArgError::MissingValue(name.to_string()))?;
                    flags.insert(name.to_string(), value.clone());
                }
            } else {
                positional.push(word.clone());
            }
        }
        Ok(Self { flags, positional })
    }

    /// Whether a boolean switch was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// Positional (non-flag) words.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Raw string flag, if present.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// Required string flag.
    pub fn required(&self, flag: &str) -> Result<&str, ArgError> {
        self.get(flag)
            .ok_or_else(|| ArgError::Required(flag.to_string()))
    }

    /// Typed flag with a default when absent.
    pub fn get_parsed_or<T: std::str::FromStr>(
        &self,
        flag: &str,
        default: T,
    ) -> Result<T, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::Invalid {
                flag: flag.to_string(),
                value: raw.to_string(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(s: &[&str]) -> Vec<String> {
        s.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = Args::parse_with_switches(
            &words(&["--seed", "7", "graph.txt", "--scale", "small"]),
            &[],
        )
        .unwrap();
        assert_eq!(a.get("seed"), Some("7"));
        assert_eq!(a.get("scale"), Some("small"));
        assert_eq!(a.positional(), &["graph.txt".to_string()]);
        assert_eq!(a.get_parsed_or("seed", 0u64).unwrap(), 7);
        assert_eq!(a.get_parsed_or("missing", 42u64).unwrap(), 42);
    }

    #[test]
    fn switches_take_no_value() {
        let a = Args::parse_with_switches(
            &words(&["--verbose", "--seed", "7", "--out-of-core", "g.store"]),
            &["verbose", "out-of-core"],
        )
        .unwrap();
        assert!(a.has("verbose"));
        assert!(a.has("out-of-core"));
        assert!(!a.has("absent"));
        assert_eq!(a.get("seed"), Some("7"));
        assert_eq!(a.positional(), &["g.store".to_string()]);
        // A trailing switch is fine; a trailing value flag still errors.
        assert!(Args::parse_with_switches(&words(&["--verbose"]), &["verbose"]).is_ok());
        assert_eq!(
            Args::parse_with_switches(&words(&["--seed"]), &["verbose"]).unwrap_err(),
            ArgError::MissingValue("seed".into())
        );
    }

    #[test]
    fn a_flag_never_takes_the_next_flag_as_its_value() {
        // An unknown switch (say one a release removed) before a real one.
        let err = Args::parse_with_switches(
            &words(&["--in", "g.store", "--prefetch", "--verbose"]),
            &["verbose"],
        )
        .unwrap_err();
        assert_eq!(err, ArgError::MissingValue("prefetch".into()));
        assert_eq!(err.to_string(), "flag --prefetch expects a value");
        // Single-dash values such as negative numbers still parse.
        let a = Args::parse_with_switches(&words(&["--shift", "-0.5"]), &[]).unwrap();
        assert_eq!(a.get_parsed_or("shift", 0.0f32).unwrap(), -0.5);
    }

    #[test]
    fn reports_missing_value_and_bad_types() {
        assert_eq!(
            Args::parse_with_switches(&words(&["--seed"]), &[]).unwrap_err(),
            ArgError::MissingValue("seed".into())
        );
        let a = Args::parse_with_switches(&words(&["--seed", "abc"]), &[]).unwrap();
        assert!(matches!(
            a.get_parsed_or("seed", 0u64),
            Err(ArgError::Invalid { .. })
        ));
        assert_eq!(
            a.required("nope").unwrap_err(),
            ArgError::Required("nope".into())
        );
    }
}
